"""Keyed caches: accounting, eviction, read-only discipline, engine use."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import TopKConfig, TopKEngine
from repro.perf.memo import (
    EnvelopeMemo,
    KeyedCache,
    counter_delta,
    global_cache,
    grid_key,
    readonly,
)


class TestKeyedCache:
    def test_hit_miss_accounting(self):
        cache = KeyedCache("t")
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_get_or_computes_once(self):
        cache = KeyedCache("t")
        calls = []
        for _ in range(3):
            cache.get_or("k", lambda: calls.append(1) or "v")
        assert len(calls) == 1
        assert cache.hits == 2 and cache.misses == 1

    def test_fifo_eviction(self):
        cache = KeyedCache("t", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert len(cache) == 2

    def test_overwrite_does_not_evict(self):
        cache = KeyedCache("t", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert "b" in cache and cache.get("a") == 10

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            KeyedCache("t", max_entries=0)

    def test_clear_keeps_counters(self):
        cache = KeyedCache("t")
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1


class TestHelpers:
    def test_readonly_blocks_writes(self):
        arr = readonly(np.zeros(4))
        with pytest.raises(ValueError):
            arr[0] = 1.0

    def test_counter_delta_drops_unchanged(self):
        base = {"a": {"hits": 2, "misses": 1, "entries": 5}}
        now = {
            "a": {"hits": 5, "misses": 1, "entries": 9},
            "b": {"hits": 0, "misses": 0, "entries": 0},
        }
        delta = counter_delta(now, base)
        assert delta == {"a": {"hits": 3, "misses": 0}}

    def test_global_cache_is_singleton(self):
        assert global_cache("x-test") is global_cache("x-test")


class TestEngineMemo:
    def test_shared_memo_warms_second_engine(self, small_design):
        memo = EnvelopeMemo()
        e1 = TopKEngine(small_design, "addition", TopKConfig(), memo=memo)
        e1.solve(2)
        miss_after_first = memo.primary_env.misses
        e2 = TopKEngine(small_design, "addition", TopKConfig(), memo=memo)
        e2.solve(2)
        # The second build re-samples nothing: every primary envelope is
        # already keyed in the shared memo.
        assert memo.primary_env.misses == miss_after_first
        assert memo.primary_env.hits > 0

    def test_stats_carry_cache_counters(self, small_design):
        eng = TopKEngine(small_design, "addition", TopKConfig())
        sol = eng.solve(2)
        for name in ("pulse", "primary_env"):
            assert name in sol.stats.cache_hits
            assert name in sol.stats.cache_misses
        rates = sol.stats.cache_rates()
        assert all(0.0 <= r <= 1.0 for r in rates.values())

    def test_grid_key_distinguishes_grids(self, small_design):
        eng = TopKEngine(small_design, "addition", TopKConfig())
        keys = {grid_key(ctx.grid) for ctx in eng.contexts.values()}
        assert len(keys) > 1
