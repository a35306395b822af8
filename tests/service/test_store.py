"""The persistent store: round trips, corruption, memo merging."""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro.api import analyze
from repro.noise.pulse import NoisePulse
from repro.perf.memo import EnvelopeMemo, MemoSnapshot, readonly
from repro.service.protocol import JobSpec
from repro.service.serialize import results_equal
from repro.service.store import ResultStore, StoreCorruptError


@pytest.fixture()
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


def _solved(design, k=2, **kwargs):
    return analyze(design, k, **kwargs)


class TestResultRoundTrip:
    def test_put_get_bit_exact(self, store, tiny_design):
        spec = JobSpec(gates=12, seed=3, k=2)
        key = spec.store_key(tiny_design)
        result = _solved(tiny_design)
        assert store.get_result(key) is None  # cold
        store.put_result(key, result, tiny_design)
        back = store.get_result(key)
        assert back is not None
        assert results_equal(result, back)
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)

    def test_same_question_same_key_different_question_different_key(
        self, store, tiny_design
    ):
        a = JobSpec(gates=12, seed=3, k=2)
        b = JobSpec(gates=12, seed=3, k=2, deadline_s=1.0, priority=5)
        c = JobSpec(gates=12, seed=3, k=3)
        # budget and priority are execution detail, not identity
        assert a.store_key(tiny_design) == b.store_key(tiny_design)
        assert a.store_key(tiny_design) != c.store_key(tiny_design)
        # memo sharing ignores k entirely
        assert a.design_key(tiny_design) == c.design_key(tiny_design)

    def test_design_source_is_part_of_the_identity(self, tiny_design):
        """Same shape, different content (seed) must never share keys."""
        a = JobSpec(gates=12, seed=3, k=2)
        b = JobSpec(gates=12, seed=4, k=2)
        da, db = a.build_design(), b.build_design()
        assert a.store_key(da) != b.store_key(db)
        assert a.design_key(da) != b.design_key(db)


class TestCorruption:
    def test_truncated_entry_quarantined(self, store, tiny_design):
        spec = JobSpec(gates=12, seed=3, k=1)
        key = spec.store_key(tiny_design)
        store.put_result(key, _solved(tiny_design, 1), tiny_design)
        path = store.result_path(key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"version": 1, "result":')  # torn write at rest
        with pytest.raises(StoreCorruptError):
            store.get_result(key)
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert store.stats().corrupt == 1
        # the key is repopulatable after quarantine
        store.put_result(key, _solved(tiny_design, 1), tiny_design)
        assert store.get_result(key) is not None

    def test_digest_mismatch_detected(self, store, tiny_design):
        spec = JobSpec(gates=12, seed=3, k=1)
        key = spec.store_key(tiny_design)
        store.put_result(key, _solved(tiny_design, 1), tiny_design)
        path = store.result_path(key)
        with open(path, encoding="utf-8") as fh:
            envelope = json.load(fh)
        envelope["result"]["delay"] = 123.456  # bit-flip the answer
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(envelope, fh)
        with pytest.raises(StoreCorruptError):
            store.get_result(key)
        assert store.stats().corrupt == 1

    def test_damaged_memo_is_a_miss_not_a_failure(self, store):
        path = store.memo_path("deadbeef")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json at all")
        assert store.get_memo("deadbeef") is None
        assert os.path.exists(path + ".corrupt")


def _memo_with(entries):
    memo = EnvelopeMemo()
    for key, value in entries:
        memo.pulse.put(key, value)
    return memo


class TestMemoSnapshots:
    def test_freeze_thaw_snapshot_round_trip(self, store):
        memo = EnvelopeMemo()
        memo.pulse.put(("v1", 3, 0.25), NoisePulse(0.4, 0.1, 0.6, 0.05))
        env_key = (0.4, 0.1, 0.6, 0.05, 0.0, 1.0, 0.0, 0.0, 2.0, 8)
        memo.primary_env.put(env_key, readonly(np.linspace(0.0, 1.0, 8)))
        memo.primary_env.put(("v1", "agg", 7), 0.125)
        snap = memo.freeze()
        assert snap.entry_count() == 3
        store.put_memo("d1", snap)
        back = store.get_memo("d1")
        assert back is not None
        thawed = EnvelopeMemo.thaw(back)
        assert thawed.pulse.get(("v1", 3, 0.25)) == NoisePulse(
            0.4, 0.1, 0.6, 0.05
        )
        env = thawed.primary_env.get(env_key)
        assert env is not None and not env.flags.writeable
        np.testing.assert_array_equal(env, np.linspace(0.0, 1.0, 8))
        assert thawed.primary_env.get(("v1", "agg", 7)) == 0.125

    def test_put_memo_merges_union_existing_wins(self, store):
        p1 = NoisePulse(0.1, 0.2, 0.3, 0.0)
        p2 = NoisePulse(0.5, 0.6, 0.7, 0.0)
        first = _memo_with([(("a", 1, 0.5), p1)]).freeze()
        second = _memo_with(
            [(("a", 1, 0.5), p2), (("b", 2, 0.5), p2)]
        ).freeze()
        store.put_memo("d1", first)
        store.put_memo("d1", second)
        merged = store.get_memo("d1")
        assert merged is not None
        entries = dict(merged.entries["pulse"])
        # collision: the existing entry wins (values are identical by
        # construction in real use; here they differ to prove the rule)
        assert entries[("a", 1, 0.5)] == p1
        assert entries[("b", 2, 0.5)] == p2

    def test_freeze_is_safe_under_concurrent_mutation(self):
        memo = EnvelopeMemo()
        stop = threading.Event()

        def hammer():
            i = 0
            while not stop.is_set():
                memo.pulse.put(("net", i % 64, 0.5), NoisePulse(0.1, 0.2, 0.3, 0.0))
                i += 1

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for _ in range(200):
                snap = memo.freeze()
                # every snapshot is internally consistent and serializable
                MemoSnapshot.from_json(snap.to_json())
        finally:
            stop.set()
            thread.join(timeout=10)

    def test_snapshot_json_round_trip_is_value_exact(self):
        memo = _memo_with([(("n", 9, 0.0625), NoisePulse(0.3, 0.1, 0.9, 0.2))])
        memo.primary_env.put(("n", "m", 1), 0.1 + 0.2)  # a float that needs repr care
        snap = memo.freeze()
        back = MemoSnapshot.from_json(json.loads(json.dumps(snap.to_json())))
        assert back.max_entries == snap.max_entries
        assert dict(back.entries["pulse"]) == dict(snap.entries["pulse"])
        assert dict(back.entries["primary_env"])[("n", "m", 1)] == 0.1 + 0.2

    def test_snapshot_with_an_ho_cache_still_warm_starts(self, store, small_design):
        """Snapshots once also carried an ``ho`` cache of widened
        higher-order envelopes.  A stored one must still load: the
        section is skipped, and the warm start answers exactly like a
        cold solve."""
        memo = EnvelopeMemo()
        analyze(small_design, 2, memo=memo)
        payload = memo.freeze().to_json()
        # the old layout: primary_env keys with a nonzero widening slot
        payload["caches"]["ho"] = [
            [raw_key[:6] + [0.25] + raw_key[7:], raw_value]
            for raw_key, raw_value in payload["caches"]["primary_env"]
        ]
        with open(store.memo_path("d1"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        back = store.get_memo("d1")
        assert back is not None
        assert set(back.entries) == {"pulse", "primary_env"}
        warm = EnvelopeMemo.thaw(back)
        result = analyze(small_design, 3, certify=True, memo=warm)
        assert warm.primary_env.hits > 0
        assert results_equal(result, analyze(small_design, 3, certify=True))
