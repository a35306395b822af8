"""The engine's primary build against the one-primary-at-a-time reference.

Each victim's context is built with closed-form breakpoints, one
sampling call and one guard over the victim's memo misses.  Grids,
dominance bounds and every primary row must equal what the per-primary
build computed bit for bit, and the memo must count hits and misses as
if primaries were looked up one at a time.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.circuit.generator import make_paper_benchmark, random_design
from repro.core.engine import ADDITION, ELIMINATION, TopKConfig, TopKEngine
from repro.perf.memo import EnvelopeMemo

from .reference import reference_primary_build


@pytest.fixture(
    scope="module",
    params=[(30, 60, 5), (45, 110, 11), (60, 90, 23)],
    ids=["g30", "g45", "g60"],
)
def design(request):
    gates, caps, seed = request.param
    return random_design(f"pb{seed}", n_gates=gates, target_caps=caps, seed=seed)


@pytest.mark.parametrize("mode", [ADDITION, ELIMINATION])
def test_contexts_match_the_reference(design, mode):
    engine = TopKEngine(design, mode, TopKConfig())
    reference = reference_primary_build(engine)
    assert list(reference) == list(engine.contexts)
    for net, ctx in engine.contexts.items():
        grid, ub, rows = reference[net]
        assert ctx.grid == grid
        assert ctx.interval.hi == ctx.t50 + ub + 1e-9
        assert [info.coupling.index for info in ctx.primary_info] == [c for c, _ in rows]
        for info, (_, row) in zip(ctx.primary_info, rows):
            assert np.array_equal(info.sampled, row)


def test_memo_counts_as_one_lookup_per_primary():
    # Paper circuits have victims with two primaries of the same pulse
    # and window: the second lookup of such a key must be a hit.
    design = make_paper_benchmark("i1")
    memo = EnvelopeMemo()
    engine = TopKEngine(design, ADDITION, TopKConfig(), memo=memo)
    repeats = 0
    for ctx in engine.contexts.values():
        keys = collections.Counter((i.pulse, i.window) for i in ctx.primary_info)
        repeats += sum(count - 1 for count in keys.values())
    stats = memo.primary_env.stats()
    assert repeats > 0
    assert stats["hits"] == repeats
    assert stats["misses"] == stats["entries"] == engine.stats.primary_aggressors - repeats
    warm = TopKEngine(design, ADDITION, TopKConfig(), memo=memo)
    assert memo.primary_env.stats()["misses"] == stats["misses"]
    for net, ctx in warm.contexts.items():
        for a, b in zip(ctx.primary_info, engine.contexts[net].primary_info):
            assert np.array_equal(a.sampled, b.sampled)
