"""The engine's context build against the one-primary-at-a-time reference.

Contexts are built from one direction-table pass and one array pass per
topological level: closed-form breakpoints, one sampling call and one
guard over each level's memo misses.  Grids and their times, dominance
bounds, input slacks and every primary row must equal what the
per-victim, per-primary build computed bit for bit, and the memo must
count hits and misses as if primaries were looked up one at a time.
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


def _check_contexts(design, mode):
    engine = TopKEngine(design, mode, TopKConfig())
    reference = reference_primary_build(engine)
    assert list(reference) == list(engine.contexts)
    for net, ctx in engine.contexts.items():
        grid, ub, inputs, rows = reference[net]
        assert ctx.grid == grid
        assert np.array_equal(ctx.grid.times, np.linspace(grid.t_start, grid.t_end, grid.n))
        assert ctx.interval.hi == ctx.t50 + ub + 1e-9
        assert list(ctx.inputs.items()) == list(inputs.items())
        assert [info.coupling.index for info in ctx.primary_info] == [c for c, _ in rows]
        for info, (_, row) in zip(ctx.primary_info, rows):
            assert info.sampled.tobytes() == row.tobytes()


@pytest.mark.parametrize("mode", [ADDITION, ELIMINATION])
def test_contexts_match_the_reference(design, mode):
    _check_contexts(design, mode)


@pytest.mark.bench
@pytest.mark.parametrize("mode", [ADDITION, ELIMINATION])
@pytest.mark.parametrize("name", [f"i{n}" for n in range(1, 11)])
def test_paper_circuit_contexts_match_the_reference(name, mode):
    _check_contexts(make_paper_benchmark(name, seed=1), mode)


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
