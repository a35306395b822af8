"""The level sweep against the per-victim reference sweep.

The engine generates and scores the candidate pools of a whole run of
victims (a topological level) at once, then lets each victim take its
turn: ticks, faults, dedupe and dominance.  ``ReferenceEngine`` in
``reference.py`` sweeps one victim at a time.  The two must agree on
every I-list (couplings, scores, labels, envelope bytes), on the
enumeration counters, on the prune log and on the certificate bytes, and
every fault or budget event must happen at the same victim with the same
outcome.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro.circuit.generator import make_paper_benchmark, random_design
from repro.core.engine import ADDITION, ELIMINATION, TopKConfig, TopKEngine
from repro.core.topk import top_k_set
from repro.runtime import FaultSpec, injected
from repro.runtime.budget import RunBudget
from repro.runtime.errors import BudgetExceededError, WaveformFaultError
from repro.runtime.faultinject import FaultInjector

from .reference import ReferenceEngine

MODES = (ADDITION, ELIMINATION)


def _lists(engine):
    return {
        net: {
            i: [
                (sorted(s.couplings), sorted(s.blocked), s.score, s.label, s.env.tobytes())
                for s in lst
            ]
            for i, lst in sorted(ctx.ilists.items())
        }
        for net, ctx in engine.contexts.items()
    }


def _prunes(engine):
    return [
        (s.net, s.cardinality, sorted(s.dominator.couplings), s.dominator.score, s.score)
        for s in engine.prune_log.summaries()
    ]


def _state(engine):
    stats = engine.stats
    return {
        "lists": _lists(engine),
        "counters": stats.core_counters(),
        "prunes": _prunes(engine),
    }


def _certified(cls, design, mode, ks, config=None):
    """Certified solves at each k in ``ks`` on one engine: the engine
    state and certificate bytes after each."""
    config = config or TopKConfig(certify=True)
    engine = cls(design, mode, config)
    out = []
    for k in ks:
        result = top_k_set(design, k, mode, config, engine=engine)
        cert = json.dumps(result.certificate.to_json(), sort_keys=True)
        out.append((k, _state(engine), cert, sorted(result.couplings), result.delay))
    return engine, out


def _assert_same(design, mode, ks, config=None):
    engine, got = _certified(TopKEngine, design, mode, ks, config)
    _, want = _certified(ReferenceEngine, design, mode, ks, config)
    for (k, state, cert, couplings, delay), (_, ref_state, ref_cert, ref_c, ref_d) in zip(
        got, want
    ):
        assert state["counters"] == ref_state["counters"], k
        assert state["lists"] == ref_state["lists"], k
        assert state["prunes"] == ref_state["prunes"], k
        assert (couplings, delay) == (ref_c, ref_d), k
        assert cert == ref_cert, k
    return engine


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shape", ["i1", "i2", "i3"])
def test_matches_the_reference(shape, mode):
    engine = _assert_same(make_paper_benchmark(shape), mode, range(1, 6))
    # The paper circuits' runs are their levels, the sink alone last.
    runs = engine._runs()
    assert len(runs) < len(engine.contexts) / 3
    assert [ctx.net for ctx in runs[-1].ctxs] == ["__sink__"]
    for run in runs[:-1]:
        assert len({engine.graph.level[ctx.net] for ctx in run.ctxs}) == 1


@pytest.mark.parametrize("mode", MODES)
def test_matches_the_reference_in_small_victim_groups(mode, monkeypatch):
    # A run with more rows than _LEVEL_ROWS is generated and scored in
    # several victim groups; force many groups.
    monkeypatch.setattr(engine_module, "_LEVEL_ROWS", 40)
    _assert_same(make_paper_benchmark("i1"), mode, range(1, 4))


@pytest.mark.bench
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shape", [f"i{n}" for n in range(1, 11)])
def test_matches_the_reference_on_every_paper_circuit(shape, mode):
    _assert_same(make_paper_benchmark(shape), mode, [5])


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    gates=st.integers(min_value=4, max_value=24),
    caps=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(MODES),
    beam=st.sampled_from([None, 2, 12]),
)
def test_matches_the_reference_on_random_designs(gates, caps, seed, mode, beam):
    design = random_design("lvl", n_gates=gates, target_caps=caps, seed=seed)
    config = TopKConfig(certify=True, max_sets_per_cardinality=beam)
    _assert_same(design, mode, [1, 3], config)


# ----------------------------------------------------------------------
# events in the middle of a level
# ----------------------------------------------------------------------


def _mid_level_victims(design, mode):
    """Nets that are not the first victim of their level-sweep run."""
    runs = TopKEngine(design, mode, TopKConfig())._runs()
    return {ctx.net for run in runs for ctx in run.ctxs[1:]}


def _record_ticks(cls, design, mode, k, config=None):
    """Every tick of a clean solve: (net, cardinality, phase, candidates)."""
    engine = cls(design, mode, config or TopKConfig())
    ticks = []
    original = engine._tick

    def spy(net, cardinality, phase):
        ticks.append((net, cardinality, phase, engine.stats.candidates))
        return original(net, cardinality, phase)

    engine._tick = spy
    engine.solve(k)
    return engine, ticks


def _degraded(engine, solution):
    report = solution.degradation.to_json()
    report.pop("elapsed_s")
    return {
        "report": report,
        "best": sorted(solution.best.couplings) if solution.best else None,
        "score": solution.best.score if solution.best else None,
        "state": _state(engine),
    }


@pytest.mark.parametrize("mode", MODES)
def test_rung_one_at_a_mid_level_sweep_tick(mode):
    design = make_paper_benchmark("i1")
    _, ticks = _record_ticks(TopKEngine, design, mode, 3)
    middle = _mid_level_victims(design, mode)
    # The first sweep tick of cardinality 2 at a mid-level victim whose
    # candidate count moved since the tick before.
    at = next(
        n
        for n, (net, i, phase, count) in enumerate(ticks)
        if i == 2 and phase == "sweep" and net in middle and count > ticks[n - 1][3]
    )
    cap = ticks[at][3] - 1
    config = TopKConfig(
        audit_dominance=True, budget=RunBudget(max_candidates=cap, on_budget="degrade")
    )
    runs = []
    for cls in (TopKEngine, ReferenceEngine):
        eng = cls(design, mode, config)
        runs.append(_degraded(eng, eng.solve(3)))
    assert runs[0]["report"]["rung"] >= 1 and runs[0]["report"]["victims"]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("mode", MODES)
def test_rung_one_at_a_mid_level_score_tick_keeps_the_pool(mode, monkeypatch):
    # Soft caps only grow at reductions, so a cap trips at a sweep tick;
    # force one at a score tick to pin that the victim keeps its pool.
    design = make_paper_benchmark("i1")
    _, ticks = _record_ticks(TopKEngine, design, mode, 3)
    middle = _mid_level_victims(design, mode)
    target = next(
        n for n, (net, i, phase, _) in enumerate(ticks)
        if i == 2 and phase == "score" and net in middle
    )
    config = TopKConfig(audit_dominance=True, budget=RunBudget(on_budget="degrade"))
    runs = []
    for cls in (TopKEngine, ReferenceEngine):
        eng = cls(design, mode, config)
        calls = []

        def trip(candidates, rung=0, calls=calls):
            calls.append(rung)
            return "candidates" if len(calls) == target + 1 and rung == 0 else None

        monkeypatch.setattr(eng.monitor, "soft_exceeded", trip)
        runs.append(_degraded(eng, eng.solve(3)))
    assert runs[0]["report"]["rung"] == 1
    assert runs[0] == runs[1]


@pytest.mark.parametrize("policy", ["degrade", "raise"])
@pytest.mark.parametrize("mode", MODES)
def test_deadline_fault_in_the_middle_of_a_level(mode, policy):
    design = make_paper_benchmark("i1")
    config = TopKConfig(budget=RunBudget(deadline_s=1e9, on_budget=policy))
    # The deadline opportunities of a clean solve, in order.
    sites = []
    original = FaultInjector.fires

    def spy(self, kind, site=""):
        if kind == "deadline":
            sites.append(site)
        return original(self, kind, site)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FaultInjector, "fires", spy)
        with injected(FaultSpec("deadline", probability=0.0)):
            clean = ReferenceEngine(design, mode, config)
            clean.solve(3)
    middle = _mid_level_victims(design, mode)
    # The score tick (second site of a net) of a mid-level victim at k=2.
    seen = {}
    after = None
    for n, site in enumerate(sites):
        seen[site] = seen.get(site, 0) + 1
        net, _, card = site.rpartition("@k")
        if card == "2" and net in middle and seen[site] == 2:
            after = n
            break
    assert after is not None
    outcomes = []
    for cls in (TopKEngine, ReferenceEngine):
        with injected(FaultSpec("deadline", after=after, count=1)) as inj:
            eng = cls(design, mode, config)
            if policy == "raise":
                with pytest.raises(BudgetExceededError) as exc:
                    eng.solve(3)
                context = dict(exc.value.context)
                context.pop("elapsed_s")
                outcomes.append((context, [f.site for f in inj.fired], _state(eng)))
            else:
                solution = eng.solve(3)
                outcomes.append(
                    (solution.degradation.completed_k, [f.site for f in inj.fired], _state(eng))
                )
    assert outcomes[0][1] == [sites[after]]
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("mode", MODES)
def test_nan_on_a_higher_order_row_of_a_levels_second_victim(mode):
    design = make_paper_benchmark("i1")
    # Opportunities of a clean reference solve: the build's primaries,
    # then cardinality 2's higher-order rows victim by victim.
    sites = []
    original = FaultInjector.corrupt_waveform

    def spy(self, arr, site=""):
        sites.append(site)
        return original(self, arr, site)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FaultInjector, "corrupt_waveform", spy)
        with injected(FaultSpec("nan_waveform", probability=0.0)):
            clean = ReferenceEngine(design, mode, TopKConfig())
            builds = len(sites)
            clean.solve(2)
    runs = TopKEngine(design, mode, TopKConfig())._runs()
    second = {run.ctxs[1].net for run in runs if len(run.ctxs) > 1}
    after = next(
        n for n in range(builds, len(sites)) if sites[n].rpartition(":c")[0] in second
    )
    errors = []
    for cls in (TopKEngine, ReferenceEngine):
        with injected(FaultSpec("nan_waveform", after=after, count=1)) as inj:
            with pytest.raises(WaveformFaultError) as exc:
                cls(design, mode, TopKConfig()).solve(2)
        err = exc.value
        errors.append((err.net, err.context["coupling"], err.phase, [f.site for f in inj.fired]))
    assert errors[0][2] == "higher-order"
    assert f"{errors[0][0]}:c{errors[0][1]}" == sites[after]
    assert errors[0] == errors[1]


def test_a_level_rebuilt_after_rung_one_counts_nothing_twice():
    design = make_paper_benchmark("i2")
    _, ticks = _record_ticks(TopKEngine, design, ADDITION, 3)
    middle = _mid_level_victims(design, ADDITION)
    at = next(
        n
        for n, (net, i, phase, count) in enumerate(ticks)
        if i == 3 and phase == "sweep" and net in middle and count > ticks[n - 1][3]
    )
    config = TopKConfig(
        budget=RunBudget(max_candidates=ticks[at][3] - 1, escalation=100.0)
    )
    counters = []
    for cls in (TopKEngine, ReferenceEngine):
        eng = cls(design, ADDITION, config)
        solution = eng.solve(3)
        assert solution.degradation.rung == 1
        counters.append(eng.stats.core_counters())
    assert counters[0] == counters[1]
