"""The fault injector itself, and waveform faults hitting the engine.

The injector must be deterministic (same specs + seed + workload => same
faults), and every injected waveform corruption must surface as a
structured :class:`WaveformFaultError` naming the offending net — never
as a bare ValueError/IndexError/NaN silently flowing into t50 scoring.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.engine import ADDITION, ELIMINATION, TopKConfig, TopKEngine
from repro.runtime import (
    FaultInjector,
    FaultSpec,
    ReproError,
    WaveformFaultError,
    faultinject,
    injected,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("segfault")

    def test_probability_range(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("nan_waveform", probability=1.5)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            FaultSpec("nan_waveform", count=0)

    def test_after_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="after"):
            FaultSpec("nan_waveform", after=-1)


class TestInjectorSemantics:
    def test_after_skips_opportunities(self):
        inj = FaultInjector((FaultSpec("deadline", after=2),))
        assert [inj.fires("deadline", f"s{i}") for i in range(4)] == [
            False, False, True, True,
        ]

    def test_count_limits_firings(self):
        inj = FaultInjector((FaultSpec("deadline", count=2),))
        assert [inj.fires("deadline") for _ in range(4)] == [
            True, True, False, False,
        ]

    def test_target_filters_sites_without_consuming(self):
        inj = FaultInjector((FaultSpec("deadline", after=1, target="n4"),))
        # Non-matching sites are not opportunities: they must not eat `after`.
        assert not inj.fires("deadline", "n9@k1")
        assert not inj.fires("deadline", "n4@k1")  # first match, skipped
        assert inj.fires("deadline", "n4@k2")
        assert inj.fired[0].site == "n4@k2"

    def test_deterministic_across_instances(self):
        specs = (FaultSpec("nan_waveform", probability=0.3),)
        sites = [f"n{i % 5}@k{i % 3}" for i in range(64)]
        a = FaultInjector(specs, seed=11)
        b = FaultInjector(specs, seed=11)
        fired_a = [a.fires("nan_waveform", s) for s in sites]
        fired_b = [b.fires("nan_waveform", s) for s in sites]
        assert fired_a == fired_b
        assert any(fired_a) and not all(fired_a)

    def test_different_seed_different_plan(self):
        specs = (FaultSpec("nan_waveform", probability=0.5),)
        sites = [str(i) for i in range(64)]
        a = FaultInjector(specs, seed=1)
        b = FaultInjector(specs, seed=2)
        assert [a.fires("nan_waveform", s) for s in sites] != [
            b.fires("nan_waveform", s) for s in sites
        ]

    def test_corrupt_waveform_nan(self):
        inj = FaultInjector((FaultSpec("nan_waveform"),))
        arr = np.ones(32)
        assert inj.corrupt_waveform(arr)
        assert np.isnan(arr).sum() == 1

    def test_corrupt_waveform_inf(self):
        inj = FaultInjector((FaultSpec("inf_waveform"),))
        arr = np.ones(32)
        assert inj.corrupt_waveform(arr)
        assert np.isinf(arr).sum() == 1

    def test_corrupt_waveform_negates_slice(self):
        inj = FaultInjector((FaultSpec("corrupt_envelope"),))
        arr = np.ones(32)
        assert inj.corrupt_waveform(arr)
        assert (arr < 0).any()

    def test_injected_context_installs_and_clears(self):
        assert faultinject.active() is None
        with injected(FaultSpec("deadline"), seed=3) as inj:
            assert faultinject.active() is inj
        assert faultinject.active() is None

    def test_injected_clears_on_exception(self):
        with pytest.raises(RuntimeError):
            with injected(FaultSpec("deadline")):
                raise RuntimeError("boom")
        assert faultinject.active() is None


class TestWaveformFaultsInEngine:
    """Injected corruption surfaces as WaveformFaultError at a real net."""

    @pytest.mark.parametrize(
        "kind", ["nan_waveform", "inf_waveform", "corrupt_envelope"]
    )
    def test_fault_is_structured_and_localized(self, tiny_design, kind):
        with injected(FaultSpec(kind), seed=0) as inj:
            with pytest.raises(WaveformFaultError) as exc:
                TopKEngine(tiny_design, ADDITION, TopKConfig()).solve(2)
        assert inj.fired, "the fault never fired"
        err = exc.value
        assert isinstance(err, ReproError)
        assert err.net in tiny_design.netlist.nets
        assert err.phase in ("build", "sweep", "score", "higher-order", "pulse")

    def test_fault_after_survivable_prefix(self, tiny_design):
        # Let the first few samples through, then corrupt: the failure
        # must still be structured, not a late unstructured crash.
        with injected(FaultSpec("nan_waveform", after=5), seed=0):
            with pytest.raises(WaveformFaultError) as exc:
                TopKEngine(tiny_design, ADDITION, TopKConfig()).solve(2)
        assert "net" in exc.value.context

    @pytest.mark.parametrize("mode", [ADDITION, ELIMINATION])
    def test_fault_at_higher_order_site_names_its_coupling(
        self, small_design, mode
    ):
        # Every primary is one guarded build sample; skipping exactly
        # that many opportunities lands the fault on the first
        # higher-order row of cardinality 2.
        clean = TopKEngine(small_design, mode, TopKConfig())
        builds = clean.stats.primary_aggressors
        assert clean.solve(2).stats.higher_order_atoms > 0
        with injected(FaultSpec("nan_waveform", after=builds, count=1)) as inj:
            with pytest.raises(WaveformFaultError) as exc:
                TopKEngine(small_design, mode, TopKConfig()).solve(2)
        [fired] = inj.fired
        err = exc.value
        assert err.phase == "higher-order"
        assert fired.site == f"{err.net}:c{err.context['coupling']}"
        ctx = clean.contexts[err.net]
        assert err.context["coupling"] in {
            info.coupling.index for info in ctx.primary_info
        }

    @pytest.mark.parametrize("mode", [ADDITION, ELIMINATION])
    def test_corrupt_atom_trips_the_score_guard(self, small_design, mode):
        # A NaN in one cardinality-1 atom reaches only the cardinality-2
        # merges built from it; the guard in front of the scoring kernel
        # must name the first such merged row in pool order.
        engine = TopKEngine(small_design, mode, TopKConfig())
        engine.solve(1)
        target = None
        for ctx in engine.contexts.values():
            for j, atom in enumerate(ctx.atoms1):
                bases = [b for b in ctx.ilists.get(1, []) if b.compatible(atom)]
                if bases:
                    target = ctx, j, atom, bases[0]
                    break
            if target is not None:
                break
        assert target is not None, "no atom with a compatible base"
        ctx, j, atom, base = target
        env = atom.env.copy()
        env[len(env) // 2] = np.nan
        ctx.atoms1[j] = replace(atom, env=env)
        with pytest.raises(WaveformFaultError) as exc:
            engine.solve(2)
        err = exc.value
        assert err.phase == "score"
        assert err.net == ctx.net
        assert err.context["candidate"] == sorted(base.couplings | atom.couplings)
        assert err.context["label"] == f"{base.label}+{atom.label}"

    def test_no_fault_no_difference(self, tiny_design):
        # An installed injector whose target never matches must not
        # perturb the solve at all.
        baseline = TopKEngine(tiny_design, ADDITION, TopKConfig()).solve(2)
        with injected(
            FaultSpec("nan_waveform", target="no-such-net-anywhere")
        ) as inj:
            chaos = TopKEngine(tiny_design, ADDITION, TopKConfig()).solve(2)
        assert not inj.fired
        assert chaos.best.couplings == baseline.best.couplings
        assert chaos.best.score == baseline.best.score
