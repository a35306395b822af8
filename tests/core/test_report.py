"""Unit tests for result records and their rendering."""

import pytest

from repro.core.engine import SolveStats
from repro.core.report import (
    CouplingDetail,
    SweepPoint,
    TopKResult,
    coupling_details,
)


def make_result(mode="addition", delay=1.1, nominal=1.0, all_agg=1.2,
                couplings=frozenset({1, 2})):
    return TopKResult(
        mode=mode,
        requested_k=5,
        couplings=couplings,
        details=(),
        delay=delay,
        estimated_delay=delay,
        nominal_delay=nominal,
        all_aggressor_delay=all_agg,
        runtime_s=0.5,
        stats=SolveStats(),
    )


class TestCouplingDetail:
    def test_str(self):
        d = CouplingDetail(index=3, net_a="x", net_b="y", cap_ff=1.25)
        text = str(d)
        assert "c3" in text and "x <-> y" in text and "1.25 fF" in text

    def test_details_from_design(self, tiny_design):
        ids = frozenset(list(tiny_design.coupling.all_indices())[:3])
        details = coupling_details(tiny_design, ids)
        assert [d.index for d in details] == sorted(ids)


class TestTopKResult:
    def test_effective_k(self):
        assert make_result().effective_k == 2

    def test_addition_impact(self):
        r = make_result(mode="addition", delay=1.1, nominal=1.0)
        assert r.delay_noise_impact == pytest.approx(0.1)

    def test_elimination_impact(self):
        r = make_result(mode="elimination", delay=1.05, all_agg=1.2)
        assert r.delay_noise_impact == pytest.approx(0.15)

    def test_impact_none_without_delay(self):
        r = make_result(delay=None)
        assert r.delay_noise_impact is None

    def test_elimination_impact_none_without_ceiling(self):
        r = make_result(mode="elimination", all_agg=None)
        assert r.delay_noise_impact is None

    def test_summary_contains_key_figures(self):
        text = make_result().summary()
        assert "top-5 addition set" in text
        assert "nominal delay" in text
        assert "1.1000" in text

    def test_frozen(self):
        r = make_result()
        with pytest.raises(AttributeError):
            r.delay = 2.0  # type: ignore[misc]


class TestSweepPoint:
    def test_fields(self):
        r = make_result()
        p = SweepPoint(k=5, delay=1.1, runtime_s=0.5, result=r)
        assert p.k == 5 and p.result is r


class TestSolveStats:
    def test_json_round_trip(self):
        stats = SolveStats(victims=2, candidates=15, pseudo_atoms=4)
        stats.phase_s = {"generate": 0.5}
        back = SolveStats.from_json(stats.to_json())
        assert back == stats
        assert back.core_counters()["semantic_skips"] == 0
        # Documents written before a field existed read it as 0.
        data = stats.to_json()
        del data["semantic_skips"]
        assert SolveStats.from_json(data) == stats
