"""Unit and property tests for the coupled-RC noise pulse model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.cells import default_library
from repro.circuit.coupling import CouplingGraph
from repro.circuit.netlist import Netlist
from repro.noise.pulse import (
    DECAY_TAUS,
    NoisePulse,
    PulseError,
    pulse_for_coupling,
    pulse_parameters,
)


class TestPulseParameters:
    def test_peak_bounded(self):
        p = pulse_parameters(8.0, 5.0, 2.0, 0.1)
        assert 0.0 < p.peak < 1.0

    def test_peak_monotone_in_coupling(self):
        peaks = [
            pulse_parameters(8.0, 5.0, cc, 0.1).peak for cc in (0.5, 1.0, 2.0, 4.0)
        ]
        assert peaks == sorted(peaks)

    def test_peak_decreases_with_ground_cap(self):
        peaks = [
            pulse_parameters(8.0, cv, 2.0, 0.1).peak for cv in (1.0, 5.0, 20.0)
        ]
        assert peaks == sorted(peaks, reverse=True)

    def test_fast_aggressor_approaches_charge_sharing(self):
        cc, cv = 2.0, 5.0
        p = pulse_parameters(8.0, cv, cc, 1e-6)
        assert p.peak == pytest.approx(cc / (cc + cv), rel=1e-2)

    def test_slow_aggressor_weakens_pulse(self):
        fast = pulse_parameters(8.0, 5.0, 2.0, 0.01).peak
        slow = pulse_parameters(8.0, 5.0, 2.0, 1.0).peak
        assert slow < fast

    def test_decay_proportional_to_tau(self):
        p = pulse_parameters(8.0, 5.0, 2.0, 0.1)
        tau = 8.0 * 7.0 * 1e-3
        assert p.decay == pytest.approx(DECAY_TAUS * tau)

    def test_rise_equals_slew(self):
        p = pulse_parameters(8.0, 5.0, 2.0, 0.25)
        assert p.rise == pytest.approx(0.25)
        assert p.lead == pytest.approx(0.125)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(PulseError):
            pulse_parameters(-1.0, 5.0, 2.0, 0.1)
        with pytest.raises(PulseError):
            pulse_parameters(8.0, 5.0, 0.0, 0.1)

    @given(
        rv=st.floats(0.1, 50.0),
        cv=st.floats(0.1, 100.0),
        cc=st.floats(0.01, 50.0),
        tr=st.floats(0.001, 2.0),
    )
    def test_peak_always_in_unit_range(self, rv, cv, cc, tr):
        p = pulse_parameters(rv, cv, cc, tr)
        assert 0.0 <= p.peak <= 1.0
        assert p.width > 0


class TestNoisePulse:
    def test_validation(self):
        with pytest.raises(PulseError):
            NoisePulse(peak=1.5, rise=0.1, decay=0.1, lead=0.05)
        with pytest.raises(PulseError):
            NoisePulse(peak=0.5, rise=-0.1, decay=0.1, lead=0.05)

    def test_waveform_anchoring(self):
        p = NoisePulse(peak=0.4, rise=0.1, decay=0.2, lead=0.05)
        wf = p.waveform(aggressor_t50=1.0)
        assert wf.t_start == pytest.approx(0.95)
        assert wf.peak_time() == pytest.approx(1.05)
        assert wf.t_end == pytest.approx(1.25)
        assert wf.peak() == pytest.approx(0.4)


class TestPulseForCoupling:
    @pytest.fixture()
    def design_bits(self):
        nl = Netlist("t", default_library())
        nl.add_primary_input("v")
        nl.add_primary_input("a")
        cg = CouplingGraph(nl)
        cc = cg.add("v", "a", 2.0)
        return nl, cc

    def test_lookup_and_compute(self, design_bits):
        nl, cc = design_bits
        p = pulse_for_coupling(nl, cc, "v", aggressor_slew=0.1)
        assert p.peak > 0

    def test_wrong_victim_rejected(self, design_bits):
        nl, cc = design_bits
        with pytest.raises(PulseError):
            pulse_for_coupling(nl, cc, "ghost", aggressor_slew=0.1)


# One coupling direction: (holding res, ground cap, coupling cap, slew).
_extreme = st.one_of(
    st.just(0.0),
    st.floats(1e-12, 1e-6),
    st.floats(1e-6, 1e2),
    st.floats(1e2, 1e9),
)
_direction = st.tuples(
    _extreme,  # victim holding resistance, kOhm
    _extreme,  # victim ground cap, fF
    st.floats(1e-12, 1e9),  # coupling cap, fF (> 0)
    st.one_of(  # aggressor slew, ns: below _EPS_NS, zero or ordinary
        st.just(0.0), st.floats(0.0, 1e-6), st.floats(1e-6, 1e3)
    ),
)


class TestVectorPulses:
    """:func:`coupling_pulses` against the scalar :func:`pulse_parameters`:
    slews below ``_EPS_NS``, extreme ``tau/tr`` either way, and peaks the
    clamp cuts to 1 must all agree bit for bit."""

    @staticmethod
    def _rows(directions):
        from repro.circuit.coupling import CouplingCap

        ccs = [CouplingCap(i, "v", f"a{i}", d[2]) for i, d in enumerate(directions)]
        res, cap, _, slew = (np.array(col, dtype=float) for col in zip(*directions))
        return ccs, res, cap, slew

    @given(st.lists(_direction, min_size=1, max_size=40))
    def test_rows_equal_the_scalar_pulse(self, directions):
        from repro.noise.pulse import coupling_pulses

        ccs, res, cap, slew = self._rows(directions)
        got = coupling_pulses(ccs, ["v"] * len(ccs), res, cap, slew)
        for row, (r, c, cc, s) in zip(got, directions):
            p = pulse_parameters(r, c, cc, s)
            want = np.array([p.lead, p.rise, p.decay, p.peak])
            assert row.tobytes() == want.tobytes()

    def test_the_extremes_are_reached(self):
        from repro.noise.pulse import _EPS_NS, coupling_pulses

        directions = [
            (8.0, 5.0, 2.0, 0.0),  # slew floored at _EPS_NS
            (1e3, 0.0, 1e4, 1e-9),  # tau >> tr: rounds past 1, clamped
            (1e-12, 1e9, 1e-12, 1e3),  # tau << tr: the peak underflows
        ]
        ccs, res, cap, slew = self._rows(directions)
        lead, rise, _, peak = coupling_pulses(ccs, ["v"] * 3, res, cap, slew).T
        assert rise[0] == _EPS_NS and lead[0] == _EPS_NS / 2.0
        assert peak[1] == 1.0
        assert peak[2] < 1e-12
        self.test_rows_equal_the_scalar_pulse.hypothesis.inner_test(self, directions)

    @pytest.mark.parametrize("name", ["i1", "i4"])
    def test_design_directions_equal_the_scalar_loop(self, name):
        # Every coupling direction of a paper circuit, at the late slews
        # of its STA, against one scalar pulse per direction.
        from repro.circuit.generator import make_paper_benchmark
        from repro.noise.analysis import DirectionTable
        from repro.noise.pulse import coupling_pulses
        from repro.timing.graph import TimingGraph
        from repro.timing.sta import run_sta

        from ..timing.reference import reference_pulses

        design = make_paper_benchmark(name, seed=1)
        graph = TimingGraph.from_netlist(design.netlist)
        table = DirectionTable(design.netlist, design.coupling, graph)
        slews = run_sta(design.netlist, graph).arrays.slew_late[table.aggressors]
        victims = [table.order[p] for p in table.victims.tolist()]
        got = coupling_pulses(table.couplings, victims, table.res, table.cap, slews)
        want = reference_pulses(table.couplings, victims, table.res, table.cap, slews)
        assert got.tobytes() == np.array(want).tobytes()

    def test_a_bad_row_raises_the_scalar_error(self):
        from repro.noise.pulse import coupling_pulses
        from repro.runtime.errors import WaveformFaultError

        directions = [(8.0, 5.0, 2.0, 0.1), (8.0, float("nan"), 2.0, 0.1)]
        ccs, res, cap, slew = self._rows(directions)
        with pytest.raises(WaveformFaultError) as exc:
            coupling_pulses(ccs, ["v", "v"], res, cap, slew)
        assert exc.value.context["coupling"] == 1
        assert exc.value.context["aggressor"] == "a1"
        cap[1] = -1.0
        with pytest.raises(PulseError):
            coupling_pulses(ccs, ["v", "v"], res, cap, slew)
