"""Coupled-RC noise pulse computation.

For one coupling capacitor Cc between an aggressor and a victim held by its
driver, the injected noise pulse (paper Figure 2) is characterized by a
peak voltage and a decay constant.  We use the classic linear-framework
closed form for a saturated-ramp aggressor driving a highpass RC:

* time constant ``tau = Rv * (Cv + Cc)`` with Rv the victim *holding*
  resistance (driver Thevenin resistance + wire resistance) and Cv the
  victim's grounded capacitance;
* peak (normalized to Vdd)::

      Vp = (Cc / (Cc + Cv)) * (tau/tr) * (1 - exp(-tr/tau))

  which approaches the charge-sharing bound ``Cc/(Cc+Cv)`` for fast
  aggressors (tr << tau) and the Devgan bound ``Rv*Cc/tr`` for slow ones;
* shape: triangular — rising for the aggressor transition time ``tr``,
  decaying for ``DECAY_TAUS * tau`` afterwards.

Everything is normalized: voltages in fractions of Vdd, times in ns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..circuit.cells import RC_TO_NS
from ..circuit.coupling import CouplingCap
from ..circuit.netlist import Netlist
from ..runtime.errors import WaveformFaultError
from ..timing.waveform import Waveform, triangle

#: The pulse tail is truncated after this many time constants.
DECAY_TAUS = 3.0

#: Numerical floor for slews and time constants (ns) to avoid division blowup.
_EPS_NS = 1e-6


class PulseError(ValueError):
    """Raised for unphysical pulse parameters."""


@dataclass(frozen=True)
class NoisePulse:
    """A single aggressor-switching noise pulse on a victim.

    Attributes
    ----------
    peak:
        Peak voltage, normalized to Vdd (0..1).
    rise:
        Time from pulse start to peak, ns (== aggressor transition time).
    decay:
        Time from peak back to zero, ns.
    lead:
        Offset from the aggressor's t50 back to the pulse start, ns (the
        pulse starts when the aggressor transition starts, i.e. half a slew
        before its t50).
    """

    peak: float
    rise: float
    decay: float
    lead: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.peak <= 1.0):
            raise PulseError(f"peak {self.peak} outside [0, 1]")
        if self.rise < 0 or self.decay < 0:
            raise PulseError("pulse rise/decay must be >= 0")

    @property
    def width(self) -> float:
        """Total base width of the pulse, ns."""
        return self.rise + self.decay

    def waveform(self, aggressor_t50: float) -> Waveform:
        """The pulse as a :class:`Waveform`, anchored at an aggressor t50."""
        t_start = aggressor_t50 - self.lead
        return triangle(
            t_start, t_start + self.rise, t_start + self.rise + self.decay,
            self.peak,
        )


def pulse_parameters(
    victim_holding_res: float,
    victim_ground_cap: float,
    coupling_cap: float,
    aggressor_slew: float,
) -> NoisePulse:
    """Closed-form pulse for one coupling.

    Parameters
    ----------
    victim_holding_res:
        Rv in kOhm (driver Thevenin + wire resistance).
    victim_ground_cap:
        Cv in fF (pins + grounded wire cap).
    coupling_cap:
        Cc in fF.
    aggressor_slew:
        Aggressor 0-100% transition time, ns.
    """
    for name, value in (
        ("victim_holding_res", victim_holding_res),
        ("victim_ground_cap", victim_ground_cap),
        ("coupling_cap", coupling_cap),
        ("aggressor_slew", aggressor_slew),
    ):
        if not math.isfinite(value):
            raise WaveformFaultError(
                f"non-finite pulse parameter {name}={value}",
                phase="pulse",
            )
    if victim_holding_res < 0 or victim_ground_cap < 0:
        raise PulseError("victim RC must be >= 0")
    if coupling_cap <= 0:
        raise PulseError(f"coupling cap must be > 0, got {coupling_cap}")
    tr = max(aggressor_slew, _EPS_NS)
    tau = max(
        victim_holding_res * (victim_ground_cap + coupling_cap) * RC_TO_NS,
        _EPS_NS,
    )
    charge_share = coupling_cap / (coupling_cap + victim_ground_cap + _EPS_NS)
    ratio = tau / tr
    peak = charge_share * ratio * (1.0 - math.exp(-1.0 / ratio))
    peak = min(max(peak, 0.0), 1.0)
    return NoisePulse(
        peak=peak,
        rise=tr,
        decay=DECAY_TAUS * tau,
        lead=tr / 2.0,
    )


def pulse_for_coupling(
    netlist: Netlist,
    coupling: CouplingCap,
    victim: str,
    aggressor_slew: float,
) -> NoisePulse:
    """Pulse injected onto ``victim`` by the far net of ``coupling``."""
    if not coupling.touches(victim):
        raise PulseError(
            f"coupling {coupling.index} does not touch victim {victim!r}"
        )
    return coupling_pulse(
        coupling,
        victim,
        netlist.holding_resistance(victim),
        netlist.load_cap(victim),
        aggressor_slew,
    )


def coupling_pulse(
    coupling: CouplingCap,
    victim: str,
    victim_holding_res: float,
    victim_ground_cap: float,
    aggressor_slew: float,
) -> NoisePulse:
    """:func:`pulse_parameters` of ``coupling`` onto ``victim``, whose
    holding resistance and ground cap the caller already looked up; a
    non-finite parameter raises naming the net, coupling and aggressor."""
    try:
        return pulse_parameters(
            victim_holding_res=victim_holding_res,
            victim_ground_cap=victim_ground_cap,
            coupling_cap=coupling.cap,
            aggressor_slew=aggressor_slew,
        )
    except WaveformFaultError as exc:
        # Re-attach the circuit location the closed form cannot know.
        raise WaveformFaultError(
            exc.message,
            net=victim,
            coupling=coupling.index,
            aggressor=coupling.other(victim),
            phase="pulse",
        ) from exc


def coupling_pulses(
    couplings: Sequence[CouplingCap],
    victims: Sequence[str],
    victim_holding_res: np.ndarray,
    victim_ground_cap: np.ndarray,
    aggressor_slew: np.ndarray,
) -> np.ndarray:
    """:func:`coupling_pulse` over many coupling directions at once.

    Row ``j`` is the pulse of ``couplings[j]`` onto ``victims[j]``, whose
    holding resistance, ground cap and aggressor slew are the ``j``-th
    entries of the arrays.  Returns an ``(m, 4)`` array of ``(lead, rise,
    decay, peak)`` columns, each bit-identical to the scalar
    :func:`pulse_parameters`: the closed form is applied elementwise with
    the same operations in the same order, and ``exp`` is ``math.exp``
    per element (``np.exp`` can differ from it in the last bit).  The
    first row the scalar form rejects raises its error, through
    :func:`coupling_pulse`.
    """
    res = np.asarray(victim_holding_res, dtype=float)
    cap = np.asarray(victim_ground_cap, dtype=float)
    cc = np.array([c.cap for c in couplings], dtype=float)
    slew = np.asarray(aggressor_slew, dtype=float)
    ok = np.isfinite(res) & np.isfinite(cap) & np.isfinite(cc) & np.isfinite(slew)
    ok &= (res >= 0) & (cap >= 0) & (cc > 0)
    if not ok.all():
        j = int(np.argmin(ok))
        coupling_pulse(couplings[j], victims[j], float(res[j]), float(cap[j]), float(slew[j]))
    # max(x, _EPS_NS) as Python evaluates it: x unless _EPS_NS > x.
    tr = np.where(_EPS_NS > slew, _EPS_NS, slew)
    tau = res * (cap + cc) * RC_TO_NS
    tau = np.where(_EPS_NS > tau, _EPS_NS, tau)
    charge_share = cc / (cc + cap + _EPS_NS)
    ratio = tau / tr
    falloff = np.array([math.exp(x) for x in (-1.0 / ratio).tolist()])
    peak = charge_share * ratio * (1.0 - falloff)
    peak = np.where(0.0 > peak, 0.0, peak)
    peak = np.where(1.0 < peak, 1.0, peak)
    return np.stack((tr / 2.0, tr, DECAY_TAUS * tau, peak), axis=1).reshape(-1, 4)
