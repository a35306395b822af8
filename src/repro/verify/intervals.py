"""Interval abstract domain for delay-noise bounds.

A sound over-approximation of every delay the analyses can report,
computed in **one topological pass** under *infinite timing windows* —
no fixpoint, no grids, no alignment search.  The abstraction:

* every net carries an interval ``[lo, hi]`` containing its latest
  arrival time under **any** subset of coupling caps and any number of
  noise-fixpoint iterations;
* ``lo`` is the noiseless LAT (delay noise only ever slows the late
  transition — ``run_sta`` adds ``extra_delay`` to the LAT only);
* ``hi`` adds, per net, a local delay-noise upper bound ``noise_ub`` on
  top of the worst fanin arrival.

Soundness of the local bound (the *ramp argument*): the victim's latest
transition is a 0-100% ramp of transition time ``slew`` crossing 0.5 at
``t50``.  Any combined noise envelope is pointwise bounded by ``H``, the
sum of its pulse peaks.  For ``t >= t50 + H * slew`` the noisy waveform
``ramp(t) - env(t)`` satisfies ``ramp(t) >= 0.5 + H >= 0.5 + env(t)``
(using ``H <= 0.5`` for the saturated part of the ramp), so the last 0.5
crossing — the measured delay noise — cannot exceed ``H * slew``.  When
``H > 0.5`` the argument fails and the domain answers *top* (``inf``),
which stays sound.  (On all paper benchmarks ``H`` stays below 0.27.)

Pulse peaks decrease with aggressor slew and the measured noise grows
with victim slew, so the bound is evaluated with a per-net **slew
interval** ``[slew_min, slew_max]``, itself propagated topologically
(arc output slew is monotone in input slew; arc *delay* is input-slew
independent in this delay model, which is what makes the late-arrival
propagation exact).

Everything here is independent of the scoring stack: no grids, no
sampled envelopes, no :func:`~repro.core.dominance.batch_delay_noise` —
the point is that an engine bug cannot also bias the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..circuit.coupling import CouplingCap
from ..circuit.design import Design
from ..noise.pulse import coupling_pulses, pulse_for_coupling
from ..timing.delay_models import INPUT_SLEW_FEEDTHROUGH, PRIMARY_INPUT_SLEW
from ..timing.graph import TimingGraph
from ..timing.sta import run_sta

#: ``H`` (sum of pulse peaks) above which the ramp argument does not
#: apply and the local bound is *top* (infinity).
RAMP_BOUND_LIMIT = 0.5


class IntervalError(ValueError):
    """Raised for malformed interval construction or queries."""


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` of times (ns); ``hi`` may be inf."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise IntervalError("interval bounds must not be NaN")
        if self.hi < self.lo:
            raise IntervalError(f"inverted interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float, slack: float = 0.0) -> bool:
        """Whether ``value`` lies in ``[lo - slack, hi + slack]``."""
        return self.lo - slack <= value <= self.hi + slack

    def to_json(self) -> Tuple[float, float]:
        return (self.lo, self.hi)

    @classmethod
    def from_json(cls, data: Any) -> "Interval":
        lo, hi = data
        return cls(float(lo), float(hi))


@dataclass
class DelayBounds:
    """The abstract domain's verdict over one design.

    Attributes
    ----------
    per_net:
        Net name -> latest-arrival interval ``[noiseless LAT, LAT upper
        bound under any coupling subset]``.
    noise_ub:
        Net name -> sound upper bound on the *local* delay noise that
        net can ever accumulate in one superposition evaluation
        (``inf`` = the domain's top, when the ramp argument fails).
    slews:
        Net name -> ``[slew_min, slew_max]`` late-slew interval.
    circuit:
        Circuit-delay interval (max over primary outputs).
    horizon / margin:
        The "infinite window" horizon used (``margin`` times the nominal
        circuit delay) — recorded so a checker can reproduce the pass.
    """

    per_net: Dict[str, Interval] = field(default_factory=dict)
    noise_ub: Dict[str, float] = field(default_factory=dict)
    slews: Dict[str, Interval] = field(default_factory=dict)
    circuit: Interval = field(default_factory=lambda: Interval(0.0, 0.0))
    horizon: float = 0.0
    margin: float = 2.0

    def contains_delay(self, delay: float, slack: float = 0.0) -> bool:
        """Whether a reported circuit delay falls inside the bound."""
        return self.circuit.contains(delay, slack)

    def to_json(self) -> Dict[str, Any]:
        return {
            "per_net": {n: iv.to_json() for n, iv in self.per_net.items()},
            "noise_ub": {
                n: ("inf" if math.isinf(v) else v)
                for n, v in self.noise_ub.items()
            },
            "slews": {n: iv.to_json() for n, iv in self.slews.items()},
            "circuit": self.circuit.to_json(),
            "horizon": self.horizon,
            "margin": self.margin,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "DelayBounds":
        return cls(
            per_net={
                str(n): Interval.from_json(iv)
                for n, iv in data.get("per_net", {}).items()
            },
            noise_ub={
                str(n): (math.inf if v == "inf" else float(v))
                for n, v in data.get("noise_ub", {}).items()
            },
            slews={
                str(n): Interval.from_json(iv)
                for n, iv in data.get("slews", {}).items()
            },
            circuit=Interval.from_json(data.get("circuit", (0.0, 0.0))),
            horizon=float(data.get("horizon", 0.0)),
            margin=float(data.get("margin", 2.0)),
        )


def slew_intervals(
    design: Design,
    graph: Optional[TimingGraph] = None,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-net ``[slew_min, slew_max]`` late-slew transfer, topologically.

    Arc output slew is monotone in input slew, so the extreme late slews
    a net can exhibit under **any** fanin selection (noise can change
    which input arrives last) are the min/max over fanin of the arcs
    driven at the fanin's own extreme slews.  The noiseless
    ``slew_late`` always lies inside this interval.
    """
    if graph is None:
        graph = TimingGraph.from_netlist(design.netlist)
    slew_lo, slew_hi = _slew_arrays(design, graph)
    order = graph.topo_order
    return dict(zip(order, slew_lo.tolist())), dict(zip(order, slew_hi.tolist()))


def _slew_arrays(design: Design, graph: TimingGraph) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`slew_intervals` as arrays in ``graph.topo_order`` order: one
    array step per level over the graph's arc table."""
    arcs = graph.arcs()
    n = len(graph.topo_order)
    # The last slot pads each level's fanin matrix and never wins.
    slew_lo = np.empty(n + 1)
    slew_hi = np.empty(n + 1)
    slew_lo[n], slew_hi[n] = math.inf, -math.inf
    slew_lo[arcs.inputs] = slew_hi[arcs.inputs] = PRIMARY_INPUT_SLEW
    for level in arcs.levels:
        base = arcs.slew_base[level.nets][:, None]
        slew_lo[level.nets] = (
            base + INPUT_SLEW_FEEDTHROUGH * slew_lo[level.fanin]
        ).min(axis=1)
        slew_hi[level.nets] = (
            base + INPUT_SLEW_FEEDTHROUGH * slew_hi[level.fanin]
        ).max(axis=1)
    if len(arcs.feeding) and slew_lo[arcs.feeding].min() < 0:
        raise ValueError(f"negative input slew {float(slew_lo[arcs.feeding].min())}")
    return slew_lo[:n], slew_hi[:n]


@dataclass(frozen=True)
class CouplingTransfer:
    """Static transfer function of one coupling *direction* (cc -> victim).

    Everything the abstract interpreter needs about the direction,
    precomputed from slew intervals alone — no windows, no envelopes:

    ``peak_ub``
        Upper bound on the injected pulse peak (evaluated at the
        aggressor's minimum slew; the peak is decreasing in slew).
    ``tail``
        Slew-side upper bound on how far past the aggressor's LAT the
        primary envelope extends: ``slew_max/2 + decay`` where the decay
        ``DECAY_TAUS * tau`` depends only on the victim RC and the
        coupling cap.  The envelope's analytic end time under an
        aggressor LAT of ``lat`` is then at most ``lat + tail``
        (:func:`repro.noise.envelope.primary_envelope` ends at
        ``lat + slew/2 + decay``).
    """

    index: int
    victim: str
    aggressor: str
    peak_ub: float
    tail: float

    def t_end_ub(self, aggressor_lat_hi: float) -> float:
        """Latest possible primary-envelope end for this direction."""
        return aggressor_lat_hi + self.tail


def coupling_transfer(
    design: Design,
    cc: CouplingCap,
    victim: str,
    slew_lo: Mapping[str, float],
    slew_hi: Mapping[str, float],
) -> CouplingTransfer:
    """Build the :class:`CouplingTransfer` of direction ``cc -> victim``."""
    aggressor = cc.other(victim)
    tr_lo = slew_lo.get(aggressor, PRIMARY_INPUT_SLEW)
    tr_hi = slew_hi.get(aggressor, PRIMARY_INPUT_SLEW)
    pulse = pulse_for_coupling(design.netlist, cc, victim, tr_lo)
    return CouplingTransfer(
        index=cc.index,
        victim=victim,
        aggressor=aggressor,
        peak_ub=pulse.peak,
        # decay = DECAY_TAUS * tau is slew-independent; the lead/rise
        # asymmetry contributes slew/2, maximized at the max slew.
        tail=tr_hi / 2.0 + pulse.decay,
    )


def local_noise_bounds(
    design: Design,
    graph: TimingGraph,
    slew_lo: np.ndarray,
    slew_hi: np.ndarray,
) -> np.ndarray:
    """Sound bound on the delay noise one superposition step can assign,
    for every net in ``graph.topo_order`` order.

    ``H`` sums the pulse peaks of **all** couplings on the victim — a
    superset of whatever the window filter, logical exclusions, or a
    what-if coupling view leave active, so the bound covers every subset
    the engine or oracle can evaluate.  Peaks are computed with each
    aggressor's *minimum* slew (peak is decreasing in aggressor slew)
    and the ramp is stretched to the victim's *maximum* slew.

    The peaks come from one array pass
    (:func:`~repro.noise.pulse.coupling_pulses`); each victim's ``H``
    adds them one at a time in ``aggressors_of`` order, as a scalar
    ``+=`` loop would (``np.sum`` rounds pairwise and can differ).
    """
    netlist = design.netlist
    order = graph.topo_order
    position = {net: p for p, net in enumerate(order)}
    # Every direction, enumerated here and not through the fixpoint's
    # direction table: the bound stays independent of what it bounds.
    couplings: List[CouplingCap] = []
    victims: List[str] = []
    owner: List[int] = []
    slot: List[int] = []
    aggressors: List[int] = []
    res: List[float] = []
    cap: List[float] = []
    for p, victim in enumerate(order):
        ccs = design.coupling.aggressors_of(victim)
        if not ccs:
            continue
        rc = (netlist.holding_resistance(victim), netlist.load_cap(victim))
        for j, cc in enumerate(ccs):
            couplings.append(cc)
            victims.append(victim)
            owner.append(p)
            slot.append(j)
            aggressors.append(position[cc.other(victim)])
            res.append(rc[0])
            cap.append(rc[1])
    peaks = coupling_pulses(
        couplings, victims, np.array(res), np.array(cap), slew_lo[aggressors]
    )[:, 3]
    table = np.zeros((len(order), max(slot, default=-1) + 1))
    table[owner, slot] = peaks
    peak_sum = np.zeros(len(order))
    for column in table.T:
        peak_sum += column
    bound = np.where(peak_sum > RAMP_BOUND_LIMIT, math.inf, peak_sum * slew_hi)
    return np.where(peak_sum <= 0.0, 0.0, bound)


def propagate_delay_bounds(
    design: Design,
    graph: Optional[TimingGraph] = None,
    horizon_margin: float = 2.0,
) -> DelayBounds:
    """One-pass interval propagation of [min, max] delay bounds.

    Parameters
    ----------
    design:
        The design under analysis.
    graph:
        Pre-built timing graph to reuse.
    horizon_margin:
        Recorded in the result (the solver's "infinite window" horizon
        multiple); the bound itself never needs a horizon because the
        ramp argument is alignment-free.
    """
    netlist = design.netlist
    if graph is None:
        graph = TimingGraph.from_netlist(netlist)
    nominal = run_sta(netlist, graph)
    slew_lo, slew_hi = _slew_arrays(design, graph)
    noise_ub = local_noise_bounds(design, graph, slew_lo, slew_hi)

    # Arc delay is input-slew independent (see module docs), so the
    # worst noisy arrival is exactly max over fanin of the fanin's bound
    # plus the nominal arc delay: one add per fanin edge, level by level.
    arcs = graph.arcs()
    order = graph.topo_order
    hi = np.empty(len(order) + 1)
    hi[-1] = -math.inf  # pads each level's fanin matrix; never wins
    hi[arcs.inputs] = 0.0 + noise_ub[arcs.inputs]
    for level in arcs.levels:
        arrive = (hi[level.fanin] + arcs.delay[level.nets][:, None]).max(axis=1)
        hi[level.nets] = arrive + noise_ub[level.nets]

    bounds = DelayBounds(
        horizon=nominal.horizon(horizon_margin), margin=horizon_margin
    )
    assert nominal.arrays is not None
    for net, lo, net_hi, dn_ub, s_lo, s_hi in zip(
        order,
        nominal.arrays.lat.tolist(),
        hi.tolist(),
        noise_ub.tolist(),
        slew_lo.tolist(),
        slew_hi.tolist(),
    ):
        bounds.noise_ub[net] = dn_ub
        bounds.slews[net] = Interval(s_lo, s_hi)
        bounds.per_net[net] = Interval(lo, max(lo, net_hi))

    pos = netlist.primary_outputs
    bounds.circuit = Interval(
        nominal.circuit_delay(),
        max(bounds.per_net[po].hi for po in pos) if pos else 0.0,
    )
    return bounds
