"""Certificate emission: the proof artifact of one top-k solve.

A :class:`Certificate` records everything an independent checker needs
to re-validate a solve **without re-running it**:

* **Prune witnesses** — for every dominance prune, the envelope pair
  (dominator, dominated), the victim's dominance interval, and the
  sample grid the engine compared them on.  On large designs the full
  envelope payload is sampled down to ``certify_witnesses`` evenly
  spaced witnesses; per-victim prune *counts* are always complete, and
  ``witness_coverage`` records how much of the log carries envelopes.
* **Frontier invariants** — the irredundant list of every victim at
  each cardinality boundary (couplings, score, label per entry).
* **Fixpoint traces** — the per-iteration delay-noise maps of every
  noise-fixpoint run involved (the elimination seed and the oracle
  evaluations), plus the convergence history.
* **Interval domain** — the sound [min, max] delay bounds from
  :mod:`~repro.verify.intervals`; every reported delay must fall inside.

Envelope arrays (witness ``env`` and context ``total_env``) are encoded
as raw little-endian float64 records, ``{"$f8": "<base64>"}``
(:func:`~repro.runtime.jsonio.array_to_json`), so they round-trip bit
for bit; the loader also accepts the decimal float lists of older
certificates.

The JSON encoding is versioned (:data:`CERTIFICATE_FORMAT_VERSION`);
the runtime checkpoint fingerprint embeds the version when a certifying
run resumes, so resuming across a format change fails loudly instead of
producing unverifiable certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..obs.tracer import span as _span
from ..runtime import faultinject
from ..runtime.errors import CertificateError
from ..runtime.jsonio import array_from_json, array_to_json
from .intervals import DelayBounds, propagate_delay_bounds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import EngineSolution, TopKEngine
    from ..core.report import TopKResult
    from ..noise.analysis import NoiseConfig, NoiseResult

#: Version of the certificate JSON layout.  Bump on any change to the
#: schema; the checker refuses certificates from other versions and the
#: checkpoint fingerprint embeds it for certifying runs.
CERTIFICATE_FORMAT_VERSION = 1


@dataclass
class WitnessSide:
    """One side (dominator or dominated) of a prune witness."""

    couplings: Tuple[int, ...]
    score: float
    label: str
    env: np.ndarray

    def to_json(self) -> Dict[str, Any]:
        return {
            "couplings": list(self.couplings),
            "score": self.score,
            "label": self.label,
            "env": array_to_json(self.env),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "WitnessSide":
        return cls(
            couplings=tuple(map(int, data["couplings"])),
            score=float(data["score"]),
            label=str(data.get("label", "")),
            env=array_from_json(data["env"]),
        )


@dataclass
class PruneWitness:
    """The dominance witness behind one recorded prune.

    ``seq`` is the prune's index among the victim's prune records (in
    engine order), which is how a rejection pinpoints the exact prune.
    """

    net: str
    cardinality: int
    seq: int
    dominator: WitnessSide
    dominated: WitnessSide

    def to_json(self) -> Dict[str, Any]:
        return {
            "net": self.net,
            "cardinality": self.cardinality,
            "seq": self.seq,
            "dominator": self.dominator.to_json(),
            "dominated": self.dominated.to_json(),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "PruneWitness":
        return cls(
            net=str(data["net"]),
            cardinality=int(data["cardinality"]),
            seq=int(data["seq"]),
            dominator=WitnessSide.from_json(data["dominator"]),
            dominated=WitnessSide.from_json(data["dominated"]),
        )


@dataclass
class FrontierEntry:
    """One irredundant-list entry at a cardinality boundary."""

    couplings: Tuple[int, ...]
    score: float
    label: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "couplings": list(self.couplings),
            "score": self.score,
            "label": self.label,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FrontierEntry":
        return cls(
            couplings=tuple(map(int, data["couplings"])),
            score=float(data["score"]),
            label=str(data.get("label", "")),
        )


@dataclass
class VictimRecord:
    """Frontier invariants of one victim: per-cardinality irredundant
    lists and prune counts."""

    net: str
    frontiers: Dict[int, List[FrontierEntry]] = field(default_factory=dict)
    pruned: Dict[int, int] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "net": self.net,
            "frontiers": {
                str(card): [e.to_json() for e in entries]
                for card, entries in self.frontiers.items()
            },
            "pruned": {str(card): n for card, n in self.pruned.items()},
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "VictimRecord":
        return cls(
            net=str(data["net"]),
            frontiers={
                int(card): [FrontierEntry.from_json(e) for e in entries]
                for card, entries in data.get("frontiers", {}).items()
            },
            pruned={
                int(card): int(n)
                for card, n in data.get("pruned", {}).items()
            },
        )


@dataclass
class WitnessContext:
    """Victim-side context a witness's envelopes are interpreted in:
    the reference transition, the dominance interval, the sample grid,
    and (elimination mode) the total envelope scores subtract from."""

    net: str
    t50: float
    slew: float
    interval: Tuple[float, float]
    grid: Tuple[float, float, int]  # (t_start, t_end, n)
    total_env: Optional[np.ndarray] = None

    def times(self) -> np.ndarray:
        """The sample instants of the recorded grid."""
        t_start, t_end, n = self.grid
        return np.linspace(t_start, t_end, n)

    def to_json(self) -> Dict[str, Any]:
        return {
            "net": self.net,
            "t50": self.t50,
            "slew": self.slew,
            "interval": list(self.interval),
            "grid": list(self.grid),
            "total_env": (
                None if self.total_env is None else array_to_json(self.total_env)
            ),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "WitnessContext":
        lo, hi = data["interval"]
        t_start, t_end, n = data["grid"]
        total = data.get("total_env")
        return cls(
            net=str(data["net"]),
            t50=float(data["t50"]),
            slew=float(data["slew"]),
            interval=(float(lo), float(hi)),
            grid=(float(t_start), float(t_end), int(n)),
            total_env=None if total is None else array_from_json(total),
        )


@dataclass
class FixpointTrace:
    """One noise-fixpoint run's convergence evidence.

    ``trace`` holds the successive per-net delay-noise iterates (after
    damping), so a checker can recompute every entry of
    ``delta_history`` and confirm the convergence claim without running
    STA.  ``circuit_delay`` / ``nominal_delay`` anchor the run to the
    interval domain's circuit bound.
    """

    label: str
    start: str
    damping: float
    tolerance_ns: float
    max_iterations: int
    grid_points: int
    iterations: int
    converged: bool
    delta_history: List[float] = field(default_factory=list)
    trace: List[Dict[str, float]] = field(default_factory=list)
    nominal_delay: float = 0.0
    circuit_delay: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "start": self.start,
            "damping": self.damping,
            "tolerance_ns": self.tolerance_ns,
            "max_iterations": self.max_iterations,
            "grid_points": self.grid_points,
            "iterations": self.iterations,
            "converged": self.converged,
            "delta_history": list(self.delta_history),
            "trace": [dict(m) for m in self.trace],
            "nominal_delay": self.nominal_delay,
            "circuit_delay": self.circuit_delay,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FixpointTrace":
        return cls(
            label=str(data["label"]),
            start=str(data["start"]),
            damping=float(data["damping"]),
            tolerance_ns=float(data["tolerance_ns"]),
            max_iterations=int(data["max_iterations"]),
            grid_points=int(data.get("grid_points", 256)),
            iterations=int(data["iterations"]),
            converged=bool(data["converged"]),
            delta_history=[float(v) for v in data.get("delta_history", [])],
            trace=[
                {str(k): float(v) for k, v in m.items()}
                for m in data.get("trace", [])
            ],
            nominal_delay=float(data.get("nominal_delay", 0.0)),
            circuit_delay=float(data.get("circuit_delay", 0.0)),
        )


@dataclass
class SolveRecord:
    """Shape of the solve the certificate describes."""

    mode: str
    k: int
    grid_points: int
    beam_cap: Optional[int]
    audit_armed: bool
    resumed: bool
    degraded: bool
    stats: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "k": self.k,
            "grid_points": self.grid_points,
            "beam_cap": self.beam_cap,
            "audit_armed": self.audit_armed,
            "resumed": self.resumed,
            "degraded": self.degraded,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SolveRecord":
        beam = data.get("beam_cap")
        return cls(
            mode=str(data["mode"]),
            k=int(data["k"]),
            grid_points=int(data["grid_points"]),
            beam_cap=None if beam is None else int(beam),
            audit_armed=bool(data.get("audit_armed", False)),
            resumed=bool(data.get("resumed", False)),
            degraded=bool(data.get("degraded", False)),
            stats={str(k_): int(v) for k_, v in data.get("stats", {}).items()},
        )


@dataclass
class ResultRecord:
    """The reported answer the certificate vouches for."""

    couplings: Tuple[int, ...]
    estimated_delay: Optional[float]
    oracle_delay: Optional[float]
    nominal_delay: float
    all_aggressor_delay: Optional[float]
    best_per_cardinality: Dict[int, FrontierEntry] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "couplings": list(self.couplings),
            "estimated_delay": self.estimated_delay,
            "oracle_delay": self.oracle_delay,
            "nominal_delay": self.nominal_delay,
            "all_aggressor_delay": self.all_aggressor_delay,
            "best_per_cardinality": {
                str(card): e.to_json()
                for card, e in self.best_per_cardinality.items()
            },
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ResultRecord":
        est = data.get("estimated_delay")
        orc = data.get("oracle_delay")
        alla = data.get("all_aggressor_delay")
        return cls(
            couplings=tuple(int(i) for i in data.get("couplings", [])),
            estimated_delay=None if est is None else float(est),
            oracle_delay=None if orc is None else float(orc),
            nominal_delay=float(data["nominal_delay"]),
            all_aggressor_delay=None if alla is None else float(alla),
            best_per_cardinality={
                int(card): FrontierEntry.from_json(e)
                for card, e in data.get("best_per_cardinality", {}).items()
            },
        )


@dataclass
class Certificate:
    """The machine-checkable proof artifact of one top-k solve."""

    format_version: int
    tool_version: str
    design: Dict[str, Any]
    solve: SolveRecord
    result: ResultRecord
    victims: Dict[str, VictimRecord] = field(default_factory=dict)
    witnesses: List[PruneWitness] = field(default_factory=list)
    witness_context: Dict[str, WitnessContext] = field(default_factory=dict)
    witness_coverage: Dict[str, int] = field(default_factory=dict)
    fixpoints: List[FixpointTrace] = field(default_factory=list)
    interval_domain: DelayBounds = field(default_factory=DelayBounds)

    def to_json(self) -> Dict[str, Any]:
        return {
            "format_version": self.format_version,
            "tool_version": self.tool_version,
            "design": dict(self.design),
            "solve": self.solve.to_json(),
            "result": self.result.to_json(),
            "victims": {n: v.to_json() for n, v in self.victims.items()},
            "witnesses": [w.to_json() for w in self.witnesses],
            "witness_context": {
                n: c.to_json() for n, c in self.witness_context.items()
            },
            "witness_coverage": dict(self.witness_coverage),
            "fixpoints": [t.to_json() for t in self.fixpoints],
            "interval_domain": self.interval_domain.to_json(),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Certificate":
        try:
            return cls(
                format_version=int(data["format_version"]),
                tool_version=str(data.get("tool_version", "")),
                design=dict(data.get("design", {})),
                solve=SolveRecord.from_json(data["solve"]),
                result=ResultRecord.from_json(data["result"]),
                victims={
                    str(n): VictimRecord.from_json(v)
                    for n, v in data.get("victims", {}).items()
                },
                witnesses=[
                    PruneWitness.from_json(w)
                    for w in data.get("witnesses", [])
                ],
                witness_context={
                    str(n): WitnessContext.from_json(c)
                    for n, c in data.get("witness_context", {}).items()
                },
                witness_coverage={
                    str(k_): int(v)
                    for k_, v in data.get("witness_coverage", {}).items()
                },
                fixpoints=[
                    FixpointTrace.from_json(t)
                    for t in data.get("fixpoints", [])
                ],
                interval_domain=DelayBounds.from_json(
                    data.get("interval_domain", {})
                ),
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            # AttributeError: a list or number where a section must be
            # an object; OverflowError: an infinite or huge number where
            # an integer or float must be.
            raise CertificateError(
                f"malformed certificate payload: {exc!r}",
                phase="certificate-load",
            ) from exc

    def save(self, path: str) -> None:
        """Write the certificate as JSON (atomically is unnecessary —
        certificates are write-once artifacts, not live state)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path: str) -> "Certificate":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CertificateError(
                f"cannot read certificate: {exc}",
                path=path,
                phase="certificate-load",
            ) from exc
        return cls.from_json(data)

    def summary(self) -> str:
        cov = self.witness_coverage
        circuit = self.interval_domain.circuit
        return (
            f"certificate v{self.format_version} for "
            f"{self.design.get('design', '?')} "
            f"({self.solve.mode}, k={self.solve.k}): "
            f"{cov.get('recorded', 0)}/{cov.get('total', 0)} prune "
            f"witnesses, {len(self.fixpoints)} fixpoint trace(s), "
            f"circuit bound [{circuit.lo:.4f}, {circuit.hi:.4f}] ns"
        )


def _trace_from(
    label: str, result: "NoiseResult", config: "NoiseConfig"
) -> FixpointTrace:
    return FixpointTrace(
        label=label,
        start=config.start,
        damping=result.damping_used,
        tolerance_ns=config.tolerance_ns,
        max_iterations=config.max_iterations,
        grid_points=config.grid_points,
        iterations=result.iterations,
        converged=result.converged,
        delta_history=list(result.delta_history),
        trace=[dict(m) for m in result.trace],
        nominal_delay=result.nominal_delay(),
        circuit_delay=result.circuit_delay(),
    )


def _select_witnesses(total: int, cap: Optional[int]) -> List[int]:
    """Deterministic evenly spaced sample of the global prune order."""
    if cap is None or total <= cap:
        return list(range(total))
    return sorted({(i * total) // cap for i in range(cap)})


def emit_certificate(
    engine: "TopKEngine",
    solution: "EngineSolution",
    result: "TopKResult",
    oracle_traces: Sequence[Tuple[str, "NoiseResult"]] = (),
) -> Certificate:
    """Assemble the certificate of a finished solve.

    Called by both top-k solvers after the oracle pass.  The engine must
    have recorded prunes (``config.certify`` arms the prune log).  The
    log holds provenance, not envelopes: only the sampled witnesses'
    pruned envelopes are rebuilt here, bit-identically, so
    ``certify_witnesses`` bounds the certificate's size, not the
    solve's memory.  The frontier is read from the per-victim
    irredundant lists, which the
    engine never mutates after a cardinality completes (beam narrowing
    under degradation is the one exception — the certificate carries the
    ``degraded`` flag so the checker can soften frontier checks).

    The ``shrink_envelope`` fault-injection guard point lives here: an
    armed injector may scale a recorded dominator envelope, modelling a
    witness-recording bug the independent checker must catch.
    """
    with _span(
        "certificate.emit", mode=engine.mode, k=solution.k
    ) as cert_span:
        cert = _emit_certificate(engine, solution, result, oracle_traces)
        cert_span.set(
            witnesses=len(cert.witnesses),
            victims=len(cert.victims),
            fixpoints=len(cert.fixpoints),
        )
    return cert


def _emit_certificate(
    engine: "TopKEngine",
    solution: "EngineSolution",
    result: "TopKResult",
    oracle_traces: Sequence[Tuple[str, "NoiseResult"]] = (),
) -> Certificate:
    from .. import __version__

    cfg = engine.config
    stats = engine.design.stats()
    injector = faultinject.active()

    # Prune counts and per-net sequence numbers come from the log's
    # chunk tally; envelopes are rebuilt only for the sampled witnesses.
    log = engine.prune_log
    total = len(log)
    selected = _select_witnesses(total, cfg.certify_witnesses)
    prune_counts: Dict[str, Dict[int, int]] = {}
    seq_by_net: Dict[str, int] = {}
    seq_of: Dict[int, int] = {}
    upcoming = iter(selected)
    nxt = next(upcoming, None)
    gidx = 0
    for net, card, count in log.tally():
        first = seq_by_net.get(net, 0)
        while nxt is not None and nxt < gidx + count:
            seq_of[nxt] = first + nxt - gidx
            nxt = next(upcoming, None)
        seq_by_net[net] = first + count
        per_card = prune_counts.setdefault(net, {})
        per_card[card] = per_card.get(card, 0) + count
        gidx += count
    witnesses: List[PruneWitness] = []
    for gidx, rec in log.pick(selected):
        seq = seq_of[gidx]
        dom_env = np.array(rec.dominator.env, dtype=float, copy=True)
        if injector is not None and injector.fires(
            "shrink_envelope", f"{rec.net}:prune{seq}"
        ):
            dom_env *= 0.5
        witnesses.append(
            PruneWitness(
                net=rec.net,
                cardinality=rec.cardinality,
                seq=seq,
                dominator=WitnessSide(
                    couplings=tuple(sorted(rec.dominator.couplings)),
                    score=float(rec.dominator.score),
                    label=rec.dominator.label,
                    env=dom_env,
                ),
                dominated=WitnessSide(
                    couplings=tuple(sorted(rec.dominated.couplings)),
                    score=float(rec.dominated.score),
                    label=rec.dominated.label,
                    env=np.array(rec.dominated.env, dtype=float, copy=True),
                ),
            )
        )

    victims: Dict[str, VictimRecord] = {}
    for net, ctx in engine.contexts.items():
        frontiers = {
            card: [
                FrontierEntry(
                    couplings=tuple(sorted(s.couplings)),
                    score=float(s.score),
                    label=s.label,
                )
                for s in entries
            ]
            for card, entries in ctx.ilists.items()
            if card <= solution.k
        }
        pruned = prune_counts.get(net, {})
        if frontiers or pruned:
            victims[net] = VictimRecord(
                net=net, frontiers=frontiers, pruned=dict(pruned)
            )

    witness_context: Dict[str, WitnessContext] = {}
    for net in sorted({w.net for w in witnesses}):
        ctx = engine.contexts[net]
        witness_context[net] = WitnessContext(
            net=net,
            t50=ctx.t50,
            slew=ctx.slew,
            interval=(ctx.interval.lo, ctx.interval.hi),
            grid=(ctx.grid.t_start, ctx.grid.t_end, ctx.grid.n),
            total_env=(
                None
                if ctx.total_env is None
                else np.array(ctx.total_env, dtype=float, copy=True)
            ),
        )

    fixpoints: List[FixpointTrace] = []
    seed = getattr(engine, "seed_noise", None)
    if seed is not None:
        fixpoints.append(_trace_from("seed", seed, cfg.noise))
    for label, noise_result in oracle_traces:
        fixpoints.append(_trace_from(label, noise_result, cfg.noise))

    bounds = propagate_delay_bounds(
        engine.design, graph=engine.graph, horizon_margin=cfg.horizon_margin
    )

    return Certificate(
        format_version=CERTIFICATE_FORMAT_VERSION,
        tool_version=__version__,
        design={
            "design": stats.name,
            "gates": stats.gates,
            "nets": stats.nets,
            "couplings": stats.coupling_caps,
        },
        solve=SolveRecord(
            mode=engine.mode,
            k=solution.k,
            grid_points=cfg.grid_points,
            beam_cap=engine._beam_cap,
            audit_armed=cfg.audit_dominance,
            resumed=engine.resumed_from is not None,
            degraded=solution.degraded,
            # Only the enumeration counters: phase timings and cache
            # counters differ between otherwise identical runs.
            stats=engine.stats.core_counters(),
        ),
        result=ResultRecord(
            couplings=tuple(sorted(result.couplings)),
            estimated_delay=result.estimated_delay,
            oracle_delay=result.delay,
            nominal_delay=result.nominal_delay,
            all_aggressor_delay=result.all_aggressor_delay,
            best_per_cardinality={
                card: FrontierEntry(
                    couplings=tuple(sorted(s.couplings)),
                    score=float(s.score),
                    label=s.label,
                )
                for card, s in solution.best_per_cardinality.items()
            },
        ),
        victims=victims,
        witnesses=witnesses,
        witness_context=witness_context,
        witness_coverage={"recorded": len(witnesses), "total": total},
        fixpoints=fixpoints,
        interval_domain=bounds,
    )
