"""Independent certificate checker.

Re-validates a :class:`~repro.verify.certificate.Certificate` in
O(|certificate|) — without re-running the solve and without importing
any scoring code from the engine.  Every quantitative re-check below is
a from-scratch reimplementation (own ramp formula, own crossing search,
own encapsulation comparison, own tolerance constants), so a bug in the
engine's scoring stack cannot also blind the checker.

Check families (each becomes a ``CheckFinding.kind``):

``format-version`` / ``structure``
    The payload is the version this checker understands and internally
    consistent (witnesses reference recorded contexts, coverage counts
    match, traces have as many iterates as iterations).
``prune-encapsulation`` / ``prune-score-order`` / ``prune-score-recompute``
    Theorem 1 on every recorded witness: the dominator pointwise
    encapsulates the dominated envelope over the dominance interval,
    scores are ordered the right way, and both recorded scores agree
    with an independent recomputation from the envelopes.
``frontier-order`` / ``frontier-witness`` / ``frontier-best`` / ``prune-count``
    Frontier invariants at each cardinality boundary: lists are sorted
    best-first, every witness's dominator survived into its frontier,
    the reported per-cardinality best is the frontier's best, and the
    per-victim prune counts add up to the engine's dominated counter.
``fixpoint-delta`` / ``fixpoint-convergence`` / ``fixpoint-bound``
    The noise fixpoint's trace: every entry of ``delta_history`` is
    recomputed from consecutive iterates, a convergence claim implies
    the last delta is within tolerance, and every iterate stays below
    the interval domain's per-net noise bound (lattice containment).
``interval-containment`` / ``interval-recompute`` / ``design-mismatch``
    Every reported delay falls inside the static circuit bound; with a
    design at hand the whole interval domain is recomputed and compared.
``coverage``
    (warning) The witness payload was sampled, or the run resumed from
    a checkpoint, so encapsulation re-checks cover part of the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..obs.tracer import span as _span
from .certificate import (
    CERTIFICATE_FORMAT_VERSION,
    Certificate,
    FrontierEntry,
    WitnessContext,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuit.design import Design

#: Pointwise encapsulation tolerance (fractions of Vdd).  Deliberately a
#: local constant, not an import from the noise stack.
_ENC_TOL = 1e-9

#: Tolerance for re-deriving a recorded score from its envelope (ns).
#: The checker's crossing search is a reimplementation, so the last few
#: float bits may differ from the engine's vectorized kernel.
_SCORE_TOL = 1e-6

#: Tolerance on recorded-score comparisons (sort order, best-of) where
#: both sides come from the same engine pass and should agree exactly.
_ORDER_TOL = 1e-9

#: Tolerance for recomputing delta_history entries from the iterates.
_DELTA_TOL = 1e-9

#: The engine's virtual sink (merges primary outputs) — duplicated here
#: by design; the checker shares no modules with the engine.
_SINK = "__sink__"


@dataclass(frozen=True)
class CheckFinding:
    """One checker finding; ``severity`` is ``"error"`` or ``"warning"``."""

    kind: str
    message: str
    location: str = ""
    severity: str = "error"

    def __str__(self) -> str:
        where = f" at {self.location}" if self.location else ""
        return f"{self.kind} [{self.severity}]{where}: {self.message}"


@dataclass
class CheckReport:
    """Outcome of one certificate check."""

    findings: List[CheckFinding] = field(default_factory=list)
    checked: Dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> List[CheckFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[CheckFinding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        """Valid certificate: no error-severity findings."""
        return not self.errors

    def count(self, kind: str) -> int:
        return self.checked.get(kind, 0)

    def summary(self) -> str:
        total = sum(self.checked.values())
        verdict = "VALID" if self.ok else "REJECTED"
        return (
            f"certificate {verdict}: {total} check(s), "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )


class _Checker:
    def __init__(self, cert: Certificate) -> None:
        self.cert = cert
        self.report = CheckReport()
        #: Sample instants per recorded grid, built once per check.
        self._times: Dict[Tuple[float, float, int], np.ndarray] = {}

    def _times_of(self, ctx: WitnessContext) -> np.ndarray:
        """The sample instants of ``ctx``'s recorded grid: one
        ``linspace`` per grid and check, not one per witness side."""
        times = self._times.get(ctx.grid)
        if times is None:
            times = self._times[ctx.grid] = ctx.times()
        return times

    def _tick(self, kind: str) -> None:
        self.report.checked[kind] = self.report.checked.get(kind, 0) + 1

    def _fail(
        self,
        kind: str,
        message: str,
        location: str = "",
        severity: str = "error",
    ) -> None:
        self.report.findings.append(
            CheckFinding(
                kind=kind,
                message=message,
                location=location,
                severity=severity,
            )
        )

    # ------------------------------------------------------------------
    # independent scoring primitives (no engine imports)
    # ------------------------------------------------------------------
    @staticmethod
    def _delay_noise(
        t50: float, slew: float, env: np.ndarray, times: np.ndarray
    ) -> float:
        """Last-0.5-crossing delay of ``ramp - env``, from first
        principles: the victim's latest transition is a saturated 0→1
        ramp of transition time ``slew`` crossing 0.5 at ``t50``."""
        ramp = np.clip(0.5 + (times - t50) / slew, 0.0, 1.0)
        noisy = ramp - env
        below = noisy < 0.5
        segments = np.flatnonzero(below[:-1] & ~below[1:])
        if segments.size == 0:
            if noisy[-1] >= 0.5:
                return 0.0
            return max(0.0, float(times[-1]) - t50)
        i = int(segments[-1])
        v0, v1 = float(noisy[i]), float(noisy[i + 1])
        denom = v1 - v0 if abs(v1 - v0) >= 1e-15 else 1.0
        frac = min(max((0.5 - v0) / denom, 0.0), 1.0)
        t_cross = float(times[i]) + frac * float(times[i + 1] - times[i])
        return max(0.0, t_cross - t50)

    def _score_of(
        self, ctx: WitnessContext, env: np.ndarray, mode: str
    ) -> Optional[float]:
        """Recompute a candidate's score in this victim context."""
        times = self._times_of(ctx)
        if env.shape != times.shape:
            return None
        if mode == "elimination":
            if ctx.total_env is None or ctx.total_env.shape != times.shape:
                return None
            env = np.clip(ctx.total_env - env, 0.0, None)
        return self._delay_noise(ctx.t50, ctx.slew, env, times)

    # ------------------------------------------------------------------
    # check families
    # ------------------------------------------------------------------
    def check_format(self) -> bool:
        self._tick("format-version")
        if self.cert.format_version != CERTIFICATE_FORMAT_VERSION:
            self._fail(
                "format-version",
                f"certificate format v{self.cert.format_version} is not "
                f"the v{CERTIFICATE_FORMAT_VERSION} this checker validates",
            )
            return False
        return True

    def check_structure(self) -> None:
        cert = self.cert
        self._tick("structure")
        if cert.solve.mode not in ("addition", "elimination"):
            self._fail(
                "structure", f"unknown solve mode {cert.solve.mode!r}"
            )
        recorded = cert.witness_coverage.get("recorded", -1)
        if recorded != len(cert.witnesses):
            self._fail(
                "structure",
                f"witness_coverage says {recorded} recorded witnesses but "
                f"the payload carries {len(cert.witnesses)}",
            )
        for w in cert.witnesses:
            loc = f"{w.net}:prune{w.seq}"
            if w.net not in cert.witness_context:
                self._fail(
                    "structure",
                    "witness has no recorded victim context",
                    location=loc,
                )
            victim = cert.victims.get(w.net)
            if victim is None or w.cardinality not in victim.pruned:
                self._fail(
                    "structure",
                    f"witness cardinality {w.cardinality} has no prune "
                    f"count on its victim",
                    location=loc,
                )

    def check_witnesses(self) -> None:
        cert = self.cert
        mode = cert.solve.mode
        for w in cert.witnesses:
            loc = f"{w.net}:prune{w.seq}@k{w.cardinality}"
            ctx = cert.witness_context.get(w.net)
            if ctx is None:
                continue  # already a structure finding
            times = self._times_of(ctx)
            if (
                w.dominator.env.shape != times.shape
                or w.dominated.env.shape != times.shape
            ):
                self._fail(
                    "structure",
                    "witness envelopes do not fit the recorded grid",
                    location=loc,
                )
                continue

            self._tick("prune-encapsulation")
            lo, hi = ctx.interval
            mask = (times >= lo) & (times <= hi)
            if mask.any():
                gap = w.dominated.env[mask] - w.dominator.env[mask]
                worst = float(gap.max())
                if worst > _ENC_TOL:
                    at = float(times[mask][int(np.argmax(gap))])
                    self._fail(
                        "prune-encapsulation",
                        f"dominator fails to encapsulate the pruned "
                        f"candidate by {worst:.3e} Vdd at t={at:.4f} ns "
                        f"inside the dominance interval "
                        f"[{lo:.4f}, {hi:.4f}]",
                        location=loc,
                    )

            self._tick("prune-score-order")
            if mode == "addition":
                inverted = w.dominator.score < w.dominated.score - _ORDER_TOL
            else:
                inverted = w.dominator.score > w.dominated.score + _ORDER_TOL
            if inverted:
                self._fail(
                    "prune-score-order",
                    f"dominator score {w.dominator.score:.6f} is worse "
                    f"than the pruned candidate's {w.dominated.score:.6f}",
                    location=loc,
                )

            for side_name, side in (
                ("dominator", w.dominator),
                ("dominated", w.dominated),
            ):
                self._tick("prune-score-recompute")
                recomputed = self._score_of(ctx, side.env, mode)
                if recomputed is None:
                    continue
                if abs(recomputed - side.score) > _SCORE_TOL:
                    self._fail(
                        "prune-score-recompute",
                        f"{side_name} records score {side.score:.6f} ns "
                        f"but its envelope re-scores to "
                        f"{recomputed:.6f} ns",
                        location=loc,
                    )

    def check_frontiers(self) -> None:
        cert = self.cert
        mode = cert.solve.mode
        # Degradation legitimately narrows frontiers after the fact, so
        # on degraded runs frontier misses are advisory, not proof gaps.
        soft = "warning" if cert.solve.degraded else "error"

        for net, victim in cert.victims.items():
            for card, entries in victim.frontiers.items():
                self._tick("frontier-order")
                scores = [e.score for e in entries]
                for a, b in zip(scores, scores[1:]):
                    ordered = (
                        a >= b - _ORDER_TOL
                        if mode == "addition"
                        else a <= b + _ORDER_TOL
                    )
                    if not ordered:
                        self._fail(
                            "frontier-order",
                            f"frontier is not sorted best-first "
                            f"({a:.6f} before {b:.6f})",
                            location=f"{net}@k{card}",
                        )
                        break

        frontier_keys = {
            (net, card, e.couplings)
            for net, victim in cert.victims.items()
            for card, entries in victim.frontiers.items()
            for e in entries
        }
        for w in cert.witnesses:
            self._tick("frontier-witness")
            key = (w.net, w.cardinality, w.dominator.couplings)
            if key not in frontier_keys:
                self._fail(
                    "frontier-witness",
                    f"dominator {list(w.dominator.couplings)} is absent "
                    f"from the frontier it should have survived into",
                    location=f"{w.net}:prune{w.seq}@k{w.cardinality}",
                    severity=soft,
                )

        sink = cert.victims.get(_SINK)
        for card, best in cert.result.best_per_cardinality.items():
            self._tick("frontier-best")
            entries = sink.frontiers.get(card, []) if sink is not None else []
            if not entries:
                self._fail(
                    "frontier-best",
                    f"result claims a best set at cardinality {card} but "
                    f"the sink frontier there is empty",
                    location=f"{_SINK}@k{card}",
                    severity=soft,
                )
                continue
            top = self._best_entry(entries, mode)
            if abs(top.score - best.score) > _ORDER_TOL:
                self._fail(
                    "frontier-best",
                    f"reported best score {best.score:.6f} differs from "
                    f"the sink frontier's best {top.score:.6f}",
                    location=f"{_SINK}@k{card}",
                    severity=soft,
                )

        self._tick("prune-count")
        counted = sum(
            n for v in cert.victims.values() for n in v.pruned.values()
        )
        dominated = cert.solve.stats.get("dominated", 0)
        if counted != dominated:
            self._fail(
                "prune-count",
                f"per-victim prune counts sum to {counted} but the solve "
                f"reports {dominated} dominated candidates",
                # A resumed run's in-memory log starts at the restored
                # boundary, so the gap is expected and advisory there.
                severity="warning" if cert.solve.resumed else "error",
            )
        total = cert.witness_coverage.get("total", 0)
        if total != counted and not cert.solve.resumed:
            self._fail(
                "prune-count",
                f"witness_coverage total {total} does not match the "
                f"{counted} recorded prune counts",
            )

    @staticmethod
    def _best_entry(entries: List[FrontierEntry], mode: str) -> FrontierEntry:
        # Mirrors the engine's ranking contract (best score first, ties
        # toward more couplings) — reimplemented, not imported.
        if mode == "addition":
            return min(entries, key=lambda e: (-e.score, -len(e.couplings)))
        return min(entries, key=lambda e: (e.score, -len(e.couplings)))

    def check_fixpoints(self) -> None:
        cert = self.cert
        bounds = cert.interval_domain
        for trace in cert.fixpoints:
            loc = f"fixpoint:{trace.label}"
            self._tick("fixpoint-convergence")
            if trace.iterations != len(trace.delta_history):
                self._fail(
                    "fixpoint-convergence",
                    f"{trace.iterations} iterations but "
                    f"{len(trace.delta_history)} delta_history entries",
                    location=loc,
                )
            if trace.converged:
                if not trace.delta_history:
                    self._fail(
                        "fixpoint-convergence",
                        "claims convergence with an empty delta history",
                        location=loc,
                    )
                elif trace.delta_history[-1] > trace.tolerance_ns:
                    self._fail(
                        "fixpoint-convergence",
                        f"claims convergence but the last delta "
                        f"{trace.delta_history[-1]:.3e} ns exceeds the "
                        f"tolerance {trace.tolerance_ns:.3e} ns",
                        location=loc,
                    )

            if trace.trace:
                if len(trace.trace) != len(trace.delta_history):
                    self._fail(
                        "fixpoint-delta",
                        f"{len(trace.trace)} iterates but "
                        f"{len(trace.delta_history)} recorded deltas",
                        location=loc,
                    )
                else:
                    prev: Dict[str, float] = {}
                    for i, (iterate, recorded) in enumerate(
                        zip(trace.trace, trace.delta_history)
                    ):
                        self._tick("fixpoint-delta")
                        keys = set(prev) | set(iterate)
                        delta = max(
                            (
                                abs(prev.get(n, 0.0) - iterate.get(n, 0.0))
                                for n in keys
                            ),
                            default=0.0,
                        )
                        if abs(delta - recorded) > _DELTA_TOL:
                            self._fail(
                                "fixpoint-delta",
                                f"iteration {i}: recorded delta "
                                f"{recorded:.6e} ns but the iterates "
                                f"imply {delta:.6e} ns",
                                location=loc,
                            )
                        prev = iterate

                slack = _grid_slack(bounds.horizon, trace.grid_points)
                for i, iterate in enumerate(trace.trace):
                    for net, dn in iterate.items():
                        self._tick("fixpoint-bound")
                        ub = bounds.noise_ub.get(net)
                        if ub is None:
                            self._fail(
                                "fixpoint-bound",
                                f"iterate names net {net!r} unknown to "
                                f"the interval domain",
                                location=loc,
                            )
                        elif dn > ub + slack:
                            self._fail(
                                "fixpoint-bound",
                                f"iteration {i}: delay noise {dn:.6f} ns "
                                f"on {net!r} exceeds the static bound "
                                f"{ub:.6f} ns (+{slack:.1e} grid slack)",
                                location=loc,
                            )

    def check_containment(self) -> None:
        cert = self.cert
        circuit = cert.interval_domain.circuit
        slack = _grid_slack(
            cert.interval_domain.horizon, cert.solve.grid_points
        )
        reported = [
            ("nominal_delay", cert.result.nominal_delay),
            ("estimated_delay", cert.result.estimated_delay),
            ("oracle_delay", cert.result.oracle_delay),
            ("all_aggressor_delay", cert.result.all_aggressor_delay),
        ] + [
            (f"fixpoint:{t.label}", t.circuit_delay) for t in cert.fixpoints
        ]
        for name, value in reported:
            if value is None:
                continue
            self._tick("interval-containment")
            if not circuit.contains(value, slack):
                self._fail(
                    "interval-containment",
                    f"{name} = {value:.6f} ns falls outside the static "
                    f"circuit bound [{circuit.lo:.6f}, {circuit.hi:.6f}] "
                    f"(+{slack:.1e} slack)",
                    location=name,
                )

    def check_against_design(self, design: "Design") -> None:
        from .intervals import propagate_delay_bounds

        cert = self.cert
        self._tick("design-mismatch")
        stats = design.stats()
        expected = {
            "design": stats.name,
            "gates": stats.gates,
            "nets": stats.nets,
            "couplings": stats.coupling_caps,
        }
        mismatched = {
            key: (cert.design.get(key), value)
            for key, value in expected.items()
            if cert.design.get(key) != value
        }
        if mismatched:
            self._fail(
                "design-mismatch",
                f"certificate was emitted for a different design: "
                f"{mismatched}",
            )
            return

        self._tick("interval-recompute")
        fresh = propagate_delay_bounds(
            design, horizon_margin=cert.interval_domain.margin
        )
        recorded = cert.interval_domain
        if not math.isclose(
            fresh.circuit.hi, recorded.circuit.hi, rel_tol=0.0, abs_tol=1e-9
        ) or not math.isclose(
            fresh.circuit.lo, recorded.circuit.lo, rel_tol=0.0, abs_tol=1e-9
        ):
            self._fail(
                "interval-recompute",
                f"recorded circuit bound [{recorded.circuit.lo:.6f}, "
                f"{recorded.circuit.hi:.6f}] does not match the freshly "
                f"recomputed [{fresh.circuit.lo:.6f}, "
                f"{fresh.circuit.hi:.6f}]",
            )
        for net, iv in fresh.per_net.items():
            got = recorded.per_net.get(net)
            if got is None or abs(got.hi - iv.hi) > 1e-9 or abs(
                got.lo - iv.lo
            ) > 1e-9:
                self._fail(
                    "interval-recompute",
                    f"recorded per-net bound for {net!r} "
                    f"({None if got is None else got.to_json()}) does not "
                    f"match the recomputed {iv.to_json()}",
                    location=f"net:{net}",
                )
                break  # one pinpointed example is enough

    def check_coverage(self) -> None:
        cert = self.cert
        self._tick("coverage")
        recorded = cert.witness_coverage.get("recorded", 0)
        total = cert.witness_coverage.get("total", 0)
        if recorded < total:
            self._fail(
                "coverage",
                f"only {recorded} of {total} prunes carry envelope "
                f"witnesses (certify_witnesses cap); encapsulation was "
                f"re-checked on the recorded sample",
                severity="warning",
            )
        if cert.solve.resumed:
            self._fail(
                "coverage",
                "the solve resumed from a checkpoint; prunes before the "
                "restored boundary have no witnesses in this certificate",
                severity="warning",
            )
        if cert.solve.degraded:
            self._fail(
                "coverage",
                "the solve degraded under budget pressure; frontier "
                "checks were downgraded to warnings",
                severity="warning",
            )


def _grid_slack(horizon: float, grid_points: int) -> float:
    """Discretization slack for bound-containment comparisons.

    Sampled crossing search can overshoot the analytic bound by up to a
    couple of grid steps; victim grids span at most a small multiple of
    the horizon, so ``horizon / (n - 1)`` bounds one step.
    """
    return max(1e-9, 4.0 * horizon / max(grid_points - 1, 1))


def check_certificate(
    cert: Certificate, design: Optional["Design"] = None
) -> CheckReport:
    """Validate ``cert``; optionally cross-check against the design.

    Runs in O(|certificate|): every check walks the recorded payload
    once.  With ``design`` given, the interval domain is additionally
    recomputed from scratch and compared (that part is O(design)).
    """
    checker = _Checker(cert)
    with _span(
        "certificate.check", witnesses=len(cert.witnesses)
    ) as check_span:
        if checker.check_format():
            checker.check_structure()
            with _span("check.witnesses"):
                checker.check_witnesses()
            with _span("check.frontiers"):
                checker.check_frontiers()
            with _span("check.fixpoints"):
                checker.check_fixpoints()
            checker.check_containment()
            if design is not None:
                with _span("check.design"):
                    checker.check_against_design(design)
            checker.check_coverage()
        check_span.set(
            ok=checker.report.ok, findings=len(checker.report.findings)
        )
    return checker.report
