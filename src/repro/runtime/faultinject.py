"""Seeded, deterministic fault injection for the chaos suite.

The production code exposes a handful of *guard points* (waveform
sampling in the engine, the noise fixpoint's convergence test, the run
budget's deadline check).  When an injector is installed, each guard
point reports an *opportunity*; the injector decides — deterministically,
from its seed and per-kind counters — whether the fault fires there.

Fault kinds
-----------
``nan_waveform``
    Overwrite one sample of a freshly sampled envelope with NaN.
``inf_waveform``
    Overwrite one sample with +Inf.
``corrupt_envelope``
    Negate a random slice of the envelope (an impossible, non-physical
    envelope that must be caught by the non-negativity guard).
``no_convergence``
    Force the noise fixpoint's per-iteration delta above tolerance, so
    the iteration never converges.
``deadline``
    Report the wall-clock deadline as already expired at a budget
    checkpoint (simulated deadline hit, independent of real time).
``shrink_envelope``
    Halve a dominator envelope as it is recorded into a solve
    certificate (:func:`repro.verify.certificate.emit_certificate`) —
    models a witness-recording bug that the independent certificate
    checker must reject with a pinpointed net/prune record.

Usage::

    from repro.runtime import FaultSpec, injected

    with injected(FaultSpec("nan_waveform", after=3), seed=7):
        analyze(design, k=2)   # raises WaveformFaultError at a real net

When no injector is installed the guard points cost one module-attribute
``is None`` test — the hot paths stay clean.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

FAULT_KINDS = (
    "nan_waveform",
    "inf_waveform",
    "corrupt_envelope",
    "no_convergence",
    "deadline",
    "shrink_envelope",
)

#: Kinds that corrupt a sampled waveform array in place.
_WAVEFORM_KINDS = ("nan_waveform", "inf_waveform", "corrupt_envelope")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Chance the fault fires at each eligible opportunity (drawn from
        the injector's seeded RNG, so runs are reproducible).
    after:
        Skip this many eligible opportunities before the fault may fire
        (e.g. let cardinality 1 complete, then hit the deadline).
    count:
        Fire at most this many times (``None`` = unlimited).
    target:
        Optional substring filter on the guard point's site label (a net
        name, ``"c17"``, ``"n4@k2"``, ...); opportunities at other sites
        are not eligible and do not consume ``after``/``count``.
    """

    kind: str
    probability: float = 1.0
    after: int = 0
    count: Optional[int] = None
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1 or None, got {self.count}")


@dataclass
class FiredFault:
    """Record of one fault that actually fired (for assertions/reports)."""

    kind: str
    site: str
    opportunity: int


@dataclass
class _SpecState:
    spec: FaultSpec
    seen: int = 0
    fired: int = 0


class FaultInjector:
    """Deterministic dispenser of planned faults.

    All randomness comes from one seeded :class:`random.Random`, and all
    ordering from the deterministic order of guard-point hits, so the
    same (specs, seed, workload) triple always injects the same faults.
    """

    def __init__(self, specs: Tuple[FaultSpec, ...], seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = seed
        self._rng = random.Random(seed)
        self._states: Dict[str, List[_SpecState]] = {}
        for spec in self.specs:
            self._states.setdefault(spec.kind, []).append(_SpecState(spec))
        self.fired: List[FiredFault] = []

    def fires(self, kind: str, site: str = "") -> bool:
        """Report an opportunity; return True when a fault fires there."""
        hit = False
        for state in self._states.get(kind, ()):
            spec = state.spec
            if spec.target is not None and spec.target not in site:
                continue
            state.seen += 1
            if state.seen <= spec.after:
                continue
            if spec.count is not None and state.fired >= spec.count:
                continue
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                continue
            state.fired += 1
            self.fired.append(FiredFault(kind, site, state.seen))
            hit = True
        return hit

    def corrupt_waveform(self, arr: np.ndarray, site: str = "") -> bool:
        """Apply any armed waveform fault to ``arr`` in place."""
        hit = False
        if arr.size and self.fires("nan_waveform", site):
            arr[self._rng.randrange(arr.size)] = np.nan
            hit = True
        if arr.size and self.fires("inf_waveform", site):
            arr[self._rng.randrange(arr.size)] = np.inf
            hit = True
        if arr.size and self.fires("corrupt_envelope", site):
            lo = self._rng.randrange(arr.size)
            hi = min(arr.size, lo + max(1, arr.size // 8))
            arr[lo:hi] = -1000.0 * (np.abs(arr[lo:hi]) + 1.0)
            hit = True
        return hit


#: The installed injector; production guard points test this for None.
_ACTIVE: Optional[FaultInjector] = None


def install(injector: FaultInjector) -> None:
    """Install ``injector`` as the process-wide active injector."""
    global _ACTIVE
    _ACTIVE = injector


def clear() -> None:
    """Remove any active injector."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultInjector]:
    """The currently installed injector, or None."""
    return _ACTIVE


@contextmanager
def injected(*specs: FaultSpec, seed: int = 0) -> Iterator[FaultInjector]:
    """Context manager installing a fresh injector for the block."""
    injector = FaultInjector(tuple(specs), seed=seed)
    install(injector)
    try:
        yield injector
    finally:
        clear()
