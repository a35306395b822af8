"""Choosing a "good" aggressor budget k.

The paper closes with an open question: "finding a 'good' value of k for
reasonably fixing noise violations in a design."  This module answers it
operationally in both directions:

* :func:`recommend_addition_budget` — the smallest k whose top-k addition
  set already explains a target fraction of the full worst-case delay
  noise (how many simultaneous aggressors signoff must honor);
* :func:`recommend_elimination_budget` — the smallest k whose top-k
  elimination set recovers a target fraction of the total possible
  improvement (how many fixes this ECO cycle actually needs).

Both run one mode-parametrized k-sweep on a shared engine and scan it,
so the cost is one solve at ``k_max`` plus one oracle evaluation per
probed point.  (The run budget — deadlines and caps on one solve — is
:mod:`repro.runtime.budget`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..circuit.design import Design
from .engine import ADDITION, ELIMINATION, TopKConfig
from .report import SweepPoint
from .topk import top_k_sweep


class BudgetError(ValueError):
    """Raised for unsatisfiable budget queries."""


@dataclass(frozen=True)
class BudgetRecommendation:
    """Outcome of a budget search.

    Attributes
    ----------
    mode:
        ``"addition"`` or ``"elimination"``.
    recommended_k:
        Smallest probed k meeting the coverage target, or ``None`` when no
        probed k reaches it.
    coverage_target:
        The requested fraction.
    achieved_coverage:
        Coverage at ``recommended_k`` (or at the largest probed k when the
        target was missed).
    sweep:
        The underlying delay-vs-k points, for plotting/reporting.
    noiseless_ns / all_aggressor_ns:
        The two anchors coverage is measured between.
    """

    mode: str
    recommended_k: Optional[int]
    coverage_target: float
    achieved_coverage: float
    sweep: List[SweepPoint]
    noiseless_ns: float
    all_aggressor_ns: float

    @property
    def satisfied(self) -> bool:
        return self.recommended_k is not None


def _default_schedule(k_max: int) -> Sequence[int]:
    ks = [1, 2]
    k = 4
    while k < k_max:
        ks.append(k)
        k = int(k * 1.5) + 1
    ks.append(k_max)
    return sorted(set(min(k, k_max) for k in ks))


def recommend_addition_budget(
    design: Design,
    coverage: float = 0.8,
    k_max: int = 32,
    config: Optional[TopKConfig] = None,
    ks: Optional[Sequence[int]] = None,
) -> BudgetRecommendation:
    """Smallest k whose addition set captures ``coverage`` of the noise."""
    return _recommend(design, ADDITION, coverage, k_max, config, ks)


def recommend_elimination_budget(
    design: Design,
    coverage: float = 0.8,
    k_max: int = 32,
    config: Optional[TopKConfig] = None,
    ks: Optional[Sequence[int]] = None,
) -> BudgetRecommendation:
    """Smallest k whose elimination set saves ``coverage`` of the noise."""
    return _recommend(design, ELIMINATION, coverage, k_max, config, ks)


def _recommend(
    design: Design,
    mode: str,
    coverage: float,
    k_max: int,
    config: Optional[TopKConfig],
    ks: Optional[Sequence[int]],
) -> BudgetRecommendation:
    """Scan a ``mode`` sweep for the first k meeting ``coverage``.

    Coverage is measured between the noiseless and the all-aggressor
    delay: the share of the noise an addition set adds, or the share an
    elimination set removes.
    """
    if not 0.0 < coverage <= 1.0:
        raise BudgetError(f"coverage must be in (0, 1], got {coverage}")
    if k_max < 1:
        raise BudgetError(f"k_max must be >= 1, got {k_max}")
    from ..noise.analysis import analyze_noise
    from ..timing.sta import run_sta

    floor = run_sta(design.netlist).circuit_delay()
    ceiling = analyze_noise(design).circuit_delay()
    schedule = list(ks) if ks is not None else list(_default_schedule(k_max))
    sweep = top_k_sweep(design, schedule, mode, config)
    total = ceiling - floor
    recommended = None
    achieved = 0.0
    for point in sweep:
        gained = point.delay - floor if mode == ADDITION else ceiling - point.delay
        achieved = gained / total if total > 1e-12 else 1.0
        if achieved >= coverage:
            recommended = point.k
            break
    return BudgetRecommendation(
        mode=mode,
        recommended_k=recommended,
        coverage_target=coverage,
        achieved_coverage=achieved,
        sweep=sweep,
        noiseless_ns=floor,
        all_aggressor_ns=ceiling,
    )
