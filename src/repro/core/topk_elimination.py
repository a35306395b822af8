"""Top-k aggressors *elimination* set (paper Section 3.4).

Given the fully noisy analysis, find the k aggressor-victim couplings
whose removal (shielding, spacing, buffering) reduces the circuit delay by
the maximum amount — the "which 10 couplings should I fix" question the
paper motivates.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..circuit.design import Design
from .engine import ELIMINATION, TopKConfig, TopKEngine
from .report import SweepPoint, TopKResult
from .topk import top_k_set, top_k_sweep


def top_k_elimination_set(
    design: Design,
    k: int,
    config: Optional[TopKConfig] = None,
    engine: Optional[TopKEngine] = None,
) -> TopKResult:
    """:func:`~repro.core.topk.top_k_set` in elimination mode."""
    return top_k_set(design, k, ELIMINATION, config, engine)


def top_k_elimination_sweep(
    design: Design,
    ks: Iterable[int],
    config: Optional[TopKConfig] = None,
) -> List[SweepPoint]:
    """Delay-vs-k series for the elimination set (Figure 10 / Table 2b)."""
    return top_k_sweep(design, ks, ELIMINATION, config)
