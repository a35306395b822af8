"""Top-k aggressors *addition* set (paper Section 3.3).

Given a timing analysis without delay noise, find the k aggressor-victim
couplings whose delay noise, added to the noiseless analysis, maximizes the
circuit delay.  Used to budget how many simultaneously switching aggressors
a signoff flow must honor, or to prioritize coupling fixes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..circuit.design import Design
from .engine import ADDITION, TopKConfig, TopKEngine
from .report import SweepPoint, TopKResult
from .topk import top_k_set, top_k_sweep


def top_k_addition_set(
    design: Design,
    k: int,
    config: Optional[TopKConfig] = None,
    engine: Optional[TopKEngine] = None,
) -> TopKResult:
    """:func:`~repro.core.topk.top_k_set` in addition mode."""
    return top_k_set(design, k, ADDITION, config, engine)


def top_k_addition_sweep(
    design: Design,
    ks: Iterable[int],
    config: Optional[TopKConfig] = None,
) -> List[SweepPoint]:
    """Delay-vs-k series for the addition set (Figure 10 / Table 2a)."""
    return top_k_sweep(design, ks, ADDITION, config)
