"""The paper's contribution: top-k aggressor set computation.

Pseudo aggressors + dominance-pruned irredundant lists + bottom-up
implicit enumeration, in both addition and elimination flavors, plus the
brute-force baseline used for validation (Table 1).
"""

from .aggressor_set import EnvelopeSet, SetError
from .bruteforce import BruteForceResult, brute_force_top_k, n_choose_k
from .budget import (
    BudgetError,
    BudgetRecommendation,
    recommend_addition_budget,
    recommend_elimination_budget,
)
from .dominance import (
    DominanceInterval,
    batch_delay_noise,
    envelope_dominates,
    reduce_irredundant,
)
from .explain import CouplingContribution, ExplainReport, explain_set
from .engine import (
    ADDITION,
    ELIMINATION,
    SINK,
    EngineSolution,
    PruneLog,
    PruneRecord,
    SolveStats,
    TopKConfig,
    TopKEngine,
    TopKError,
)
from .report import CouplingDetail, SweepPoint, TopKResult, coupling_details
from .signoff import SignoffError, SignoffResult, minimum_fix_set
from .topk_addition import top_k_addition_set, top_k_addition_sweep
from .topk_elimination import top_k_elimination_set, top_k_elimination_sweep

__all__ = [
    "ADDITION",
    "BruteForceResult",
    "BudgetError",
    "BudgetRecommendation",
    "CouplingContribution",
    "CouplingDetail",
    "DominanceInterval",
    "ExplainReport",
    "ELIMINATION",
    "EngineSolution",
    "EnvelopeSet",
    "PruneLog",
    "PruneRecord",
    "SINK",
    "SetError",
    "SignoffError",
    "SignoffResult",
    "minimum_fix_set",
    "SolveStats",
    "SweepPoint",
    "TopKConfig",
    "TopKEngine",
    "TopKError",
    "TopKResult",
    "batch_delay_noise",
    "brute_force_top_k",
    "coupling_details",
    "envelope_dominates",
    "explain_set",
    "n_choose_k",
    "recommend_addition_budget",
    "recommend_elimination_budget",
    "reduce_irredundant",
    "top_k_addition_set",
    "top_k_addition_sweep",
    "top_k_elimination_set",
    "top_k_elimination_sweep",
]
