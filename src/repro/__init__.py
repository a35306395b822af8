"""repro — Top-k aggressor sets in crosstalk delay-noise analysis.

A from-scratch reproduction of Gandikota, Chopra, Blaauw, Sylvester and
Becer, *"Top-k Aggressors Sets in Delay Noise Analysis"*, DAC 2007.

The package is layered (see DESIGN.md):

* :mod:`repro.circuit` — design database: cells, netlists, coupling caps,
  synthetic placement/extraction, benchmark generation, ``.bench`` I/O.
* :mod:`repro.timing` — waveforms, timing windows, and a static timing
  engine producing EAT/LAT per net.
* :mod:`repro.noise` — the linear noise framework: coupled-RC noise pulses,
  trapezoidal noise envelopes, superposition delay noise, and the iterative
  (chicken-and-egg) whole-circuit noise analysis.
* :mod:`repro.core` — the paper's contribution: pseudo aggressors,
  dominance/irredundant lists, and the top-k addition / elimination
  algorithms plus the brute-force baseline.
* :mod:`repro.verify` — proof-carrying solves: certificate emission
  (``certify=True``), the independent certificate checker, and the
  interval abstract domain bounding delay noise statically.

Quickstart::

    from repro import make_paper_benchmark, top_k_set

    design = make_paper_benchmark("i1")
    result = top_k_set(design, k=5, mode="addition")
    print(result.summary())
"""

from .api import AnalysisConfig, analyze, circuit_delay
from .circuit import (
    Design,
    load_bench,
    load_verilog,
    make_paper_benchmark,
    parse_bench,
    parse_verilog,
    random_design,
)
from .core.recommend import (
    recommend_addition_budget,
    recommend_elimination_budget,
)
from .core.report import TopKResult
from .core.signoff import minimum_fix_set
from .core.topk import top_k_set, top_k_sweep
from .core.topk_addition import top_k_addition_set, top_k_addition_sweep
from .core.topk_elimination import top_k_elimination_set, top_k_elimination_sweep
from .runtime import (
    BudgetExceededError,
    CertificateError,
    CheckpointError,
    DegradationReport,
    ReproError,
    RunBudget,
    WaveformFaultError,
)
from .timing.constraints import Constraints
from .verify import Certificate, check_certificate, propagate_delay_bounds

__version__ = "1.0.0"

__all__ = [
    "AnalysisConfig",
    "BudgetExceededError",
    "Certificate",
    "CertificateError",
    "CheckpointError",
    "Constraints",
    "DegradationReport",
    "Design",
    "ReproError",
    "RunBudget",
    "TopKResult",
    "WaveformFaultError",
    "__version__",
    "analyze",
    "check_certificate",
    "circuit_delay",
    "load_bench",
    "load_verilog",
    "make_paper_benchmark",
    "minimum_fix_set",
    "parse_bench",
    "parse_verilog",
    "propagate_delay_bounds",
    "random_design",
    "recommend_addition_budget",
    "recommend_elimination_budget",
    "top_k_addition_set",
    "top_k_addition_sweep",
    "top_k_elimination_set",
    "top_k_elimination_sweep",
    "top_k_set",
    "top_k_sweep",
]
