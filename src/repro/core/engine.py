"""The top-k enumeration engine (paper Sections 3.1-3.4, Figure 9).

One engine implements both problem flavors; they differ only in which
timing windows feed the envelopes, how a candidate is scored, and the
direction of "better":

====================  =============================  ===========================
aspect                addition (Section 3.3)         elimination (Section 3.4)
====================  =============================  ===========================
aggressor windows     noiseless STA windows          noisy (expanded) windows
                                                     from the converged
                                                     iterative analysis
victim reference      noiseless latest transition    noiseless latest transition
score of a set S      delay noise of S's combined    delay noise remaining after
                      envelope                       subtracting S's envelope
                                                     from the *total* envelope
better score          larger                         smaller
====================  =============================  ===========================

The bottom-up loop is the paper's: for cardinality i = 1..k, visit every
victim in topological order and build its irredundant list I-list_i from

1. extensions of I-list_{i-1} by one non-dominated single aggressor,
2. pseudo input aggressors of cardinality i propagated from the driver's
   fanin (Section 3.1),
3. higher-order aggressors of cardinality i — primary aggressors whose
   windows widen due to sets from their own I-list_{i-1} (Section 2),
4. dominance reduction (Section 3.2, Theorem 1).

A virtual sink whose inputs are all primary outputs merges the per-output
lists, so the reported set is chosen against the *circuit* delay.  The
selected set is finally re-scored by the exact iterative noise analysis
(the oracle), which is what the result tables report.
"""

from __future__ import annotations

import os
import time
import warnings
from bisect import bisect_right
from itertools import chain, repeat
from operator import attrgetter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..circuit.coupling import CouplingCap
from ..circuit.design import Design
from ..noise.analysis import (
    DirectionTable,
    NoiseConfig,
    NoiseResult,
    analyze_noise,
    analyze_noise_resilient,
)
from ..noise.envelope import check_trapezoids, envelope_breakpoints, sum_trapezoids
from ..noise.pulse import NoisePulse, coupling_pulses
from ..obs.metrics import MetricsRegistry
from ..obs.profile import SamplingProfiler
from ..obs.trace import Trace
from ..obs.tracer import NULL_TRACER, Tracer
from ..obs.tracer import activate as _obs_activate
from ..perf.batch import delay_noise_rows
from ..perf.memo import (
    EnvelopeMemo,
    counter_delta,
    global_cache_stats,
    grid_key,
    readonly,
)
from ..runtime import checkpoint as _ckpt
from ..runtime import faultinject
from ..runtime.budget import RunBudget, RuntimeMonitor
from ..runtime.degrade import DegradationReport, VictimDegradation
from ..runtime.errors import (
    BudgetExceededError,
    CheckpointError,
    ReproError,
    WaveformFaultError,
)
from ..timing.graph import TimingGraph
from ..timing.sta import TimingResult, run_sta
from ..timing.waveform import (
    Grid,
    Waveform,
    grid_rows,
    grids_of,
    rising_ramp,
    trapezoid,
)
from ..timing.windows import TimingWindow
from .aggressor_set import EnvelopeSet, join_labels
from .dominance import (
    DominanceInterval,
    _victim_ramp,
    batch_delay_noise,
    reduce_irredundant,
)

#: Virtual sink node name (never collides with user nets by convention).
SINK = "__sink__"

#: Shifts below this (ns) are treated as no shift at all.
_TINY_NS = 1e-9

#: Envelope samples below this are treated as zero by the sanity guard.
_NEGATIVE_ENV_TOL = 1e-9

#: Levels of the victim reference ramp's two breakpoints.
_RAMP_LEVELS = np.array([0.0, 1.0])

#: A primary's samples before its level is sampled.
_NO_SAMPLES = np.empty(0)

#: Rows a level sweep samples, validates and scores per array call.
#: The sampling kernel's temporaries page-fault at 256 rows and above
#: (see docs/performance.md, "Sweep kernels").
_CHUNK_ROWS = 128

#: Rows a level sweep holds at once, counted before filters: a run with
#: more candidates is generated and scored in several victim groups.
#: The level buffer starts at this size.  On the sign-off workload one
#: group per run peaks 16 % higher in RSS, and a buffer grown to fit
#: about 4 MB higher (see docs/performance.md, "Sweep kernels").
_LEVEL_ROWS = 2048

_COUPLINGS = attrgetter("couplings")
_BLOCKED = attrgetter("blocked")
_SCORE = attrgetter("score")
_ENV = attrgetter("env")

#: A sampling parameter: an ``(m, 1)`` column (one row per envelope) or
#: a scalar (one envelope).
Column = Union[float, np.ndarray]

ADDITION = "addition"
ELIMINATION = "elimination"
_MODES = (ADDITION, ELIMINATION)


class TopKError(ReproError, ValueError):
    """Raised for invalid solver invocations."""


class _HaltSolve(Exception):
    """Internal control-flow signal: stop sweeping, finalize partial.

    Never escapes :meth:`TopKEngine.solve`; carries the ladder context.
    """

    def __init__(self, reason: str, net: str, cardinality: int) -> None:
        super().__init__(reason)
        self.reason = reason
        self.net = net
        self.cardinality = cardinality


@dataclass(frozen=True)
class TopKConfig:
    """Solver knobs.

    Attributes
    ----------
    grid_points:
        Samples per victim grid.
    max_sets_per_cardinality:
        Beam cap on each irredundant list (None = exact dominance-only
        pruning, the paper's algorithm verbatim).  See DESIGN.md.
    use_pseudo / use_higher_order:
        Ablation switches for the paper's two key devices.
    window_filter:
        Apply the timing-window false-aggressor filter when collecting
        primary aggressors.
    noise:
        Configuration of the iterative analysis used for the elimination
        seed and for oracle evaluations.
    evaluate_with_oracle:
        Re-score the selected set with the full iterative analysis.
    horizon_margin:
        Multiple of the nominal circuit delay used as the "infinite
        window" horizon.
    audit_dominance:
        Record every dominance pruning decision in
        :attr:`TopKEngine.prune_log` so the lint subsystem's
        Theorem-1 audit (:mod:`repro.lint.audit`) can re-check the
        envelope-encapsulation preconditions on the sets the engine
        actually discarded.  Off by default.  The log holds each pruned
        set's provenance and score, not its envelope; envelopes are
        rebuilt, bit-identically, when records are read.
    budget:
        Optional :class:`~repro.runtime.budget.RunBudget` wrapping the
        solve in the resilience envelope: deadline / candidate / memory
        caps with a degradation ladder, checkpoint/resume, and
        convergence retries.  ``None`` keeps the legacy open-ended exact
        behavior.  See ``docs/robustness.md``.
    certify:
        Emit a proof-carrying :class:`~repro.verify.Certificate` for the
        solve: arms the prune log (like ``audit_dominance``),
        records the noise fixpoint's per-iteration trace, and makes the
        solvers attach the certificate to the result.  See
        ``docs/verification.md``.
    certify_witnesses:
        Cap on how many prunes carry full envelope witnesses in the
        certificate (evenly sampled over the prune log; ``None`` keeps
        every one).  Only the sampled witnesses' envelopes are rebuilt,
        so the cap bounds certificate size, not solve memory.
        Per-victim prune *counts* are always complete.
    parallelism:
        Inert; the solve is always serial.  Must be ``>= 1``; a value
        above 1 emits a :class:`DeprecationWarning`.  Kept only so
        existing callers that still pass it keep working; see
        ``docs/performance.md`` for why the engine is serial.
    trace:
        Record a span trace of the whole solve pipeline (sweeps, noise
        fixpoints, checkpoints, certificates)
        retrievable via :meth:`TopKEngine.solve_trace` / attached to the
        result as ``result.trace``.  Off by default: the disabled path
        is a shared no-op tracer with no per-span allocation (measured
        <2 % on the quick bench).  See ``docs/observability.md``.
    profile:
        Run the sampling profiler (:mod:`repro.obs.profile`) during
        solves, tagging stack samples with the active phase — the
        "where inside ``score`` does the time go" view.  Implies
        nothing about ``trace``; the profile rides on the trace bundle
        when both are on.
    """

    grid_points: int = 256
    max_sets_per_cardinality: Optional[int] = 12
    use_pseudo: bool = True
    use_higher_order: bool = True
    window_filter: bool = True
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    evaluate_with_oracle: bool = True
    oracle_rescore_top: int = 1
    horizon_margin: float = 2.0
    audit_dominance: bool = False
    budget: Optional[RunBudget] = None
    certify: bool = False
    certify_witnesses: Optional[int] = 512
    parallelism: int = 1
    trace: bool = False
    profile: bool = False

    def __post_init__(self) -> None:
        if self.grid_points < 8:
            raise TopKError("grid_points must be >= 8")
        cap = self.max_sets_per_cardinality
        if cap is not None and cap < 1:
            raise TopKError("max_sets_per_cardinality must be >= 1 or None")
        if self.oracle_rescore_top < 1:
            raise TopKError("oracle_rescore_top must be >= 1")
        if self.parallelism < 1:
            raise TopKError("parallelism must be >= 1")
        if self.parallelism > 1:
            warnings.warn(
                "TopKConfig.parallelism is inert: the solve runs serially",
                DeprecationWarning,
                stacklevel=3,
            )
        if self.certify_witnesses is not None and self.certify_witnesses < 1:
            raise TopKError("certify_witnesses must be >= 1 or None")
        if self.certify and not self.noise.record_trace:
            # Certificates need the fixpoint iterates; arm trace
            # recording on the frozen sub-config transparently.
            object.__setattr__(
                self, "noise", replace(self.noise, record_trace=True)
            )


#: SolveStats fields carrying plain enumeration counts (what a
#: certificate embeds).
_COUNTER_FIELDS = (
    "victims",
    "primary_aggressors",
    "candidates",
    "dominated",
    "pseudo_atoms",
    "higher_order_atoms",
    "semantic_skips",
)

#: SolveStats fields that described the old process-pool execution
#: (waves, chunks, retries, transport bytes).  The engine is serial, so
#: they always read 0; result format v1 still writes them.  The counter
#: ``semantic_skips`` in ``_COUNTER_FIELDS`` always reads 0 as well (no
#: direction is skipped before the window filter); it keeps its slot
#: because certificates embed ``core_counters()``.
_EXECUTION_FIELDS = (
    "waves",
    "parallel_tasks",
    "chunk_retries",
    "chunk_timeouts",
    "pool_respawns",
    "exec_fallbacks",
    "quarantined_chunks",
    "pool_payload_bytes",
    "shm_payload_bytes",
)


@dataclass
class SolveStats:
    """Counters describing how hard the enumeration worked.

    Beyond the enumeration counts, the observability layer folds in

    * ``phase_s`` — cumulative wall-clock seconds per solve phase
      (``build``, ``seed_noise``, ``generate``, ``score``, ``reduce``,
      ``oracle``).  The authoritative accumulation lives
      in the engine's :class:`~repro.obs.metrics.MetricsRegistry`
      (``phase_s.*`` counters); this field is a snapshot refreshed when
      a solution is produced;
    * ``cache_hits`` / ``cache_misses`` — per-cache counters of the
      memoization layer (:mod:`repro.perf.memo`).

    The nine execution fields (``waves`` through ``shm_payload_bytes``,
    see ``_EXECUTION_FIELDS``) counted the old process-pool scheduler's
    work.  The engine is serial, so they always read 0; they stay
    because result format v1 writes them.  ``semantic_skips`` always
    reads 0 as well; it stays because certificates embed it.
    """

    victims: int = 0
    primary_aggressors: int = 0
    candidates: int = 0
    dominated: int = 0
    pseudo_atoms: int = 0
    higher_order_atoms: int = 0
    semantic_skips: int = 0
    waves: int = 0
    parallel_tasks: int = 0
    chunk_retries: int = 0
    chunk_timeouts: int = 0
    pool_respawns: int = 0
    exec_fallbacks: int = 0
    quarantined_chunks: int = 0
    pool_payload_bytes: int = 0
    shm_payload_bytes: int = 0
    phase_s: Dict[str, float] = field(default_factory=dict)
    cache_hits: Dict[str, int] = field(default_factory=dict)
    cache_misses: Dict[str, int] = field(default_factory=dict)

    def core_counters(self) -> Dict[str, int]:
        """The execution-order-independent enumeration counts."""
        return {name: getattr(self, name) for name in _COUNTER_FIELDS}

    def cache_rates(self) -> Dict[str, float]:
        """Hit rate per cache (caches with zero lookups are omitted)."""
        rates: Dict[str, float] = {}
        for name in sorted(set(self.cache_hits) | set(self.cache_misses)):
            hits = self.cache_hits.get(name, 0)
            total = hits + self.cache_misses.get(name, 0)
            if total:
                rates[name] = hits / total
        return rates

    def to_json(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "SolveStats":
        known = {f for f in cls.__dataclass_fields__}
        kwargs: Dict[str, object] = {}
        for key, value in data.items():
            if key not in known:
                continue
            if key == "phase_s":
                kwargs[key] = {str(k): float(v) for k, v in dict(value).items()}
            elif key in ("cache_hits", "cache_misses"):
                kwargs[key] = {str(k): int(v) for k, v in dict(value).items()}
            else:
                kwargs[key] = int(value)  # type: ignore[call-overload]
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass
class _PrimaryInfo:
    """Per-coupling working data at one victim."""

    coupling: CouplingCap
    aggressor: str
    pulse: NoisePulse
    window: TimingWindow
    sampled: np.ndarray


@dataclass
class _VictimContext:
    """Per-net working state of the enumeration."""

    net: str
    grid: Grid
    t50: float
    slew: float
    interval: DominanceInterval
    inputs: Dict[str, float]  # input net -> nominal slack (ns)
    primaries: List[EnvelopeSet] = field(default_factory=list)
    primary_info: List[_PrimaryInfo] = field(default_factory=list)
    # Single-aggressor extension pool (paper step 1's "additional
    # aggressor"): all primaries plus every cardinality-1 pseudo atom —
    # *not* dominance-pruned, because a dominated single can still be the
    # only compatible completion of a set containing its dominator.
    atoms1: List[EnvelopeSet] = field(default_factory=list)
    ilists: Dict[int, List[EnvelopeSet]] = field(default_factory=dict)
    total_env: Optional[np.ndarray] = None  # elimination mode
    shift_tot: float = 0.0  # elimination mode: estimated total shift here


@dataclass(frozen=True)
class PruneRecord:
    """One dominance pruning decision, kept for the soundness audit.

    ``dominator`` is the already-kept candidate whose envelope
    encapsulated ``dominated`` over the victim's dominance interval when
    the engine discarded the latter (Theorem 1 application).
    """

    net: str
    cardinality: int
    dominator: EnvelopeSet
    dominated: EnvelopeSet


class PruneSummary(NamedTuple):
    """A :class:`PruneRecord` reduced to what needs no rebuild: the
    pruned set's score, not its couplings or envelope."""

    net: str
    cardinality: int
    dominator: EnvelopeSet
    score: float


def _summary(record: PruneRecord) -> PruneSummary:
    return PruneSummary(
        record.net, record.cardinality, record.dominator, record.dominated.score
    )


class _Segment:
    """The rows of a candidate pool that one construction path built.

    A segment holds provenance, never envelopes: the sets, shifts and
    widenings its rows came from.  :meth:`row` gives one row's kernel
    inputs and :meth:`sample` runs the kernel over stacked inputs, with
    the operations and order that first built the rows, so a rebuilt row
    is bit-identical to the pooled one.  ``sample`` takes ``times`` as
    the victim's ``(n,)`` grid or one ``(m, n)`` grid row per envelope:
    each element sees the same operations either way, which lets
    :func:`_rebuild` sample rows of many victims in one call.  A rebuild
    never calls the fault injector.
    """

    def __len__(self) -> int:
        raise NotImplementedError

    def couplings(self, r: int) -> FrozenSet[int]:
        raise NotImplementedError

    def blocked(self, r: int) -> FrozenSet[int]:
        raise NotImplementedError

    def label(self, r: int) -> str:
        raise NotImplementedError

    def row(self, ctx: _VictimContext, r: int) -> Tuple[object, ...]:
        """The kernel inputs of row ``r``: floats, tuples or envelopes."""
        raise NotImplementedError

    @staticmethod
    def sample(times: np.ndarray, *columns: np.ndarray) -> np.ndarray:
        """Envelopes from :meth:`row` inputs stacked column by column."""
        raise NotImplementedError


def _stack(rows: Sequence[Tuple[object, ...]]) -> List[np.ndarray]:
    """Row inputs stacked into one array per column."""
    return [np.array(column, dtype=np.float64) for column in zip(*rows)]


@dataclass(eq=False)
class _Primaries(_Segment):
    """Cardinality 1: the victim's primary aggressors themselves."""

    sets: List[EnvelopeSet]

    def __len__(self) -> int:
        return len(self.sets)

    def couplings(self, r: int) -> FrozenSet[int]:
        return self.sets[r].couplings

    def blocked(self, r: int) -> FrozenSet[int]:
        return self.sets[r].blocked

    def label(self, r: int) -> str:
        return self.sets[r].label

    def row(self, ctx: _VictimContext, r: int) -> Tuple[object, ...]:
        return (self.sets[r].env,)

    @staticmethod
    def sample(times: np.ndarray, *columns: np.ndarray) -> np.ndarray:
        return columns[0]


@dataclass(eq=False)
class _Pseudo(_Segment):
    """Pseudo input atoms from the fanins' I-lists (Section 3.1).

    Row ``r`` is set ``sets[picks[r]]`` of fanin ``fanins[fanin_of[r]]``,
    arriving ``shifts[r]`` late at the victim.  In elimination mode
    ``totals[r]`` is that fanin's total shift and ``shifts[r]`` what
    remains of it once the row's set is removed.  ``sets`` and
    ``fanins`` are shared by every victim of a level.
    """

    sets: List[EnvelopeSet]
    picks: np.ndarray
    fanins: List[str]
    fanin_of: np.ndarray
    shifts: np.ndarray
    totals: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.picks)

    def couplings(self, r: int) -> FrozenSet[int]:
        return self.sets[self.picks[r]].couplings

    def blocked(self, r: int) -> FrozenSet[int]:
        return self.sets[self.picks[r]].blocked

    def label(self, r: int) -> str:
        return f"pseudo({self.fanins[self.fanin_of[r]]})"

    def row(self, ctx: _VictimContext, r: int) -> Tuple[object, ...]:
        own = (ctx.t50, ctx.slew, self.shifts[r])
        return own if self.totals is None else own + (self.totals[r],)

    @staticmethod
    def sample(times: np.ndarray, *columns: np.ndarray) -> np.ndarray:
        t50, slew, shifts = (c[:, None] for c in columns[:3])
        if len(columns) == 3:
            return _sample_shift_bumps(times, t50, slew, shifts)
        # The total bump minus what remains after removing the set;
        # x - 0.0 == x exactly, so rows with no remaining shift keep the
        # bare total bump.
        full = _sample_shift_bumps(times, t50, slew, columns[3][:, None])
        sub = np.zeros_like(full)
        live = columns[2] > _TINY_NS
        if live.any():
            at = times if times.ndim == 1 else times[live]
            sub[live] = _sample_shift_bumps(at, t50[live], slew[live], shifts[live])
        return np.clip(full - sub, 0.0, None)


@dataclass(eq=False)
class _HigherOrder(_Segment):
    """Higher-order atoms (Section 2): primaries re-sampled with their
    LAT moved by a set on the aggressor's own I-list_{i-1}.

    Row ``r`` moves primary ``primaries[r]`` (an index into
    ``ctx.primary_info``, coupling ``index[r]``) by ``widens[r]``, for
    set ``sets[picks[r]]``.  Addition rows are the widened primaries.
    Elimination rows (``narrow``) are what the narrowing takes off the
    primary envelope, ``clip(primary - narrowed, 0)``.
    """

    sets: List[EnvelopeSet]
    picks: np.ndarray
    primaries: np.ndarray
    index: np.ndarray
    widens: np.ndarray
    narrow: bool

    def __len__(self) -> int:
        return len(self.picks)

    def couplings(self, r: int) -> FrozenSet[int]:
        own = self.sets[self.picks[r]].couplings
        return own if self.narrow else own | {int(self.index[r])}

    def blocked(self, r: int) -> FrozenSet[int]:
        own = self.sets[self.picks[r]].blocked
        return own | {int(self.index[r])} if self.narrow else own

    def label(self, r: int) -> str:
        if self.narrow:
            return f"narrow:c{self.index[r]}"
        return f"order{self.sets[self.picks[r]].cardinality + 1}:c{self.index[r]}"

    def row(self, ctx: _VictimContext, r: int) -> Tuple[object, ...]:
        info = ctx.primary_info[self.primaries[r]]
        own = (_primary_row(info), self.widens[r])
        return own + (info.sampled,) if self.narrow else own

    @staticmethod
    def moved(times: np.ndarray, params: np.ndarray, widens: np.ndarray) -> np.ndarray:
        """Primaries sampled with their LAT moved by ``widens``."""
        return _sample_primaries(times, *params.T[:, :, None], widens[:, None])

    @staticmethod
    def sample(times: np.ndarray, *columns: np.ndarray) -> np.ndarray:
        block = _HigherOrder.moved(times, columns[0], columns[1])
        if len(columns) == 2:
            return block
        return np.clip(columns[2] - block, 0.0, None)


@dataclass(eq=False)
class _Merge(_Segment):
    """Extensions of I-list_{i-1} bases by compatible single atoms
    (paper step 1): row ``r`` is ``atom(r).env + base(r).env``.  The
    ``bases`` and ``atoms`` lists are shared by every victim of a level.
    """

    bases: List[EnvelopeSet]
    atoms: List[EnvelopeSet]
    base_of: np.ndarray
    atom_of: np.ndarray

    def __len__(self) -> int:
        return len(self.base_of)

    def base(self, r: int) -> EnvelopeSet:
        return self.bases[self.base_of[r]]

    def atom(self, r: int) -> EnvelopeSet:
        return self.atoms[self.atom_of[r]]

    def couplings(self, r: int) -> FrozenSet[int]:
        return self.base(r).couplings | self.atom(r).couplings

    def blocked(self, r: int) -> FrozenSet[int]:
        return self.base(r).blocked | self.atom(r).blocked

    def label(self, r: int) -> str:
        return join_labels(self.base(r).label, self.atom(r).label)

    def row(self, ctx: _VictimContext, r: int) -> Tuple[object, ...]:
        return self.atom(r).env, self.base(r).env

    @staticmethod
    def sample(times: np.ndarray, *columns: np.ndarray) -> np.ndarray:
        # IEEE addition commutes: atom env + base env, as built.
        block = columns[0]
        block += columns[1]
        return block


def _rebuild(items: Sequence[Tuple[_VictimContext, _Segment, int]]) -> np.ndarray:
    """The envelopes of ``(ctx, segment, row)`` items, stacked in order.

    Rows of one segment kind are sampled in one kernel call, each with
    its own victim's grid, however many victims and reductions they
    span.
    """
    kinds: Dict[Tuple[type, int], Tuple[List[int], List[np.ndarray], List[Tuple[object, ...]]]] = {}
    for n, (ctx, seg, r) in enumerate(items):
        inputs = seg.row(ctx, r)
        at, times, rows = kinds.setdefault((type(seg), len(inputs)), ([], [], []))
        at.append(n)
        times.append(ctx.grid.times)
        rows.append(inputs)
    out = np.empty((len(items), items[0][0].grid.n if items else 0))
    for (kind, _), (at, times, rows) in kinds.items():
        out[at] = kind.sample(np.array(times), *_stack(rows))
    return out


@dataclass(eq=False)
class _Rows:
    """One construction path's rows of a level, in victim order.

    ``owner`` is each row's victim (a run index, ascending), ``keys`` its
    coupling set as ascending ids padded on the left with -1, and
    ``cols`` the path's other per-row columns.  ``sample(rows, sel)``
    gives the envelopes of rows ``sel`` and ``segment(rows, lo, hi)`` the
    provenance of one victim's rows ``lo:hi``.
    """

    owner: np.ndarray
    keys: np.ndarray
    cols: Dict[str, np.ndarray]
    sample: Callable[["_Rows", slice], np.ndarray]
    segment: Callable[["_Rows", int, int], _Segment]

    def take(self, rows: Union[slice, np.ndarray]) -> "_Rows":
        """The rows ``rows`` (a slice or a boolean mask)."""
        return replace(
            self,
            owner=self.owner[rows],
            keys=self.keys[rows],
            cols={name: col[rows] for name, col in self.cols.items()},
        )


@dataclass(eq=False)
class _Front:
    """Lists of :class:`EnvelopeSet` flattened into arrays.

    List ``q`` owns rows ``lo[q]:hi[q]``.  ``keys`` holds each set's
    couplings and ``forbid`` its couplings and blocked ids, both as
    ascending ids padded on the left (-1 in ``keys``, -2 in ``forbid``,
    so pads never match each other).
    """

    sets: List[EnvelopeSet]
    lo: np.ndarray
    hi: np.ndarray
    scores: np.ndarray
    keys: np.ndarray

    @classmethod
    def of(cls, lists: Sequence[Sequence[EnvelopeSet]]) -> "_Front":
        lens = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
        bounds = _offsets(lens)
        sets = list(chain.from_iterable(lists))
        keys = _key_rows(list(map(_COUPLINGS, sets)))
        scores = np.fromiter(map(_SCORE, sets), dtype=np.float64, count=len(sets))
        return cls(sets, bounds[:-1], bounds[1:], scores, keys)

    @cached_property
    def forbid(self) -> np.ndarray:
        forbid = np.concatenate((self.keys, _key_rows(list(map(_BLOCKED, self.sets)))), axis=1)
        forbid[forbid < 0] = -2
        return forbid

    @cached_property
    def envs(self) -> List[np.ndarray]:
        return list(map(_ENV, self.sets))


@dataclass(eq=False)
class _Run:
    """Victims swept together: consecutive in topological order, none a
    fanin of another, so each reads only lists the sweep has finished.

    Holds, as arrays, what their sweeps read at every cardinality: the
    victims' references and grids, their (victim, fanin) pairs in input
    order and their primaries in victim order.  Sampled primaries are
    gathered from the sets' own arrays, not stacked, so the run holds no
    copy of them.
    """

    ctxs: List[_VictimContext]
    first: int  # topological position of ctxs[0]
    t50: np.ndarray
    slew: np.ndarray
    dt: np.ndarray
    floor: np.ndarray  # widenings at or below this are no atom
    times: np.ndarray
    ramps: np.ndarray
    totals: Optional[np.ndarray]  # elimination mode
    fanins: List[_VictimContext]  # per (victim, fanin) pair
    fanin_names: List[str]
    f_owner: np.ndarray
    f_bounds: np.ndarray
    f_slack: np.ndarray
    f_total: np.ndarray
    p_owner: np.ndarray
    p_bounds: np.ndarray
    p_index: np.ndarray  # index into the owner's primary_info
    p_params: np.ndarray  # _primary_row of each primary
    p_cid: np.ndarray
    p_agg: np.ndarray  # the aggressor's topological position, -1 if none
    p_shift: np.ndarray  # the aggressor's total shift (elimination mode)
    p_sampled: List[np.ndarray]

    @classmethod
    def build(
        cls,
        ctxs: List[_VictimContext],
        contexts: Dict[str, _VictimContext],
        position: Dict[str, int],
    ) -> "_Run":
        elimination = ctxs[0].total_env is not None
        pairs = [
            (v, contexts[u], slack)
            for v, ctx in enumerate(ctxs)
            for u, slack in ctx.inputs.items()
            if u in contexts
        ]
        prims = [
            (v, j, info, contexts.get(info.aggressor))
            for v, ctx in enumerate(ctxs)
            for j, info in enumerate(ctx.primary_info)
        ]
        bounds = np.arange(len(ctxs) + 1)
        f_owner = np.array([v for v, _, _ in pairs], dtype=np.intp)
        p_owner = np.array([v for v, _, _, _ in prims], dtype=np.intp)
        return cls(
            ctxs=ctxs,
            first=position[ctxs[0].net],
            t50=np.array([ctx.t50 for ctx in ctxs]),
            slew=np.array([ctx.slew for ctx in ctxs]),
            dt=np.array([ctx.grid.dt for ctx in ctxs]),
            floor=np.array([max(_TINY_NS, 0.5 * ctx.grid.dt) for ctx in ctxs]),
            times=np.array([ctx.grid.times for ctx in ctxs]),
            ramps=np.array([_victim_ramp(ctx.t50, ctx.slew, ctx.grid) for ctx in ctxs]),
            totals=np.array([ctx.total_env for ctx in ctxs]) if elimination else None,
            fanins=[uctx for _, uctx, _ in pairs],
            fanin_names=[uctx.net for _, uctx, _ in pairs],
            f_owner=f_owner,
            f_bounds=np.searchsorted(f_owner, bounds),
            f_slack=np.array([slack for _, _, slack in pairs]),
            f_total=np.array(
                [max(0.0, uctx.shift_tot - slack) for _, uctx, slack in pairs]
            ),
            p_owner=p_owner,
            p_bounds=np.searchsorted(p_owner, bounds),
            p_index=np.array([j for _, j, _, _ in prims], dtype=np.intp),
            p_params=np.array([_primary_row(info) for _, _, info, _ in prims]).reshape(-1, 6),
            p_cid=np.array([info.coupling.index for _, _, info, _ in prims], dtype=np.int64),
            p_agg=np.array(
                [-1 if a is None else position[a.net] for _, _, _, a in prims], dtype=np.intp
            ),
            p_shift=np.array([0.0 if a is None else a.shift_tot for _, _, _, a in prims]),
            p_sampled=[info.sampled for _, _, info, _ in prims],
        )


@dataclass(eq=False)
class _Level:
    """The scored candidate pools of a run's victims ``first:stop``.

    Victim ``first + j`` owns rows ``bounds[j]:bounds[j + 1]`` of
    ``matrix`` (envelopes), ``scores`` and ``keys`` (coupling ids), built
    by ``segments[j]`` from local row ``starts[j][s]`` on.  ``dedupe[j]``
    are its rows left after collapsing identical sets, in candidate
    order; ``pseudo[j]`` and ``higher[j]`` its atom counts.  ``guards``
    are the higher-order rows before any filter, for the fault
    injector.  ``faults`` maps
    ``(j, phase)`` to the error a bad sample found while building
    (``"higher-order"``) or scoring (``"score"``) raises at that
    victim's turn.
    """

    first: int
    stop: int
    matrix: np.ndarray
    scores: np.ndarray
    bounds: List[int]
    segments: List[List[_Segment]]
    starts: List[List[int]]
    dedupe: List[np.ndarray]
    pseudo: List[int]
    higher: List[int]
    guards: Optional[_Rows]
    faults: Dict[Tuple[int, str], WaveformFaultError]

    def locate(self, j: int, p: int) -> Tuple[_Segment, int]:
        """The segment of victim ``first + j``'s local row ``p`` and the
        row's index inside it."""
        return _locate(self.segments[j], self.starts[j], p)

    def couplings(self, j: int, p: int) -> FrozenSet[int]:
        """The coupling set of victim ``first + j``'s local row ``p``."""
        seg, r = self.locate(j, p)
        return seg.couplings(r)


@dataclass(eq=False)
class _PruneChunk:
    """The prunes of one dominance reduction, held as provenance.

    ``rows`` are the pruned rows' pool positions in prune order, with
    their scores and dominators (survivors, alive anyway).  The pool's
    envelope matrix is not kept: :meth:`items` names the segment row
    behind each prune, and :func:`_rebuild` samples it again.
    """

    ctx: _VictimContext
    cardinality: int
    segments: List[_Segment]
    starts: List[int]
    rows: np.ndarray
    scores: np.ndarray
    dominators: List[EnvelopeSet]

    def __len__(self) -> int:
        return len(self.dominators)

    def head(self, size: int) -> "_PruneChunk":
        """The chunk's first ``size`` prunes."""
        return replace(
            self,
            rows=self.rows[:size],
            scores=self.scores[:size],
            dominators=self.dominators[:size],
        )

    def summaries(self) -> Iterator[PruneSummary]:
        net, card = self.ctx.net, self.cardinality
        for dominator, score in zip(self.dominators, self.scores.tolist()):
            yield PruneSummary(net, card, dominator, score)

    def items(self, picks: Sequence[int]) -> List[Tuple[_VictimContext, _Segment, int]]:
        """The :func:`_rebuild` item of each prune at chunk positions ``picks``."""
        return [
            (self.ctx,) + _locate(self.segments, self.starts, p)
            for p in self.rows[list(picks)].tolist()
        ]

    def records(
        self,
        picks: Sequence[int],
        items: Sequence[Tuple[_VictimContext, _Segment, int]],
        envs: np.ndarray,
    ) -> List[PruneRecord]:
        """The records at chunk positions ``picks``, given their items and
        rebuilt envelopes."""
        net, card = self.ctx.net, self.cardinality
        records: List[PruneRecord] = []
        for (_, seg, r), env, j in zip(items, envs, picks):
            pruned = EnvelopeSet(
                seg.couplings(r), env, seg.blocked(r), float(self.scores[j]), seg.label(r)
            )
            records.append(PruneRecord(net, card, self.dominators[j], pruned))
        return records


class PruneLog:
    """Every dominance pruning decision of a solve, in prune order.

    Reads as a sequence of :class:`PruneRecord` (``len``, iteration,
    indexing, ``append``/``extend``/``pop``/``clear``, ``== list``).
    The engine stores each reduction's prunes as one provenance chunk,
    not as envelopes: a record's pruned envelope is rebuilt,
    bit-identically, when the record is read, and records are read
    chunk by chunk so each segment is rebuilt once per pass.  Records
    appended directly (a test's) are kept as they are.
    """

    def __init__(self) -> None:
        self._entries: List[Union[_PruneChunk, PruneRecord]] = []
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[PruneRecord]:
        for entry in self._entries:
            if isinstance(entry, PruneRecord):
                yield entry
            else:
                picks = range(len(entry))
                items = entry.items(picks)
                yield from entry.records(picks, items, _rebuild(items))

    def __getitem__(self, index: int) -> PruneRecord:
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("prune log index out of range")
        return next(self.pick([index]))[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, PruneLog)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def append(self, record: PruneRecord) -> None:
        self._entries.append(record)
        self._len += 1

    def extend(self, records: Iterable[PruneRecord]) -> None:
        for record in records:
            self.append(record)

    def pop(self) -> PruneRecord:
        """Remove and return the last record."""
        if not self._entries:
            raise IndexError("pop from empty prune log")
        last = self._entries[-1]
        if isinstance(last, PruneRecord):
            record = last
            self._entries.pop()
        else:
            record = next(self.pick([self._len - 1]))[1]
            if len(last) == 1:
                self._entries.pop()
            else:
                self._entries[-1] = last.head(len(last) - 1)
        self._len -= 1
        return record

    def clear(self) -> None:
        self._entries.clear()
        self._len = 0

    def add_chunk(self, chunk: _PruneChunk) -> None:
        """Append one reduction's prunes (the engine's recording path)."""
        if len(chunk):
            self._entries.append(chunk)
            self._len += len(chunk)

    def tally(self) -> Iterator[Tuple[str, int, int]]:
        """``(net, cardinality, count)`` runs in prune order, without
        building records."""
        for entry in self._entries:
            if isinstance(entry, PruneRecord):
                yield entry.net, entry.cardinality, 1
            else:
                yield entry.ctx.net, entry.cardinality, len(entry)

    def summaries(self) -> Iterator[PruneSummary]:
        """Every prune in order, without rebuilding anything."""
        for entry in self._entries:
            if isinstance(entry, PruneRecord):
                yield _summary(entry)
            else:
                yield from entry.summaries()

    def batches(self) -> Iterator[Tuple[List[PruneSummary], np.ndarray]]:
        """Every prune in order, in batches of one victim and
        cardinality, each with its pruned envelopes stacked ``(len, n)``
        (no record objects are built)."""
        for entry in self._entries:
            if isinstance(entry, PruneRecord):
                yield [_summary(entry)], entry.dominated.env[None, :]
            else:
                yield list(entry.summaries()), _rebuild(entry.items(range(len(entry))))

    def pick(self, indices: Iterable[int]) -> Iterator[Tuple[int, PruneRecord]]:
        """``(index, record)`` for ascending prune-order ``indices``; the
        picked envelopes are rebuilt together, in one kernel call per
        segment kind."""
        wanted = iter(indices)
        nxt = next(wanted, None)
        pos = 0
        found: List[Tuple[int, Union[_PruneChunk, PruneRecord], List[int]]] = []
        for entry in self._entries:
            if nxt is None:
                break
            size = 1 if isinstance(entry, PruneRecord) else len(entry)
            local: List[int] = []
            while nxt is not None and nxt < pos + size:
                local.append(nxt - pos)
                nxt = next(wanted, None)
            if local:
                found.append((pos, entry, local))
            pos += size
        items = [
            item
            for _, entry, local in found
            if isinstance(entry, _PruneChunk)
            for item in entry.items(local)
        ]
        envs = _rebuild(items)
        at = 0
        for pos, entry, local in found:
            if isinstance(entry, PruneRecord):
                yield pos, entry
                continue
            mine = items[at : at + len(local)]
            records = entry.records(local, mine, envs[at : at + len(local)])
            at += len(local)
            for j, record in zip(local, records):
                yield pos + j, record


@dataclass
class EngineSolution:
    """Raw solver output (before oracle evaluation).

    ``degraded`` marks a solution produced under budget pressure (beam
    narrowed and/or sweep halted early); ``degradation`` carries the
    ladder's per-victim provenance.
    """

    mode: str
    k: int
    best: Optional[EnvelopeSet]
    best_per_cardinality: Dict[int, EnvelopeSet]
    finalists: List[EnvelopeSet]
    stats: SolveStats
    nominal_delay: float
    all_aggressor_delay: Optional[float]
    degraded: bool = False
    degradation: Optional[DegradationReport] = None

    def estimated_delay(self, cardinality: Optional[int] = None) -> Optional[float]:
        """Solver-side circuit-delay estimate for the chosen set."""
        best = (
            self.best
            if cardinality is None
            else self.best_per_cardinality.get(cardinality)
        )
        if best is None:
            return None
        return self.nominal_delay + best.score


class TopKEngine:
    """Reusable solver over one design (build once, solve for several k)."""

    def __init__(
        self,
        design: Design,
        mode: str,
        config: Optional[TopKConfig] = None,
        memo: Optional[EnvelopeMemo] = None,
    ) -> None:
        #: When construction began; a result's ``runtime_s`` counts from
        #: here to the end of its solve.
        self.created_t = time.perf_counter()  # lint: allow[RPR801] runtime_s only
        if mode not in _MODES:
            raise TopKError(f"mode must be one of {_MODES}, got {mode!r}")
        self.design = design
        self.mode = mode
        self.config = config if config is not None else TopKConfig()
        #: Cross-solve memoization (pulses and sampled primary
        #: envelopes).  Pass a shared memo to warm a new
        #: engine over the *same design*; never share across designs.
        self.memo = memo if memo is not None else EnvelopeMemo()
        self.netlist = design.netlist
        self.coupling = design.coupling
        self.graph = TimingGraph.from_netlist(self.netlist)
        self.nominal = run_sta(self.netlist, self.graph)
        self.horizon = self.nominal.horizon(self.config.horizon_margin)
        budget = self.config.budget
        self.monitor = RuntimeMonitor(budget)
        self.degradation: Optional[DegradationReport] = None
        self._rung = 0
        self._beam_cap = self.config.max_sets_per_cardinality
        self._global_cache_base = global_cache_stats()
        self.all_aggressor_delay: Optional[float] = None
        self.stats = SolveStats()
        #: True while a solve sweeps: its phases end thousands of times
        #: per solve and leave ``stats.phase_s`` to the solve's end.
        self._sweeping = False
        #: Observability (docs/observability.md): the span tracer (a
        #: shared no-op when tracing is off), the unified metrics
        #: registry (always on — it is the authority for phase timings),
        #: and the optional sampling profiler.
        self.tracer = Tracer() if self.config.trace else NULL_TRACER
        self.metrics = MetricsRegistry()
        self.profiler: Optional[SamplingProfiler] = (
            SamplingProfiler() if self.config.profile else None
        )
        #: The seed fixpoint run (elimination mode), retained when
        #: certifying so the certificate can carry its trace.
        self.seed_noise: Optional[NoiseResult] = None
        if mode == ELIMINATION:
            retries = budget.convergence_retries if budget is not None else 0
            monitor = self.monitor if budget is not None else None
            with self._phase("seed_noise"):
                if retries > 0:
                    noisy = analyze_noise_resilient(
                        design, config=self.config.noise, graph=self.graph,
                        monitor=monitor, retries=retries,
                    )
                else:
                    noisy = analyze_noise(
                        design, config=self.config.noise, graph=self.graph,
                        monitor=monitor,
                    )
            self.window_timing: TimingResult = noisy.timing
            self.all_aggressor_delay = noisy.circuit_delay()
            if self.config.certify:
                self.seed_noise = noisy
        else:
            self.window_timing = self.nominal
        self.contexts: Dict[str, _VictimContext] = {}
        #: Dominance prunes, recorded when ``audit_dominance`` or
        #: ``certify`` is on: provenance per reduction, with pruned
        #: envelopes rebuilt only when a record is read.
        self.prune_log = PruneLog()
        #: The sweep's runs of victims (built at the first solve) and the
        #: I-lists it reads as arrays, per cardinality (``atoms1`` under 0).
        self._run_cache: Optional[List[_Run]] = None
        self._fronts: Dict[int, _Front] = {}
        #: The rows of the level being swept, reused level after level
        #: within a solve (a fresh multi-megabyte array per level
        #: page-faults as it fills).
        self._level_rows = np.empty((0, self.config.grid_points))
        self._solved_upto = 0
        self.resumed_from: Optional[str] = None
        with self._phase("build"):
            self._build_contexts()
        if (
            budget is not None
            and budget.checkpoint_path is not None
            and os.path.exists(budget.checkpoint_path)
        ):
            self._restore_checkpoint(budget.checkpoint_path)

    # ------------------------------------------------------------------
    # lifecycle and profiling
    # ------------------------------------------------------------------
    @contextmanager
    def _phase(self, name: str) -> Iterator[None]:
        """One solve phase: metrics accumulation + span + profile tag.

        The wall-clock total lands in the metrics registry
        (``phase_s.<name>``), the authority for phase timings.
        ``SolveStats.phase_s`` is a snapshot of it, taken when a phase
        ends outside a sweep (build, seed noise, the oracle), when a
        solve ends (:meth:`_refresh_cache_stats`, or the error path of
        :meth:`solve`) and before a checkpoint is written.  When
        tracing is on, the phase is also a span and the engine's tracer
        is activated for the block so library code deeper in the call
        tree (noise fixpoint, checkpoints, certificates) lands its
        spans in the same trace.
        """
        t0 = time.perf_counter()  # lint: allow[RPR801] phase metrics only
        profiler = self.profiler
        if profiler is not None:
            prev_tag = profiler.phase
            profiler.phase = name
        if self.tracer.enabled:
            with _obs_activate(self.tracer), self.tracer.span(name, cat="phase"):
                try:
                    yield
                finally:
                    if profiler is not None:
                        profiler.phase = prev_tag
                    self.metrics.counter_add(
                        # lint: allow[RPR801] phase metrics only
                        f"phase_s.{name}", time.perf_counter() - t0
                    )
                    if not self._sweeping:
                        self.stats.phase_s = self.metrics.phase_seconds()
        else:
            try:
                yield
            finally:
                if profiler is not None:
                    profiler.phase = prev_tag
                self.metrics.counter_add(
                    # lint: allow[RPR801] phase metrics only
                    f"phase_s.{name}", time.perf_counter() - t0
                )
                if not self._sweeping:
                    self.stats.phase_s = self.metrics.phase_seconds()

    def close(self) -> None:
        """Stop the sampling profiler, if any (idempotent)."""
        if self.profiler is not None:
            self.profiler.stop()

    def solve_trace(self) -> Trace:
        """The observability bundle of this engine's solves so far."""
        return Trace(
            tracer=self.tracer,
            metrics=self.metrics,
            profile=self.profiler.report() if self.profiler is not None else None,
        )

    def __enter__(self) -> "TopKEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # context construction
    # ------------------------------------------------------------------
    def _build_contexts(self) -> None:
        """Every victim's context: one direction-table pass for the
        primaries, then one array pass per topological level, the sink
        last.

        A victim's dominance bound adds its fanins' bounds as a shift
        bump, so a level needs only the levels below it.  Contexts are
        kept in topological order, sink last, whatever order the levels
        ran in.
        """
        order = self.graph.topo_order
        nominal = self.nominal.arrays
        assert nominal is not None
        owner, params, infos = self._primaries()
        arcs = self.graph.arcs()
        level_of = np.array([self.graph.level[net] for net in order], dtype=np.intp)
        # Primaries grouped by level, topological order kept within one.
        by_level = np.argsort(level_of[owner], kind="stable")
        cuts = np.searchsorted(level_of[owner][by_level], np.arange(len(arcs.levels) + 2))
        n = len(order)
        ub = np.zeros(n + 1)  # the last slot pads the fanin matrices
        lat = np.append(nominal.lat, 0.0)
        for lvl in range(len(arcs.levels) + 1):
            if lvl == 0:
                nets = arcs.inputs
                inputs: List[Dict[str, float]] = [{} for _ in range(len(nets))]
                upstream = np.zeros(len(nets))
            else:
                level = arcs.levels[lvl - 1]
                nets, fanin = level.nets, level.fanin
                slack = lat[nets][:, None] - (lat[fanin] + arcs.delay[nets][:, None])
                slack = np.where(slack > 0.0, slack, 0.0)
                shift = ub[fanin] - slack
                upstream = np.where((shift > 0.0) & (fanin < n), shift, 0.0).max(axis=1)
                inputs = [
                    {order[u]: s for u, s in zip(row, slacks) if u < n}
                    for row, slacks in zip(fanin.tolist(), slack.tolist())
                ]
            rows = by_level[cuts[lvl] : cuts[lvl + 1]]
            place = np.empty(n, dtype=np.intp)
            place[nets] = np.arange(len(nets))
            ub[nets] = self._build_level(
                [order[p] for p in nets.tolist()],
                nominal.lat[nets],
                nominal.slew_late[nets],
                upstream,
                inputs,
                place[owner[rows]],
                params[rows],
                [infos[j] for j in rows.tolist()],
            )
        outputs = self.netlist.primary_outputs
        t50 = self.nominal.circuit_delay()
        sink_inputs = {po: t50 - self.nominal.lat(po) for po in outputs}
        upstream_ub = max(
            (
                max(0.0, float(ub[arcs.position[po]]) - slack)
                for po, slack in sink_inputs.items()
            ),
            default=0.0,
        )
        self._build_level(
            [SINK],
            np.array([t50]),
            np.array([max(self.nominal.slew_late(po) for po in outputs)]),
            np.array([upstream_ub]),
            [sink_inputs],
            np.zeros(0, dtype=np.intp),
            np.empty((0, 6)),
            [],
        )
        self.contexts = {net: self.contexts[net] for net in list(order) + [SINK]}

    def _primaries(self) -> Tuple[np.ndarray, np.ndarray, List[_PrimaryInfo]]:
        """Every primary aggressor of every victim, in topological order.

        One pass over the design's :class:`DirectionTable`: the window
        filter, the pulses (one array pass, looked up and stored in
        ``memo.pulse`` in direction order), the breakpoints and the
        false-aggressor cut (envelopes that die before the victim's
        t50).  Returns each primary's victim position, its
        ``(eat, lat, lead, rise, decay, peak)`` row and its
        :class:`_PrimaryInfo`.
        """
        cfg = self.config
        table = DirectionTable(self.netlist, self.coupling, self.graph)
        order, v, a = table.order, table.victims, table.aggressors
        window = self.window_timing.arrays
        assert window is not None and self.nominal.arrays is not None
        keep = np.ones(len(v), dtype=bool)
        a_slew = window.slew_late[a]
        if cfg.window_filter:
            keep &= (window.eat[v] - a_slew <= window.lat[a]) & (
                window.eat[a] - a_slew <= window.lat[v]
            )
        live = np.flatnonzero(keep)
        couplings = [table.couplings[d] for d in live.tolist()]
        victims = [order[p] for p in v[live].tolist()]
        aggressors = [order[p] for p in a[live].tolist()]
        shapes = coupling_pulses(
            couplings, victims, table.res[live], table.cap[live], a_slew[live]
        )
        cache = self.memo.pulse
        timing = self.window_timing.nets
        pulses: List[NoisePulse] = []
        for victim, cc, aggressor, lead, rise, decay, peak in zip(
            victims, couplings, aggressors, *shapes.T.tolist()
        ):
            key = (victim, cc.index, timing[aggressor].slew_late)
            pulse = cache.get(key)
            if pulse is None:
                pulse = cache.put(key, NoisePulse(peak=peak, rise=rise, decay=decay, lead=lead))
            pulses.append(pulse)
        params = np.column_stack((window.eat[a[live]], window.lat[a[live]], shapes))
        points = _primary_points(params)
        check_trapezoids(points, params[:, 5])
        alive = ~(points[:, 3] <= self.nominal.arrays.lat[v[live]])
        infos = [
            _PrimaryInfo(
                coupling=couplings[j],
                aggressor=aggressors[j],
                pulse=pulses[j],
                window=timing[aggressors[j]].window,
                sampled=_NO_SAMPLES,
            )
            for j in np.flatnonzero(alive).tolist()
        ]
        return v[live[alive]], params[alive], infos

    def _build_level(
        self,
        nets: List[str],
        t50: np.ndarray,
        slew: np.ndarray,
        upstream: np.ndarray,
        inputs: List[Dict[str, float]],
        owner: np.ndarray,
        params: np.ndarray,
        infos: List[_PrimaryInfo],
    ) -> np.ndarray:
        """The contexts of one level's victims; returns their dominance
        bounds.

        ``owner`` maps each primary (``params`` row, ``infos`` entry) to
        its victim's row, primaries in victim order.  The bound sums the
        primaries with their LAT pushed out to the horizon, plus the
        upstream shift bump, on a probe grid per victim; the working grid
        covers the primaries' actual spans and the bounded noisy t50.
        Every step is row-local, so each victim's grid, bound and
        primary samples equal a build of that victim alone.
        """
        n = self.config.grid_points
        bumped = np.flatnonzero(upstream > _TINY_NS)
        bumps, bump_heights = _shift_bump_rows(t50[bumped], slew[bumped], upstream[bumped])
        wide = np.concatenate((_primary_points(params, lat_floor=self.horizon), bumps))
        heights = np.concatenate((params[:, 5], bump_heights))
        wide_owner = np.concatenate((owner, bumped))
        check_trapezoids(wide, heights)
        ub = np.where(upstream > 0.0, upstream, 0.0)
        probed = np.unique(wide_owner)
        if probed.size:
            lo, hi = t50 - slew, t50 + slew
            np.minimum.at(lo, wide_owner, wide[:, 0])
            np.maximum.at(hi, wide_owner, wide[:, 3])
            start, stop = _covering(lo[probed], hi[probed])
            times = grid_rows(start, stop, n)
            total = sum_trapezoids(
                times, np.searchsorted(probed, wide_owner), wide, heights
            )
            noise = _ramp_delay_noise(t50[probed], slew[probed], total, times, start, stop)
            ub[probed] = np.where(upstream[probed] > noise, upstream[probed], noise)
        lo, hi = t50 - slew, t50 + ub + 2.0 * slew
        points = _primary_points(params)
        np.minimum.at(lo, owner, points[:, 0])
        np.maximum.at(hi, owner, points[:, 3])
        start, stop = _covering(lo, hi)
        grids, times = grids_of(start, stop, n)
        samples = self._primary_samples(grids, times, nets, owner, params, infos)
        bounds = np.searchsorted(owner, np.arange(len(nets) + 1)).tolist()
        for r, (net, grid, t, s, bound, ins) in enumerate(
            zip(nets, grids, t50.tolist(), slew.tolist(), ub.tolist(), inputs)
        ):
            ctx = _VictimContext(
                net=net,
                grid=grid,
                t50=t,
                slew=s,
                interval=DominanceInterval(t, t + bound + _TINY_NS),
                inputs=ins,
            )
            for j in range(bounds[r], bounds[r + 1]):
                info = infos[j]
                info.sampled = samples[j]
                ctx.primary_info.append(info)
                ctx.primaries.append(
                    EnvelopeSet(
                        couplings=frozenset((info.coupling.index,)),
                        env=info.sampled,
                        label=f"primary:c{info.coupling.index}",
                    )
                )
            if self.mode == ELIMINATION:
                self._attach_total(ctx)
            self.contexts[net] = ctx
            self.stats.victims += 1
            self.stats.primary_aggressors += len(ctx.primaries)
        return ub

    def _attach_total(self, ctx: _VictimContext) -> None:
        """Elimination mode: total envelope and total-shift estimate."""
        total = np.zeros(ctx.grid.n)
        for primary in ctx.primaries:
            total += primary.env
        upstream = max(
            (
                max(0.0, self.contexts[u].shift_tot - slack)
                for u, slack in ctx.inputs.items()
                if u in self.contexts
            ),
            default=0.0,
        )
        if upstream > _TINY_NS:
            total += _sample_shift_bumps(
                ctx.grid.times, ctx.t50, ctx.slew, upstream
            )
        ctx.total_env = total
        ctx.shift_tot = float(
            batch_delay_noise(ctx.t50, ctx.slew, total[None, :], ctx.grid)[0]
        )

    # ------------------------------------------------------------------
    # resilience runtime (budget enforcement, degradation, checkpoints)
    # ------------------------------------------------------------------
    def _guard_rows(
        self,
        block: np.ndarray,
        couplings: Sequence[int],
        *,
        net: Union[str, Sequence[str]],
        phase: str,
    ) -> None:
        """The fault hook and sanity guard over freshly sampled rows.

        ``net`` names the victim of every row, or of each row in turn.
        The fault injector (when active) gets a chance to corrupt each
        row in place, in row order, at that row's ``"<net>:c<coupling>"``
        site.  Any non-finite or impossible (negative) sample, injected
        or organic, raises a contextful
        :class:`~repro.runtime.errors.WaveformFaultError` naming the
        first bad row's victim and coupling instead of silently reaching
        t50 scoring.
        """
        nets = [net] * len(couplings) if isinstance(net, str) else net
        injector = faultinject._ACTIVE
        if injector is None:
            _raise_bad_row(block, couplings, nets, phase=phase)
            return
        for row, (victim, coupling) in enumerate(zip(nets, couplings)):
            injector.corrupt_waveform(block[row], f"{victim}:c{coupling}")
            _raise_bad_row(block[row : row + 1], (coupling,), (victim,), phase=phase)

    def _primary_samples(
        self,
        grids: Sequence[Grid],
        times: np.ndarray,
        nets: Sequence[str],
        owner: np.ndarray,
        params: np.ndarray,
        infos: Sequence[_PrimaryInfo],
    ) -> List[np.ndarray]:
        """The guarded primary envelopes of one level (read-only).

        Primary ``j`` belongs to victim ``owner[j]``, whose grid is
        ``grids[owner[j]]`` with the times ``times[owner[j]]``.  Memoized
        in ``memo.primary_env``.  The key is the full value identity of
        the sample (pulse shape, timing window and grid), so a cached
        entry can never be stale (see :mod:`repro.perf.memo`), and a cold
        and a warm cache yield bit-identical arrays.  The ``0.0`` is the
        key's widening slot, kept so that stored memo snapshots keep
        hitting.  The level's misses are sampled in one kernel call and
        guarded in one :meth:`_guard_rows` call, in primary order; a key
        an earlier primary of the level missed counts as a hit, as it
        did when victims were built one at a time.  With a fault
        injector armed the cache is bypassed entirely, so injected
        corruption is neither cached nor masked.
        """
        cache = self.memo.primary_env
        armed = faultinject._ACTIVE is not None
        tails = [(0.0,) + grid_key(grid) for grid in grids]
        keys = [
            (
                info.pulse.peak,
                info.pulse.rise,
                info.pulse.decay,
                info.pulse.lead,
                info.window.eat,
                info.window.lat,
            )
            + tails[r]
            for info, r in zip(infos, owner.tolist())
        ]
        samples: List[Optional[np.ndarray]] = [None] * len(keys)
        fresh: List[int] = []
        missed: Dict[tuple, int] = {}
        repeats: List[int] = []
        for j, key in enumerate(keys):
            if armed:
                fresh.append(j)
            elif key in missed:
                repeats.append(j)
            else:
                cached = cache.get(key)
                if cached is None:
                    missed[key] = j
                    fresh.append(j)
                else:
                    samples[j] = cached
        if fresh:
            columns = params[fresh]
            block = _sample_primaries(
                times[owner[fresh]], *(columns[:, c : c + 1] for c in range(6)), 0.0
            )
            self._guard_rows(
                block,
                [infos[j].coupling.index for j in fresh],
                net=[nets[r] for r in owner[fresh].tolist()],
                phase="build",
            )
            readonly(block)
            for j, row in zip(fresh, block):
                samples[j] = row if armed else cache.put(keys[j], row)
        for j in repeats:
            # The key of an earlier miss in this level: looking it up now
            # hits, as it did when primaries were sampled one at a time.
            cached = cache.get(keys[j])
            samples[j] = cached if cached is not None else samples[missed[keys[j]]]
        return samples  # type: ignore[return-value]

    def _tick(self, net: str, cardinality: int, phase: str) -> None:
        """Cooperative cancellation checkpoint (budget + injected faults)."""
        budget = self.config.budget
        if budget is None and faultinject._ACTIVE is None:
            return
        site = f"{net}@k{cardinality}"
        policy = self.monitor.budget.on_budget
        if self.monitor.cancel_requested():
            # Checked before the deadline so a cancelled job records
            # "cancelled" provenance even though the cancel flag also
            # trips deadline_exceeded (to stop long inner loops).
            if policy == "raise":
                raise BudgetExceededError(
                    "solve cancelled",
                    reason="cancelled",
                    net=net,
                    cardinality=cardinality,
                    elapsed_s=round(self.monitor.elapsed(), 3),
                    phase=phase,
                )
            raise _HaltSolve("cancelled", net, cardinality)
        if self.monitor.deadline_exceeded(site):
            if policy == "raise":
                raise BudgetExceededError(
                    "wall-clock deadline exceeded",
                    reason="deadline",
                    net=net,
                    cardinality=cardinality,
                    elapsed_s=round(self.monitor.elapsed(), 3),
                    deadline_s=self.monitor.budget.deadline_s,
                    phase=phase,
                )
            raise _HaltSolve("deadline", net, cardinality)
        if budget is None:
            return
        reason = self.monitor.soft_exceeded(self.stats.candidates, self._rung)
        if reason is None:
            return
        if policy == "raise":
            raise BudgetExceededError(
                f"{reason} budget exceeded",
                reason=reason,
                net=net,
                cardinality=cardinality,
                candidates=self.stats.candidates,
                frontier_mb=round(self.monitor.frontier_mb, 3),
                elapsed_s=round(self.monitor.elapsed(), 3),
                phase=phase,
            )
        if self._rung == 0:
            self._narrow_beam(reason, cardinality)
        else:
            raise _HaltSolve(reason, net, cardinality)

    def _narrow_beam(self, reason: str, cardinality: int) -> None:
        """Degradation rung 1: shrink the beam, record what it drops.

        Every existing irredundant list is truncated to the degraded
        width; the best dropped score per victim list is recorded as the
        optimality gap those drops can imply.  Sweeping then continues
        under the narrowed beam.
        """
        width = self.monitor.budget.degraded_beam_width
        self._rung = 1
        self._fronts.clear()
        self._beam_cap = (
            width if self._beam_cap is None else min(self._beam_cap, width)
        )
        victims: List[VictimDegradation] = []
        for ctx in self.contexts.values():
            for card in sorted(ctx.ilists):
                ilist = ctx.ilists[card]
                if len(ilist) > width:
                    dropped = ilist[width:]
                    ctx.ilists[card] = ilist[:width]
                    # Lists are kept best-score-first, so the first
                    # dropped candidate bounds all of them.
                    victims.append(
                        VictimDegradation(
                            net=ctx.net,
                            cardinality=card,
                            dropped=len(dropped),
                            best_dropped_score=dropped[0].score,
                        )
                    )
        self.degradation = DegradationReport(
            reason=reason,
            rung=1,
            completed_k=self._solved_upto,
            requested_k=max(cardinality, self._solved_upto),
            beam_width=self._beam_cap,
            elapsed_s=self.monitor.elapsed(),
            victims=victims,
        )

    def _finalize_halt(self, halt: _HaltSolve, k: int) -> None:
        """Degradation rung 2: stop sweeping, keep completed cardinalities."""
        prior = self.degradation
        self.degradation = DegradationReport(
            reason=halt.reason,
            rung=2,
            completed_k=self._solved_upto,
            requested_k=k,
            beam_width=prior.beam_width if prior is not None else None,
            elapsed_s=self.monitor.elapsed(),
            victims=prior.victims if prior is not None else [],
        )

    def _maybe_checkpoint(self) -> None:
        budget = self.config.budget
        if budget is None or budget.checkpoint_path is None:
            return
        if self.monitor.should_checkpoint():
            self._write_checkpoint(budget.checkpoint_path)

    def _write_checkpoint(self, path: str) -> None:
        """Snapshot the frontier at the current cardinality boundary."""
        with self.tracer.span(
            "checkpoint.write", path=path, solved_upto=self._solved_upto
        ):
            self._write_checkpoint_inner(path)
        self.metrics.counter_add("checkpoint.writes")

    def _write_checkpoint_inner(self, path: str) -> None:
        # phase_s is owned by the metrics registry; snapshot it so the
        # checkpoint carries the same totals the old accounting did.
        self.stats.phase_s = self.metrics.phase_seconds()
        nets: Dict[str, Dict] = {}
        for net, ctx in self.contexts.items():
            nets[net] = {
                "atoms1_extra": [
                    _ckpt.envelope_set_to_json(a)
                    for a in ctx.atoms1
                    if not a.label.startswith("primary:")
                ],
                "ilists": {
                    str(card): [_ckpt.envelope_set_to_json(s) for s in lst]
                    for card, lst in ctx.ilists.items()
                    if card <= self._solved_upto
                },
            }
        _ckpt.save_checkpoint(
            path,
            {
                "version": _ckpt.CHECKPOINT_VERSION,
                "fingerprint": _ckpt.design_fingerprint(
                    self.design, self.mode, self.config
                ),
                "solved_upto": self._solved_upto,
                "stats": self.stats.to_json(),
                "frontier_bytes": self.monitor.frontier_bytes,
                "nets": nets,
            },
        )

    def _restore_checkpoint(self, path: str) -> None:
        """Adopt a snapshot's frontier (resume an interrupted run)."""
        with self.tracer.span("checkpoint.restore", path=path) as span:
            try:
                self._restore_checkpoint_inner(path)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                # Valid JSON of the wrong shape is as damaged as a torn file.
                raise CheckpointError(
                    f"malformed checkpoint: {exc!r}",
                    path=path,
                    phase="checkpoint-load",
                ) from exc
            span.set(solved_upto=self._solved_upto)
        self.metrics.counter_add("checkpoint.restores")

    def _restore_checkpoint_inner(self, path: str) -> None:
        payload = _ckpt.load_checkpoint(path)
        expected = _ckpt.design_fingerprint(self.design, self.mode, self.config)
        _ckpt.check_fingerprint(expected, payload["fingerprint"], path)
        nets = payload["nets"]
        for net, ctx in self.contexts.items():
            entry = nets.get(net)
            if entry is None:
                raise CheckpointError(
                    "checkpoint is missing a victim context",
                    net=net,
                    path=path,
                    phase="checkpoint-load",
                )
            ctx.atoms1 = list(ctx.primaries) + [
                _ckpt.envelope_set_from_json(a)
                for a in entry.get("atoms1_extra", [])
            ]
            ctx.ilists = {
                int(card): [
                    _ckpt.envelope_set_from_json(s) for s in lst
                ]
                for card, lst in entry.get("ilists", {}).items()
            }
            for lst in ctx.ilists.values():
                for es in lst:
                    if es.env.shape[0] != ctx.grid.n:
                        raise CheckpointError(
                            "checkpointed envelope does not fit this grid",
                            net=net,
                            path=path,
                            phase="checkpoint-load",
                        )
        self.stats = SolveStats.from_json(payload["stats"])
        # The registry owns phase timing now: adopt the snapshot's
        # totals (replacing this run's so-far counters, matching the
        # old stats-overwrite semantics exactly).
        self.metrics.reset_phases(self.stats.phase_s)
        self.monitor.frontier_bytes = int(payload.get("frontier_bytes", 0))
        self._solved_upto = int(payload["solved_upto"])
        self.resumed_from = path

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def solve(self, k: int) -> EngineSolution:
        """Run the bottom-up enumeration up to cardinality ``k``.

        Incremental: a second call with a larger ``k`` continues from the
        cached sweeps (this is how k-sweeps avoid re-solving).

        Under a :class:`~repro.runtime.budget.RunBudget` the sweeps are
        cooperatively cancellable: exhausting a cap either raises a
        structured :class:`~repro.runtime.errors.BudgetExceededError`
        (``on_budget="raise"``) or walks the degradation ladder and
        returns a partial solution flagged ``degraded=True``.  Snapshots
        are written at cardinality boundaries when
        ``budget.checkpoint_path`` is set — *before* any degradation
        touches the frontier, so a resumed run continues the exact run.
        """
        if k < 0:
            raise TopKError(f"k must be >= 0, got {k}")
        if self.profiler is not None:
            self.profiler.start()
        with _obs_activate(self.tracer), self.tracer.span(
            "solve", k=k, mode=self.mode
        ):
            self._sweeping = True
            try:
                for i in range(self._solved_upto + 1, k + 1):
                    self._fronts.clear()
                    with self.tracer.span("cardinality", i=i):
                        for run in self._runs():
                            self._sweep(run, i)
                    self._solved_upto = i
                    self._maybe_checkpoint()
            except _HaltSolve as halt:
                self._finalize_halt(halt, k)
            except BaseException:
                # No solution follows to snapshot the phase totals.
                self.stats.phase_s = self.metrics.phase_seconds()
                raise
            finally:
                self._sweeping = False
                self._level_rows = np.empty((0, self.config.grid_points))
        return self._solution(k)

    def _refresh_cache_stats(self) -> None:
        """Sync stats and the metrics registry with the cache counters.

        Global-cache counts are relative to this engine's
        construction-time baseline.  ``stats.phase_s`` is refreshed from
        the registry (its authoritative home), and the enumeration/cache
        counters are mirrored *into* the registry so a trace carries the
        complete unified view.
        """
        hits: Dict[str, int] = {}
        misses: Dict[str, int] = {}
        for cache in self.memo.caches():
            hits[cache.name] = cache.hits
            misses[cache.name] = cache.misses
        delta = counter_delta(global_cache_stats(), self._global_cache_base)
        for name, counts in delta.items():
            hits[name] = hits.get(name, 0) + counts["hits"]
            misses[name] = misses.get(name, 0) + counts["misses"]
        self.stats.cache_hits = hits
        self.stats.cache_misses = misses
        self.stats.phase_s = self.metrics.phase_seconds()
        for name in _COUNTER_FIELDS + _EXECUTION_FIELDS:
            self.metrics.gauge_set(f"stats.{name}", getattr(self.stats, name))
        for name, count in self.stats.cache_hits.items():
            self.metrics.gauge_set(f"cache.{name}.hits", count)
        for name, count in self.stats.cache_misses.items():
            self.metrics.gauge_set(f"cache.{name}.misses", count)

    def _solution(self, k: int) -> EngineSolution:
        self._refresh_cache_stats()
        if self.degradation is not None and self.degradation.rung == 1:
            # The narrowed sweep ran to completion; refresh the report's
            # progress fields (set when the ladder was climbed mid-solve).
            self.degradation.completed_k = self._solved_upto
            self.degradation.requested_k = max(
                self.degradation.requested_k, k
            )
        sink = self.contexts[SINK]
        best_per_card: Dict[int, EnvelopeSet] = {}
        finalists: List[EnvelopeSet] = []
        for i in range(1, k + 1):
            cands = sink.ilists.get(i, [])
            finalists.extend(cands)
            if cands:
                best_per_card[i] = self._pick_best(cands)
        finalists.sort(key=self._rank_key)
        best = finalists[0] if finalists else None
        return EngineSolution(
            mode=self.mode,
            k=k,
            best=best,
            best_per_cardinality=best_per_card,
            finalists=finalists,
            stats=self.stats,
            nominal_delay=self.nominal.circuit_delay(),
            all_aggressor_delay=self.all_aggressor_delay,
            degraded=self.degradation is not None,
            degradation=self.degradation,
        )

    def _rank_key(self, cand: EnvelopeSet):
        """Sort key: best score first; ties broken toward more couplings.

        Ties favor larger sets because an extra aggressor never *reduces*
        added delay noise (addition) and an extra fix never *increases*
        remaining noise (elimination) — sub-grid-threshold contributions
        the superposition score cannot see still help in the exact
        analysis.
        """
        if self.mode == ADDITION:
            return (-cand.score, -cand.cardinality)
        return (cand.score, -cand.cardinality)

    def _better(self, a: float, b: float) -> bool:
        return a > b if self.mode == ADDITION else a < b

    def _pick_best(self, candidates: Sequence[EnvelopeSet]) -> EnvelopeSet:
        return min(candidates, key=self._rank_key)

    def _runs(self) -> List[_Run]:
        """The victims in topological order (the sink last), cut into
        runs that hold no fanin of their own members.  ``topo_order`` is
        sorted by level, so on the paper circuits the runs are exactly
        the levels."""
        if self._run_cache is None:
            groups: List[List[_VictimContext]] = [[]]
            members: set = set()
            for ctx in self.contexts.values():
                if not members.isdisjoint(ctx.inputs):
                    groups.append([])
                    members = set()
                groups[-1].append(ctx)
                members.add(ctx.net)
            position = {net: q for q, net in enumerate(self.contexts)}
            self._run_cache = [
                _Run.build(ctxs, self.contexts, position) for ctxs in groups if ctxs
            ]
        return self._run_cache

    def _front(self, card: int) -> _Front:
        """Every victim's I-list of cardinality ``card`` as one
        :class:`_Front`, list ``q`` being the victim at topological
        position ``q``; ``card`` 0 gives their ``atoms1`` lists (the
        single atoms merges extend).  Kept until the lists change (the
        next cardinality, or a narrowed beam)."""
        front = self._fronts.get(card)
        if front is None:
            ctxs = self.contexts.values()
            front = self._fronts[card] = _Front.of(
                [ctx.atoms1 for ctx in ctxs]
                if card == 0
                else [ctx.ilists.get(card, ()) for ctx in ctxs]
            )
        return front

    def _sweep(self, run: _Run, i: int) -> None:
        """Cardinality ``i`` over one run of victims.

        The run's candidate pools are generated and scored together
        (:meth:`_level`); then each victim, in topological order, takes
        its turn: the ``sweep`` tick, the faults its rows showed, the
        ``score`` tick, then dedupe and dominance (:meth:`_reduce`).
        Ticks, fault-injector opportunities, counters and errors thus
        come in the same order, with the same outcome, as in a sweep of
        one victim at a time.  When a tick narrows the beam (rung 1), the
        pools of the victims whose generation would follow it are built
        again from the truncated lists.
        """
        level = self._level(run, i, 0)
        for v, ctx in enumerate(run.ctxs):
            if v == level.stop:
                level = self._level(run, i, v)
            rung = self._rung
            self._tick(ctx.net, i, phase="sweep")
            if self._rung != rung:
                level = self._level(run, i, v)
            j = v - level.first
            with self.tracer.span("sweep", net=ctx.net, i=i) as sweep_span:
                self.stats.pseudo_atoms += level.pseudo[j]
                self._guard_higher(run, level, v)
                self.stats.higher_order_atoms += level.higher[j]
                size = level.bounds[j + 1] - level.bounds[j]
                if not size:
                    ctx.ilists[i] = []
                    continue
                rung = self._rung
                self._tick(ctx.net, i, phase="score")
                fault = level.faults.get((j, "score"))
                if fault is not None:
                    raise fault
                self.metrics.observe("score.rows", size)
                with self._phase("reduce"):
                    self._reduce(ctx, i, level, j)
                sweep_span.set(candidates=size, kept=len(ctx.ilists[i]))
            if self._rung != rung and v + 1 < level.stop:
                level = self._level(run, i, v + 1)

    def _guard_higher(self, run: _Run, level: _Level, v: int) -> None:
        """Victim ``v``'s higher-order guard, at its turn.

        With a fault injector armed, the victim's higher-order rows are
        sampled again (bit-identically) and offered to it row by row, as
        :meth:`_guard_rows` does; otherwise a bad sample the level build
        found is raised now.
        """
        if faultinject._ACTIVE is None:
            fault = level.faults.get((v - level.first, "higher-order"))
            if fault is not None:
                raise fault
            return
        if level.guards is None:
            return
        rows = level.guards.take(level.guards.owner == v)
        if len(rows.owner):
            ctx = run.ctxs[v]
            params = run.p_params[rows.cols["prim"]]
            block = _HigherOrder.moved(ctx.grid.times, params, rows.cols["widens"])
            couplings = rows.cols["index"].tolist()
            self._guard_rows(block, couplings, net=ctx.net, phase="higher-order")

    def _level(self, run: _Run, i: int, first: int) -> _Level:
        """Generate and score the pools of cardinality ``i`` of the run's
        victims from ``first`` on, as many as fit :data:`_LEVEL_ROWS`
        rows (at least one).

        Each construction path indexes its rows for all these victims at
        once: pseudo atoms, higher-order atoms, then the primaries
        (``i == 1``) or the merges of each I-list_{i-1} base with its
        compatible single atoms.  The rows are laid out victim by victim
        in that order, then sampled, validated and scored in blocks of at
        most :data:`_CHUNK_ROWS` rows, each on its own victim's grid.
        Every step is row-local, so each row equals the one a sweep of
        its victim alone builds.  The fault injector is not called here.
        """
        cfg = self.config
        faults: Dict[Tuple[int, str], WaveformFaultError] = {}
        higher = cfg.use_higher_order and i >= 2
        with self._phase("generate"):
            stop = self._group(run, i, first)
            m = stop - first
            kinds: List[_Rows] = []
            if cfg.use_pseudo:
                kinds.append(self._pseudo_rows(run, i, first, stop))
            if higher:
                kinds.append(self._higher_rows(run, i, first, stop, faults))
            kinds.append(
                self._primary_rows(run, first, stop)
                if i == 1
                else self._merge_rows(run, i, first, stop)
            )
            h = 1 if cfg.use_pseudo else 0  # the higher-order rows' path
            guards = kinds[h] if higher else None
            if guards is not None and self.mode != ADDITION:
                kinds[h] = self._narrowed(run, guards)
            counts = np.array(
                [np.bincount(rows.owner - first, minlength=m) for rows in kinds]
            ).reshape(len(kinds), m)
            bounds = _offsets(counts.sum(axis=0))
            within = np.cumsum(counts, axis=0) - counts  # each path's start per victim
            width = max(rows.keys.shape[1] for rows in kinds)
            if len(self._level_rows) < bounds[-1]:
                self._level_rows = np.empty((max(bounds[-1], _LEVEL_ROWS), cfg.grid_points))
            matrix = self._level_rows[: bounds[-1]]
            keys = np.full((len(matrix), width), -1, dtype=np.int64)
            segments: List[List[_Segment]] = [[] for _ in range(m)]
            starts: List[List[int]] = [[] for _ in range(m)]
            for k, rows in enumerate(kinds):
                owner = rows.owner - first
                at = _offsets(counts[k])
                dest = bounds[owner] + within[k][owner] + np.arange(len(owner)) - at[owner]
                keys[dest, width - rows.keys.shape[1] :] = rows.keys
                for lo in range(0, len(dest), _CHUNK_ROWS):
                    sel = slice(lo, lo + _CHUNK_ROWS)
                    matrix[dest[sel]] = rows.sample(rows, sel)
                for j in np.flatnonzero(counts[k]).tolist():
                    segments[j].append(rows.segment(rows, int(at[j]), int(at[j + 1])))
                    starts[j].append(int(within[k][j]))
            readonly(matrix)
        with self._phase("score"):
            scores = self._score_rows(run, first, matrix, bounds, segments, starts, faults)
        owner = np.repeat(np.arange(m), counts.sum(axis=0))
        kept = _dedupe(owner, keys, scores, self.mode == ADDITION)
        return _Level(
            first=first,
            stop=stop,
            matrix=matrix,
            scores=scores,
            bounds=bounds.tolist(),
            segments=segments,
            starts=starts,
            dedupe=np.split(kept, np.searchsorted(owner[kept], np.arange(1, m))),
            pseudo=counts[0].tolist() if cfg.use_pseudo else [0] * m,
            higher=counts[h].tolist() if higher else [0] * m,
            guards=guards,
            faults=faults,
        )

    def _group(self, run: _Run, i: int, first: int) -> int:
        """The end of the victim group starting at ``first``: the most
        victims (at least one) whose rows, counted before any filter,
        fit :data:`_LEVEL_ROWS`."""
        cfg = self.config
        m = len(run.ctxs) - first
        f0, p0 = int(run.f_bounds[first]), int(run.p_bounds[first])
        size = np.zeros(m)
        if cfg.use_pseudo:
            lens = [len(uctx.ilists.get(i, ())) for uctx in run.fanins[f0:]]
            size += np.bincount(run.f_owner[f0:] - first, weights=lens, minlength=m)
        if i == 1:
            size += np.diff(run.p_bounds[first:])
        else:
            front = self._front(i - 1)
            if cfg.use_higher_order:
                agg = run.p_agg[p0:]
                lens = np.where(agg >= 0, front.hi[agg] - front.lo[agg], 0)
                size += np.bincount(run.p_owner[p0:] - first, weights=lens, minlength=m)
            at = run.first + np.arange(first, len(run.ctxs))
            atoms = self._front(0)
            size += (front.hi[at] - front.lo[at]) * (atoms.hi[at] - atoms.lo[at])
        fit = int(np.searchsorted(np.cumsum(size), _LEVEL_ROWS, side="right"))
        return first + max(1, fit)

    def _score_rows(
        self,
        run: _Run,
        first: int,
        matrix: np.ndarray,
        bounds: np.ndarray,
        segments: List[List[_Segment]],
        starts: List[List[int]],
        faults: Dict[Tuple[int, str], WaveformFaultError],
    ) -> np.ndarray:
        """Validate and score a level's rows, block by block.

        A victim with a non-finite row (else a negative one) gets the
        ``"score"`` fault of its first such row; its scores are never
        read.
        """
        owner = np.repeat(np.arange(first, first + len(bounds) - 1), np.diff(bounds))
        scores = np.empty(len(matrix))
        bad: List[Tuple[int, bool]] = []  # (row, non-finite) of bad rows
        for lo in range(0, len(matrix), _CHUNK_ROWS):
            block = matrix[lo : lo + _CHUNK_ROWS]
            own = owner[lo : lo + _CHUNK_ROWS]
            flags = _bad_rows(block)
            if flags is not None:
                nonfinite, negative = flags
                for r in np.flatnonzero(nonfinite | negative).tolist():
                    bad.append((lo + r, bool(nonfinite[r])))
            # A victim with a bad row raises at its turn; its scores are
            # never read, so their float warnings are noise.
            with np.errstate(all="ignore") if flags is not None else nullcontext():
                if run.totals is not None:
                    block = np.clip(run.totals[own] - block, 0.0, None)
                scores[lo : lo + len(block)] = delay_noise_rows(
                    run.t50[own], run.ramps[own], block, run.times[own], run.dt[own]
                )
        for row, nonfinite in sorted(bad, key=lambda b: (owner[b[0]], not b[1], b[0])):
            j = int(owner[row]) - first
            if (j, "score") in faults:
                continue
            seg, r = _locate(segments[j], starts[j], row - int(bounds[j]))
            faults[(j, "score")] = WaveformFaultError(
                "corrupted candidate envelope reached the scoring kernel",
                net=run.ctxs[j + first].net,
                candidate=sorted(seg.couplings(r)),
                label=seg.label(r) or None,
                phase="score",
            )
        return scores

    def _pseudo_rows(self, run: _Run, i: int, first: int, stop: int) -> _Rows:
        """Pseudo input atoms of cardinality ``i`` (Section 3.1): each
        fanin's I-list_i as arrival shifts at the victim, its slack
        clipped off, in input order."""
        lo = int(run.f_bounds[first])
        lists = [uctx.ilists.get(i, ()) for uctx in run.fanins[lo : run.f_bounds[stop]]]
        lens = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
        pair = np.repeat(np.arange(lo, lo + len(lists)), lens)
        front = _Front.of([list(chain.from_iterable(lists))])
        shift = front.scores - run.f_slack[pair]
        shift = np.where(shift > 0.0, shift, 0.0)
        cols = {"picks": np.arange(len(pair)), "pair": pair, "shift": shift}
        if self.mode == ADDITION:
            keep = shift > _TINY_NS
        else:
            # Elimination: the fanin's total shift minus what remains
            # after removing the set.
            cols["total"] = run.f_total[pair]
            keep = cols["total"] - shift > _TINY_NS

        def sample(rows: _Rows, sel: slice) -> np.ndarray:
            own = rows.owner[sel]
            columns = [run.t50[own], run.slew[own], rows.cols["shift"][sel]]
            if "total" in rows.cols:
                columns.append(rows.cols["total"][sel])
            return _Pseudo.sample(run.times[own], *columns)

        def segment(rows: _Rows, a: int, b: int) -> _Segment:
            cols = rows.cols
            return _Pseudo(
                front.sets,
                cols["picks"][a:b],
                run.fanin_names,
                cols["pair"][a:b],
                cols["shift"][a:b],
                cols["total"][a:b] if "total" in cols else None,
            )

        rows = _Rows(run.f_owner[pair], front.keys, cols, sample, segment)
        return rows.take(keep)

    def _higher_rows(
        self,
        run: _Run,
        i: int,
        first: int,
        stop: int,
        faults: Dict[Tuple[int, str], WaveformFaultError],
    ) -> _Rows:
        """Higher-order atoms of cardinality ``i`` (Section 2).

        Addition: a set on a primary aggressor's own I-list_{i-1} widens
        that aggressor's window by its score.  Elimination: removing the
        set narrows the aggressor's noisy window by the reduction it
        buys; :meth:`_narrowed` then turns these rows into what the
        narrowing takes off the primary envelope.  A widening below half
        a grid step samples identically to the base envelope, so it makes
        no atom.  A sampled row with a bad sample gives its victim the
        ``"higher-order"`` fault of its first such row.
        """
        addition = self.mode == ADDITION
        front = self._front(i - 1)
        p0 = int(run.p_bounds[first])
        agg = run.p_agg[p0 : run.p_bounds[stop]]
        lo = np.where(agg >= 0, front.lo[agg], 0)
        prim, picks = _expand(lo, np.where(agg >= 0, front.hi[agg], 0))
        prim += p0
        index = run.p_cid[prim]
        inside = (front.keys[picks] == index[:, None]).any(axis=1)
        floor = run.floor[run.p_owner[prim]]
        if addition:
            widen = front.scores[picks]
            keep = ~(widen <= floor) & ~inside
        else:
            eat, lat = run.p_params[prim, 0], run.p_params[prim, 1]
            reduction = run.p_shift[prim] - front.scores[picks]
            reduction = np.where(reduction > 0.0, reduction, 0.0)
            keep = ~(reduction <= floor) & ~inside
            narrowed = lat - reduction
            widen = np.where(narrowed > eat, narrowed, eat) - lat
        rows = np.flatnonzero(keep)
        prim, picks, index = prim[rows], picks[rows], index[rows]
        # Quantized per row with Python's round: np.round can differ in
        # the last bit.
        widens = np.array(list(map(round, widen[rows].tolist(), repeat(9))), dtype=np.float64)
        keys = front.keys[picks]
        if addition:
            keys = np.sort(np.column_stack((keys, index)), axis=1)

        def sample(rows: _Rows, sel: slice) -> np.ndarray:
            cols = rows.cols
            owner = rows.owner[sel]
            block = _HigherOrder.moved(
                run.times[owner], run.p_params[cols["prim"][sel]], cols["widens"][sel]
            )
            bad = _bad_rows(block)
            if bad is not None:
                for r in np.flatnonzero(bad[0] | bad[1]).tolist():
                    j = int(owner[r]) - first
                    coupling = int(cols["index"][sel][r])
                    fault = _bad_sample(run.ctxs[j + first].net, coupling, "higher-order")
                    faults.setdefault((j, "higher-order"), fault)
            return block

        def segment(rows: _Rows, a: int, b: int) -> _Segment:
            cols = rows.cols
            return _HigherOrder(
                front.sets,
                cols["picks"][a:b],
                run.p_index[cols["prim"][a:b]],
                cols["index"][a:b],
                cols["widens"][a:b],
                not addition,
            )

        cols = {"prim": prim, "picks": picks, "index": index, "widens": widens}
        return _Rows(run.p_owner[prim], keys, cols, sample, segment)

    @staticmethod
    def _narrowed(run: _Run, rows: _Rows) -> _Rows:
        """Elimination's higher-order rows: what each narrowing takes off
        its primary envelope, ``clip(primary - narrowed, 0)`` (sampled
        after the guard), keeping the rows that take something off."""
        block = np.empty((len(rows.owner), run.times.shape[1]))
        prim = rows.cols["prim"]
        for lo in range(0, len(block), _CHUNK_ROWS):
            sel = slice(lo, lo + _CHUNK_ROWS)
            moved = rows.sample(rows, sel)
            np.clip(_gather(run.p_sampled, prim[sel]) - moved, 0.0, None, out=block[sel])
        live = block.max(axis=1, initial=0.0) > 1e-12
        block = block[live]

        def sample(rows: _Rows, sel: slice) -> np.ndarray:
            return block[sel]

        return replace(rows.take(live), sample=sample)

    def _primary_rows(self, run: _Run, first: int, stop: int) -> _Rows:
        """Cardinality 1: every victim's primaries, in order."""
        prim = np.arange(run.p_bounds[first], run.p_bounds[stop])

        def sample(rows: _Rows, sel: slice) -> np.ndarray:
            return _gather(run.p_sampled, rows.cols["prim"][sel])

        def segment(rows: _Rows, a: int, b: int) -> _Segment:
            return _Primaries(list(run.ctxs[int(rows.owner[a])].primaries))

        return _Rows(run.p_owner[prim], run.p_cid[prim, None], {"prim": prim}, sample, segment)

    def _merge_rows(self, run: _Run, i: int, first: int, stop: int) -> _Rows:
        """Extensions of each victim's I-list_{i-1} bases by its
        compatible single atoms (paper step 1), base by base."""
        front, atoms = self._front(i - 1), self._front(0)
        at = run.first + np.arange(first, stop)
        b_lo, a_lo = front.lo[at], atoms.lo[at]
        n_atoms = atoms.hi[at] - a_lo
        pairs = (front.hi[at] - b_lo) * n_atoms
        owner, q = _expand(np.zeros(len(at), dtype=np.intp), pairs)
        per_base = np.maximum(n_atoms, 1)[owner]
        base = b_lo[owner] + q // per_base
        atom = a_lo[owner] + q % per_base
        clash = _meets(atoms.keys[atom], front.forbid[base]) | _meets(
            atoms.forbid[atom], front.keys[base]
        )
        keys = np.sort(np.concatenate((front.keys[base], atoms.keys[atom]), axis=1), axis=1)

        def sample(rows: _Rows, sel: slice) -> np.ndarray:
            # IEEE addition commutes: atom env + base env.
            block = _gather(atoms.envs, rows.cols["atom"][sel])
            block += _gather(front.envs, rows.cols["base"][sel])
            return block

        def segment(rows: _Rows, a: int, b: int) -> _Segment:
            cols = rows.cols
            return _Merge(front.sets, atoms.sets, cols["base"][a:b], cols["atom"][a:b])

        rows = _Rows(owner + first, keys, {"base": base, "atom": atom}, sample, segment)
        return rows.take(~clash)

    def _reduce(self, ctx: _VictimContext, i: int, level: _Level, j: int) -> None:
        """Dedupe + dominance-reduce victim ``first + j``'s scored pool
        into I-list_i."""
        cfg = self.config
        lo, hi = level.bounds[j], level.bounds[j + 1]
        matrix, scores = level.matrix, level.scores
        atoms: Dict[int, EnvelopeSet] = {}
        if i == 1:
            # The single-aggressor extension pool: every primary and
            # every cardinality-1 pseudo atom, dominated or not.
            stop = lo + level.starts[j][-1] if ctx.primaries else hi
            singles = [
                p for p in range(lo, stop) if len(level.couplings(j, p - lo)) == 1
            ]
            atoms = dict(zip(singles, self._survivors(level, j, singles)))
            for primary, score in zip(ctx.primaries, scores[hi - len(ctx.primaries) : hi].tolist()):
                primary.score = score
            ctx.atoms1 = list(ctx.primaries) + list(atoms.values())
        rows = level.dedupe[j]
        self.stats.candidates += len(rows)
        with self.tracer.span(
            "dominance", net=ctx.net, i=i, candidates=len(rows)
        ) as dom_span:
            kept_rows, pairs = reduce_irredundant(
                matrix,
                scores,
                ctx.interval,
                ctx.grid,
                maximize=self.mode == ADDITION,
                max_sets=self._beam_cap,
                rows=rows,
            )
            dom_span.set(kept=len(kept_rows), dominated=len(pairs))
        self.metrics.observe("reduce.candidates", len(rows))
        self.stats.dominated += len(pairs)
        fresh = [p for p in kept_rows if p not in atoms]
        built = dict(zip(fresh, self._survivors(level, j, fresh)))
        kept = [atoms[p] if p in atoms else built[p] for p in kept_rows]
        if pairs and (cfg.audit_dominance or cfg.certify):
            survivor = dict(zip(kept_rows, kept))
            pruned = np.array([p for _, p in pairs])
            self.prune_log.add_chunk(
                _PruneChunk(
                    ctx=ctx,
                    cardinality=i,
                    segments=level.segments[j],
                    starts=level.starts[j],
                    rows=pruned - lo,
                    scores=scores[pruned],
                    dominators=[survivor[d] for d, _ in pairs],
                )
            )
        ctx.ilists[i] = kept
        self.monitor.note_frontier(len(kept) * ctx.grid.n * 8)

    def _survivors(self, level: _Level, j: int, rows: Sequence[int]) -> List[EnvelopeSet]:
        """The :class:`EnvelopeSet` of each level row in ``rows`` (victim
        ``first + j``'s); a primary is its own set, any other row gets
        its own envelope copy."""
        out: List[EnvelopeSet] = []
        envs = level.matrix[list(rows)]
        for p, env in zip(rows, envs):
            seg, r = level.locate(j, p - level.bounds[j])
            if isinstance(seg, _Primaries):
                out.append(seg.sets[r])
                continue
            out.append(
                EnvelopeSet(
                    couplings=seg.couplings(r),
                    env=env,
                    blocked=seg.blocked(r),
                    score=float(level.scores[p]),
                    label=seg.label(r),
                )
            )
        return out


def _dedupe(
    owner: np.ndarray, keys: np.ndarray, scores: np.ndarray, maximize: bool
) -> np.ndarray:
    """Rows left after collapsing identical coupling sets of one owner.

    ``keys`` holds each row's set as ascending ids padded on the left.
    One row per (owner, set): the first seen, unless a later one scores
    strictly better (larger when ``maximize``, smaller otherwise).  Sets
    keep the order of their first appearance.
    """
    m = len(scores)
    if not m:
        return np.zeros(0, dtype=np.intp)
    rank = -scores if maximize else scores
    order = np.lexsort((np.arange(m), rank) + tuple(keys.T) + (owner,))
    sk, so = keys[order], owner[order]
    new = np.ones(m, dtype=bool)
    new[1:] = (so[1:] != so[:-1]) | (sk[1:] != sk[:-1]).any(axis=1)
    heads = np.flatnonzero(new)
    seen = np.minimum.reduceat(order, heads)
    return order[heads][np.argsort(seen)]


def _locate(segments: Sequence[_Segment], starts: Sequence[int], p: int) -> Tuple[_Segment, int]:
    """The segment of pool row ``p`` and the row's index inside it."""
    s = bisect_right(starts, p) - 1
    return segments[s], p - starts[s]


def _gather(rows: Sequence[np.ndarray], picks: np.ndarray) -> np.ndarray:
    """The equal-length arrays ``rows[p]`` for ``p`` in ``picks`` (not
    empty), stacked."""
    return np.concatenate(list(map(rows.__getitem__, picks.tolist()))).reshape(len(picks), -1)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: where each of ``counts``' blocks starts."""
    out = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=out[1:])
    return out


def _expand(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every element of the spans ``lo[s]:hi[s]`` in span order: each
    element's span ``s`` and its value."""
    counts = hi - lo
    span = np.repeat(np.arange(len(lo)), counts)
    at = _offsets(counts)
    return span, np.arange(at[-1]) - at[span] + lo[span]


def _key_rows(keys: Sequence[FrozenSet[int]]) -> np.ndarray:
    """Coupling sets as rows of ascending ids, padded on the left with
    -1 to the largest set's size."""
    lens = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    width = int(lens.max(initial=0))
    out = np.full((len(keys), width), -1, dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(keys), dtype=np.int64, count=int(lens.sum()))
    if len(flat):
        row = np.repeat(np.arange(len(keys)), lens)
        at = _offsets(lens)
        out[row, np.arange(len(flat)) - at[row] + (width - lens)[row]] = flat
        out.sort(axis=1)
    return out


def _meets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row: do id rows ``a[r]`` and ``b[r]`` share an id?"""
    if not (a.shape[1] and b.shape[1]):
        return np.zeros(len(a), dtype=bool)
    return (a[:, :, None] == b[:, None, :]).any(axis=(1, 2))


def _bad_sample(net: str, coupling: int, phase: str) -> WaveformFaultError:
    return WaveformFaultError(
        "non-finite or negative waveform sample", net=net, coupling=coupling, phase=phase
    )


def _raise_bad_row(
    block: np.ndarray, couplings: Sequence[int], nets: Sequence[str], *, phase: str
) -> None:
    """Raise for the first row of ``block`` holding a non-finite or
    impossible (negative) sample, naming that row's victim and coupling."""
    bad = _bad_rows(block)
    if bad is not None:
        row = int(np.argmax(bad[0] | bad[1]))
        raise _bad_sample(nets[row], couplings[row], phase)


def _bad_rows(block: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``None`` when every sample of ``block`` is finite and not negative;
    else, per row, whether it holds a non-finite sample and whether it
    holds an impossible (negative) one."""
    # min() is NaN on a NaN and -inf on a -inf; max() catches +inf.
    if not block.size or (block.min() >= -_NEGATIVE_ENV_TOL and block.max() < np.inf):
        return None
    return ~np.isfinite(block).all(axis=1), block.min(axis=1) < -_NEGATIVE_ENV_TOL


def _sample_trapezoids(
    times: np.ndarray,
    t0: Column,
    t1: Column,
    t2: Column,
    t3: Column,
    height: Column,
) -> np.ndarray:
    """Sample trapezoids on a shared time base.

    The solver's only sampling kernel: every primary, higher-order and
    pseudo envelope comes from here, without
    :class:`~repro.timing.waveform.Waveform` construction.  Parameters
    are ``(m, 1)`` columns, one row per trapezoid, giving an ``(m, n)``
    block; scalar parameters sample one trapezoid as an ``(n,)`` row.
    Every row sees the same elementwise operations in the same order,
    so it is bit-identical to sampling its trapezoid alone.
    """
    up = (times - t0) / np.maximum(t1 - t0, 1e-12)
    down = (t3 - times) / np.maximum(t3 - t2, 1e-12)
    return height * np.clip(np.minimum(np.minimum(up, 1.0), down), 0.0, None)


def _primary_row(info: _PrimaryInfo) -> Tuple[float, ...]:
    """``(eat, lat, lead, rise, decay, peak)`` of a primary envelope."""
    pulse, window = info.pulse, info.window
    return (window.eat, window.lat, pulse.lead, pulse.rise, pulse.decay, pulse.peak)


def _sample_primaries(
    times: np.ndarray,
    eat: Column,
    lat: Column,
    lead: Column,
    rise: Column,
    decay: Column,
    peak: Column,
    widen: Column,
) -> np.ndarray:
    """Sampled primary envelopes (paper Fig. 2 trapezoids) with the LAT
    widened by ``widen`` (higher-order aggressors); columns or scalars
    as in :func:`_sample_trapezoids`."""
    t_start = eat - lead
    t_top_start = t_start + rise
    t_top_end = lat + widen - lead + rise
    t_end = t_top_end + decay
    return _sample_trapezoids(times, t_start, t_top_start, t_top_end, t_end, peak)


def _sample_shift_bumps(
    times: np.ndarray, t50: float, slew: float, delta: Column
) -> np.ndarray:
    """Sampled pseudo-aggressor bumps (see :func:`_shift_bump`) of the
    arrival shifts ``delta``; a column or a scalar as in
    :func:`_sample_trapezoids`."""
    height = np.minimum(1.0, delta / slew)
    t_start = t50 - slew / 2.0
    t_end = t50 + delta + slew / 2.0
    rise = height * slew
    return _sample_trapezoids(
        times, t_start, t_start + rise, t_end - rise, t_end, height
    )


def _shift_bump(t50: float, slew: float, delta: float) -> Waveform:
    """Pseudo-aggressor envelope of an arrival shift ``delta`` (Section 3.1).

    The difference between the noiseless victim transition (a 0-100% ramp
    of ``slew`` crossing 0.5 at ``t50``) and the same ramp delayed by
    ``delta`` is a trapezoid of height ``min(1, delta/slew)`` spanning
    ``[t50 - slew/2, t50 + delta + slew/2]``.
    """
    points, height = _shift_bump_rows(
        np.array([t50]), np.array([slew]), np.array([delta])
    )
    return trapezoid(*points[0].tolist(), float(height[0]))


def _shift_bump_rows(
    t50: np.ndarray, slew: np.ndarray, delta: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(m, 4)`` breakpoints and ``(m,)`` heights of :func:`_shift_bump`
    for each row, with Python's ``min``/``max`` tie rules."""
    if (delta <= 0).any():
        bad = float(delta[np.argmax(delta <= 0)])
        raise TopKError(f"shift bump needs delta > 0, got {bad}")
    height = delta / slew
    height = np.where(height < 1.0, height, 1.0)
    t_start = t50 - slew / 2.0
    t_end = t50 + delta + slew / 2.0
    rise = height * slew
    # delta == slew makes the plateau degenerate; guard the float rounding.
    t_top_start = t_start + rise
    t_top_end = t_end - rise
    t_top_end = np.where(t_top_start > t_top_end, t_top_start, t_top_end)
    return np.stack((t_start, t_top_start, t_top_end, t_end), axis=1), height


def _primary_points(params: np.ndarray, lat_floor: Optional[float] = None) -> np.ndarray:
    """Breakpoints of the primary envelopes of :func:`_primary_row` rows,
    with each LAT raised to ``lat_floor`` when one is given."""
    eat, lat, lead, rise, decay = params[:, :5].T
    if lat_floor is not None:
        lat = np.maximum(lat, lat_floor)
    return envelope_breakpoints(eat, lat, lead, rise, decay)


def _covering(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start and end of grids over ``[lo, hi]`` with a 2 % margin on each
    side (a span of at least 1 ps)."""
    span = hi - lo
    span = np.where(1e-3 > span, 1e-3, span)
    return lo - 0.02 * span, hi + 0.02 * span


def _ramp_delay_noise(
    t50: np.ndarray,
    slew: np.ndarray,
    total: np.ndarray,
    times: np.ndarray,
    start: np.ndarray,
    stop: np.ndarray,
) -> np.ndarray:
    """:func:`~repro.core.dominance.batch_delay_noise` of one combined
    envelope per victim, each on its own grid row (``times[r]`` from
    ``start[r]`` to ``stop[r]``); bit-identical per row."""
    bad = slew <= 0
    if bad.any():
        j = int(np.argmax(bad))
        rising_ramp(float(t50[j]), float(slew[j]))  # raises its WaveformError
    ramps = np.empty(times.shape)
    for r, xp in enumerate(np.stack((t50 - slew / 2.0, t50 + slew / 2.0), axis=1)):
        ramps[r] = np.interp(times[r], xp, _RAMP_LEVELS)
    dts = (stop - start) / (times.shape[1] - 1)
    return delay_noise_rows(t50, ramps, total, times, dts)
