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
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import (
    TYPE_CHECKING,
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.facts import DeadAggressorProof, SemanticFacts

from ..circuit.coupling import CouplingCap
from ..circuit.design import Design
from ..noise.analysis import (
    NoiseConfig,
    NoiseResult,
    analyze_noise,
    analyze_noise_resilient,
)
from ..noise.envelope import NoiseEnvelope, primary_envelope
from ..noise.filters import windows_can_interact
from ..noise.pulse import NoisePulse, pulse_for_coupling
from ..obs.metrics import MetricsRegistry
from ..obs.profile import SamplingProfiler
from ..obs.trace import Trace
from ..obs.tracer import NULL_TRACER, Tracer
from ..obs.tracer import activate as _obs_activate
from ..perf.batch import delay_noise_blocks
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
from ..runtime.supervisor import ExecIncident
from ..timing.delay_models import driver_arc
from ..timing.graph import TimingGraph
from ..timing.sta import TimingResult, run_sta
from ..timing.waveform import Grid, Waveform, trapezoid
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
        Number of worker processes for the wave-scheduled sweep.  ``1``
        (the default) is the serial path; ``N > 1`` partitions each
        cardinality pass into topological-level waves and solves a
        wave's victims concurrently in a process pool.  Results are
        bit-exact with the serial path in either setting; budget ticks
        are enforced at wave granularity when parallel.  See
        ``docs/performance.md``.
    max_chunk_retries:
        Pool-level retries granted per chunk before the parent runs the
        chunk in-process (the supervised scheduler's per-chunk
        :class:`~repro.runtime.supervisor.RetryPolicy`).  ``0`` means
        one pool attempt, then straight to in-process.  Only meaningful
        with ``parallelism > 1``; recovery is always bit-exact.  See
        ``docs/robustness.md`` ("Failure handling & supervision").
    chunk_timeout_s:
        Wall-clock bound on a single pool attempt at one chunk; a chunk
        exceeding it is treated as hung and retried (``None`` = no
        per-chunk timeout).  Only meaningful with ``parallelism > 1``.
    trace:
        Record a span trace of the whole solve pipeline (sweeps, noise
        fixpoints, waves and worker chunks, checkpoints, certificates)
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
    max_chunk_retries: int = 2
    chunk_timeout_s: Optional[float] = None
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
        if self.max_chunk_retries < 0:
            raise TopKError("max_chunk_retries must be >= 0")
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise TopKError("chunk_timeout_s must be > 0 or None")
        if self.certify_witnesses is not None and self.certify_witnesses < 1:
            raise TopKError("certify_witnesses must be >= 1 or None")
        if self.certify and not self.noise.record_trace:
            # Certificates need the fixpoint iterates; arm trace
            # recording on the frozen sub-config transparently.
            object.__setattr__(
                self, "noise", replace(self.noise, record_trace=True)
            )


#: SolveStats fields carrying plain enumeration counts.  These are
#: execution-order independent: a parallel wave-scheduled solve reports
#: exactly the same values as the serial sweep.
_COUNTER_FIELDS = (
    "victims",
    "primary_aggressors",
    "candidates",
    "dominated",
    "pseudo_atoms",
    "higher_order_atoms",
    "semantic_skips",
)

#: SolveStats fields describing *how* the solve executed (scheduling,
#: cache, and failure-recovery behavior).  These legitimately differ
#: between serial and parallel runs — and between clean and recovered
#: runs — and are excluded from bit-exactness comparisons.
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
      ``parallel``, ``oracle``).  The authoritative accumulation lives
      in the engine's :class:`~repro.obs.metrics.MetricsRegistry`
      (``phase_s.*`` counters); this field is a snapshot refreshed when
      a solution is produced;
    * ``cache_hits`` / ``cache_misses`` — per-cache counters of the
      memoization layer (:mod:`repro.perf.memo`), including the worker
      processes' caches when the solve ran parallel;
    * ``waves`` / ``parallel_tasks`` — how many waves the scheduler
      dispatched and how many worker chunks it shipped;
    * ``chunk_retries`` / ``chunk_timeouts`` / ``pool_respawns`` /
      ``exec_fallbacks`` / ``quarantined_chunks`` — the supervised
      scheduler's recovery ledger (``docs/robustness.md``): pool-level
      chunk re-submissions, per-chunk timeouts observed, pool respawns
      after breaks, serial/in-process fallbacks taken, and chunks
      quarantined away from the pool.  All zero on a clean run — a
      nonzero value is how a recovered run distinguishes itself from a
      clean one with identical results;
    * ``pool_payload_bytes`` / ``shm_payload_bytes`` — array bytes a
      parallel solve shipped through the pool pipe (pickled) vs. placed
      in shared-memory arenas (``docs/performance.md``).  On a healthy
      shm platform the pool count stays 0.
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

    def merged_with(self, other: "SolveStats") -> "SolveStats":
        merged = SolveStats(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in _COUNTER_FIELDS + _EXECUTION_FIELDS
            }
        )
        merged.phase_s = _merge_sum(self.phase_s, other.phase_s)
        merged.cache_hits = _merge_sum(self.cache_hits, other.cache_hits)
        merged.cache_misses = _merge_sum(self.cache_misses, other.cache_misses)
        return merged

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


def _merge_sum(a: Dict, b: Dict) -> Dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0) + value
    return out


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
    """Pseudo input atoms from one fanin's I-list (Section 3.1).

    ``shifts`` is each row's arrival shift at the victim.  In
    elimination mode ``total`` is the fanin's total shift and ``shifts``
    what remains of it once the row's set is removed.
    """

    fanin: str
    sets: List[EnvelopeSet]
    shifts: List[float]
    total: Optional[float] = None

    def __len__(self) -> int:
        return len(self.sets)

    def couplings(self, r: int) -> FrozenSet[int]:
        return self.sets[r].couplings

    def blocked(self, r: int) -> FrozenSet[int]:
        return self.sets[r].blocked

    def label(self, r: int) -> str:
        return f"pseudo({self.fanin})"

    def row(self, ctx: _VictimContext, r: int) -> Tuple[object, ...]:
        own = (ctx.t50, ctx.slew, self.shifts[r])
        return own if self.total is None else own + (self.total,)

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

    Addition rows are the widened primaries.  Elimination rows
    (``narrow``) are what the narrowing takes off the primary envelope,
    ``clip(primary - narrowed, 0)``.
    """

    sets: List[EnvelopeSet]
    primaries: List[int]  # index into ctx.primary_info per row
    index: List[int]  # the primary's coupling id per row
    widens: List[float]
    narrow: bool

    def __len__(self) -> int:
        return len(self.sets)

    def couplings(self, r: int) -> FrozenSet[int]:
        own = self.sets[r].couplings
        return own if self.narrow else own | {self.index[r]}

    def blocked(self, r: int) -> FrozenSet[int]:
        own = self.sets[r].blocked
        return own | {self.index[r]} if self.narrow else own

    def label(self, r: int) -> str:
        if self.narrow:
            return f"narrow:c{self.index[r]}"
        return f"order{self.sets[r].cardinality + 1}:c{self.index[r]}"

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
    """Extensions of one I-list_{i-1} base by compatible single atoms
    (paper step 1): each row is ``atom.env + base.env``."""

    base: EnvelopeSet
    atoms: List[EnvelopeSet]

    def __len__(self) -> int:
        return len(self.atoms)

    def couplings(self, r: int) -> FrozenSet[int]:
        return self.base.couplings | self.atoms[r].couplings

    def blocked(self, r: int) -> FrozenSet[int]:
        return self.base.blocked | self.atoms[r].blocked

    def label(self, r: int) -> str:
        return join_labels(self.base.label, self.atoms[r].label)

    def row(self, ctx: _VictimContext, r: int) -> Tuple[object, ...]:
        return self.atoms[r].env, self.base.env

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
class _Pool:
    """One victim's candidates of one cardinality, held as arrays.

    ``matrix`` stacks the envelopes, ``keys`` holds each row's coupling
    set (the dedupe key), ``scores`` is filled by the scoring pass, and
    ``segments`` (starting at row ``starts[s]``) record which path built
    each row.  :class:`EnvelopeSet` objects are built only for the rows
    that survive dominance.
    """

    matrix: np.ndarray
    keys: List[FrozenSet[int]]
    segments: List[_Segment]
    starts: List[int]
    scores: np.ndarray = field(default_factory=lambda: np.empty(0))

    @classmethod
    def build(cls, parts: Sequence[Tuple[_Segment, np.ndarray]], n: int) -> "_Pool":
        """Stack ``(segment, block)`` parts in order into one pool."""
        segments = [seg for seg, _ in parts]
        starts: List[int] = []
        keys: List[FrozenSet[int]] = []
        for seg in segments:
            starts.append(len(keys))
            keys.extend([seg.couplings(r) for r in range(len(seg))])
        if not parts:
            matrix = np.empty((0, n))
        elif len(parts) == 1:
            matrix = parts[0][1]
        else:
            matrix = np.concatenate([block for _, block in parts])
        return cls(matrix, keys, segments, starts)

    def __len__(self) -> int:
        return len(self.keys)

    def locate(self, p: int) -> Tuple[_Segment, int]:
        """The segment of row ``p`` and the row's index inside it."""
        s = bisect_right(self.starts, p) - 1
        return self.segments[s], p - self.starts[s]


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
        out: List[Tuple[_VictimContext, _Segment, int]] = []
        starts = self.starts
        for p in self.rows[list(picks)].tolist():
            s = bisect_right(starts, p) - 1
            out.append((self.ctx, self.segments[s], p - starts[s]))
        return out

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
    appended directly (a parallel worker's, a test's) are kept as they
    are.
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
    ladder's per-victim provenance.  ``exec_incidents`` is the
    supervised scheduler's failure/recovery ledger — non-empty whenever
    the execution layer had to retry, respawn, quarantine, or fall back,
    even when the results themselves are exact.
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
    exec_incidents: List[ExecIncident] = field(default_factory=list)

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
        facts: Optional["SemanticFacts"] = None,
    ) -> None:
        if mode not in _MODES:
            raise TopKError(f"mode must be one of {_MODES}, got {mode!r}")
        self.design = design
        self.mode = mode
        self.config = config if config is not None else TopKConfig()
        #: Cross-solve memoization (pulses and sampled primary
        #: envelopes).  Pass a shared memo to warm a new
        #: engine over the *same design*; never share across designs.
        self.memo = memo if memo is not None else EnvelopeMemo()
        #: Semantic facts (:mod:`repro.analysis.facts`): statically
        #: proven dead-aggressor directions the primary sweep skips
        #: without computing a pulse or envelope.  Exactness-preserving
        #: by construction — only directions the engine's own filters
        #: are proven to drop are skipped — so results are bit-identical
        #: with and without facts.  Passed like ``memo`` (not part of
        #: :class:`TopKConfig`) so checkpoint/certificate fingerprints
        #: are unchanged.
        self.facts = facts
        #: Per-skip witnesses (the certificate hook): one
        #: :class:`~repro.analysis.facts.DeadAggressorProof` for every
        #: coupling direction the sweep pre-pruned on the facts' word.
        self.semantic_skips: List["DeadAggressorProof"] = []
        if facts is not None:
            from ..analysis.facts import FactsError

            try:
                facts.ensure_compatible(design, mode, self.config)
            except FactsError as exc:
                raise TopKError(f"semantic facts rejected: {exc}") from exc
        self.netlist = design.netlist
        self.coupling = design.coupling
        self.graph = TimingGraph.from_netlist(self.netlist)
        self.nominal = run_sta(self.netlist, self.graph)
        self.horizon = self.nominal.horizon(self.config.horizon_margin)
        budget = self.config.budget
        self.monitor = RuntimeMonitor(budget)
        self.degradation: Optional[DegradationReport] = None
        #: Execution-layer failure provenance (chunk retries, pool
        #: respawns, quarantines) recorded by the supervised wave
        #: scheduler.  Incidents do not imply degraded results — a
        #: recovered solve is bit-identical to a clean one.
        self.exec_incidents: List[ExecIncident] = []
        self._rung = 0
        self._beam_cap = self.config.max_sets_per_cardinality
        self._scheduler = None  # lazily built wave scheduler (parallelism > 1)
        self._worker_cache_hits: Dict[str, int] = {}
        self._worker_cache_misses: Dict[str, int] = {}
        self._global_cache_base = global_cache_stats()
        self.all_aggressor_delay: Optional[float] = None
        self.stats = SolveStats()
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
        (``phase_s.<name>``), which supersedes the old ad-hoc
        ``SolveStats.phase_s`` accounting (that dict is now refreshed
        from the registry by :meth:`_refresh_cache_stats`).  When
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
                self.stats.phase_s = self.metrics.phase_seconds()

    def close(self) -> None:
        """Shut down the worker pool and profiler, if any (idempotent)."""
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None
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

    def __getstate__(self) -> Dict[str, object]:
        # The wave scheduler owns an OS process pool; engines are
        # pickled (to seed the workers themselves) without it.
        state = dict(self.__dict__)
        state["_scheduler"] = None
        return state

    # ------------------------------------------------------------------
    # context construction
    # ------------------------------------------------------------------
    def _build_contexts(self) -> None:
        cfg = self.config
        ub: Dict[str, float] = {}
        order = list(self.graph.topo_order) + [SINK]
        for net in order:
            if net == SINK:
                t50 = self.nominal.circuit_delay()
                slew = max(
                    self.nominal.slew_late(po)
                    for po in self.netlist.primary_outputs
                )
                inputs = {
                    po: t50 - self.nominal.lat(po)
                    for po in self.netlist.primary_outputs
                }
                infos: List[_PrimaryInfo] = []
            else:
                t50 = self.nominal.lat(net)
                slew = self.nominal.slew_late(net)
                inputs = self._input_slacks(net)
                infos = self._collect_primaries(net)
            upstream_ub = max(
                (max(0.0, ub.get(u, 0.0) - slack) for u, slack in inputs.items()),
                default=0.0,
            )
            ub_local, grid = self._upper_bound_and_grid(
                t50, slew, infos, upstream_ub
            )
            ub[net] = ub_local
            ctx = _VictimContext(
                net=net,
                grid=grid,
                t50=t50,
                slew=slew,
                interval=DominanceInterval(t50, t50 + ub_local + _TINY_NS),
                inputs=inputs,
            )
            for info in infos:
                info.sampled = self._primary_sample(grid, info, net=net)
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

    def _input_slacks(self, net: str) -> Dict[str, float]:
        gate = self.netlist.driver_gate(net)
        if gate.is_primary_input:
            return {}
        lat = self.nominal.lat(net)
        slacks: Dict[str, float] = {}
        for u in gate.inputs:
            arc = driver_arc(self.netlist, net, self.nominal.slew_late(u))
            slacks[u] = max(0.0, lat - (self.nominal.lat(u) + arc.delay))
        return slacks

    def _collect_primaries(self, victim: str) -> List[_PrimaryInfo]:
        cfg = self.config
        infos: List[_PrimaryInfo] = []
        victim_window = self.window_timing.window(victim)
        dead: FrozenSet[int] = (
            self.facts.dead_for(victim, window_filter=cfg.window_filter)
            if self.facts is not None
            else frozenset()
        )
        for cc in self.coupling.aggressors_of(victim):
            if cc.index in dead:
                # Statically proven dead (repro.analysis): the filters
                # below are guaranteed to drop this direction, so skip
                # the pulse/envelope work and log the proof as witness.
                assert self.facts is not None
                proof = self.facts.proof(cc.index, victim)
                if proof is not None:
                    self.semantic_skips.append(proof)
                self.stats.semantic_skips += 1
                continue
            aggressor = cc.other(victim)
            window = self.window_timing.window(aggressor)
            slew_a = self.window_timing.slew_late(aggressor)
            if cfg.window_filter and not windows_can_interact(
                victim_window, window, slack=slew_a
            ):
                continue
            pulse = self.memo.pulse.get_or(
                (victim, cc.index, slew_a),
                lambda: pulse_for_coupling(self.netlist, cc, victim, slew_a),
            )
            env = primary_envelope(victim, pulse, window)
            if env.t_end <= self.nominal.lat(victim):
                continue  # dies before the victim's t50: false aggressor
            infos.append(
                _PrimaryInfo(
                    coupling=cc,
                    aggressor=aggressor,
                    pulse=pulse,
                    window=window,
                    sampled=np.empty(0),
                )
            )
        return infos

    def _upper_bound_and_grid(
        self,
        t50: float,
        slew: float,
        infos: Sequence[_PrimaryInfo],
        upstream_ub: float,
    ) -> Tuple[float, Grid]:
        """Dominance-interval upper bound (infinite windows) and the grid."""
        cfg = self.config
        widened = [
            primary_envelope(
                "*",
                info.pulse,
                TimingWindow(info.window.eat, max(info.window.lat, self.horizon)),
            )
            for info in infos
        ]
        envs: List[NoiseEnvelope] = list(widened)
        if upstream_ub > _TINY_NS:
            envs.append(
                NoiseEnvelope("*", _shift_bump(t50, slew, upstream_ub))
            )
        t_lo = t50 - slew
        t_hi = t50 + slew
        for env in envs:
            t_lo = min(t_lo, env.t_start)
            t_hi = max(t_hi, env.t_end)
        span = max(t_hi - t_lo, 1e-3)
        probe = Grid(t_lo - 0.02 * span, t_hi + 0.02 * span, cfg.grid_points)
        if envs:
            total = np.zeros(probe.n)
            for env in envs:
                total += env.sample(probe)
            ub = float(
                batch_delay_noise(t50, slew, total[None, :], probe)[0]
            )
        else:
            ub = 0.0
        ub = max(ub, upstream_ub)
        # Real working grid: actual-window envelope spans + room for the
        # bounded noisy t50.
        g_lo = t50 - slew
        g_hi = t50 + ub + 2.0 * slew
        for info in infos:
            env = primary_envelope("*", info.pulse, info.window)
            g_lo = min(g_lo, env.t_start)
            g_hi = max(g_hi, env.t_end)
        span = max(g_hi - g_lo, 1e-3)
        grid = Grid(g_lo - 0.02 * span, g_hi + 0.02 * span, cfg.grid_points)
        return ub, grid

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
        self, block: np.ndarray, couplings: Sequence[int], *, net: str, phase: str
    ) -> None:
        """The fault hook and sanity guard over freshly sampled rows.

        The fault injector (when active) gets a chance to corrupt each
        row in place, in row order, at that row's ``"<net>:c<coupling>"``
        site.  Any non-finite or impossible (negative) sample, injected
        or organic, raises a contextful
        :class:`~repro.runtime.errors.WaveformFaultError` naming the
        first bad row's coupling instead of silently reaching t50
        scoring.
        """
        injector = faultinject._ACTIVE
        if injector is None:
            _raise_bad_row(block, couplings, net=net, phase=phase)
            return
        for row, coupling in enumerate(couplings):
            injector.corrupt_waveform(block[row], f"{net}:c{coupling}")
            _raise_bad_row(block[row : row + 1], (coupling,), net=net, phase=phase)

    def _primary_sample(self, grid: Grid, info: _PrimaryInfo, *, net: str) -> np.ndarray:
        """The guarded primary envelope of ``info`` on ``grid`` (read-only).

        Memoized in ``memo.primary_env``.  The key is the full value
        identity of the sample (pulse shape, timing window and grid), so
        a cached entry can never be stale (see :mod:`repro.perf.memo`),
        and a cold and a warm cache yield bit-identical arrays.  The
        ``0.0`` is the key's widening slot, kept so that stored memo
        snapshots keep hitting.  With a fault injector armed the cache
        is bypassed entirely, so injected corruption is neither cached
        nor masked.
        """
        pulse, window = info.pulse, info.window
        key = (
            pulse.peak,
            pulse.rise,
            pulse.decay,
            pulse.lead,
            window.eat,
            window.lat,
            0.0,
        ) + grid_key(grid)
        cache = self.memo.primary_env
        armed = faultinject._ACTIVE is not None
        cached = None if armed else cache.get(key)
        if cached is not None:
            return cached
        arr = _sample_primary(grid.times, pulse, window)
        self._guard_rows(arr[None, :], (info.coupling.index,), net=net, phase="build")
        return readonly(arr) if armed else cache.put(key, readonly(arr))

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
        if self.config.parallelism > 1:
            return self._solve_parallel(k)
        order = list(self.graph.topo_order) + [SINK]
        with _obs_activate(self.tracer), self.tracer.span(
            "solve", k=k, mode=self.mode, parallelism=1
        ):
            try:
                for i in range(self._solved_upto + 1, k + 1):
                    with self.tracer.span("cardinality", i=i):
                        for net in order:
                            self._sweep(self.contexts[net], i)
                    self._solved_upto = i
                    self._maybe_checkpoint()
            except _HaltSolve as halt:
                self._finalize_halt(halt, k)
        return self._solution(k)

    def _solve_parallel(self, k: int) -> EngineSolution:
        """Wave-scheduled sweeps (``parallelism > 1``), same results.

        Each cardinality pass is partitioned into topological-level
        waves (:mod:`repro.perf.waves`); a wave's victims are solved
        concurrently in a process pool and merged back in deterministic
        order, so the irredundant lists — and hence the solution — are
        bit-exact with the serial path.  Budget ticks run in the parent
        at wave granularity; checkpoints still land at cardinality
        boundaries.  Pool-level failures are supervised per chunk:
        retried with seeded backoff, salvaged in-process on the final
        attempt, and recorded as :class:`ExecIncident` provenance — the
        scheduler only abandons process parallelism (with a warning)
        once its respawn budget or the pool's health is spent.
        """
        from ..perf.scheduler import WaveScheduler

        if self._scheduler is None:
            self._scheduler = WaveScheduler(self)
        with _obs_activate(self.tracer), self.tracer.span(
            "solve", k=k, mode=self.mode, parallelism=self.config.parallelism
        ):
            try:
                for i in range(self._solved_upto + 1, k + 1):
                    with self._phase("parallel"), self.tracer.span(
                        "cardinality", i=i
                    ):
                        self._scheduler.run_pass(i)
                    self._solved_upto = i
                    self._maybe_checkpoint()
            except _HaltSolve as halt:
                self._finalize_halt(halt, k)
        return self._solution(k)

    def _refresh_cache_stats(self) -> None:
        """Sync stats and the metrics registry with the cache counters.

        Worker-process deltas (accumulated by the wave scheduler) are
        added on top; global-cache counts are relative to this engine's
        construction-time baseline.  ``stats.phase_s`` is refreshed from
        the registry (its authoritative home), and the enumeration/cache
        counters are mirrored *into* the registry so a trace carries the
        complete unified view — core counters bit-identical between
        serial and parallel solves.
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
        self.stats.cache_hits = _merge_sum(hits, self._worker_cache_hits)
        self.stats.cache_misses = _merge_sum(misses, self._worker_cache_misses)
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
        if self.degradation is not None and self.exec_incidents:
            # A degraded run with execution incidents tells the whole
            # story in one record (the report is the provenance callers
            # already inspect).
            self.degradation.exec_incidents = list(self.exec_incidents)
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
            exec_incidents=list(self.exec_incidents),
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

    def _sweep(self, ctx: _VictimContext, i: int) -> None:
        """One victim's full pass at cardinality ``i`` (serial path).

        The pass is split into three phases the profiler times
        separately and the wave scheduler reuses piecewise:
        :meth:`_generate` (the candidate pool), :meth:`_score` (the
        batched delay-noise kernel), :meth:`_reduce` (dedupe +
        dominance).  ``_score`` may be replaced by the cross-victim
        :meth:`_score_chunk` without changing any result.
        """
        self._tick(ctx.net, i, phase="sweep")
        with self.tracer.span("sweep", net=ctx.net, i=i) as sweep_span:
            with self._phase("generate"):
                pool = self._generate(ctx, i)
            if not pool:
                ctx.ilists[i] = []
                return
            with self._phase("score"):
                self._score(ctx, pool)
            with self._phase("reduce"):
                self._reduce(ctx, i, pool)
            sweep_span.set(candidates=len(pool), kept=len(ctx.ilists[i]))

    def _generate(self, ctx: _VictimContext, i: int) -> _Pool:
        """Build the unscored candidate pool of cardinality ``i``.

        Rows come in construction order: pseudo atoms, higher-order
        atoms, then the primaries (``i == 1``) or the merges of each
        I-list_{i-1} base with its compatible single atoms.
        """
        cfg = self.config
        parts: List[Tuple[_Segment, np.ndarray]] = []
        if cfg.use_pseudo:
            parts.extend(self._pseudo_atoms(ctx, i))
        if cfg.use_higher_order and i >= 2:
            parts.extend(self._higher_order_atoms(ctx, i))
        if i == 1:
            if ctx.primaries:
                primaries = _Primaries(list(ctx.primaries))
                parts.append((primaries, np.array([p.env for p in primaries.sets])))
        else:
            bases = ctx.ilists.get(i - 1, [])
            atoms = ctx.atoms1
            if bases and atoms:
                atom_env = np.array([a.env for a in atoms])
            for base in bases:
                # Every compatible extension of one base in one gather and
                # one add.  IEEE addition commutes, so each row is
                # bit-identical to base.env + atom.env.
                which = [ai for ai, atom in enumerate(atoms) if base.compatible(atom)]
                if not which:
                    continue
                block = atom_env[which]
                block += base.env
                parts.append((_Merge(base, [atoms[ai] for ai in which]), block))
        return _Pool.build(parts, ctx.grid.n)

    def _pool_set(self, pool: _Pool, p: int) -> EnvelopeSet:
        """The :class:`EnvelopeSet` of pool row ``p`` (its own envelope copy)."""
        seg, r = pool.locate(p)
        if isinstance(seg, _Primaries):
            return seg.sets[r]
        return EnvelopeSet(
            couplings=pool.keys[p],
            env=pool.matrix[p].copy(),
            blocked=seg.blocked(r),
            score=float(pool.scores[p]),
            label=seg.label(r),
        )

    def _reduce(self, ctx: _VictimContext, i: int, pool: _Pool) -> None:
        """Dedupe + dominance-reduce a scored pool into I-list_i."""
        cfg = self.config
        atoms: Dict[int, EnvelopeSet] = {}
        if i == 1:
            # The single-aggressor extension pool: every primary and
            # every cardinality-1 pseudo atom, dominated or not.
            atoms = {
                p: self._pool_set(pool, p)
                for p in range(pool.starts[-1] if ctx.primaries else len(pool))
                if len(pool.keys[p]) == 1
            }
            for primary, score in zip(
                ctx.primaries, pool.scores[len(pool) - len(ctx.primaries):].tolist()
            ):
                primary.score = score
            ctx.atoms1 = list(ctx.primaries) + list(atoms.values())
        rows = _dedupe_rows(pool.keys, pool.scores, self.mode == ADDITION)
        self.stats.candidates += len(rows)
        with self.tracer.span(
            "dominance", net=ctx.net, i=i, candidates=len(rows)
        ) as dom_span:
            kept_rows, pairs = reduce_irredundant(
                pool.matrix,
                pool.scores,
                ctx.interval,
                ctx.grid,
                maximize=self.mode == ADDITION,
                max_sets=self._beam_cap,
                rows=rows,
            )
            dom_span.set(kept=len(kept_rows), dominated=len(pairs))
        self.metrics.observe("reduce.candidates", len(rows))
        self.stats.dominated += len(pairs)
        kept = [
            atoms[p] if p in atoms else self._pool_set(pool, p) for p in kept_rows
        ]
        if pairs and (cfg.audit_dominance or cfg.certify):
            survivor = dict(zip(kept_rows, kept))
            pruned = np.array([p for _, p in pairs])
            self.prune_log.add_chunk(
                _PruneChunk(
                    ctx=ctx,
                    cardinality=i,
                    segments=pool.segments,
                    starts=pool.starts,
                    rows=pruned,
                    scores=pool.scores[pruned],
                    dominators=[survivor[d] for d, _ in pairs],
                )
            )
        ctx.ilists[i] = kept
        self.monitor.note_frontier(len(kept) * ctx.grid.n * 8)

    def _validated_matrix(self, ctx: _VictimContext, pool: _Pool) -> np.ndarray:
        """The pool's envelope matrix, rejecting corrupted rows."""
        matrix = pool.matrix
        row_bad = ~np.isfinite(matrix).all(axis=1)
        if not row_bad.any():
            row_bad = matrix.min(axis=1) < -_NEGATIVE_ENV_TOL
        if row_bad.any():
            p = int(np.argmax(row_bad))
            seg, r = pool.locate(p)
            raise WaveformFaultError(
                "corrupted candidate envelope reached the scoring kernel",
                net=ctx.net,
                candidate=sorted(pool.keys[p]),
                label=seg.label(r) or None,
                phase="score",
            )
        return matrix

    def _score(self, ctx: _VictimContext, pool: _Pool) -> None:
        self._tick(ctx.net, len(pool.keys[0]), phase="score")
        self.metrics.observe("score.rows", len(pool))
        matrix = self._validated_matrix(ctx, pool)
        if self.mode == ADDITION:
            pool.scores = batch_delay_noise(ctx.t50, ctx.slew, matrix, ctx.grid)
        else:
            assert ctx.total_env is not None
            remaining = np.clip(ctx.total_env[None, :] - matrix, 0.0, None)
            pool.scores = batch_delay_noise(ctx.t50, ctx.slew, remaining, ctx.grid)

    def _score_chunk(
        self,
        entries: Sequence[Tuple[_VictimContext, _Pool]],
    ) -> None:
        """Score the pools of several victims in one kernel call.

        All victim grids share a point count (``config.grid_points``),
        so each victim's pool is one ``(m_b, n)`` block and the wave
        scores in a single
        :func:`~repro.perf.batch.delay_noise_blocks` call, with the
        per-victim reference ramp, t50, time base, and step passed once
        per block instead of broadcast per row.  Every operation in the
        kernel is row-local, so each candidate's score is bit-identical
        to what :meth:`_score` computes for it alone — the wave
        scheduler's workers rely on this.
        """
        entries = [(ctx, pool) for ctx, pool in entries if pool]
        if not entries:
            return
        blocks: List[np.ndarray] = []
        t50s: List[float] = []
        ramps: List[np.ndarray] = []
        times: List[np.ndarray] = []
        dts: List[float] = []
        for ctx, pool in entries:
            self._tick(ctx.net, len(pool.keys[0]), phase="score")
            matrix = self._validated_matrix(ctx, pool)
            if self.mode == ELIMINATION:
                assert ctx.total_env is not None
                matrix = np.clip(ctx.total_env[None, :] - matrix, 0.0, None)
            blocks.append(matrix)
            t50s.append(ctx.t50)
            ramps.append(_victim_ramp(ctx.t50, ctx.slew, ctx.grid))
            times.append(ctx.grid.times)
            dts.append(ctx.grid.dt)
        self.metrics.observe("score.rows", sum(b.shape[0] for b in blocks))
        scores = delay_noise_blocks(
            blocks,
            np.stack(ramps),
            np.array(t50s, dtype=np.float64),
            np.stack(times),
            np.array(dts, dtype=np.float64),
        )
        pos = 0
        for _, pool in entries:
            pool.scores = scores[pos : pos + len(pool)]
            pos += len(pool)

    # ------------------------------------------------------------------
    # atom construction
    # ------------------------------------------------------------------
    def _pseudo_atoms(
        self, ctx: _VictimContext, i: int
    ) -> List[Tuple[_Segment, np.ndarray]]:
        """Pseudo input atoms of cardinality ``i``: one block per fanin.

        Each fanin's I-list_i becomes arrival shifts at this victim (its
        slack clipped off), and all of the fanin's bumps are sampled in
        one :func:`_sample_shift_bumps` call.
        """
        parts: List[Tuple[_Segment, np.ndarray]] = []
        for u, slack in ctx.inputs.items():
            uctx = self.contexts.get(u)
            if uctx is None:
                continue
            shifts = [
                (cand, max(0.0, cand.score - slack))
                for cand in uctx.ilists.get(i, [])
            ]
            total: Optional[float] = None
            if self.mode == ADDITION:
                rows = [(cand, s) for cand, s in shifts if s > _TINY_NS]
            else:
                # Elimination: the fanin's total shift minus what remains
                # after removing the set.
                total = max(0.0, uctx.shift_tot - slack)
                rows = [(cand, s) for cand, s in shifts if total - s > _TINY_NS]
            if not rows:
                continue
            seg = _Pseudo(uctx.net, [cand for cand, _ in rows], [s for _, s in rows], total)
            ones = np.ones(len(seg))
            columns = [ctx.t50 * ones, ctx.slew * ones, np.array(seg.shifts)]
            if total is not None:
                columns.append(total * ones)
            parts.append((seg, readonly(_Pseudo.sample(ctx.grid.times, *columns))))
            self.stats.pseudo_atoms += len(seg)
        return parts

    def _higher_order_atoms(
        self, ctx: _VictimContext, i: int
    ) -> List[Tuple[_Segment, np.ndarray]]:
        """Higher-order atoms of cardinality ``i``, sampled as one block.

        Addition: a set on a primary aggressor's own I-list_{i-1} widens
        that aggressor's window by its score.  Elimination: removing the
        set narrows the aggressor's noisy window by the reduction it
        buys, and the atom is what the narrowing takes off the primary
        envelope.  Every surviving (primary, set) row is sampled in one
        :func:`_sample_primaries` call and guarded as a block.
        """
        addition = self.mode == ADDITION
        # A widening below half a grid step samples identically to the
        # base envelope: the atom would only burn cardinality.
        floor = max(_TINY_NS, 0.5 * ctx.grid.dt)
        which: List[int] = []  # the primary of each row
        picked: List[EnvelopeSet] = []  # the set of each row
        widens: List[float] = []
        for j, info in enumerate(ctx.primary_info):
            actx = self.contexts.get(info.aggressor)
            if actx is None:
                continue
            index = info.coupling.index
            window = info.window
            for cand in actx.ilists.get(i - 1, []):
                if addition:
                    widen = cand.score
                    if widen <= floor or index in cand.couplings:
                        continue
                else:
                    reduction = max(0.0, actx.shift_tot - cand.score)
                    if reduction <= floor or index in cand.couplings:
                        continue
                    widen = max(window.eat, window.lat - reduction) - window.lat
                which.append(j)
                picked.append(cand)
                # Quantized per row with Python's round: np.round can
                # differ in the last bit.
                widens.append(round(widen, 9))
        if not which:
            return []
        seg = _HigherOrder(
            picked,
            which,
            [ctx.primary_info[j].coupling.index for j in which],
            widens,
            narrow=not addition,
        )
        params = np.array([_primary_row(info) for info in ctx.primary_info])[which]
        block = _HigherOrder.moved(ctx.grid.times, params, np.array(widens))
        self._guard_rows(block, seg.index, net=ctx.net, phase="higher-order")
        if not addition:
            # _HigherOrder.sample's narrow step, after the guard.
            base = np.array([info.sampled for info in ctx.primary_info])[which]
            block = np.clip(base - block, 0.0, None)
            live = (block.max(axis=1, initial=0.0) > 1e-12).tolist()
            if not all(live):
                keep = [r for r, ok in enumerate(live) if ok]
                seg = _HigherOrder(
                    [picked[r] for r in keep],
                    [which[r] for r in keep],
                    [seg.index[r] for r in keep],
                    [widens[r] for r in keep],
                    narrow=True,
                )
                block = block[keep]
        self.stats.higher_order_atoms += len(seg)
        return [(seg, readonly(block))] if len(seg) else []


def _dedupe_rows(
    keys: Sequence[FrozenSet[int]], scores: np.ndarray, maximize: bool
) -> List[int]:
    """Rows left after collapsing identical coupling sets.

    One row per set: the first seen, unless a later one scores strictly
    better (larger when ``maximize``, smaller otherwise).  Sets keep the
    order of their first appearance.
    """
    slot: Dict[FrozenSet[int], int] = {}
    sets = [slot.setdefault(key, len(slot)) for key in keys]
    if len(slot) == len(sets):
        return list(range(len(sets)))
    values = scores.tolist()
    rows = [-1] * len(slot)
    for p, s in enumerate(sets):
        q = rows[s]
        if q < 0 or (values[p] > values[q] if maximize else values[p] < values[q]):
            rows[s] = p
    return rows


def _raise_bad_row(
    block: np.ndarray, couplings: Sequence[int], *, net: str, phase: str
) -> None:
    """Raise for the first row of ``block`` holding a non-finite or
    impossible (negative) sample, naming that row's coupling."""
    if np.isfinite(block).all() and block.min() >= -_NEGATIVE_ENV_TOL:
        return
    bad = ~np.isfinite(block).all(axis=1) | (block.min(axis=1) < -_NEGATIVE_ENV_TOL)
    raise WaveformFaultError(
        "non-finite or negative waveform sample",
        net=net,
        coupling=couplings[int(np.argmax(bad))],
        phase=phase,
    )


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


def _sample_primary(
    times: np.ndarray,
    pulse: NoisePulse,
    window: TimingWindow,
    widen: float = 0.0,
) -> np.ndarray:
    """One primary envelope (:func:`_sample_primaries` with scalars)."""
    return _sample_primaries(
        times,
        window.eat,
        window.lat,
        pulse.lead,
        pulse.rise,
        pulse.decay,
        pulse.peak,
        widen,
    )


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
    if delta <= 0:
        raise TopKError(f"shift bump needs delta > 0, got {delta}")
    height = min(1.0, delta / slew)
    t_start = t50 - slew / 2.0
    t_end = t50 + delta + slew / 2.0
    rise = height * slew
    # delta == slew makes the plateau degenerate; guard the float rounding.
    t_top_start = t_start + rise
    t_top_end = max(t_end - rise, t_top_start)
    return trapezoid(t_start, t_top_start, t_top_end, t_end, height)
