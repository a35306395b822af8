"""Job records and wire shapes of the analysis service.

The service speaks one small JSON vocabulary, used identically by the
in-process :class:`~repro.service.client.ServiceClient` and the HTTP
front end (:mod:`repro.service.http`):

* a **job spec** (:class:`JobSpec`) — what to solve: a design source
  (committed paper benchmark, or a generated random design), the query
  (``k``, mode), solver knobs, a budget, and a queue priority;
* a **job view** (:class:`JobView`) — the observable state of one
  submitted job: lifecycle state, provenance flags (store hit, resumed
  from a shard, degraded), timing, and the error when it failed;
* a **result envelope** — the JSON form of the finished
  :class:`~repro.core.report.TopKResult`
  (:mod:`repro.service.serialize`).

Job ids are sequential (``job-000001``) rather than random: the service
owns the namespace, sequential ids sort in submission order, and the
RPR8xx determinism tier has nothing to flag.  The *store* key of a job
is different — a content address derived from the design fingerprint
and solver config (:func:`JobSpec.store_key`), so two jobs asking the
same question share one store entry no matter when they were submitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional

from ..circuit.design import Design
from ..circuit.generator import (
    PAPER_BENCHMARKS,
    make_paper_benchmark,
    random_design,
)
from ..core.engine import ADDITION, ELIMINATION, TopKConfig
from ..runtime.budget import ON_BUDGET_MODES, RunBudget
from ..runtime.checkpoint import design_fingerprint, fingerprint_digest
from ..runtime.errors import ReproError

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States a job can no longer leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Upper bounds on a spec's size knobs, so one request cannot queue a
#: job that builds an enormous design, sweeps for ever or allocates huge
#: grids.  ``gates`` admits about 3x the largest paper circuit (i10,
#: 3,379 gates).
MAX_GATES = 10_000
MAX_K = 64
MAX_GRID_POINTS = 4_096


class ServiceError(ReproError):
    """Structured service-layer failure (maps to HTTP 4xx/5xx)."""


class NotFoundError(ServiceError):
    """The named job does not exist (maps to HTTP 404)."""


@dataclass(frozen=True)
class JobSpec:
    """One solve request.

    Attributes
    ----------
    benchmark:
        Name of a committed paper benchmark (``"i1"`` .. ``"i10"``);
        mutually exclusive with ``gates``.
    gates:
        Size of a generated random design (mutually exclusive with
        ``benchmark``; at most :data:`MAX_GATES`).
    seed:
        Generator seed for either design source.
    k, mode:
        The top-k query (``k`` at most :data:`MAX_K`).
    priority:
        Queue priority — *lower runs first*; ties run in submission
        order (priority FIFO).
    certify:
        Emit and validate a proof-carrying certificate; the
        certificate is persisted next to the result.
    deadline_s, max_candidates, on_budget:
        Per-job budget, folded into the solve's
        :class:`~repro.runtime.budget.RunBudget`.
    grid_points, max_sets_per_cardinality:
        Enumeration knobs (``None`` = solver defaults; ``grid_points``
        at most :data:`MAX_GRID_POINTS`).
    use_store:
        Consult/populate the persistent store for this job.  Off means
        the job always solves cold and publishes nothing — useful for
        A/B-ing the store itself.
    """

    benchmark: Optional[str] = None
    gates: Optional[int] = None
    seed: int = 0
    k: int = 3
    mode: str = ADDITION
    priority: int = 0
    certify: bool = False
    deadline_s: Optional[float] = None
    max_candidates: Optional[int] = None
    on_budget: str = "degrade"
    grid_points: Optional[int] = None
    max_sets_per_cardinality: Optional[int] = None
    use_store: bool = True

    def __post_init__(self) -> None:
        if (self.benchmark is None) == (self.gates is None):
            raise ServiceError(
                "exactly one design source required: benchmark or gates"
            )
        if self.benchmark is not None and self.benchmark not in PAPER_BENCHMARKS:
            raise ServiceError(
                f"unknown benchmark {self.benchmark!r}",
                known=sorted(PAPER_BENCHMARKS),
            )
        if self.gates is not None and self.gates < 2:
            raise ServiceError(f"gates must be >= 2, got {self.gates}")
        if self.k < 0:
            raise ServiceError(f"k must be >= 0, got {self.k}")
        if self.mode not in (ADDITION, ELIMINATION):
            raise ServiceError(
                f"mode must be {ADDITION!r} or {ELIMINATION!r}, got {self.mode!r}"
            )
        for name, bound in (
            ("gates", MAX_GATES),
            ("k", MAX_K),
            ("grid_points", MAX_GRID_POINTS),
        ):
            value = getattr(self, name)
            if value is not None and value > bound:
                raise ServiceError(f"{name} must be <= {bound}, got {value}")
        if self.on_budget not in ON_BUDGET_MODES:
            raise ServiceError(
                f"on_budget must be one of {ON_BUDGET_MODES}, "
                f"got {self.on_budget!r}"
            )
        # Build what the solve will build, so a knob the solver or the
        # budget rejects (out of range, NaN) fails at submit with a 400
        # instead of failing the job after it was queued.
        try:
            self.solver_config()
            RunBudget(
                deadline_s=self.deadline_s,
                max_candidates=self.max_candidates,
                on_budget=self.on_budget,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ServiceError(f"invalid job spec: {exc}") from exc

    # -- materialization -----------------------------------------------
    def build_design(self) -> Design:
        """Construct the design this spec names (deterministic)."""
        if self.benchmark is not None:
            return make_paper_benchmark(self.benchmark, seed=self.seed)
        assert self.gates is not None
        return random_design(
            f"svc-{self.gates}g-s{self.seed}", self.gates, seed=self.seed
        )

    def solver_config(self) -> TopKConfig:
        """The :class:`TopKConfig` this spec resolves to (no budget).

        The budget (deadline, caps, checkpoint path, cancel flag) is
        runtime wiring added by the service per attempt; it is
        deliberately not part of this config so it never leaks into the
        store key.
        """
        cfg = TopKConfig(certify=self.certify)
        if self.grid_points is not None:
            cfg = replace(cfg, grid_points=self.grid_points)
        if self.max_sets_per_cardinality is not None:
            cfg = replace(
                cfg, max_sets_per_cardinality=self.max_sets_per_cardinality
            )
        return cfg

    # -- identity ------------------------------------------------------
    def _source_identity(self) -> Dict[str, Any]:
        """The exact design *source* this spec names.

        :func:`~repro.runtime.checkpoint.design_fingerprint` identifies
        a design by name and shape statistics — enough for a checkpoint
        (the resuming run holds the same design object), but not for a
        store shared across jobs: two generated designs with different
        seeds can share a name and shape while differing in content.
        The spec's source triple pins the content exactly, because the
        service only ever materializes designs deterministically from
        it.
        """
        return {
            "benchmark": self.benchmark,
            "gates": self.gates,
            "seed": self.seed,
        }

    def design_key(self, design: Design) -> str:
        """Content address of the *design + enumeration config* identity.

        This is the key memo snapshots are shared under: any job over
        the same design and enumeration knobs — regardless of ``k`` —
        can warm-start from the same memo (entries are pure functions
        of their keys).
        """
        fp = design_fingerprint(design, self.mode, self.solver_config())
        return fingerprint_digest(
            {"fingerprint": fp, "source": self._source_identity()}
        )

    def store_key(self, design: Design) -> str:
        """Content address of the *full query* identity.

        Extends the design fingerprint (plus the exact design source)
        with the query knobs that shape the answer (``k``,
        certification, oracle evaluation), so a stored result is only
        ever replayed for a byte-for-byte equivalent question.  The
        budget is excluded: it is execution detail that never changes
        the answer.
        """
        cfg = self.solver_config()
        fp = design_fingerprint(design, self.mode, cfg)
        identity = {
            "fingerprint": fp,
            "source": self._source_identity(),
            "k": self.k,
            "certify": self.certify,
            "evaluate_with_oracle": cfg.evaluate_with_oracle,
            "oracle_rescore_top": cfg.oracle_rescore_top,
        }
        return fingerprint_digest(identity)

    # -- wire format ---------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "gates": self.gates,
            "seed": self.seed,
            "k": self.k,
            "mode": self.mode,
            "priority": self.priority,
            "certify": self.certify,
            "deadline_s": self.deadline_s,
            "max_candidates": self.max_candidates,
            "on_budget": self.on_budget,
            "grid_points": self.grid_points,
            "max_sets_per_cardinality": self.max_sets_per_cardinality,
            "use_store": self.use_store,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Parse a request body, rejecting values of the wrong JSON type.

        Nothing is coerced: a string ``"false"`` is not a boolean and
        ``3.7`` or ``true`` is not an integer, so a request can never
        turn into a different question (and store key) than it reads
        as.  ``null`` is accepted only where the field's default is
        ``None``.  Every rejection is a :class:`ServiceError`.
        """
        if not isinstance(payload, dict):
            raise ServiceError("job spec must be a JSON object")
        unknown = sorted(set(payload) - set(_WIRE_TYPES))
        if unknown:
            raise ServiceError(
                f"unknown job spec field(s): {', '.join(unknown)}"
            )
        fields: Dict[str, Any] = {}
        for name, value in payload.items():
            kind = _WIRE_TYPES[name]
            if value is None and cls.__dataclass_fields__[name].default is None:
                fields[name] = None
            elif _IS_JSON[kind](value):
                fields[name] = value
            else:
                raise ServiceError(
                    f"malformed job spec: {name} must be a JSON {kind}, "
                    f"got {json.dumps(value)[:40]}"
                )
        try:
            if fields.get("deadline_s") is not None:
                fields["deadline_s"] = float(fields["deadline_s"])
            return cls(**fields)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ServiceError(f"malformed job spec: {exc}") from exc


#: The JSON type of each :class:`JobSpec` field on the wire.
_WIRE_TYPES = {
    "benchmark": "string",
    "gates": "integer",
    "seed": "integer",
    "k": "integer",
    "mode": "string",
    "priority": "integer",
    "certify": "boolean",
    "deadline_s": "number",
    "max_candidates": "integer",
    "on_budget": "string",
    "grid_points": "integer",
    "max_sets_per_cardinality": "integer",
    "use_store": "boolean",
}

#: Membership tests of the JSON types (a JSON boolean is not a number).
_IS_JSON: Dict[str, Callable[[Any], bool]] = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


@dataclass
class JobView:
    """The observable state of one submitted job.

    ``store_hit`` / ``resumed`` / ``degraded`` are provenance, not
    apology: a store hit is bit-identical to a fresh solve by the
    store's construction, and a resumed job continues its shard
    checkpoint bit-exactly.
    """

    job_id: str
    state: str
    spec: JobSpec
    store_key: str = ""
    store_hit: bool = False
    resumed: bool = False
    degraded: bool = False
    incidents: int = 0
    error: Optional[str] = None
    queue_wait_s: float = 0.0
    run_s: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "spec": self.spec.to_json(),
            "store_key": self.store_key,
            "store_hit": self.store_hit,
            "resumed": self.resumed,
            "degraded": self.degraded,
            "incidents": self.incidents,
            "error": self.error,
            "queue_wait_s": round(self.queue_wait_s, 6),
            "run_s": round(self.run_s, 6),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "JobView":
        try:
            return cls(
                job_id=str(payload["job_id"]),
                state=str(payload["state"]),
                spec=JobSpec.from_json(payload["spec"]),
                store_key=str(payload.get("store_key", "")),
                store_hit=bool(payload.get("store_hit", False)),
                resumed=bool(payload.get("resumed", False)),
                degraded=bool(payload.get("degraded", False)),
                incidents=int(payload.get("incidents", 0)),
                error=payload.get("error"),
                queue_wait_s=float(payload.get("queue_wait_s", 0.0)),
                run_s=float(payload.get("run_s", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed job view: {exc}") from exc


@dataclass(frozen=True)
class StoreStats:
    """Hit/miss/put accounting of the persistent store."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate,
        }


def job_id_for(seq: int) -> str:
    """Sequential, sortable job id (``job-000001``)."""
    return f"job-{seq:06d}"
