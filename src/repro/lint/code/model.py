"""Data model of the RPR8xx code tier: modules, functions, effects.

The code tier analyzes *this project's own source* rather than a design:
:mod:`~repro.lint.code.scan` parses every module under a source root and
produces the records defined here; :mod:`~repro.lint.code.callgraph`
links them into a project call graph; :mod:`~repro.lint.code.facts`
bundles everything into a machine-readable :class:`CodeFacts`.

An *effect* is an observable impurity of a function body — something
that can make the solve pipeline stop being a deterministic pure
function of ``(design, config, seed)``.  The taxonomy (see
``docs/determinism.md``):

``reads-clock``
    Wall/monotonic clock reads (``time.time``, ``perf_counter``,
    ``datetime.now``, ...).
``reads-env``
    Process-environment reads (``os.environ``, ``os.getenv``).
``unseeded-random``
    Randomness not derived from an explicit seed: module-level
    ``random``/``numpy.random`` calls, ``Random()``/``default_rng()``
    without arguments, ``uuid.uuid4``, ``secrets``, ``os.urandom``.
``mutates-global``
    Mutation of module-level state (``global`` rebinding, in-place
    mutation of a module-level container, setting attributes on an
    imported module).
``order-iteration``
    Iteration over an unordered container (``set``/``frozenset``)
    feeding an order-sensitive accumulator (float ``+=``, ``append``,
    keyed stores, ``sum``).
``swallows-broad``
    A bare or overbroad ``except`` whose handler never re-raises — it
    swallows :class:`~repro.runtime.errors.ReproError` along with
    everything else.

The first four kinds are *propagated*: a caller of an impure function
is itself impure, so rules can fire on reachability (e.g. "reachable
from ``TopKEngine.solve``") instead of mere syntax.  The last two are
site-local.

Effects can be *sanctioned* in source with a pragma comment on the
offending line::

    t0 = time.perf_counter()  # lint: allow[RPR801] phase metrics only

Sanctioned sites stay in the exported facts (with their recorded
reason) but the corresponding rule does not fire on them.  For broad
excepts the pre-existing ``# noqa: BLE001`` idiom is honored as an
``allow[RPR805]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

#: Effect kinds (values used in the CodeFacts JSON — treat as stable).
READS_CLOCK = "reads-clock"
READS_ENV = "reads-env"
UNSEEDED_RANDOM = "unseeded-random"
MUTATES_GLOBAL = "mutates-global"
ORDER_ITERATION = "order-iteration"
SWALLOWS_BROAD = "swallows-broad"

#: Every effect kind, in catalog order.
EFFECT_KINDS: Tuple[str, ...] = (
    READS_CLOCK,
    READS_ENV,
    UNSEEDED_RANDOM,
    MUTATES_GLOBAL,
    ORDER_ITERATION,
    SWALLOWS_BROAD,
)

#: Kinds that flow from callee to caller (interprocedural closure).
PROPAGATED_KINDS: FrozenSet[str] = frozenset(
    {READS_CLOCK, READS_ENV, UNSEEDED_RANDOM, MUTATES_GLOBAL}
)


@dataclass(frozen=True)
class EffectSite:
    """One concrete occurrence of an effect in source.

    ``detail`` names what happened (``"time.perf_counter"``,
    ``"global _ENGINE"``, ...).  ``allowed`` carries the rule codes a
    pragma on the line sanctioned; ``reason`` the pragma's free text.
    """

    kind: str
    detail: str
    file: str
    line: int
    column: int = 0
    end_line: int = 0
    end_column: int = 0
    allowed: FrozenSet[str] = frozenset()
    reason: str = ""

    def sanctions(self, code: str) -> bool:
        """Whether a pragma on this line sanctions rule ``code``."""
        return code in self.allowed or "*" in self.allowed

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "detail": self.detail,
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "end_line": self.end_line,
            "end_column": self.end_column,
        }
        if self.allowed:
            out["allowed"] = sorted(self.allowed)
            out["reason"] = self.reason
        return out

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "EffectSite":
        return cls(
            kind=payload["kind"],
            detail=payload["detail"],
            file=payload["file"],
            line=int(payload["line"]),
            column=int(payload.get("column", 0)),
            end_line=int(payload.get("end_line", 0)),
            end_column=int(payload.get("end_column", 0)),
            allowed=frozenset(payload.get("allowed", ())),
            reason=payload.get("reason", ""),
        )


@dataclass(frozen=True)
class CallSite:
    """One call recorded in a function body.

    ``target`` is a canonical dotted name (``repro.perf.memo.global_cache``
    or ``time.perf_counter``); unresolved attribute calls are recorded by
    bare method name with the ``ATTR_PREFIX`` marker so the graph builder
    can apply its conservative name fallback.  ``via_reference`` marks a
    function *reference* passed as an argument (``pool.submit(run_chunk,
    ...)``) — still an edge, since the callee may invoke it.
    """

    target: str
    line: int
    via_reference: bool = False


#: Marker prefix for calls only known by attribute name (see CallSite).
ATTR_PREFIX = "~attr:"
#: Marker prefix for self-method calls: ``~self:<class qualname>:<attr>``.
SELF_PREFIX = "~self:"


@dataclass
class FunctionInfo:
    """One function or method discovered by the scanner."""

    qualname: str
    module: str
    file: str
    name: str
    line: int
    end_line: int
    column: int = 0
    end_column: int = 0
    is_method: bool = False
    direct_effects: List[EffectSite] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "module": self.module,
            "file": self.file,
            "name": self.name,
            "line": self.line,
            "end_line": self.end_line,
            "column": self.column,
            "end_column": self.end_column,
            "is_method": self.is_method,
            "direct_effects": [e.to_json() for e in self.direct_effects],
            "calls": [
                {
                    "target": c.target,
                    "line": c.line,
                    "via_reference": c.via_reference,
                }
                for c in self.calls
            ],
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "FunctionInfo":
        return cls(
            qualname=payload["qualname"],
            module=payload["module"],
            file=payload["file"],
            name=payload["name"],
            line=int(payload["line"]),
            end_line=int(payload["end_line"]),
            column=int(payload.get("column", 0)),
            end_column=int(payload.get("end_column", 0)),
            is_method=bool(payload.get("is_method", False)),
            direct_effects=[
                EffectSite.from_json(e) for e in payload.get("direct_effects", ())
            ],
            calls=[
                CallSite(
                    target=c["target"],
                    line=int(c["line"]),
                    via_reference=bool(c.get("via_reference", False)),
                )
                for c in payload.get("calls", ())
            ],
        )


@dataclass
class ModuleInfo:
    """One scanned source module."""

    name: str
    file: str
    functions: List[FunctionInfo] = field(default_factory=list)
    #: Class qualname -> list of base-class dotted names (best effort).
    class_bases: Dict[str, List[str]] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "file": self.file,
            "functions": [f.qualname for f in self.functions],
            "class_bases": dict(self.class_bases),
        }


class CodeScanError(ValueError):
    """Raised when a source tree cannot be scanned at all (missing root,
    no Python files).  Per-file syntax errors do *not* raise — they are
    reported as findings so one broken file cannot hide the rest."""


@dataclass(frozen=True)
class ParseFailure:
    """A module the scanner could not parse (surfaced as a finding)."""

    file: str
    line: int
    message: str

    def to_json(self) -> Dict[str, Any]:
        return {"file": self.file, "line": self.line, "message": self.message}


def effect_counts(functions: List[FunctionInfo]) -> Dict[str, int]:
    """Direct-effect site counts per kind (the facts summary)."""
    counts: Dict[str, int] = {k: 0 for k in EFFECT_KINDS}
    for fn in functions:
        for site in fn.direct_effects:
            counts[site.kind] = counts.get(site.kind, 0) + 1
    return counts


#: Optional fields normalized away when comparing two facts exports.
__all__ = [
    "ATTR_PREFIX",
    "SELF_PREFIX",
    "CallSite",
    "CodeScanError",
    "EFFECT_KINDS",
    "EffectSite",
    "FunctionInfo",
    "ModuleInfo",
    "MUTATES_GLOBAL",
    "ORDER_ITERATION",
    "PROPAGATED_KINDS",
    "ParseFailure",
    "READS_CLOCK",
    "READS_ENV",
    "SWALLOWS_BROAD",
    "UNSEEDED_RANDOM",
    "effect_counts",
]
