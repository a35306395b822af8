"""`CodeFacts`: the machine-readable product of the code tier.

One :func:`build_code_facts` call scans a source tree, links the call
graph, propagates effects, and resolves the entrypoint roles the RPR8xx
rules reason about:

``solve``
    The public solve pipeline — anything reachable from here must be a
    deterministic function of ``(design, config, seed)``.

Entrypoints are *package-relative* (``core.engine.TopKEngine.solve``) so
the same defaults work on the installed tree and on test fixtures; a
role whose entrypoints do not exist in the scanned tree simply resolves
empty (recorded in the export, so CI can notice a renamed entrypoint).

``CodeFacts.to_json`` round-trips everything the rules consume, so a CI
job can archive the facts of one revision and diff "no new determinism
hazards" against the next without re-scanning.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .callgraph import CallGraph
from .model import (
    CodeScanError,
    FunctionInfo,
    ModuleInfo,
    ParseFailure,
    effect_counts,
)
from .scan import scan_tree

#: Facts export format (bump on incompatible change).
CODE_FACTS_FORMAT = 1

#: Package-relative entrypoints per role (see module docstring).
DEFAULT_ENTRYPOINTS: Dict[str, Tuple[str, ...]] = {
    "solve": ("core.engine.TopKEngine.solve",),
}

#: Modules (package-relative) whose clock reads are sanctioned
#: observability/bookkeeping infrastructure — they time spans, budgets,
#: and service jobs but never steer the numeric result.  Each entry
#: records why, and the reasons are exported with the facts.
CLOCK_ALLOWED_MODULES: Dict[str, str] = {
    "runtime.health": "monotonic_s is the service's sanctioned clock",
    "runtime.budget": (
        "deadline enforcement is parent-side by design; recovered runs "
        "record provenance instead of changing results"
    ),
    "obs.tracer": "span timestamps are observability-only",
    "obs.metrics": "phase timings are observability-only",
    "obs.profile": "the sampling profiler is observability-only",
}


class CodeFactsError(ValueError):
    """Raised for unreadable or incompatible facts exports."""


@dataclass
class CodeFacts:
    """Everything the RPR8xx rules (and CI gating) consume."""

    root: str
    package: str
    modules: List[ModuleInfo] = field(default_factory=list)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    parse_failures: List[ParseFailure] = field(default_factory=list)
    #: role -> package-relative entrypoints as requested.
    entrypoints: Dict[str, List[str]] = field(default_factory=dict)
    #: role -> fully qualified entrypoints that resolved in the tree.
    resolved_entrypoints: Dict[str, List[str]] = field(default_factory=dict)
    #: role -> reachable qualname -> witness call chain.
    reachable: Dict[str, Dict[str, List[str]]] = field(default_factory=dict)
    #: qualname -> transitive effect kinds (sorted).
    effects: Dict[str, List[str]] = field(default_factory=dict)

    # -- queries the rules use -------------------------------------------
    @property
    def label(self) -> str:
        """Stable display/fingerprint name of the scanned tree."""
        return self.package

    def functions_on_path(self, role: str) -> List[FunctionInfo]:
        """Functions reachable from ``role``'s entrypoints, sorted."""
        chains = self.reachable.get(role, {})
        return [
            self.functions[q] for q in sorted(chains) if q in self.functions
        ]

    def witness(self, role: str, qualname: str) -> List[str]:
        return list(self.reachable.get(role, {}).get(qualname, ()))

    def relative_module(self, fn: FunctionInfo) -> str:
        """``repro.core.engine`` -> ``core.engine`` (package-relative)."""
        prefix = f"{self.package}."
        if fn.module.startswith(prefix):
            return fn.module[len(prefix):]
        return fn.module

    def relative_name(self, qualname: str) -> str:
        """A qualname without the package prefix (for witness chains)."""
        prefix = f"{self.package}."
        if qualname.startswith(prefix):
            return qualname[len(prefix):]
        return qualname

    def display_path(self, rel_file: str) -> str:
        """A scan-root-relative file joined to the root as it was given,
        so findings point at paths valid from where the tool ran
        (``src/repro`` + ``core/engine.py`` -> ``src/repro/core/engine.py``)."""
        root = self.root.replace(os.sep, "/").rstrip("/")
        return f"{root}/{rel_file}" if root else rel_file

    def summary(self) -> Dict[str, Any]:
        all_functions = list(self.functions.values())
        return {
            "modules": len(self.modules),
            "functions": len(all_functions),
            "parse_failures": len(self.parse_failures),
            "direct_effect_sites": effect_counts(all_functions),
            "reachable": {
                role: len(chains) for role, chains in sorted(self.reachable.items())
            },
        }

    # -- (de)serialization ------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "format": CODE_FACTS_FORMAT,
            "tool": "repro-lint/code",
            "root": self.root,
            "package": self.package,
            "summary": self.summary(),
            "clock_allowed_modules": dict(CLOCK_ALLOWED_MODULES),
            "entrypoints": {
                role: list(names) for role, names in sorted(self.entrypoints.items())
            },
            "resolved_entrypoints": {
                role: list(names)
                for role, names in sorted(self.resolved_entrypoints.items())
            },
            "modules": [m.to_json() for m in self.modules],
            "functions": {
                q: fn.to_json() for q, fn in sorted(self.functions.items())
            },
            "effects": {q: list(v) for q, v in sorted(self.effects.items())},
            "reachable": {
                role: {q: list(chain) for q, chain in sorted(chains.items())}
                for role, chains in sorted(self.reachable.items())
            },
            "parse_failures": [p.to_json() for p in self.parse_failures],
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "CodeFacts":
        if not isinstance(payload, Mapping) or "functions" not in payload:
            raise CodeFactsError("facts payload has no 'functions' map")
        version = payload.get("format")
        if version != CODE_FACTS_FORMAT:
            raise CodeFactsError(
                f"facts format {version!r} unsupported; this tool reads "
                f"format {CODE_FACTS_FORMAT}"
            )
        functions = {
            q: FunctionInfo.from_json(f)
            for q, f in payload["functions"].items()
        }
        modules: List[ModuleInfo] = []
        for entry in payload.get("modules", ()):
            module = ModuleInfo(name=entry["name"], file=entry["file"])
            module.class_bases = {
                k: list(v) for k, v in entry.get("class_bases", {}).items()
            }
            module.functions = [
                functions[q] for q in entry.get("functions", ()) if q in functions
            ]
            modules.append(module)
        return cls(
            root=payload.get("root", ""),
            package=payload.get("package", ""),
            modules=modules,
            functions=functions,
            parse_failures=[
                ParseFailure(
                    file=p["file"],
                    line=int(p.get("line", 0)),
                    message=p.get("message", ""),
                )
                for p in payload.get("parse_failures", ())
            ],
            entrypoints={
                role: list(names)
                for role, names in payload.get("entrypoints", {}).items()
            },
            resolved_entrypoints={
                role: list(names)
                for role, names in payload.get(
                    "resolved_entrypoints", {}
                ).items()
            },
            reachable={
                role: {q: list(chain) for q, chain in chains.items()}
                for role, chains in payload.get("reachable", {}).items()
            },
            effects={
                q: list(v) for q, v in payload.get("effects", {}).items()
            },
        )

    @classmethod
    def load(cls, path: str) -> "CodeFacts":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CodeFactsError(
                f"cannot read facts file {path!r}: {exc}"
            ) from exc
        return cls.from_json(payload)


def build_code_facts(
    root: str,
    *,
    entrypoints: Optional[Mapping[str, Sequence[str]]] = None,
) -> CodeFacts:
    """Scan ``root`` and produce the full :class:`CodeFacts` bundle.

    Raises :class:`~repro.lint.code.model.CodeScanError` when the root
    is missing or holds no Python source (the CLI's exit-3 contract).
    """
    package, modules, failures = scan_tree(root)
    functions: Dict[str, FunctionInfo] = {}
    for module in modules:
        for fn in module.functions:
            functions[fn.qualname] = fn
    graph = CallGraph(functions, modules)
    effect_sets = graph.propagate_effects()

    wanted: Mapping[str, Sequence[str]] = (
        entrypoints if entrypoints is not None else DEFAULT_ENTRYPOINTS
    )
    resolved: Dict[str, List[str]] = {}
    reachable: Dict[str, Dict[str, List[str]]] = {}
    for role, names in wanted.items():
        qualified = [f"{package}.{name}" for name in names]
        present = [q for q in qualified if q in functions]
        resolved[role] = present
        reachable[role] = graph.reachable_from(present)

    return CodeFacts(
        root=root,
        package=package,
        modules=modules,
        functions=functions,
        parse_failures=failures,
        entrypoints={role: list(names) for role, names in wanted.items()},
        resolved_entrypoints=resolved,
        reachable=reachable,
        effects={q: sorted(kinds) for q, kinds in effect_sets.items()},
    )


__all__ = [
    "CLOCK_ALLOWED_MODULES",
    "CODE_FACTS_FORMAT",
    "CodeFacts",
    "CodeFactsError",
    "CodeScanError",
    "DEFAULT_ENTRYPOINTS",
    "build_code_facts",
]
