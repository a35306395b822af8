"""Project call graph: linking, effect propagation, reachability.

The scanner records call sites in canonical dotted form; this module
links them against the project's function index and computes

* the *transitive effect summary* of every function — a function that
  calls a clock reader is itself a clock reader (for the propagated
  kinds, see :data:`~repro.lint.code.model.PROPAGATED_KINDS`);
* *reachability with witnesses* — for every entrypoint role
  (``TopKEngine.solve``) the set of reachable functions,
  each with one concrete call chain the rules print so a finding is
  actionable without re-running the analysis.

Linking is conservative:

* exact dotted matches link directly (functions, methods, and classes —
  a class call links to its ``__init__`` when one exists);
* ``self.m(...)`` resolves on the method's own class, then project base
  classes (single inheritance chains);
* an unresolved attribute call ``<expr>.m(...)`` links to *every*
  project function named ``m``, provided the name is distinctive
  (defined at most :data:`FALLBACK_MAX_TARGETS` times and not in the
  :data:`~repro.lint.code.scan.COMMON_ATTRS` stoplist).  Missing a real
  edge would silently unsound the reachability rules; a few spurious
  edges merely widen the audit.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .model import (
    ATTR_PREFIX,
    SELF_PREFIX,
    FunctionInfo,
    ModuleInfo,
    PROPAGATED_KINDS,
)
from .scan import COMMON_ATTRS

#: An unresolved attribute call links by bare name only when the name is
#: defined at most this many times in the project.
FALLBACK_MAX_TARGETS = 4


class CallGraph:
    """Linked call graph over a scanned tree."""

    def __init__(
        self,
        functions: Mapping[str, FunctionInfo],
        modules: Sequence[ModuleInfo],
    ) -> None:
        self.functions: Dict[str, FunctionInfo] = dict(functions)
        self._class_bases: Dict[str, List[str]] = {}
        for module in modules:
            self._class_bases.update(module.class_bases)
        self._by_name: Dict[str, List[str]] = {}
        for qualname, fn in sorted(self.functions.items()):
            self._by_name.setdefault(fn.name, []).append(qualname)
        #: qualname -> sorted callee qualnames.
        self.edges: Dict[str, List[str]] = {}
        for qualname, fn in sorted(self.functions.items()):
            targets: Set[str] = set()
            for call in fn.calls:
                targets.update(self._link(call.target))
            targets.discard(qualname)
            self.edges[qualname] = sorted(targets)

    # -- linking ---------------------------------------------------------
    def _link(self, target: str) -> List[str]:
        if target.startswith(ATTR_PREFIX):
            return self._link_by_name(target[len(ATTR_PREFIX):])
        if target.startswith(SELF_PREFIX):
            class_qual, _, attr = target[len(SELF_PREFIX):].partition(":")
            resolved = self._resolve_method(class_qual, attr, set())
            if resolved is not None:
                return [resolved]
            return self._link_by_name(attr)
        exact = self.functions.get(target)
        if exact is not None:
            return [target]
        # A class call is its constructor.
        init = self.functions.get(f"{target}.__init__")
        if init is not None and target in self._class_bases:
            return [f"{target}.__init__"]
        # ``module.func`` spelled through a class alias or re-export may
        # miss; try a method suffix match only through the class table.
        return []

    def _link_by_name(self, name: str) -> List[str]:
        if name in COMMON_ATTRS or name.startswith("__"):
            return []
        candidates = self._by_name.get(name, [])
        if 0 < len(candidates) <= FALLBACK_MAX_TARGETS:
            return list(candidates)
        return []

    def _resolve_method(
        self, class_qual: str, attr: str, seen: Set[str]
    ) -> Optional[str]:
        if class_qual in seen:
            return None
        seen.add(class_qual)
        candidate = f"{class_qual}.{attr}"
        if candidate in self.functions:
            return candidate
        for base in self._class_bases.get(class_qual, []):
            if base in self._class_bases:
                resolved = self._resolve_method(base, attr, seen)
                if resolved is not None:
                    return resolved
        return None

    # -- effect propagation ----------------------------------------------
    def propagate_effects(self) -> Dict[str, Set[str]]:
        """Transitive effect kinds per function (propagated kinds only,
        plus each function's own site-local kinds)."""
        effects: Dict[str, Set[str]] = {}
        for qualname, fn in self.functions.items():
            effects[qualname] = {site.kind for site in fn.direct_effects}
        # Reverse edges for the worklist.
        callers: Dict[str, List[str]] = {q: [] for q in self.functions}
        for caller, callees in self.edges.items():
            for callee in callees:
                callers[callee].append(caller)
        pending: "deque[str]" = deque(sorted(self.functions))
        queued = set(pending)
        while pending:
            qualname = pending.popleft()
            queued.discard(qualname)
            outgoing = effects[qualname] & PROPAGATED_KINDS
            for caller in callers[qualname]:
                missing = outgoing - effects[caller]
                if missing:
                    effects[caller] |= missing
                    if caller not in queued:
                        pending.append(caller)
                        queued.add(caller)
        return effects

    # -- reachability ------------------------------------------------------
    def reachable_from(
        self, entrypoints: Sequence[str]
    ) -> Dict[str, List[str]]:
        """BFS closure with one witness chain per reached function.

        Returns ``{qualname: [entrypoint, ..., qualname]}`` — the chain
        rules print so findings are actionable.  Deterministic: BFS in
        sorted order, so the recorded witness is stable run to run.
        """
        chains: Dict[str, List[str]] = {}
        queue: "deque[str]" = deque()
        for entry in sorted(entrypoints):
            if entry in self.functions and entry not in chains:
                chains[entry] = [entry]
                queue.append(entry)
        while queue:
            current = queue.popleft()
            for callee in self.edges.get(current, []):
                if callee not in chains:
                    chains[callee] = chains[current] + [callee]
                    queue.append(callee)
        return chains


def build_graph(
    functions: Mapping[str, FunctionInfo], modules: Sequence[ModuleInfo]
) -> Tuple[CallGraph, Dict[str, Set[str]]]:
    """Convenience: link the graph and propagate effects in one call."""
    graph = CallGraph(functions, modules)
    return graph, graph.propagate_effects()
