"""repro.lint.code — the RPR8xx self-hosted determinism analyzer.

Unlike the other tiers, which lint *designs*, this tier lints the
project's own Python source: it parses every module under a source root
with :mod:`ast`, links a project call graph, summarizes each function's
effects (clock reads, environment reads, unseeded randomness, global
mutation, unordered iteration, swallowed exceptions), and propagates
the propagatable kinds interprocedurally so rules fire on
*reachability* from the entrypoint that carries the bit-exactness
contract, ``TopKEngine.solve``.

* :mod:`~repro.lint.code.model` — effect taxonomy and record types.
* :mod:`~repro.lint.code.scan` — the AST scanner (one module at a time).
* :mod:`~repro.lint.code.callgraph` — linking, effect propagation,
  reachability with witness chains.
* :mod:`~repro.lint.code.facts` — the :class:`CodeFacts` bundle and its
  machine-readable JSON export.
* :mod:`~repro.lint.code.rules` — the RPR80x rule catalog.

Quickstart::

    from repro.lint.code import build_code_facts
    from repro.lint.framework import run_code_lint

    facts = build_code_facts("src/repro")
    report = run_code_lint("src/repro", facts=facts)
    print(report.summary())

or, from a checkout::

    repro-lint --tier code src/repro --format sarif --output code.sarif

See ``docs/determinism.md`` for the contract this tier guards and
``docs/lint.md`` for the RPR8xx catalog.
"""

from __future__ import annotations

from .callgraph import CallGraph, build_graph
from .facts import (
    CLOCK_ALLOWED_MODULES,
    CODE_FACTS_FORMAT,
    CodeFacts,
    CodeFactsError,
    DEFAULT_ENTRYPOINTS,
    build_code_facts,
)
from .model import (
    EFFECT_KINDS,
    PROPAGATED_KINDS,
    CallSite,
    CodeScanError,
    EffectSite,
    FunctionInfo,
    ModuleInfo,
    ParseFailure,
)
from .scan import scan_module, scan_tree

# Import for side effects: register the RPR8xx rule catalog.
from . import rules  # noqa: F401,E402

__all__ = [
    "CLOCK_ALLOWED_MODULES",
    "CODE_FACTS_FORMAT",
    "CallGraph",
    "CallSite",
    "CodeFacts",
    "CodeFactsError",
    "CodeScanError",
    "DEFAULT_ENTRYPOINTS",
    "EFFECT_KINDS",
    "EffectSite",
    "FunctionInfo",
    "ModuleInfo",
    "PROPAGATED_KINDS",
    "ParseFailure",
    "build_code_facts",
    "build_graph",
    "scan_module",
    "scan_tree",
]
