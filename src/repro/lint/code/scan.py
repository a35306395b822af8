"""AST scanner: source tree -> modules, functions, direct effects, calls.

One :func:`scan_tree` call parses every ``*.py`` file under a source
root, resolves each module's imports (absolute, aliased, and relative),
and walks every function body recording

* *direct effect sites* (the taxonomy in :mod:`~repro.lint.code.model`),
* *call sites* in canonical dotted form, so the graph builder can link
  them interprocedurally without re-reading any source.

Resolution is deliberately best-effort and *over-approximate* in the
direction safety needs: an attribute call that cannot be resolved
precisely (``engine._generate(...)``) is recorded by bare method name
and later linked to every project function of that name (bounded, see
:mod:`~repro.lint.code.callgraph`); a function *reference* passed as an
argument (``executor.submit(run_job, spec)``) becomes an edge too,
because the callee may invoke it.

Per-file syntax errors never abort the scan — they come back as
:class:`~repro.lint.code.model.ParseFailure` records that the RPR8xx
rules surface as findings.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .model import (
    ATTR_PREFIX,
    SELF_PREFIX,
    CallSite,
    CodeScanError,
    EffectSite,
    FunctionInfo,
    ModuleInfo,
    MUTATES_GLOBAL,
    ORDER_ITERATION,
    ParseFailure,
    READS_CLOCK,
    READS_ENV,
    SWALLOWS_BROAD,
    UNSEEDED_RANDOM,
)

#: Suppression pragma: ``# lint: allow[RPR801] reason`` (codes may be a
#: comma list; ``*`` sanctions every code-tier rule on the line).
_PRAGMA_RE = re.compile(
    r"#\s*(?:repro-)?lint:\s*allow\[([A-Za-z0-9*,\s]+)\]\s*-*\s*(.*?)\s*$"
)
#: The pre-existing ruff idiom for intentional broad excepts.
_NOQA_BLE_RE = re.compile(r"#\s*noqa:[^#]*\bBLE001\b\s*-*\s*(.*?)\s*$")

# ---------------------------------------------------------------------------
# effect tables (canonical dotted names)
# ---------------------------------------------------------------------------

CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

ENV_CALLS: FrozenSet[str] = frozenset({"os.getenv"})
ENV_ATTRS: FrozenSet[str] = frozenset({"os.environ", "os.environb"})

#: ``random.<fn>`` calls that use the module-level (shared, reseedable
#: from anywhere) generator.
RANDOM_MODULE_FUNCS: FrozenSet[str] = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "triangular",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "getrandbits",
        "randbytes",
        "seed",
    }
)

#: Legacy ``numpy.random.<fn>`` calls on the global RandomState.
NUMPY_RANDOM_FUNCS: FrozenSet[str] = frozenset(
    {
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "random_integers",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "exponential",
        "poisson",
        "beta",
        "gamma",
        "binomial",
        "bytes",
        "seed",
    }
)

#: Unconditionally unseeded randomness sources.
ALWAYS_UNSEEDED: FrozenSet[str] = frozenset(
    {"os.urandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom"}
)

#: Container methods that mutate their receiver in place.
MUTATOR_METHODS: FrozenSet[str] = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "appendleft",
        "extendleft",
    }
)

#: Callables whose result does not depend on argument order — a
#: comprehension or generator over a set feeding one of these is fine.
ORDER_INSENSITIVE_CONSUMERS: FrozenSet[str] = frozenset(
    {"sorted", "set", "frozenset", "max", "min", "any", "all", "len", "dict"}
)

#: Attribute names too common for the unresolved-call name fallback.
COMMON_ATTRS: FrozenSet[str] = frozenset(
    {
        "get",
        "put",
        "set",
        "add",
        "items",
        "keys",
        "values",
        "append",
        "extend",
        "update",
        "pop",
        "clear",
        "copy",
        "join",
        "split",
        "strip",
        "rstrip",
        "lstrip",
        "format",
        "read",
        "write",
        "close",
        "open",
        "sort",
        "index",
        "count",
        "remove",
        "insert",
        "encode",
        "decode",
        "lower",
        "upper",
        "startswith",
        "endswith",
        "setdefault",
        "popitem",
        "discard",
        "group",
        "match",
        "search",
        "sub",
        "findall",
        "exists",
        "mkdir",
        "replace",
        "to_json",
        "from_json",
    }
)

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Flatten ``a.b.c`` into ``("a", "b", "c")``; None when the chain
    contains anything but names and attributes."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        parts.reverse()
        return tuple(parts)
    return None


class _ModuleSymbols:
    """One module's name environment: imports, defs, module globals."""

    def __init__(self, module: str, is_package: bool, package: str) -> None:
        self.module = module
        self.is_package = is_package
        self.package = package
        #: local alias -> canonical dotted target ("np" -> "numpy",
        #: "MetricsRegistry" -> "repro.obs.metrics.MetricsRegistry").
        self.aliases: Dict[str, str] = {}
        #: aliases known to name a *module* object.
        self.module_aliases: Set[str] = set()
        #: module-level function/class names defined here.
        self.defs: Set[str] = set()
        self.classes: Set[str] = set()
        #: module-level assigned (mutable-state candidate) names.
        self.globals: Set[str] = set()

    def _resolve_relative(self, level: int, target: Optional[str]) -> str:
        parts = self.module.split(".")
        effective = parts if self.is_package else parts[:-1]
        base = effective[: max(0, len(effective) - (level - 1))]
        if target:
            return ".".join(base + target.split("."))
        return ".".join(base)

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[name] = target
            self.module_aliases.add(name)

    def add_import_from(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self._resolve_relative(node.level, node.module)
        else:
            base = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name
            self.aliases[name] = f"{base}.{alias.name}" if base else alias.name

    def resolve(
        self, parts: Sequence[str], shadowed: Set[str]
    ) -> Optional[str]:
        """Canonical dotted name of ``parts``, or None if unknown/local."""
        head = parts[0]
        if head in shadowed:
            return None
        if head in self.aliases:
            return ".".join([self.aliases[head], *parts[1:]])
        if head in self.defs or head in self.classes or head in self.globals:
            return ".".join([self.module, *parts])
        return None


class _Pragmas:
    """Per-line sanction pragmas of one source file."""

    def __init__(self, source: str) -> None:
        self.by_line: Dict[int, Tuple[FrozenSet[str], str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "#" not in line:
                continue
            match = _PRAGMA_RE.search(line)
            if match:
                codes = frozenset(
                    token.strip().upper()
                    for token in match.group(1).split(",")
                    if token.strip()
                )
                self.by_line[lineno] = (codes, match.group(2))
                continue
            noqa = _NOQA_BLE_RE.search(line)
            if noqa:
                self.by_line[lineno] = (frozenset({"RPR805"}), noqa.group(1))

    def lookup(self, *linenos: int) -> Tuple[FrozenSet[str], str]:
        for lineno in linenos:
            entry = self.by_line.get(lineno)
            if entry is not None:
                return entry
        return frozenset(), ""


class _FunctionScanner:
    """Walks one function body collecting effects and calls."""

    def __init__(
        self,
        info: FunctionInfo,
        symbols: _ModuleSymbols,
        pragmas: _Pragmas,
        class_name: Optional[str],
        args: ast.arguments,
    ) -> None:
        self.info = info
        self.symbols = symbols
        self.pragmas = pragmas
        self.class_name = class_name
        self.locals: Set[str] = set()
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]:
            self.locals.add(arg.arg)
        self.global_decls: Set[str] = set()
        self.nested_defs: Set[str] = set()
        self.set_vars: Set[str] = set()
        #: comprehension/generator nodes consumed order-insensitively.
        self._insensitive: Set[int] = set()

    # -- bookkeeping ----------------------------------------------------
    def _site(self, kind: str, detail: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", self.info.line)
        end_line = getattr(node, "end_lineno", None) or line
        # A pragma sanctions its own line, the statement's last line, or —
        # for lines too long to annotate inline — the line directly above.
        allowed, reason = self.pragmas.lookup(line, end_line, line - 1)
        self.info.direct_effects.append(
            EffectSite(
                kind=kind,
                detail=detail,
                file=self.info.file,
                line=line,
                column=getattr(node, "col_offset", 0),
                end_line=end_line,
                end_column=getattr(node, "end_col_offset", None) or 0,
                allowed=allowed,
                reason=reason,
            )
        )

    def _call(self, target: str, node: ast.AST, via_reference: bool = False) -> None:
        self.info.calls.append(
            CallSite(
                target=target,
                line=getattr(node, "lineno", self.info.line),
                via_reference=via_reference,
            )
        )

    def _resolve(self, node: ast.AST) -> Optional[str]:
        parts = _dotted(node)
        if parts is None:
            return None
        if parts[0] == "self" and self.class_name is not None and len(parts) > 1:
            return None  # handled separately by the caller
        return self.symbols.resolve(parts, self.locals)

    # -- pre-passes -----------------------------------------------------
    def _collect_locals(self, body: Sequence[ast.stmt]) -> None:
        for node in self._walk(body):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                self.locals.add(node.id)
            elif isinstance(node, ast.Global):
                self.global_decls.update(node.names)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    self.locals.add(
                        alias.asname or alias.name.split(".")[0]
                    )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self.nested_defs.add(node.name)
                self.locals.add(node.name)
        # ``global X`` re-exposes the module binding inside the function.
        self.locals -= self.global_decls

    def _collect_set_vars(self, body: Sequence[ast.stmt]) -> None:
        # Flow-insensitive over-approximation: a name ever assigned a
        # set-typed expression counts as set-typed.
        changed = True
        while changed:
            changed = False
            for node in self._walk(body):
                if isinstance(node, ast.Assign) and self._is_set_typed(node.value):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id not in self.set_vars
                        ):
                            self.set_vars.add(target.id)
                            changed = True

    def _collect_insensitive_consumers(self, body: Sequence[ast.stmt]) -> None:
        for node in self._walk(body):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ORDER_INSENSITIVE_CONSUMERS
            ):
                for arg in node.args:
                    if isinstance(
                        arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
                    ):
                        self._insensitive.add(id(arg))

    # -- helpers --------------------------------------------------------
    def _walk(self, body: Sequence[ast.stmt]) -> Iterable[ast.AST]:
        """Walk statements without descending into nested def bodies."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                stack.append(child)

    def _is_set_typed(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return "set" not in self.locals
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and self._is_set_typed(node.func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self._is_set_typed(node.left) or self._is_set_typed(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        return False

    def _order_sink(self, body: Sequence[ast.stmt]) -> Optional[str]:
        """The first order-sensitive accumulation in a loop body."""
        for node in self._walk(body):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                return "accumulator"
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        return "keyed-store"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend")
            ):
                return node.func.attr
        return None

    # -- the main walk --------------------------------------------------
    def scan(self, body: Sequence[ast.stmt]) -> None:
        self._collect_locals(body)
        self._collect_set_vars(body)
        self._collect_insensitive_consumers(body)
        for node in self._walk(body):
            if isinstance(node, ast.Call):
                self._scan_call(node)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                self._scan_attribute(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                self._scan_store(node)
            elif isinstance(node, ast.For):
                self._scan_for(node)
            elif isinstance(node, (ast.ListComp, ast.DictComp)):
                self._scan_comprehension(node)
            elif isinstance(node, ast.ExceptHandler):
                self._scan_handler(node)

    # -- call / attribute effects ---------------------------------------
    def _scan_call(self, node: ast.Call) -> None:
        dotted = self._describe_callee(node)
        if dotted is not None:
            self._match_call_effects(dotted, node)
            self._call(dotted, node)
        # In-place mutation of a module-level container: ``X.append(v)``
        # where ``X`` is bound at module scope.
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id not in self.locals
            and (
                func.value.id in self.symbols.globals
                or func.value.id in self.global_decls
            )
        ):
            self._site(
                MUTATES_GLOBAL, f"{func.value.id}.{func.attr}(...)", node
            )
        # ``sum(<gen over set>)`` is an order-sensitive float reduction.
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            for arg in node.args:
                if isinstance(arg, ast.GeneratorExp) and self._is_set_typed(
                    arg.generators[0].iter
                ):
                    self._site(
                        ORDER_ITERATION, "sum-over-set-iteration", node
                    )
        # Function references passed as arguments: conservative edges.
        for arg in [*node.args, *[kw.value for kw in node.keywords]]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                ref = self._resolve(arg)
                if ref is not None and ref.split(".")[0] == (
                    self.symbols.package
                ):
                    self._call(ref, arg, via_reference=True)

    def _describe_callee(self, node: ast.Call) -> Optional[str]:
        func = node.func
        parts = _dotted(func)
        if parts is None:
            return None
        if (
            parts[0] == "self"
            and self.class_name is not None
            and len(parts) == 2
        ):
            return (
                f"{SELF_PREFIX}{self.symbols.module}.{self.class_name}:"
                f"{parts[1]}"
            )
        resolved = self.symbols.resolve(parts, self.locals)
        if resolved is not None:
            return resolved
        if len(parts) > 1:
            # Unresolved attribute call: record by method name for the
            # graph builder's bounded fallback.
            return f"{ATTR_PREFIX}{parts[-1]}"
        if parts[0] in self.nested_defs:
            return f"{self.info.qualname}.{parts[0]}"
        if parts[0] == "open" and "open" not in self.locals:
            return "open"
        return None

    def _match_call_effects(self, dotted: str, node: ast.Call) -> None:
        if dotted in CLOCK_CALLS:
            self._site(READS_CLOCK, dotted, node)
            return
        if dotted in ENV_CALLS:
            self._site(READS_ENV, dotted, node)
            return
        no_args = not node.args and not node.keywords
        if dotted in ALWAYS_UNSEEDED or dotted.startswith("secrets."):
            self._site(UNSEEDED_RANDOM, dotted, node)
            return
        if dotted == "random.Random":
            if no_args:
                self._site(UNSEEDED_RANDOM, "random.Random() without seed", node)
            return
        if dotted.startswith("random."):
            suffix = dotted.split(".", 1)[1]
            if suffix in RANDOM_MODULE_FUNCS:
                self._site(
                    UNSEEDED_RANDOM,
                    f"{dotted} uses the shared module-level generator",
                    node,
                )
            return
        if dotted in ("numpy.random.default_rng", "numpy.random.RandomState"):
            if no_args:
                self._site(UNSEEDED_RANDOM, f"{dotted}() without seed", node)
            return
        if dotted.startswith("numpy.random."):
            suffix = dotted.rsplit(".", 1)[1]
            if suffix in NUMPY_RANDOM_FUNCS:
                self._site(
                    UNSEEDED_RANDOM,
                    f"{dotted} uses the global numpy RandomState",
                    node,
                )

    def _scan_attribute(self, node: ast.Attribute) -> None:
        parts = _dotted(node)
        if parts is None:
            return
        resolved = self.symbols.resolve(parts, self.locals)
        if resolved in ENV_ATTRS:
            self._site(READS_ENV, resolved, node)

    # -- stores / mutation ----------------------------------------------
    def _scan_store(self, node: ast.stmt) -> None:
        targets: List[ast.expr]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        else:  # pragma: no cover - guarded by the caller
            return
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in self.global_decls:
                    self._site(
                        MUTATES_GLOBAL, f"global {target.id}", node
                    )
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                base = target.value
                if not isinstance(base, ast.Name):
                    continue
                name = base.id
                if name in self.locals:
                    continue
                if name in self.global_decls or name in self.symbols.globals:
                    what = (
                        f"{name}[...]"
                        if isinstance(target, ast.Subscript)
                        else f"{name}.{target.attr}"
                    )
                    self._site(MUTATES_GLOBAL, f"{what} =", node)
                elif (
                    isinstance(target, ast.Attribute)
                    and name in self.symbols.module_aliases
                ):
                    dotted = self.symbols.aliases.get(name, name)
                    self._site(
                        MUTATES_GLOBAL,
                        f"{dotted}.{target.attr} = (imported module "
                        "attribute)",
                        node,
                    )

    # -- loops / comprehensions -----------------------------------------
    def _scan_for(self, node: ast.For) -> None:
        if not self._is_set_typed(node.iter):
            return
        sink = self._order_sink(node.body)
        if sink is not None:
            self._site(
                ORDER_ITERATION, f"set-loop-feeds-{sink}", node
            )

    def _scan_comprehension(self, node: ast.AST) -> None:
        if id(node) in self._insensitive:
            return
        assert isinstance(node, (ast.ListComp, ast.DictComp))
        first = node.generators[0].iter
        if self._is_set_typed(first):
            kind = "list" if isinstance(node, ast.ListComp) else "dict"
            self._site(
                ORDER_ITERATION, f"{kind}-from-set-iteration", node
            )

    # -- except handlers -------------------------------------------------
    def _scan_handler(self, node: ast.ExceptHandler) -> None:
        broad = self._broad_exception_name(node.type)
        if broad is None:
            return
        for inner in self._walk(node.body):
            if isinstance(inner, ast.Raise):
                return
        self._site(
            SWALLOWS_BROAD,
            f"except {broad} swallows every error (including ReproError) "
            "without re-raising",
            node,
        )

    @staticmethod
    def _broad_exception_name(node: Optional[ast.expr]) -> Optional[str]:
        if node is None:
            return "<bare>"
        if isinstance(node, ast.Name) and node.id in (
            "Exception",
            "BaseException",
        ):
            return node.id
        if isinstance(node, ast.Tuple):
            for element in node.elts:
                if isinstance(element, ast.Name) and element.id in (
                    "Exception",
                    "BaseException",
                ):
                    return element.id
        return None


# ---------------------------------------------------------------------------
# module / tree scanning
# ---------------------------------------------------------------------------


def _iter_defs(
    body: Sequence[ast.stmt],
) -> Iterable[ast.stmt]:
    """Module-level statements, descending into ``if``/``try`` blocks
    (for ``TYPE_CHECKING`` imports and guarded definitions)."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _iter_defs(node.body)
            yield from _iter_defs(node.orelse)
        elif isinstance(node, ast.Try):
            yield from _iter_defs(node.body)
            for handler in node.handlers:
                yield from _iter_defs(handler.body)
            yield from _iter_defs(node.orelse)
            yield from _iter_defs(node.finalbody)


def scan_module(
    source: str,
    *,
    module: str,
    file: str,
    package: str,
    is_package: bool = False,
) -> ModuleInfo:
    """Scan one module's source into a :class:`ModuleInfo`.

    Raises :class:`SyntaxError` on unparsable source — :func:`scan_tree`
    catches it and records a :class:`ParseFailure` instead.
    """
    tree = ast.parse(source, filename=file)
    symbols = _ModuleSymbols(module, is_package, package)
    pragmas = _Pragmas(source)
    info = ModuleInfo(name=module, file=file)

    # Pass 1: the module's name environment.
    for node in _iter_defs(tree.body):
        if isinstance(node, ast.Import):
            symbols.add_import(node)
        elif isinstance(node, ast.ImportFrom):
            symbols.add_import_from(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.defs.add(node.name)
        elif isinstance(node, ast.ClassDef):
            symbols.classes.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    symbols.globals.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                symbols.globals.add(node.target.id)

    # Pass 2: functions (module level and methods; nested defs recurse).
    def scan_function(
        node: ast.stmt,
        qualname: str,
        class_name: Optional[str],
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        fn = FunctionInfo(
            qualname=qualname,
            module=module,
            file=file,
            name=node.name,
            line=node.lineno,
            end_line=node.end_lineno or node.lineno,
            column=node.col_offset,
            end_column=node.end_col_offset or 0,
            is_method=class_name is not None,
        )
        scanner = _FunctionScanner(fn, symbols, pragmas, class_name, node.args)
        scanner.scan(node.body)
        info.functions.append(fn)
        # Nested defs become their own functions plus a conservative
        # parent -> child edge (the parent defines, and usually runs or
        # registers, the child).
        for child in node.body:
            _descend(child, qualname, class_name, parent=fn)

    def _descend(
        node: ast.stmt,
        parent_qual: str,
        class_name: Optional[str],
        parent: Optional[FunctionInfo],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child_qual = f"{parent_qual}.{node.name}"
            if parent is not None:
                parent.calls.append(
                    CallSite(target=child_qual, line=node.lineno)
                )
            scan_function(node, child_qual, class_name)
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    _descend(child, parent_qual, class_name, parent)

    for node in _iter_defs(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan_function(node, f"{module}.{node.name}", None)
        elif isinstance(node, ast.ClassDef):
            bases: List[str] = []
            for base in node.bases:
                parts = _dotted(base)
                if parts is not None:
                    resolved = symbols.resolve(parts, set())
                    bases.append(resolved if resolved else ".".join(parts))
            info.class_bases[f"{module}.{node.name}"] = bases
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan_function(
                        item, f"{module}.{node.name}.{item.name}", node.name
                    )
    return info


def scan_tree(
    root: str,
) -> Tuple[str, List[ModuleInfo], List[ParseFailure]]:
    """Scan every ``*.py`` under ``root``.

    Returns ``(package, modules, parse_failures)`` where ``package`` is
    the dotted package name the tree roots (the directory's basename).

    Raises :class:`~repro.lint.code.model.CodeScanError` when ``root``
    is not a directory or holds no Python source at all — the CLI turns
    that into the exit-3 missing-input contract.
    """
    root = os.path.abspath(root)
    if not os.path.isdir(root):
        raise CodeScanError(f"source root {root!r} is not a directory")
    package = os.path.basename(root.rstrip(os.sep)) or "src"
    modules: List[ModuleInfo] = []
    failures: List[ParseFailure] = []
    py_files: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d not in ("__pycache__", ".git")
        )
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                py_files.append(os.path.join(dirpath, filename))
    if not py_files:
        raise CodeScanError(
            f"source root {root!r} contains no Python files"
        )
    for path in py_files:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        is_package = os.path.basename(path) == "__init__.py"
        if is_package:
            dotted_rel = os.path.dirname(rel).replace("/", ".")
            module = f"{package}.{dotted_rel}" if dotted_rel else package
        else:
            module = f"{package}." + rel[: -len(".py")].replace("/", ".")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            modules.append(
                scan_module(
                    source,
                    module=module,
                    file=rel,
                    package=package,
                    is_package=is_package,
                )
            )
        except SyntaxError as exc:
            failures.append(
                ParseFailure(
                    file=rel,
                    line=exc.lineno or 0,
                    message=f"cannot parse: {exc.msg}",
                )
            )
        except OSError as exc:
            failures.append(
                ParseFailure(file=rel, line=0, message=f"cannot read: {exc}")
            )
    return package, modules, failures
