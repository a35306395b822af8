"""The rule framework behind ``repro-lint``.

A *rule* is a plain generator-style function registered with the
:func:`rule` decorator::

    @rule("RPR101", Severity.ERROR, "netlist")
    def undriven_net(ctx, report):
        \"\"\"Every net must have exactly one driver.\"\"\"
        for name, net in ctx.netlist.nets.items():
            if net.driver is None:
                report(f"net {name!r} has no driver", location=f"net:{name}")

The decorator validates the code format (``RPR###``), enforces docstrings
(they are the rule catalog), and registers the rule in the process-wide
:data:`RULE_REGISTRY`.  :func:`run_lint` selects the rules applicable to
what the caller handed it (a bare netlist, a full design, an analysis
config, or a solved engine for the dominance audit), runs them, and
returns a :class:`LintReport`.

Severities form a ladder (``INFO < WARNING < ERROR``); by convention only
ERROR findings block analysis.  Rules never raise on dirty input — a rule
that crashes is itself reported as an ERROR finding so one bad rule cannot
take down a preflight.
"""

from __future__ import annotations

import enum
import fnmatch
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Union,
)

from ..circuit.netlist import Netlist

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.dataflow import SemanticBounds
    from ..circuit.design import Design
    from ..core.engine import TopKConfig, TopKEngine
    from ..timing.graph import TimingGraph
    from ..timing.sta import TimingResult
    from ..verify.certificate import Certificate
    from ..verify.checker import CheckReport
    from .code.facts import CodeFacts


class LintError(ValueError):
    """Raised when a lint preflight finds blocking (error) findings."""


class RuleDefinitionError(ValueError):
    """Raised at import time for malformed rule registrations."""


class Severity(enum.Enum):
    """Finding severity ladder: ``INFO < WARNING < ERROR``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def at_least(self, other: "Severity") -> bool:
        return self.rank >= other.rank


_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}

#: Rule categories in the order reports list them.  Each category maps to
#: what the rule needs to run (see :meth:`Rule.applicable`).
CATEGORIES = (
    "netlist",
    "coupling",
    "timing",
    "config",
    "semantic",
    "audit",
    "certificate",
    "code",
)

_CODE_RE = re.compile(r"^RPR\d{3}$")

#: Reserved hundreds-digit ranges: a rule code RPR{d}## with a reserved
#: digit must carry the matching category, so ``docs/lint.md``'s "range =
#: tier" convention cannot silently drift.  0xx and 9xx stay unreserved
#: (tests register scratch rules there).
CODE_RANGE_CATEGORIES: Dict[str, str] = {
    "1": "netlist",
    "2": "coupling",
    "3": "timing",
    "4": "config",
    "5": "audit",
    "6": "certificate",
    "7": "semantic",
    "8": "code",
}


@dataclass(frozen=True)
class Finding:
    """One lint finding (an instance of a rule firing).

    ``file``/``line``/``column``/``end_line``/``end_column`` are set by
    source-level rules (the RPR8xx code tier) so reporters can emit real
    physical regions; design-level rules leave them empty and report
    logical locations only.  Columns are 1-based; 0 means "unknown".
    """

    code: str
    severity: Severity
    category: str
    message: str
    location: str = ""
    rule_name: str = ""
    design: str = ""
    file: str = ""
    line: int = 0
    column: int = 0
    end_line: int = 0
    end_column: int = 0

    def fingerprint(self) -> str:
        """Stable identity used by the baseline workflow.

        Deliberately excludes the message text (messages carry volatile
        numbers) and the physical span (line numbers churn on unrelated
        edits) — two findings of the same rule at the same location are
        the same finding.
        """
        return f"{self.code}|{self.design}|{self.location}"

    def __str__(self) -> str:
        where = f" at {self.location}" if self.location else ""
        if self.file:
            where = f" at {self.file}:{self.line}" + (
                f" ({self.location})" if self.location else ""
            )
        return f"{self.code} [{self.severity.value}]{where}: {self.message}"


#: Signature of the ``report`` callback handed to rule check functions.
Reporter = Callable[..., None]

#: Signature of a rule check function.
RuleCheck = Callable[["LintContext", Reporter], None]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    code: str
    severity: Severity
    category: str
    name: str
    doc: str
    check: RuleCheck

    def applicable(self, ctx: "LintContext") -> bool:
        """Whether the context carries what this rule's category needs."""
        if self.category == "netlist":
            return ctx.netlist is not None
        if self.category in ("coupling", "timing", "semantic"):
            return ctx.design is not None
        if self.category == "config":
            return ctx.design is not None and ctx.analysis_config is not None
        if self.category == "audit":
            return ctx.engine is not None
        if self.category == "certificate":
            return ctx.certificate is not None
        if self.category == "code":
            return ctx.code_facts is not None
        return False  # pragma: no cover - unreachable for registered rules

    def run(self, ctx: "LintContext") -> List[Finding]:
        """Execute the rule; a crash becomes an ERROR finding, not a raise."""
        findings: List[Finding] = []

        def report(
            message: str,
            *,
            location: str = "",
            severity: Optional[Severity] = None,
            file: str = "",
            line: int = 0,
            column: int = 0,
            end_line: int = 0,
            end_column: int = 0,
        ) -> None:
            findings.append(
                Finding(
                    code=self.code,
                    severity=severity if severity is not None else self.severity,
                    category=self.category,
                    message=message,
                    location=location,
                    rule_name=self.name,
                    design=ctx.design_name,
                    file=file,
                    line=line,
                    column=column,
                    end_line=end_line,
                    end_column=end_column,
                )
            )

        try:
            self.check(ctx, report)
        except Exception as exc:  # noqa: BLE001 - rules must not kill the run
            findings.append(
                Finding(
                    code=self.code,
                    severity=Severity.ERROR,
                    category=self.category,
                    message=f"lint rule {self.name!r} crashed: {exc!r}",
                    location="",
                    rule_name=self.name,
                    design=ctx.design_name,
                )
            )
        return findings


#: Process-wide registry: rule code -> :class:`Rule`.
RULE_REGISTRY: Dict[str, Rule] = {}

#: O(1) duplicate guard: rule name -> code.  Entries whose code is no
#: longer registered (tests delete scratch rules straight out of
#: :data:`RULE_REGISTRY`) are treated as stale and overwritten rather
#: than refused.
_NAME_INDEX: Dict[str, str] = {}


def _name_holder(name: str) -> Optional[str]:
    """The code currently holding rule name ``name``, ignoring stale entries."""
    code = _NAME_INDEX.get(name)
    if code is not None:
        live = RULE_REGISTRY.get(code)
        if live is not None and live.name == name:
            return code
    return None


def rule(
    code: str,
    severity: Severity,
    category: str,
) -> Callable[[RuleCheck], RuleCheck]:
    """Register a check function as lint rule ``code``.

    Parameters
    ----------
    code:
        ``RPR###`` identifier, unique process-wide.
    severity:
        Default severity of findings (a rule may override per finding).
    category:
        One of :data:`CATEGORIES`; decides when the rule is applicable.
    """

    def decorate(fn: RuleCheck) -> RuleCheck:
        if not _CODE_RE.match(code):
            raise RuleDefinitionError(
                f"rule code {code!r} does not match 'RPR###'"
            )
        if code in RULE_REGISTRY:
            raise RuleDefinitionError(
                f"duplicate rule code {code!r} "
                f"(already {RULE_REGISTRY[code].name!r})"
            )
        name = fn.__name__.replace("_", "-")
        name_holder = _name_holder(name)
        if name_holder is not None:
            raise RuleDefinitionError(
                f"rule {code}: duplicate rule name {name!r} "
                f"(already used by {name_holder})"
            )
        if category not in CATEGORIES:
            raise RuleDefinitionError(
                f"rule {code}: unknown category {category!r}"
            )
        reserved = CODE_RANGE_CATEGORIES.get(code[len("RPR")])
        if reserved is not None and category != reserved:
            raise RuleDefinitionError(
                f"rule {code}: the RPR{code[len('RPR')]}xx range is "
                f"reserved for category {reserved!r}, got {category!r}"
            )
        if not (fn.__doc__ or "").strip():
            raise RuleDefinitionError(
                f"rule {code} ({fn.__name__}) needs a docstring — "
                "it is the rule catalog entry"
            )
        RULE_REGISTRY[code] = Rule(
            code=code,
            severity=severity,
            category=category,
            name=name,
            doc=fn.__doc__.strip(),
            check=fn,
        )
        _NAME_INDEX[name] = code
        return fn

    return decorate


def all_rules() -> List[Rule]:
    """Registered rules in code order (the catalog)."""
    return [RULE_REGISTRY[c] for c in sorted(RULE_REGISTRY)]


@dataclass
class LintContext:
    """Everything a rule may look at.

    Built by :func:`run_lint`; rules receive it read-only.  ``sta`` is
    computed lazily (and memoized) because timing/config rules need it but
    structural rules must work on designs where STA would raise.
    """

    netlist: Optional[Netlist] = None
    design: Optional["Design"] = None
    analysis_config: Optional["TopKConfig"] = None
    k: Optional[int] = None
    engine: Optional["TopKEngine"] = None
    certificate: Optional["Certificate"] = None
    code_facts: Optional["CodeFacts"] = None
    _sta: Optional["TimingResult"] = field(default=None, repr=False)
    _sta_failed: bool = field(default=False, repr=False)
    _graph: Optional["TimingGraph"] = field(default=None, repr=False)
    _graph_failed: bool = field(default=False, repr=False)
    _semantic: Optional["SemanticBounds"] = field(default=None, repr=False)
    _semantic_failed: bool = field(default=False, repr=False)
    _check_report: Optional["CheckReport"] = field(default=None, repr=False)

    @property
    def design_name(self) -> str:
        if self.netlist is not None:
            return self.netlist.name
        if self.code_facts is not None:
            return self.code_facts.label
        return ""

    @property
    def graph(self) -> Optional["TimingGraph"]:
        """The netlist's timing graph (topological order, levels, fanin
        and fanout views), built once and shared by every rule in the
        run — or None when the structure has no topological order
        (undriven nets, combinational cycles)."""
        if self.netlist is None:
            return None
        if self._graph is None and not self._graph_failed:
            from ..timing.graph import TimingGraph

            try:
                self._graph = TimingGraph.from_netlist(self.netlist)
            except Exception:  # noqa: BLE001 - structural dirt is expected
                self._graph_failed = True
        return self._graph

    @property
    def topo_order(self) -> Optional[List[str]]:
        """Cached topological net order, or None on broken structure."""
        graph = self.graph
        return None if graph is None else graph.topo_order

    @property
    def sta(self) -> Optional["TimingResult"]:
        """Noiseless STA of the netlist, or None if the structure is too
        broken to time (undriven nets, combinational cycles)."""
        if self._sta is None and not self._sta_failed:
            from ..timing.sta import run_sta

            graph = self.graph
            if graph is None or self.netlist is None:
                self._sta_failed = True
                return None
            try:
                self._sta = run_sta(self.netlist, graph)
            except Exception:  # noqa: BLE001 - structural dirt is expected
                self._sta_failed = True
        return self._sta

    @property
    def semantic(self) -> Optional["SemanticBounds"]:
        """The semantic dataflow pass over :attr:`design`
        (:func:`repro.analysis.dataflow.semantic_bounds`), memoized so
        the RPR7xx rules share one fixpoint run.  None without a design
        or when the design cannot be timed."""
        if (
            self._semantic is None
            and not self._semantic_failed
            and self.design is not None
        ):
            from ..analysis.dataflow import semantic_bounds

            graph = self.graph
            if graph is None or self.sta is None:
                self._semantic_failed = True
                return None
            window_filter = (
                self.analysis_config.window_filter
                if self.analysis_config is not None
                else True
            )
            try:
                self._semantic = semantic_bounds(
                    self.design,
                    graph=graph,
                    nominal=self.sta,
                    window_filter=window_filter,
                )
            except Exception:  # noqa: BLE001 - surfaced by the rules
                self._semantic_failed = True
        return self._semantic

    @property
    def check_report(self) -> Optional["CheckReport"]:
        """The independent checker's report over :attr:`certificate`,
        memoized so the RPR6xx rules share one checker run."""
        if self.certificate is None:
            return None
        if self._check_report is None:
            from ..verify.checker import check_certificate

            self._check_report = check_certificate(
                self.certificate, design=self.design
            )
        return self._check_report


@dataclass(frozen=True)
class LintConfig:
    """Run-time lint options: suppression and failure threshold.

    Attributes
    ----------
    disabled:
        Suppression set: exact codes (``"RPR103"``), fnmatch globs
        (``"RPR4*"``) or category names (``"timing"``).
    fail_on:
        Minimum severity that makes :meth:`LintReport.has_failures` true
        (and ``repro-lint`` exit non-zero).  ``None`` disables failing.
    """

    disabled: FrozenSet[str] = frozenset()
    fail_on: Optional[Severity] = Severity.ERROR

    def suppresses(self, rule_: Rule) -> bool:
        for pattern in self.disabled:
            if pattern == rule_.category:
                return True
            if fnmatch.fnmatchcase(rule_.code, pattern):
                return True
        return False


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    design_name: str = ""
    suppressed: int = 0

    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity is severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Finding]:
        return self.by_severity(Severity.WARNING)

    def counts(self) -> Dict[str, int]:
        out = {s.value: 0 for s in Severity}
        for f in self.findings:
            out[f.severity.value] += 1
        return out

    def worst(self) -> Optional[Severity]:
        if not self.findings:
            return None
        return max((f.severity for f in self.findings), key=lambda s: s.rank)

    def has_failures(self, fail_on: Optional[Severity] = Severity.ERROR) -> bool:
        if fail_on is None:
            return False
        return any(f.severity.at_least(fail_on) for f in self.findings)

    def merged_with(self, other: "LintReport") -> "LintReport":
        name = self.design_name
        if other.design_name and other.design_name != name:
            name = f"{name}+{other.design_name}" if name else other.design_name
        return LintReport(
            findings=self.findings + other.findings,
            design_name=name,
            suppressed=self.suppressed + other.suppressed,
        )

    def summary(self) -> str:
        c = self.counts()
        return (
            f"{len(self.findings)} finding(s): {c['error']} error(s), "
            f"{c['warning']} warning(s), {c['info']} info"
            + (f" ({self.suppressed} suppressed)" if self.suppressed else "")
        )


def run_lint(
    target: Union["Design", Netlist],
    *,
    analysis_config: Optional["TopKConfig"] = None,
    k: Optional[int] = None,
    engine: Optional["TopKEngine"] = None,
    certificate: Optional["Certificate"] = None,
    config: Optional[LintConfig] = None,
    categories: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint a design (or bare netlist) and return the findings.

    Parameters
    ----------
    target:
        A :class:`~repro.circuit.design.Design` (all categories) or a bare
        :class:`~repro.circuit.netlist.Netlist` (structure rules only).
    analysis_config / k:
        Enable the ``config`` category: sanity of the solver knobs against
        this design and the requested set size.
    engine:
        A solved :class:`~repro.core.engine.TopKEngine` — enables the
        ``audit`` category (the Theorem-1 dominance audit).
    certificate:
        A solve :class:`~repro.verify.Certificate` — enables the
        ``certificate`` category (the RPR6xx proof re-validation rules,
        backed by :func:`repro.verify.check_certificate`).
    config:
        Suppression / failure options.
    categories:
        Restrict to these categories (default: every applicable one).
    """
    if isinstance(target, Netlist):
        netlist, design = target, None
    else:
        netlist, design = target.netlist, target
    ctx = LintContext(
        netlist=netlist,
        design=design,
        analysis_config=analysis_config,
        k=k,
        engine=engine,
        certificate=certificate,
    )
    return _run_rules(ctx, config=config, categories=categories)


def _run_rules(
    ctx: LintContext,
    *,
    config: Optional[LintConfig],
    categories: Optional[Iterable[str]],
) -> LintReport:
    """Run every registered rule of ``categories`` (default: all) that
    applies to ``ctx`` and is not suppressed by ``config``."""
    # Import for side effects: rule modules register themselves.
    from . import (  # noqa: F401
        audit,
        rules_certificate,
        rules_config,
        rules_coupling,
        rules_netlist,
        rules_semantic,
        rules_timing,
    )

    cfg = config if config is not None else LintConfig()
    wanted = set(categories) if categories is not None else None
    findings: List[Finding] = []
    suppressed = 0
    for rule_ in all_rules():
        if wanted is not None and rule_.category not in wanted:
            continue
        if not rule_.applicable(ctx):
            continue
        if cfg.suppresses(rule_):
            suppressed += 1
            continue
        findings.extend(rule_.run(ctx))
    return LintReport(
        findings=findings, design_name=ctx.design_name, suppressed=suppressed
    )


def run_code_lint(
    root: str,
    *,
    config: Optional[LintConfig] = None,
    facts: Optional["CodeFacts"] = None,
) -> LintReport:
    """Run the RPR8xx code tier over the project's own source tree.

    Parameters
    ----------
    root:
        Source root to scan (``src/repro`` from a checkout).  Ignored
        when ``facts`` is given.
    config:
        Suppression / failure options (shared with :func:`run_lint`).
    facts:
        A pre-built :class:`~repro.lint.code.facts.CodeFacts` — pass it
        when the caller also exports the facts JSON, so the tree is
        scanned once.

    Raises
    ------
    repro.lint.code.model.CodeScanError
        When ``root`` is not a directory or holds no Python source; the
        CLI maps this onto its exit-3 missing-input contract.
    """
    # Import for side effects: the RPR8xx rules register themselves.
    from .code import rules as _code_rules  # noqa: F401

    if facts is None:
        from .code.facts import build_code_facts

        facts = build_code_facts(root)
    return _run_rules(
        LintContext(code_facts=facts), config=config, categories=("code",)
    )


def assert_clean(report: LintReport) -> None:
    """Raise :class:`LintError` when the report has ERROR findings."""
    errors = report.errors
    if errors:
        head = "; ".join(str(f) for f in errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        raise LintError(
            f"lint found {len(errors)} blocking finding(s) on "
            f"{report.design_name!r}: {head}{more}"
        )
