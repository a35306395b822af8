"""The RPR8xx rule catalog: static guards on the bit-exactness contract.

Every guarantee this reproduction makes — run == rerun, resumed ==
uninterrupted, certificate-validated prunes — reduces to one invariant:
the solve pipeline is a deterministic pure function of
``(design, config, seed)``.  These rules check that invariant *statically*
over the project's own source, using the :class:`~repro.lint.code.facts.
CodeFacts` bundle (call graph + per-function effect summaries) so they
fire on **reachability**, not just syntax: a clock read three calls below
``TopKEngine.solve`` is as much a hazard as one inside it.

Findings carry a witness call chain from the entrypoint to the offending
function, and the location (``qualname#detail``) deliberately excludes
line numbers so the baseline ratchet survives unrelated edits.

Intentional sites are sanctioned in source, never in this file::

    t0 = time.perf_counter()  # lint: allow[RPR801] span provenance only

See ``docs/determinism.md`` for the contract and the effect taxonomy.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..framework import LintContext, Reporter, Severity, rule
from .facts import CLOCK_ALLOWED_MODULES, CodeFacts
from .model import (
    EffectSite,
    FunctionInfo,
    MUTATES_GLOBAL,
    ORDER_ITERATION,
    READS_CLOCK,
    SWALLOWS_BROAD,
    UNSEEDED_RANDOM,
)


def _facts(ctx: LintContext) -> CodeFacts:
    facts = ctx.code_facts
    assert facts is not None  # guarded by Rule.applicable
    return facts


def _chain(facts: CodeFacts, role: str, qualname: str) -> str:
    """Render the witness call chain an entrypoint reaches ``qualname`` by."""
    names = [facts.relative_name(q) for q in facts.witness(role, qualname)]
    return " -> ".join(names) if names else facts.relative_name(qualname)


def _sites(
    facts: CodeFacts, role: str, kind: str, code: str
) -> Iterator[Tuple[FunctionInfo, EffectSite]]:
    """Unsanctioned direct effect sites of ``kind`` on ``role``'s path."""
    for fn in facts.functions_on_path(role):
        for site in fn.direct_effects:
            if site.kind == kind and not site.sanctions(code):
                yield fn, site


def _report_site(
    report: Reporter,
    facts: CodeFacts,
    fn: FunctionInfo,
    site: EffectSite,
    message: str,
    *,
    severity: Optional[Severity] = None,
) -> None:
    report(
        message,
        location=f"{fn.qualname}#{site.detail}",
        severity=severity,
        file=facts.display_path(site.file),
        line=site.line,
        column=site.column + 1,
        end_line=site.end_line or site.line,
        end_column=(site.end_column + 1) if site.end_column else 0,
    )


@rule("RPR800", Severity.ERROR, "code")
def code_tree_parses(ctx: LintContext, report: Reporter) -> None:
    """Every module under the scanned source tree must parse; a module the
    analyzer cannot read is a blind spot in the determinism audit, so a
    parse failure is itself a blocking finding rather than a silent skip.
    """
    facts = _facts(ctx)
    for failure in facts.parse_failures:
        report(
            f"cannot analyze {failure.file}: {failure.message}",
            location=failure.file,
            file=facts.display_path(failure.file),
            line=failure.line,
        )


@rule("RPR801", Severity.ERROR, "code")
def solve_path_reads_clock(ctx: LintContext, report: Reporter) -> None:
    """No wall/monotonic clock read may be reachable from
    ``TopKEngine.solve`` outside the sanctioned observability and budget
    modules.  A clock read on the solve path is the classic way run ==
    rerun breaks: any value derived from it differs from one run to the
    next.  Route timing through the observability layer, or sanction a
    provenance-only read with ``# lint: allow[RPR801] reason``.
    """
    facts = _facts(ctx)
    for fn, site in _sites(facts, "solve", READS_CLOCK, "RPR801"):
        if facts.relative_module(fn) in CLOCK_ALLOWED_MODULES:
            continue
        _report_site(
            report,
            facts,
            fn,
            site,
            f"clock read {site.detail}() at {site.file}:{site.line} is "
            f"reachable from TopKEngine.solve "
            f"({_chain(facts, 'solve', fn.qualname)}); route timing "
            f"through the observability layer or sanction with "
            f"`# lint: allow[RPR801] <reason>`",
        )


@rule("RPR802", Severity.ERROR, "code")
def solve_path_unseeded_random(ctx: LintContext, report: Reporter) -> None:
    """No unseeded randomness may be reachable from ``TopKEngine.solve``.
    The solve pipeline is a pure function of ``(design, config, seed)``;
    module-level ``random``/``numpy.random`` calls, ``default_rng()``
    without a seed, ``uuid.uuid4`` or ``secrets`` anywhere under ``solve``
    make the result draw-dependent.  Derive every RNG from the run seed.
    """
    facts = _facts(ctx)
    for fn, site in _sites(facts, "solve", UNSEEDED_RANDOM, "RPR802"):
        _report_site(
            report,
            facts,
            fn,
            site,
            f"unseeded randomness {site.detail} at {site.file}:{site.line} "
            f"is reachable from TopKEngine.solve "
            f"({_chain(facts, 'solve', fn.qualname)}); derive the RNG from "
            f"the run seed (config/seed plumbing), or sanction with "
            f"`# lint: allow[RPR802] <reason>`",
        )


@rule("RPR803", Severity.WARNING, "code")
def unordered_iteration_feeds_merge(
    ctx: LintContext, report: Reporter
) -> None:
    """Iteration over an unordered container (``set``/``frozenset``) must
    not feed an order-sensitive accumulator — float ``+=``/``sum``,
    ``append``, or a keyed store whose insertion order downstream code
    observes.  Python floats are not associative, and dict insertion
    order is part of iteration semantics, so set-ordered accumulation is
    a latent nondeterminism that only shows under hash randomization.
    Wrap the iterable in ``sorted()``.
    """
    facts = _facts(ctx)
    for fn in facts.functions.values():
        for site in fn.direct_effects:
            if site.kind != ORDER_ITERATION or site.sanctions("RPR803"):
                continue
            _report_site(
                report,
                facts,
                fn,
                site,
                f"unordered iteration feeds an order-sensitive merge "
                f"({site.detail}) at {site.file}:{site.line} in "
                f"{facts.relative_name(fn.qualname)}; iterate in sorted() "
                f"order so merge/accumulation order is deterministic, or "
                f"sanction with `# lint: allow[RPR803] <reason>`",
            )


@rule("RPR804", Severity.WARNING, "code")
def solve_path_mutates_global(ctx: LintContext, report: Reporter) -> None:
    """Code reachable from ``TopKEngine.solve`` must not mutate
    module-level state.  A global mutation leaks state from one solve
    into the next (and between the service's concurrent jobs), so a
    result stops being a function of its own inputs; results must flow
    back through return values, not shared modules.  Intentional
    per-process caches are sanctioned with
    ``# lint: allow[RPR804] reason``.
    """
    facts = _facts(ctx)
    for fn, site in _sites(facts, "solve", MUTATES_GLOBAL, "RPR804"):
        _report_site(
            report,
            facts,
            fn,
            site,
            f"module-global mutation ({site.detail}) at "
            f"{site.file}:{site.line} is reachable from TopKEngine.solve "
            f"({_chain(facts, 'solve', fn.qualname)}); return the value "
            f"instead, or sanction an intentional per-process cache with "
            f"`# lint: allow[RPR804] <reason>`",
        )


@rule("RPR805", Severity.WARNING, "code")
def broad_except_swallows_reproerror(
    ctx: LintContext, report: Reporter
) -> None:
    """A bare or overbroad ``except`` whose handler never re-raises
    swallows ``ReproError`` — including the determinism-violation errors
    the runtime raises on divergence — along with everything else, so a
    broken invariant degrades into a wrong answer instead of a failure.
    Catch the narrowest type that can actually occur, re-raise what you
    cannot handle, or sanction with ``# noqa: BLE001 reason`` (honored as
    ``allow[RPR805]``).
    """
    facts = _facts(ctx)
    for fn in facts.functions.values():
        for site in fn.direct_effects:
            if site.kind != SWALLOWS_BROAD or site.sanctions("RPR805"):
                continue
            _report_site(
                report,
                facts,
                fn,
                site,
                f"{site.detail} at {site.file}:{site.line} in "
                f"{facts.relative_name(fn.qualname)} never re-raises, so "
                f"it swallows ReproError; narrow the exception type, "
                f"re-raise, or sanction with `# noqa: BLE001 <reason>`",
            )

