"""The RPR8xx rule catalog: per-rule fixtures, suppression, CLI contract."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import RULE_REGISTRY, Severity, rule, run_code_lint
from repro.lint.baseline import Baseline
from repro.lint.cli import main as lint_main
from repro.lint.code.facts import build_code_facts
from repro.lint.framework import RuleDefinitionError
from repro.lint.reporters import render_sarif

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: A minimal package shaped like the real one: the DEFAULT_ENTRYPOINTS
#: solve role resolves package-relative, so rules behave identically on
#: this fixture tree and on src/repro.  ``perf/kernel.py`` sits on the
#: solve path (solve -> _iterate -> score).
CLEAN_TREE = {
    "core/engine.py": """
        import numpy as np

        from ..noise.fixpoint import relax
        from ..perf.kernel import score

        class TopKEngine:
            def solve(self, k, seed):
                rng = np.random.default_rng(seed)
                return self._iterate(rng, k)

            def _iterate(self, rng, k):
                values = [float(rng.random()) for _ in range(k)]
                return score(relax(values, 7))
    """,
    "noise/fixpoint.py": """
        import numpy as np

        def relax(values, seed):
            rng = np.random.default_rng(seed)
            return [v + 0.0 * float(rng.random()) for v in values]
    """,
    "perf/kernel.py": """
        def score(values):
            total = 0.0
            for v in sorted(values):
                total += v
            return total
    """,
}


def write_tree(tmp_path, files, name="miniapp"):
    root = tmp_path / name
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def lint(root):
    return run_code_lint(str(root))


def codes(report):
    return [f.code for f in report.findings]


class TestCleanFixture:
    def test_clean_tree_has_no_findings(self, tmp_path):
        report = lint(write_tree(tmp_path, CLEAN_TREE))
        assert report.findings == []
        assert report.design_name == "miniapp"


class TestRPR800:
    def test_parse_failure_is_a_blocking_finding(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["broken.py"] = "def nope(:\n"
        report = lint(write_tree(tmp_path, files))
        assert codes(report) == ["RPR800"]
        (finding,) = report.findings
        assert finding.severity is Severity.ERROR
        assert "broken.py" in finding.message


class TestRPR801:
    def test_clock_on_solve_path_pinned_to_one_finding(self, tmp_path):
        # The acceptance pin: adding a time.time() call on the solve path
        # produces exactly ONE new RPR8xx finding.
        files = dict(CLEAN_TREE)
        files["perf/kernel.py"] = """
            import time

            def score(values):
                t0 = time.time()
                return sum(sorted(values)) + 0.0 * t0
        """
        report = lint(write_tree(tmp_path, files))
        assert codes(report) == ["RPR801"]
        (finding,) = report.findings
        assert finding.severity is Severity.ERROR
        assert "time.time" in finding.message
        assert "_iterate -> perf.kernel.score" in finding.message  # witness
        assert finding.file.endswith("perf/kernel.py")
        assert finding.line > 0

    def test_clock_below_the_entrypoint_still_fires(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["perf/helper.py"] = """
            import time

            def stamp():
                return time.monotonic()
        """
        files["perf/kernel.py"] = """
            from .helper import stamp

            def score(values):
                return sum(sorted(values)) + 0.0 * stamp()
        """
        report = lint(write_tree(tmp_path, files))
        assert codes(report) == ["RPR801"]
        (finding,) = report.findings
        assert "perf.kernel.score -> perf.helper.stamp" in finding.message

    def test_clock_off_the_solve_path_is_ignored(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["obs/standalone.py"] = """
            import time

            def bench():
                return time.perf_counter()
        """
        report = lint(write_tree(tmp_path, files))
        assert report.findings == []

    def test_allowlisted_module_is_sanctioned(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["runtime/health.py"] = """
            import time

            def monotonic_s():
                return time.monotonic()
        """
        files["perf/kernel.py"] = """
            from ..runtime.health import monotonic_s

            def score(values):
                return sum(sorted(values)) + 0.0 * monotonic_s()
        """
        report = lint(write_tree(tmp_path, files))
        assert report.findings == []

    def test_pragma_sanctions_the_site(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["perf/kernel.py"] = """
            import time

            def score(values):
                t0 = time.time()  # lint: allow[RPR801] provenance only
                return sum(sorted(values)) + 0.0 * t0
        """
        report = lint(write_tree(tmp_path, files))
        assert report.findings == []


class TestRPR802:
    def test_deleting_the_fixpoint_seed_pinned_to_one_finding(self, tmp_path):
        # The acceptance pin: deleting the seed from the noise fixpoint
        # produces exactly ONE new RPR8xx finding.
        files = dict(CLEAN_TREE)
        files["noise/fixpoint.py"] = """
            import numpy as np

            def relax(values, seed):
                rng = np.random.default_rng()
                return [v + 0.0 * float(rng.random()) for v in values]
        """
        report = lint(write_tree(tmp_path, files))
        assert codes(report) == ["RPR802"]
        (finding,) = report.findings
        assert finding.severity is Severity.ERROR
        assert "TopKEngine.solve" in finding.message
        assert "noise.fixpoint.relax" in finding.message

    def test_module_level_random_on_solve_path(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["noise/fixpoint.py"] = """
            import random

            def relax(values, seed):
                return [v + 0.0 * random.random() for v in values]
        """
        report = lint(write_tree(tmp_path, files))
        assert codes(report) == ["RPR802"]

    def test_unseeded_random_off_the_solve_path_is_ignored(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["tools/gen.py"] = """
            import random

            def sample(xs):
                return random.choice(xs)
        """
        report = lint(write_tree(tmp_path, files))
        assert report.findings == []


class TestRPR803:
    def test_set_iteration_into_keyed_store(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["noise/blend.py"] = """
            def blend(old, new):
                out = {}
                for key in set(old) | set(new):
                    out[key] = 0.5 * old.get(key, 0.0)
                return out
        """
        report = lint(write_tree(tmp_path, files))
        assert codes(report) == ["RPR803"]
        (finding,) = report.findings
        assert finding.severity is Severity.WARNING
        assert "sorted()" in finding.message

    def test_fires_even_off_the_entry_paths(self, tmp_path):
        # Order-sensitivity is site-local: a helper nobody reaches yet is
        # still a landmine for the next caller.
        files = dict(CLEAN_TREE)
        files["util/misc.py"] = """
            def total(xs):
                acc = 0.0
                pending = set(xs)
                for x in pending:
                    acc += x
                return acc
        """
        report = lint(write_tree(tmp_path, files))
        assert codes(report) == ["RPR803"]

    def test_pragma_sanctions(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["util/misc.py"] = """
            def total(xs):
                acc = 0.0
                pending = set(xs)
                # lint: allow[RPR803] integer accumulation is associative
                for x in pending:
                    acc += x
                return acc
        """
        report = lint(write_tree(tmp_path, files))
        assert report.findings == []


class TestRPR804:
    def test_global_mutation_reachable_from_solve(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["perf/kernel.py"] = """
            _CACHE = {}

            def remember(key, value):
                _CACHE[key] = value
                return value

            def score(values):
                return remember(len(values), sum(sorted(values)))
        """
        report = lint(write_tree(tmp_path, files))
        assert codes(report) == ["RPR804"]
        (finding,) = report.findings
        assert finding.severity is Severity.WARNING
        assert "_CACHE" in finding.message

    def test_pragma_sanctions_intentional_cache(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["perf/kernel.py"] = """
            _TABLE = None

            def score(values):
                global _TABLE
                # lint: allow[RPR804] per-process lookup table
                _TABLE = sorted(values)
                return sum(_TABLE)
        """
        report = lint(write_tree(tmp_path, files))
        assert report.findings == []


class TestRPR805:
    def test_broad_except_without_reraise(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["util/guard.py"] = """
            def shield(fn):
                try:
                    return fn()
                except Exception:
                    return None
        """
        report = lint(write_tree(tmp_path, files))
        assert codes(report) == ["RPR805"]
        (finding,) = report.findings
        assert "ReproError" in finding.message

    def test_noqa_ble001_is_honored(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["util/guard.py"] = """
            def shield(fn):
                try:
                    return fn()
                except Exception:  # noqa: BLE001 - boundary logging
                    return None
        """
        report = lint(write_tree(tmp_path, files))
        assert report.findings == []


class TestBaselineWorkflow:
    def test_baseline_absorbs_known_findings(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["util/guard.py"] = """
            def shield(fn):
                try:
                    return fn()
                except Exception:
                    return None
        """
        report = lint(write_tree(tmp_path, files))
        assert codes(report) == ["RPR805"]
        baseline = Baseline.from_report(report)
        assert baseline.filter(report).findings == []
        # A *new* finding is not absorbed.
        files["util/extra.py"] = """
            def swallow(fn):
                try:
                    return fn()
                except Exception:
                    return 0
        """
        fresh = lint(write_tree(tmp_path, files, name="miniapp2"))
        # Different design label -> different fingerprints -> nothing hidden.
        assert len(baseline.filter(fresh).findings) == len(fresh.findings)

    def test_baseline_reasons_round_trip(self, tmp_path):
        report = lint(write_tree(tmp_path, CLEAN_TREE))
        baseline = Baseline.from_report(report)
        baseline.counts["RPR805|miniapp|x#y"] = 1
        baseline.reasons["RPR805|miniapp|x#y"] = "legacy boundary"
        path = tmp_path / "baseline.json"
        baseline.save(str(path))
        loaded = Baseline.load(str(path))
        assert loaded.reasons == {"RPR805|miniapp|x#y": "legacy boundary"}
        # updated() keeps reasons for surviving fingerprints only.
        refreshed = Baseline.updated(report, str(path))
        assert refreshed.reasons == {}


class TestSarifRegions:
    def test_code_findings_carry_physical_regions(self, tmp_path):
        files = dict(CLEAN_TREE)
        files["util/guard.py"] = """
            def shield(fn):
                try:
                    return fn()
                except Exception:
                    return None
        """
        report = lint(write_tree(tmp_path, files))
        doc = json.loads(render_sarif(report))
        (result,) = doc["runs"][0]["results"]
        location = result["locations"][0]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"].endswith("util/guard.py")
        region = physical["region"]
        assert region["startLine"] > 0
        assert region["endLine"] >= region["startLine"]
        assert region["endColumn"] > 0
        # Logical location is still present for fingerprint stability.
        assert location["logicalLocations"][0]["name"].startswith("miniapp.")


class TestCliContract:
    def test_missing_tree_exits_3_with_actionable_stderr(
        self, tmp_path, capsys
    ):
        exit_code = lint_main(["--tier", "code", str(tmp_path / "missing")])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert "repro-lint --tier code src/repro" in captured.err

    def test_no_tree_exits_3(self, capsys):
        exit_code = lint_main(["--tier", "code"])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert "positional argument" in captured.err

    def test_findings_exit_1_and_clean_exit_0(self, tmp_path, capsys):
        root = write_tree(tmp_path, CLEAN_TREE)
        assert lint_main(["--tier", "code", str(root)]) == 0
        files = dict(CLEAN_TREE)
        files["util/guard.py"] = """
            def shield(fn):
                try:
                    return fn()
                except Exception:
                    return None
        """
        dirty = write_tree(tmp_path, files, name="dirty")
        assert (
            lint_main(["--tier", "code", str(dirty), "--fail-on", "warning"])
            == 1
        )
        capsys.readouterr()

    def test_facts_export_and_sarif_output(self, tmp_path, capsys):
        root = write_tree(tmp_path, CLEAN_TREE)
        sarif_path = tmp_path / "code.sarif"
        facts_path = tmp_path / "facts.json"
        exit_code = lint_main(
            [
                "--tier",
                "code",
                str(root),
                "--format",
                "sarif",
                "--output",
                str(sarif_path),
                "--facts-out",
                str(facts_path),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        doc = json.loads(sarif_path.read_text())
        assert doc["version"] == "2.1.0"
        facts = json.loads(facts_path.read_text())
        assert facts["package"] == "miniapp"
        assert "miniapp.core.engine.TopKEngine.solve" in facts["functions"]
        assert facts["reachable"]["solve"]

    def test_positional_source_rejected_for_design_tiers(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--tier", "static", str(tmp_path)])
        assert excinfo.value.code == 2


class TestSelfHosting:
    def test_own_source_tree_is_clean(self):
        # The self-application gate: src/repro must lint clean (with its
        # in-source pragmas); any new hazard fails this test before CI.
        report = run_code_lint(str(REPO_SRC))
        assert report.findings == [], "\n".join(
            str(f) for f in report.findings
        )

    def test_expected_entrypoints_exist_in_real_tree(self):
        facts = build_code_facts(str(REPO_SRC))
        # RPR801/RPR804 walk the solve role; it is the only role.
        assert facts.resolved_entrypoints == {
            "solve": ["repro.core.engine.TopKEngine.solve"]
        }, "TopKEngine.solve moved — update DEFAULT_ENTRYPOINTS"
        assert "repro.core.engine.TopKEngine._sweep" in facts.reachable["solve"]


class TestRuleRangeGuard:
    def test_reserved_range_must_match_category(self):
        with pytest.raises(RuleDefinitionError, match="reserved"):

            @rule("RPR899", Severity.ERROR, "netlist")
            def misfiled_code_rule(ctx, report):
                """Doc."""

    def test_unreserved_range_allows_any_category(self):
        @rule("RPR993", Severity.INFO, "code")
        def scratch_code_rule(ctx, report):
            """Doc (test rule)."""

        try:
            assert RULE_REGISTRY["RPR993"].category == "code"
        finally:
            del RULE_REGISTRY["RPR993"]

    def test_registry_deletion_does_not_leave_stale_name_guard(self):
        @rule("RPR992", Severity.INFO, "code")
        def transient_rule(ctx, report):
            """Doc (test rule)."""

        del RULE_REGISTRY["RPR992"]

        # Re-registering the same function name after a registry delete
        # must succeed — the O(1) guard ignores stale index entries.
        @rule("RPR992", Severity.INFO, "code")
        def transient_rule(ctx, report):  # noqa: F811
            """Doc (test rule, take two)."""

        try:
            assert RULE_REGISTRY["RPR992"].name == "transient-rule"
        finally:
            del RULE_REGISTRY["RPR992"]
