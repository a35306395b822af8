"""The RPR8xx analysis engine: scanner, call graph, effects, CodeFacts."""

import json
import textwrap

import pytest

from repro.lint.code.callgraph import CallGraph, build_graph
from repro.lint.code.facts import (
    CodeFacts,
    CodeFactsError,
    DEFAULT_ENTRYPOINTS,
    build_code_facts,
)
from repro.lint.code.model import (
    CodeScanError,
    MUTATES_GLOBAL,
    ORDER_ITERATION,
    READS_CLOCK,
    READS_ENV,
    SWALLOWS_BROAD,
    UNSEEDED_RANDOM,
)
from repro.lint.code.scan import scan_module, scan_tree


def scan(source, *, module="pkg.mod", file="mod.py", package="pkg"):
    return scan_module(
        textwrap.dedent(source), module=module, file=file, package=package
    )


def fn(info, name):
    matches = [f for f in info.functions if f.name == name]
    assert matches, f"no function {name!r} in {[f.name for f in info.functions]}"
    return matches[0]


def kinds(function):
    return [site.kind for site in function.direct_effects]


class TestClockAndEnv:
    def test_time_calls_are_clock_reads(self):
        info = scan(
            """
            import time

            def f():
                return time.perf_counter()
            """
        )
        (site,) = fn(info, "f").direct_effects
        assert site.kind == READS_CLOCK
        assert site.detail == "time.perf_counter"
        assert site.line > 0 and site.end_line >= site.line

    def test_from_import_and_datetime(self):
        info = scan(
            """
            import datetime
            from time import monotonic

            def f():
                return monotonic(), datetime.datetime.now()
            """
        )
        details = {s.detail for s in fn(info, "f").direct_effects}
        assert details == {"time.monotonic", "datetime.datetime.now"}

    def test_local_shadowing_suppresses(self):
        info = scan(
            """
            def f(time):
                return time.time()
            """
        )
        assert kinds(fn(info, "f")) == []

    def test_environment_reads(self):
        info = scan(
            """
            import os

            def f():
                return os.environ["HOME"], os.getenv("USER")
            """
        )
        assert kinds(fn(info, "f")).count(READS_ENV) == 2


class TestRandomness:
    def test_module_level_random_is_unseeded(self):
        info = scan(
            """
            import random

            def f(xs):
                return random.choice(xs)
            """
        )
        (site,) = fn(info, "f").direct_effects
        assert site.kind == UNSEEDED_RANDOM

    def test_numpy_aliases_resolve(self):
        info = scan(
            """
            import numpy as np

            def f():
                return np.random.rand()
            """
        )
        assert kinds(fn(info, "f")) == [UNSEEDED_RANDOM]

    def test_default_rng_seeded_vs_unseeded(self):
        info = scan(
            """
            import numpy as np

            def seeded(seed):
                return np.random.default_rng(seed)

            def unseeded():
                return np.random.default_rng()
            """
        )
        assert kinds(fn(info, "seeded")) == []
        assert kinds(fn(info, "unseeded")) == [UNSEEDED_RANDOM]

    def test_random_class_seeded_vs_unseeded(self):
        info = scan(
            """
            import random

            def seeded():
                return random.Random(7)

            def unseeded():
                return random.Random()
            """
        )
        assert kinds(fn(info, "seeded")) == []
        assert kinds(fn(info, "unseeded")) == [UNSEEDED_RANDOM]

    def test_uuid4_always_unseeded(self):
        info = scan(
            """
            import uuid

            def f():
                return uuid.uuid4()
            """
        )
        assert kinds(fn(info, "f")) == [UNSEEDED_RANDOM]


class TestGlobalMutation:
    def test_global_rebinding(self):
        info = scan(
            """
            _STATE = None

            def f(value):
                global _STATE
                _STATE = value
            """
        )
        (site,) = fn(info, "f").direct_effects
        assert site.kind == MUTATES_GLOBAL
        assert "_STATE" in site.detail

    def test_inplace_mutation_of_module_container(self):
        info = scan(
            """
            CACHE = {}

            def f(key, value):
                CACHE[key] = value
                CACHE.update({key: value})
            """
        )
        assert kinds(fn(info, "f")) == [MUTATES_GLOBAL, MUTATES_GLOBAL]

    def test_imported_module_attribute_set(self):
        info = scan(
            """
            import config

            def f():
                config.DEBUG = True
            """
        )
        (site,) = fn(info, "f").direct_effects
        assert site.kind == MUTATES_GLOBAL
        assert "config.DEBUG" in site.detail

    def test_local_rebinding_is_clean(self):
        info = scan(
            """
            CACHE = {}

            def f(key):
                cache = dict(CACHE)
                cache[key] = 1
                return cache
            """
        )
        assert kinds(fn(info, "f")) == []


class TestOrderIteration:
    def test_set_loop_feeding_keyed_store(self):
        info = scan(
            """
            def f(old, new):
                out = {}
                for key in set(old) | set(new):
                    out[key] = 1.0
                return out
            """
        )
        (site,) = fn(info, "f").direct_effects
        assert site.kind == ORDER_ITERATION
        assert "keyed-store" in site.detail

    def test_sorted_wrap_is_clean(self):
        info = scan(
            """
            def f(old, new):
                out = {}
                for key in sorted(set(old) | set(new)):
                    out[key] = 1.0
                return out
            """
        )
        assert kinds(fn(info, "f")) == []

    def test_set_var_tracked_through_assignment(self):
        info = scan(
            """
            def f(xs):
                pending = set(xs)
                total = 0.0
                for x in pending:
                    total += x
                return total
            """
        )
        (site,) = fn(info, "f").direct_effects
        assert site.kind == ORDER_ITERATION

    def test_sum_over_set_generator(self):
        info = scan(
            """
            def f(s):
                vals = set(s)
                return sum(x for x in vals)
            """
        )
        assert kinds(fn(info, "f")) == [ORDER_ITERATION]

    def test_order_insensitive_consumer_is_clean(self):
        info = scan(
            """
            def f(s):
                vals = set(s)
                return max(x for x in vals), sorted(x for x in vals)
            """
        )
        assert kinds(fn(info, "f")) == []


class TestExceptHandlers:
    def test_bare_except_swallows(self):
        info = scan(
            """
            def f():
                try:
                    return 1
                except:
                    return None
            """
        )
        (site,) = fn(info, "f").direct_effects
        assert site.kind == SWALLOWS_BROAD

    def test_reraise_is_clean(self):
        info = scan(
            """
            def f():
                try:
                    return 1
                except Exception:
                    raise
            """
        )
        assert kinds(fn(info, "f")) == []

    def test_narrow_except_is_clean(self):
        info = scan(
            """
            def f():
                try:
                    return 1
                except ValueError:
                    return None
            """
        )
        assert kinds(fn(info, "f")) == []

    def test_noqa_ble001_sanctions_rpr805(self):
        info = scan(
            """
            def f():
                try:
                    return 1
                except Exception:  # noqa: BLE001 - boundary logging
                    return None
            """
        )
        (site,) = fn(info, "f").direct_effects
        assert site.kind == SWALLOWS_BROAD
        assert site.sanctions("RPR805")
        assert not site.sanctions("RPR801")


class TestPragmas:
    def test_inline_pragma_records_codes_and_reason(self):
        info = scan(
            """
            import time

            def f():
                return time.time()  # lint: allow[RPR801] provenance only
            """
        )
        (site,) = fn(info, "f").direct_effects
        assert site.sanctions("RPR801")
        assert not site.sanctions("RPR802")
        assert site.reason == "provenance only"

    def test_star_pragma_sanctions_everything(self):
        info = scan(
            """
            import time

            def f():
                return time.time()  # lint: allow[*] scratch script
            """
        )
        (site,) = fn(info, "f").direct_effects
        assert site.sanctions("RPR801") and site.sanctions("RPR803")

    def test_pragma_on_preceding_line(self):
        info = scan(
            """
            import time

            def f():
                # lint: allow[RPR801] annotated above a long line
                return time.time()
            """
        )
        (site,) = fn(info, "f").direct_effects
        assert site.sanctions("RPR801")

    def test_comma_list_of_codes(self):
        info = scan(
            """
            import time

            def f():
                return time.time()  # lint: allow[RPR801, RPR802] both
            """
        )
        (site,) = fn(info, "f").direct_effects
        assert site.sanctions("RPR801") and site.sanctions("RPR802")


class TestCallGraph:
    def _graph(self, source):
        info = scan(source)
        functions = {f.qualname: f for f in info.functions}
        return CallGraph(functions, [info]), functions

    def test_exact_linking_and_propagation(self):
        graph, _ = self._graph(
            """
            import time

            def leaf():
                return time.perf_counter()

            def mid():
                return leaf()

            def top():
                return mid()
            """
        )
        assert graph.edges["pkg.mod.top"] == ["pkg.mod.mid"]
        effects = graph.propagate_effects()
        assert READS_CLOCK in effects["pkg.mod.top"]
        assert READS_CLOCK in effects["pkg.mod.mid"]

    def test_self_method_resolution(self):
        graph, _ = self._graph(
            """
            import time

            class Engine:
                def solve(self):
                    return self._tick()

                def _tick(self):
                    return time.monotonic()
            """
        )
        assert graph.edges["pkg.mod.Engine.solve"] == ["pkg.mod.Engine._tick"]
        effects = graph.propagate_effects()
        assert READS_CLOCK in effects["pkg.mod.Engine.solve"]

    def test_inherited_method_resolution(self):
        graph, _ = self._graph(
            """
            import time

            class Base:
                def _tick(self):
                    return time.monotonic()

            class Child(Base):
                def solve(self):
                    return self._tick()
            """
        )
        assert graph.edges["pkg.mod.Child.solve"] == ["pkg.mod.Base._tick"]

    def test_reachability_witness_chain(self):
        graph, _ = self._graph(
            """
            def leaf():
                return 1

            def mid():
                return leaf()

            def top():
                return mid()
            """
        )
        chains = graph.reachable_from(["pkg.mod.top"])
        assert chains["pkg.mod.leaf"] == [
            "pkg.mod.top",
            "pkg.mod.mid",
            "pkg.mod.leaf",
        ]
        assert "pkg.mod.top" in chains  # entrypoints reach themselves

    def test_function_reference_argument_is_an_edge(self):
        graph, _ = self._graph(
            """
            def work(x):
                return x

            def dispatch(pool, x):
                return pool.submit(work, x)
            """
        )
        assert "pkg.mod.work" in graph.edges["pkg.mod.dispatch"]

    def test_common_attr_names_do_not_link(self):
        graph, _ = self._graph(
            """
            def append(x):
                return x

            def f(box, x):
                return box.append(x)
            """
        )
        assert graph.edges["pkg.mod.f"] == []


class TestScanTree:
    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(CodeScanError, match="not a directory"):
            scan_tree(str(tmp_path / "nope"))

    def test_empty_tree_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(CodeScanError, match="no Python files"):
            scan_tree(str(tmp_path / "empty"))

    def test_package_and_module_naming(self, tmp_path):
        root = tmp_path / "mini"
        (root / "sub").mkdir(parents=True)
        (root / "__init__.py").write_text("")
        (root / "sub" / "mod.py").write_text("def f():\n    return 1\n")
        package, modules, failures = scan_tree(str(root))
        assert package == "mini"
        assert failures == []
        names = {m.name for m in modules}
        assert names == {"mini", "mini.sub.mod"}

    def test_syntax_error_becomes_parse_failure(self, tmp_path):
        root = tmp_path / "mini"
        root.mkdir()
        (root / "good.py").write_text("def f():\n    return 1\n")
        (root / "bad.py").write_text("def broken(:\n")
        _, modules, failures = scan_tree(str(root))
        assert len(modules) == 1 and len(failures) == 1
        assert failures[0].file == "bad.py"


class TestCodeFacts:
    def _tree(self, tmp_path):
        root = tmp_path / "mini"
        (root / "core").mkdir(parents=True)
        (root / "noise").mkdir()
        (root / "core" / "engine.py").write_text(
            textwrap.dedent(
                """
                from ..noise.fixpoint import relax

                class TopKEngine:
                    def solve(self, k):
                        return self._iterate(k)

                    def _iterate(self, k):
                        return relax(list(range(k)))
                """
            )
        )
        (root / "noise" / "fixpoint.py").write_text(
            textwrap.dedent(
                """
                def relax(values):
                    return [v + 1 for v in values]
                """
            )
        )
        return root

    def test_entrypoints_resolve_package_relative(self, tmp_path):
        facts = build_code_facts(str(self._tree(tmp_path)))
        assert facts.package == "mini"
        assert facts.resolved_entrypoints["solve"] == [
            "mini.core.engine.TopKEngine.solve"
        ]
        assert set(facts.resolved_entrypoints) == {"solve"}
        assert "mini.core.engine.TopKEngine._iterate" in facts.reachable["solve"]
        assert "mini.noise.fixpoint.relax" in facts.reachable["solve"]

    def test_missing_entrypoints_resolve_empty(self, tmp_path):
        root = tmp_path / "tiny"
        root.mkdir()
        (root / "util.py").write_text("def f():\n    return 1\n")
        facts = build_code_facts(str(root))
        assert facts.resolved_entrypoints == {
            role: [] for role in DEFAULT_ENTRYPOINTS
        }
        assert all(not chains for chains in facts.reachable.values())

    def test_json_round_trip(self, tmp_path):
        facts = build_code_facts(str(self._tree(tmp_path)))
        payload = json.loads(json.dumps(facts.to_json()))
        loaded = CodeFacts.from_json(payload)
        assert loaded.package == facts.package
        assert set(loaded.functions) == set(facts.functions)
        assert loaded.reachable == facts.reachable
        assert loaded.effects == facts.effects
        fn_orig = facts.functions["mini.noise.fixpoint.relax"]
        fn_back = loaded.functions["mini.noise.fixpoint.relax"]
        assert fn_back.to_json() == fn_orig.to_json()

    def test_save_and_load(self, tmp_path):
        facts = build_code_facts(str(self._tree(tmp_path)))
        path = tmp_path / "facts.json"
        facts.save(str(path))
        loaded = CodeFacts.load(str(path))
        assert loaded.package == "mini"
        assert loaded.summary()["functions"] == facts.summary()["functions"]

    def test_incompatible_format_rejected(self, tmp_path):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({"format": 99, "functions": {}}))
        with pytest.raises(CodeFactsError, match="format"):
            CodeFacts.load(str(path))

    def test_build_graph_convenience(self, tmp_path):
        package, modules, _ = scan_tree(str(self._tree(tmp_path)))
        functions = {
            f.qualname: f for m in modules for f in m.functions
        }
        graph, effects = build_graph(functions, modules)
        assert set(effects) == set(functions)
        assert package == "mini"

    def test_display_path_joins_root(self, tmp_path):
        root = self._tree(tmp_path)
        facts = build_code_facts(str(root))
        assert facts.display_path("noise/fixpoint.py") == (
            f"{root}/noise/fixpoint.py"
        )
