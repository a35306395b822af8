"""Tests for the repro-topk command-line interface."""

import pytest

from repro.cli import build_parser, main

BENCH_TEXT = """
INPUT(a)
INPUT(b)
OUTPUT(y)
x = NAND(a, b)
y = NOT(x)
"""


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.k == 5
        assert args.mode == "elimination"

    def test_benchmark_choices(self):
        args = build_parser().parse_args(["--benchmark", "i1"])
        assert args.benchmark == "i1"

    def test_mutually_exclusive_sources(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--benchmark", "i1", "--bench-file", "x.bench"]
            )

    @pytest.mark.parametrize(
        "flag", ["--parallelism", "--max-chunk-retries", "--chunk-timeout"]
    )
    def test_pool_flags_are_usage_errors(self, flag, capsys):
        # The engine is serial; the old pool knobs are unknown options.
        with pytest.raises(SystemExit) as exc:
            main(["--benchmark", "i1", flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


class TestMain:
    def test_random_design_run(self, capsys):
        rc = main(["--gates", "10", "--k", "2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "design random" in out
        assert "top-2 elimination set" in out

    def test_addition_mode(self, capsys):
        rc = main(
            ["--gates", "10", "--k", "1", "--mode", "addition", "--seed", "1"]
        )
        assert rc == 0
        assert "addition set" in capsys.readouterr().out

    def test_no_oracle_flag(self, capsys):
        rc = main(
            ["--gates", "10", "--k", "1", "--no-oracle", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "delay with set" not in out
        assert "solver estimate" in out

    def test_bench_file_flow(self, tmp_path, capsys):
        path = tmp_path / "c.bench"
        path.write_text(BENCH_TEXT)
        rc = main(["--bench-file", str(path), "--k", "1", "--seed", "0"])
        assert rc == 0
        assert "design c" in capsys.readouterr().out

    def test_exact_mode_flag(self, capsys):
        rc = main(
            ["--gates", "10", "--k", "1", "--max-sets", "0", "--seed", "1"]
        )
        assert rc == 0

    def test_explain_flag(self, capsys):
        rc = main(
            ["--gates", "10", "--k", "2", "--seed", "1", "--explain"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "set breakdown" in out
        assert "marginal" in out

    def test_paths_flag(self, capsys):
        rc = main(["--gates", "10", "--k", "1", "--seed", "1", "--paths", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worst paths" in out

    def test_functional_flag(self, capsys):
        rc = main(
            ["--gates", "10", "--k", "1", "--seed", "1", "--functional"]
        )
        assert rc == 0
        assert "functional noise" in capsys.readouterr().out

    def test_hotspots_flag(self, capsys):
        rc = main(
            ["--gates", "10", "--k", "1", "--seed", "1", "--hotspots", "3"]
        )
        assert rc == 0
        assert "noisiest nets" in capsys.readouterr().out

    def test_signoff_flag(self, capsys):
        rc = main(
            [
                "--gates", "10", "--k", "1", "--seed", "1",
                "--signoff-period", "5.0",
            ]
        )
        assert rc == 0
        assert "noise signoff" in capsys.readouterr().out
