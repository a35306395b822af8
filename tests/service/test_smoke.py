"""``repro-serve smoke``: the end-to-end run CI's service job makes."""

from __future__ import annotations

from repro.api import analyze
from repro.service.cli import main
from repro.service.protocol import JobSpec
from repro.service.store import ResultStore

SMOKE = ["smoke", "--benchmarks", "i1", "--k", "1", "--certify"]


def test_a_clean_run_passes(capsys):
    assert main(SMOKE + ["--repeat", "2"]) == 0
    out = capsys.readouterr()
    assert "repro-serve smoke: PASS" in out.out
    assert out.err == ""


def test_a_rejected_certificate_fails_the_run_and_names_the_job(tmp_path, capsys):
    """A stored certificate the checker rejects is served as a hit; the
    smoke checks it and fails."""
    spec = JobSpec(benchmark="i1", k=1, certify=True)
    design = spec.build_design()
    result = analyze(design, spec.k, mode=spec.mode, config=spec.solver_config())
    witness = result.certificate.witnesses[0]
    witness.dominator.env = witness.dominator.env * 0.5  # dominates no more
    root = str(tmp_path / "store")
    ResultStore(root).put_result(spec.store_key(design), result, design)
    assert main(SMOKE + ["--repeat", "1", "--store", root]) == 1
    out = capsys.readouterr()
    assert "store_hit=True" in out.out
    assert "FAIL: i1#0 (job-000001): certificate rejected" in out.err
    assert "repro-serve smoke: FAIL" in out.out
