"""Checkpoint/resume: the acceptance scenario and its failure modes.

The acceptance criterion: a deadline-limited ``analyze()`` on a paper
benchmark returns a ``degraded=True`` partial solution, and resuming
from its checkpoint to completion reproduces the delays of an
uninterrupted from-scratch run exactly.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.api import analyze
from repro.core.engine import ADDITION, TopKConfig, TopKEngine
from repro.runtime import (
    CheckpointError,
    FaultSpec,
    RunBudget,
    injected,
)
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint

# Enforced by pytest-timeout in CI; inert (registered marker) locally.
pytestmark = pytest.mark.timeout(120)


class TestAcceptance:
    def test_deadline_then_resume_reproduces_full_run(self, i1_design, tmp_path):
        ckpt = str(tmp_path / "i1.ckpt.json")

        # 1. Deadline-limited run: the injected deadline fires at the
        #    first budget tick of cardinality 2, so k=1 completes, a
        #    snapshot lands on disk, and the answer is a flagged partial.
        with injected(FaultSpec("deadline", target="@k2")):
            partial = analyze(
                i1_design, k=3, deadline_s=1e9, checkpoint_path=ckpt
            )
        assert partial.degraded
        assert partial.degradation.reason == "deadline"
        assert partial.degradation.completed_k == 1
        assert partial.degradation.partial
        assert os.path.exists(ckpt)
        assert load_checkpoint(ckpt)["solved_upto"] == 1

        # 2. Resume from the snapshot with no deadline: runs to completion.
        resumed = analyze(i1_design, k=3, checkpoint_path=ckpt)
        assert not resumed.degraded
        assert resumed.effective_k == 3

        # 3. The resumed run must be indistinguishable from a run that
        #    was never interrupted.
        scratch = analyze(i1_design, k=3)
        assert resumed.couplings == scratch.couplings
        assert resumed.delay == scratch.delay
        assert resumed.estimated_delay == scratch.estimated_delay
        assert resumed.stats.candidates == scratch.stats.candidates
        assert resumed.stats.dominated == scratch.stats.dominated

    def test_engine_reports_resume_provenance(self, tiny_design, tmp_path):
        ckpt = str(tmp_path / "tiny.ckpt.json")
        cfg = TopKConfig(budget=RunBudget(checkpoint_path=ckpt))
        TopKEngine(tiny_design, ADDITION, cfg).solve(2)

        engine = TopKEngine(tiny_design, ADDITION, cfg)
        assert engine.resumed_from == ckpt
        solution = engine.solve(3)
        assert not solution.degraded

        fresh = TopKEngine(tiny_design, ADDITION, TopKConfig()).solve(3)
        assert solution.best.couplings == fresh.best.couplings
        assert solution.best.score == fresh.best.score


class TestCheckpointValidation:
    def test_corrupt_json_is_structured(self, tiny_design, tmp_path):
        ckpt = tmp_path / "bad.json"
        ckpt.write_text("{ this is not json")
        cfg = TopKConfig(budget=RunBudget(checkpoint_path=str(ckpt)))
        with pytest.raises(CheckpointError) as exc:
            TopKEngine(tiny_design, ADDITION, cfg)
        assert exc.value.phase == "checkpoint-load"

    def test_missing_section_rejected(self, tiny_design, tmp_path):
        ckpt = tmp_path / "empty.json"
        ckpt.write_text(json.dumps({"version": 1}))
        cfg = TopKConfig(budget=RunBudget(checkpoint_path=str(ckpt)))
        with pytest.raises(CheckpointError, match="missing"):
            TopKEngine(tiny_design, ADDITION, cfg)

    def test_wrong_version_rejected(self, tiny_design, tmp_path):
        ckpt = tmp_path / "v99.json"
        ckpt.write_text(
            json.dumps(
                {"version": 99, "fingerprint": {}, "solved_upto": 0,
                 "stats": {}, "nets": {}}
            )
        )
        cfg = TopKConfig(budget=RunBudget(checkpoint_path=str(ckpt)))
        with pytest.raises(CheckpointError, match="version"):
            TopKEngine(tiny_design, ADDITION, cfg)

    def test_fingerprint_mismatch_design(self, tiny_design, small_design, tmp_path):
        ckpt = str(tmp_path / "tiny.json")
        cfg = TopKConfig(budget=RunBudget(checkpoint_path=ckpt))
        TopKEngine(tiny_design, ADDITION, cfg).solve(1)
        with pytest.raises(CheckpointError, match="does not match"):
            TopKEngine(small_design, ADDITION, cfg)

    def test_fingerprint_mismatch_config(self, tiny_design, tmp_path):
        ckpt = str(tmp_path / "tiny.json")
        TopKEngine(
            tiny_design,
            ADDITION,
            TopKConfig(budget=RunBudget(checkpoint_path=ckpt)),
        ).solve(1)
        other = TopKConfig(
            grid_points=128, budget=RunBudget(checkpoint_path=ckpt)
        )
        with pytest.raises(CheckpointError, match="grid_points"):
            TopKEngine(tiny_design, ADDITION, other)

    def test_budget_changes_do_not_invalidate(self, tiny_design, tmp_path):
        # The whole point of resuming: the new run may have a different
        # deadline/caps without orphaning the snapshot.
        ckpt = str(tmp_path / "tiny.json")
        TopKEngine(
            tiny_design,
            ADDITION,
            TopKConfig(budget=RunBudget(checkpoint_path=ckpt)),
        ).solve(1)
        relaxed = TopKConfig(
            budget=RunBudget(
                checkpoint_path=ckpt, deadline_s=1e9, max_candidates=10**9
            )
        )
        engine = TopKEngine(tiny_design, ADDITION, relaxed)
        assert engine.resumed_from == ckpt

    def test_interrupted_write_leaves_no_torn_file(self, tiny_design, tmp_path):
        # Snapshots go through tmp + os.replace: the final path either
        # holds the previous complete snapshot or the new complete one.
        ckpt = str(tmp_path / "tiny.json")
        cfg = TopKConfig(budget=RunBudget(checkpoint_path=ckpt))
        TopKEngine(tiny_design, ADDITION, cfg).solve(2)
        payload = load_checkpoint(ckpt)  # parses => not torn
        assert payload["solved_upto"] == 2
        assert not list(tmp_path.glob("*.tmp*"))

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        blocked = tmp_path / "blocked.json"
        blocked.mkdir()  # a directory in the way: os.replace must fail
        with pytest.raises(CheckpointError) as exc:
            save_checkpoint(str(blocked), {"fingerprint": {}})
        assert exc.value.phase == "checkpoint-save"
        assert not list(tmp_path.glob("*.tmp*"))

    def test_concurrent_writers_of_one_path(self, tiny_design, tmp_path):
        # Two service processes can both lead one store key and save its
        # shard at once: each writer has its own temp file, so every
        # save lands whole and none fails.
        ckpt = str(tmp_path / "shared.json")
        cfg = TopKConfig(budget=RunBudget(checkpoint_path=ckpt))
        TopKEngine(tiny_design, ADDITION, cfg).solve(2)
        payload = load_checkpoint(ckpt)
        errors = []
        barrier = threading.Barrier(2)

        def writer(tag):
            try:
                barrier.wait()
                for i in range(50):
                    save_checkpoint(ckpt, dict(payload, writer=tag, i=i))
            except Exception as exc:  # collected for the assert below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        final = load_checkpoint(ckpt)
        assert final["writer"] in ("a", "b") and final["i"] == 49
        assert not list(tmp_path.glob("*.tmp*"))
        assert TopKEngine(tiny_design, ADDITION, cfg).resumed_from == ckpt
