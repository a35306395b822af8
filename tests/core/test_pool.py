"""Candidate pools and the provenance prune log.

The engine holds one victim's candidates of one cardinality as arrays
and records prunes as provenance.  These tests pin what that must not
change: the dedupe rule and order, bit-identical rebuilt envelopes, the
prune log's sequence behaviour, and the memory a certified engine holds.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.generator import make_paper_benchmark
from repro.core.aggressor_set import EnvelopeSet
from repro.core.dominance import batch_delay_noise
from repro.core.engine import (
    ADDITION,
    ELIMINATION,
    SINK,
    PruneLog,
    PruneRecord,
    TopKConfig,
    TopKEngine,
    _dedupe_rows,
    _Merge,
    _rebuild,
)
from repro.verify import check_certificate

from .reference import dedupe

MODES = (ADDITION, ELIMINATION)

# Coupling sets of mixed cardinality (elimination's narrow atoms sit in
# the pool of cardinality i with only i - 1 couplings).
KEYS = st.sampled_from(
    [frozenset(s) for s in ({1}, {2}, {1, 2}, {2, 3}, {1, 2, 3}, {4, 5}, {3})]
)
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


class TestDedupe:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(KEYS, SCORES), max_size=40), maximize=st.booleans())
    def test_matches_the_reference(self, rows, maximize):
        cands = [
            EnvelopeSet(couplings=key, env=np.zeros(1), score=score)
            for key, score in rows
        ]
        want = dedupe(cands, keep_best=True, by_score_desc=maximize)
        got = _dedupe_rows(
            [key for key, _ in rows], np.array([s for _, s in rows]), maximize
        )
        assert got == [next(p for p, c in enumerate(cands) if c is w) for w in want]

    def test_first_seen_wins_ties_including_signed_zero(self):
        keys = [frozenset({1}), frozenset({2}), frozenset({1}), frozenset({2})]
        scores = np.array([-0.0, 0.5, 0.0, 0.5])
        assert _dedupe_rows(keys, scores, True) == [0, 1]
        assert _dedupe_rows(keys, scores, False) == [0, 1]

    def test_strictly_better_replaces_in_place(self):
        keys = [frozenset({1}), frozenset({2}), frozenset({1})]
        scores = np.array([0.1, 0.2, 0.3])
        # The winner takes the slot of its set's first appearance.
        assert _dedupe_rows(keys, scores, True) == [2, 1]
        assert _dedupe_rows(keys, scores, False) == [0, 1]


@pytest.fixture(scope="module", params=[(s, m) for s in ("i1", "i2") for m in MODES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def certified(request):
    shape, mode = request.param
    engine = TopKEngine(
        make_paper_benchmark(shape),
        mode,
        TopKConfig(certify=True, certify_witnesses=None),
    )
    engine.solve(3)
    return engine


class TestRebuiltEnvelopes:
    def test_every_prune_rescores_to_its_recorded_score(self, certified):
        assert len(certified.prune_log) > 0
        for rec in certified.prune_log:
            ctx = certified.contexts[rec.net]
            env = rec.dominated.env
            if certified.mode == ELIMINATION:
                env = np.clip(ctx.total_env - env, 0.0, None)
            score = batch_delay_noise(ctx.t50, ctx.slew, env[None, :], ctx.grid)[0]
            assert score == rec.dominated.score

    def test_merge_rows_are_atom_plus_base(self, certified):
        merges = 0
        for chunk in certified.prune_log._entries:
            items = chunk.items(range(len(chunk)))
            for (_, seg, r), env in zip(items, _rebuild(items)):
                if isinstance(seg, _Merge):
                    assert np.array_equal(env, seg.base.env + seg.atoms[r].env)
                    merges += 1
        assert merges > 0

    def test_full_witness_certificate_validates(self, certified):
        from repro.core.topk_addition import top_k_addition_set
        from repro.core.topk_elimination import top_k_elimination_set

        solver = (
            top_k_addition_set if certified.mode == ADDITION else top_k_elimination_set
        )
        result = solver(certified.design, 3, certified.config, engine=certified)
        cert = result.certificate
        assert cert.witness_coverage == {
            "recorded": len(certified.prune_log),
            "total": len(certified.prune_log),
        }
        assert check_certificate(cert, design=certified.design).ok


def _key(rec):
    return (
        rec.net,
        rec.cardinality,
        tuple(sorted(rec.dominated.couplings)),
        rec.dominated.score,
        tuple(sorted(rec.dominator.couplings)),
    )


class TestPruneLog:
    @pytest.fixture()
    def engine(self):
        engine = TopKEngine(
            make_paper_benchmark("i1"), ADDITION, TopKConfig(audit_dominance=True)
        )
        engine.solve(3)
        return engine

    def test_length_matches_the_dominated_count(self, engine):
        assert len(engine.prune_log) == engine.stats.dominated > 0

    def test_iteration_follows_prune_order(self, engine):
        log = engine.prune_log
        records = list(log)
        assert [_key(r) for r in records] == [_key(log[j]) for j in range(len(log))]
        assert _key(log[-1]) == _key(records[-1])
        # Sweep order: cardinality by cardinality, victims topologically,
        # and within one reduction the scan's best-score-first order.
        topo = {net: n for n, net in enumerate(list(engine.graph.topo_order) + [SINK])}
        order = [(r.cardinality, topo[r.net], -r.dominated.score) for r in records]
        assert order == sorted(order)
        assert sum(count for _, _, count in log.tally()) == len(log)

    def test_append_extend_pop_and_list_equality(self, engine):
        log = engine.prune_log
        size = len(log)
        last = _key(log[-1])
        assert _key(log.pop()) == last
        assert len(log) == size - 1
        rec = PruneRecord(
            "n", 1,
            EnvelopeSet(frozenset({1}), np.zeros(4)),
            EnvelopeSet(frozenset({2}), np.zeros(4)),
        )
        log.append(rec)
        log.extend([rec, rec])
        assert len(log) == size + 2
        assert log[-1] is rec and log.pop() is rec
        assert PruneLog() == [] and log != []
        log.clear()
        assert log == [] and len(log) == 0

    def test_records_and_log_pickle(self, engine):
        log = engine.prune_log
        shipped = pickle.loads(pickle.dumps(list(log)))
        assert [_key(r) for r in shipped] == [_key(r) for r in log]
        assert all(
            np.array_equal(a.dominated.env, b.dominated.env)
            for a, b in zip(shipped, log)
        )
        copy = pickle.loads(pickle.dumps(log))
        assert [_key(r) for r in copy] == [_key(r) for r in log]


def test_certified_engine_holds_no_pruned_envelopes():
    # A certified i2-shaped k=5 addition solve held ~88 MB of pruned
    # candidate blocks after solve when the log kept envelopes; the
    # provenance log leaves under 20 MB.
    design = make_paper_benchmark("i2")
    gc.collect()
    tracemalloc.start()
    try:
        engine = TopKEngine(design, ADDITION, TopKConfig(certify=True))
        engine.solve(5)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(engine.prune_log) > 10_000
    assert held < 40e6, f"engine holds {held / 1e6:.1f} MB after solve"
