"""Unit tests for EnvelopeSet algebra."""

import numpy as np
import pytest

from repro.core.aggressor_set import EnvelopeSet, SetError

from .reference import dedupe


def eset(ids, env=None, blocked=(), score=0.0):
    if env is None:
        env = np.zeros(8)
    return EnvelopeSet(
        couplings=frozenset(ids),
        env=np.asarray(env, dtype=float),
        blocked=frozenset(blocked),
        score=score,
    )


class TestCompatibility:
    def test_disjoint_compatible(self):
        assert eset({1}).compatible(eset({2}))

    def test_overlap_incompatible(self):
        assert not eset({1, 2}).compatible(eset({2, 3}))

    def test_blocked_incompatible_both_directions(self):
        a = eset({1}, blocked={5})
        b = eset({5})
        assert not a.compatible(b)
        assert not b.compatible(a)

    def test_blocked_against_blocked_ok(self):
        # Two sets blocking the same id may still merge with each other.
        a = eset({1}, blocked={9})
        b = eset({2}, blocked={9})
        assert a.compatible(b)


class TestMerge:
    def test_envelope_adds(self):
        a = eset({1}, env=[1.0] * 8)
        b = eset({2}, env=[0.5] * 8)
        m = a.merged(b)
        assert m.couplings == frozenset({1, 2})
        assert m.env == pytest.approx(np.full(8, 1.5))

    def test_blocked_unions(self):
        m = eset({1}, blocked={7}).merged(eset({2}, blocked={8}))
        assert m.blocked == frozenset({7, 8})

    def test_incompatible_merge_raises(self):
        with pytest.raises(SetError):
            eset({1}).merged(eset({1}))

    def test_grid_mismatch_raises(self):
        a = eset({1}, env=np.zeros(8))
        b = eset({2}, env=np.zeros(16))
        with pytest.raises(SetError):
            a.merged(b)

    def test_cardinality(self):
        assert eset({1, 2, 3}).cardinality == 3

    def test_labels_join(self):
        a = EnvelopeSet(frozenset({1}), np.zeros(4), label="x")
        b = EnvelopeSet(frozenset({2}), np.zeros(4), label="y")
        assert a.merged(b).label == "x+y"


class TestDedupe:
    def test_keeps_best_score_descending(self):
        a = eset({1, 2}, score=0.5)
        b = eset({1, 2}, score=0.9)
        out = dedupe([a, b], keep_best=True, by_score_desc=True)
        assert len(out) == 1 and out[0].score == 0.9

    def test_keeps_best_score_ascending(self):
        a = eset({1, 2}, score=0.5)
        b = eset({1, 2}, score=0.9)
        out = dedupe([a, b], keep_best=True, by_score_desc=False)
        assert out[0].score == 0.5

    def test_distinct_sets_kept(self):
        out = dedupe(
            [eset({1}), eset({2})], keep_best=True, by_score_desc=True
        )
        assert len(out) == 2

    def test_with_score(self):
        s = eset({1}).with_score(0.7)
        assert s.score == 0.7
