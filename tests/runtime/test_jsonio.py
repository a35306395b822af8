"""Raw float64 array records and the atomic writer (``repro.runtime.jsonio``).

Three contracts:

* the trimmed hex record round trip is bit-exact for every float64 bit
  pattern, and only ``+0.0`` samples are trimmed;
* documents in the older forms, untrimmed base64 records and decimal
  lists, still load bit-identically through every reader: certificates,
  checkpoints, memo snapshots and store results;
* a malformed record of any form ends in each reader's own typed error
  path.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.api import analyze
from repro.circuit.generator import random_design
from repro.core.engine import ADDITION, ELIMINATION, TopKConfig, TopKEngine
from repro.perf.memo import EnvelopeMemo, MemoSnapshot
from repro.runtime import CertificateError, CheckpointError, RunBudget
from repro.runtime.checkpoint import envelope_set_from_json
from repro.runtime.jsonio import (
    ARRAY_TAG,
    HEX_TAG,
    MAX_RECORD_POINTS,
    array_from_json,
    array_to_json,
    atomic_write,
)
from repro.service.serialize import RESULT_FORMAT_VERSION, result_to_json, results_equal
from repro.service.store import PAYLOAD_SPLICE, ResultStore, StoreCorruptError
from repro.verify import Certificate, check_certificate

#: Arrays of every float64 bit pattern: NaN payloads, both zeros,
#: infinities and subnormals included.
F8_BITS = hnp.arrays(np.uint64, st.integers(0, 48), elements=st.integers(0, 2**64 - 1))
F4_BITS = hnp.arrays(np.uint32, st.integers(0, 48), elements=st.integers(0, 2**32 - 1))

NEG_ZERO = 0x8000000000000000

#: Runs of both zeros, for the ends of an array.
ZERO_RUNS = st.lists(st.sampled_from([0, NEG_ZERO]), max_size=6)

SPECIAL_BITS = np.array(
    [
        NEG_ZERO,  # -0.0
        0x7FF8000000000001,  # quiet NaN with a payload
        0xFFF4000000000000,  # negative signaling NaN
        0x7FF0000000000000,  # +inf
        0xFFF0000000000000,  # -inf
        0x0000000000000001,  # smallest subnormal
        0x800FFFFFFFFFFFFF,  # largest negative subnormal
    ],
    dtype=np.uint64,
)


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _hex(*values):
    return np.array(values, dtype="<f8").tobytes().hex()


def _through_json(doc):
    return json.loads(json.dumps(doc))


def _records(node):
    """Every array record in ``node``, of either tagged form."""
    if isinstance(node, dict):
        if HEX_TAG in node or ARRAY_TAG in node:
            return [node]
        return [r for value in node.values() for r in _records(value)]
    if isinstance(node, list):
        return [r for value in node for r in _records(value)]
    return []


def _rewritten(doc, convert):
    """``doc`` with every array record replaced by ``convert(array)``."""

    def walk(node):
        if isinstance(node, dict):
            if HEX_TAG in node or ARRAY_TAG in node:
                return convert(array_from_json(node))
            return {key: walk(value) for key, value in node.items()}
        if isinstance(node, list):
            return [walk(value) for value in node]
        return node

    assert _records(doc), "nothing to rewrite"
    return _through_json(walk(doc))


def _legacy(doc):
    """``doc`` as the decimal-list writer wrote it: every array record a float list."""
    out = _rewritten(doc, lambda arr: [float(v) for v in arr])
    assert not _records(out)
    return out


def _base64_form(doc):
    """``doc`` as the untrimmed base64 writer wrote it: every array record
    ``{"$f8": <base64 of the whole array's little-endian float64 bytes>}``."""
    out = _rewritten(
        doc,
        lambda arr: {ARRAY_TAG: base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")},
    )
    assert all(set(record) == {ARRAY_TAG} for record in _records(out))
    return out


def _canonical_digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def cert_design():
    return random_design("cert", n_gates=16, target_caps=24, seed=11)


@pytest.fixture(scope="module")
def certified(cert_design):
    """An elimination solve: its certificate has witness envs and total_env."""
    result = analyze(cert_design, 2, mode=ELIMINATION, certify=True)
    contexts = result.certificate.to_json()["witness_context"].values()
    assert any(ctx["total_env"] is not None for ctx in contexts)
    return result


@pytest.fixture(scope="module")
def snapshot(tiny_design):
    memo = EnvelopeMemo()
    analyze(tiny_design, 2, memo=memo)
    snap = memo.freeze()
    assert snap.entries["primary_env"]
    return snap


def _checkpoint(design, path):
    cfg = TopKConfig(budget=RunBudget(checkpoint_path=path))
    TopKEngine(design, ADDITION, cfg).solve(2)
    with open(path, encoding="utf-8") as fh:
        return cfg, json.load(fh)


def _env_records(checkpoint):
    return [
        record
        for entry in checkpoint["nets"].values()
        for records in entry["ilists"].values()
        for record in records
    ]


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(F8_BITS)
    def test_every_float64_bit_pattern(self, bits):
        back = array_from_json(_through_json(array_to_json(bits.view(np.float64))))
        assert back.dtype == np.float64 and back.ndim == 1
        np.testing.assert_array_equal(back.view(np.uint64), bits)

    @settings(deadline=None)
    @given(F8_BITS, st.integers(2, 4))
    def test_non_contiguous_input(self, bits, step):
        values = bits.view(np.float64)[::step]
        back = array_from_json(array_to_json(values))
        np.testing.assert_array_equal(back.view(np.uint64), _bits(values))

    @settings(deadline=None)
    @given(F4_BITS)
    def test_float32_input_widens_exactly(self, bits):
        values = bits.view(np.float32)
        back = array_from_json(array_to_json(values))
        np.testing.assert_array_equal(
            back.view(np.uint64), values.astype(np.float64).view(np.uint64)
        )

    @settings(deadline=None)
    @given(ZERO_RUNS, F8_BITS, ZERO_RUNS)
    def test_zero_runs_at_both_ends(self, head, body, tail):
        bits = np.concatenate(
            [np.array(head, dtype=np.uint64), body, np.array(tail, dtype=np.uint64)]
        )
        record = _through_json(array_to_json(bits.view(np.float64)))
        np.testing.assert_array_equal(array_from_json(record).view(np.uint64), bits)
        # Trimmed exactly to the first and last sample whose bits are not
        # all zero: -0.0 at an end is kept.
        kept = np.flatnonzero(bits)
        lo, hi = (int(kept[0]), int(kept[-1]) + 1) if kept.size else (0, 0)
        assert record == {
            HEX_TAG: bits[lo:hi].astype("<u8").tobytes().hex(),
            "at": lo,
            "n": bits.size,
        }

    @settings(deadline=None)
    @given(F8_BITS)
    def test_base64_record_still_decodes(self, bits):
        record = {ARRAY_TAG: base64.b64encode(bits.astype("<u8").tobytes()).decode("ascii")}
        back = array_from_json(_through_json(record))
        assert back.dtype == np.float64 and back.flags.writeable
        np.testing.assert_array_equal(back.view(np.uint64), bits)

    def test_special_values(self):
        record = array_to_json(SPECIAL_BITS.view(np.float64))
        np.testing.assert_array_equal(_bits(array_from_json(record)), SPECIAL_BITS)

    def test_empty_array(self):
        assert array_to_json(np.array([])) == {HEX_TAG: "", "at": 0, "n": 0}
        assert array_from_json({ARRAY_TAG: ""}).shape == (0,)
        assert array_from_json({HEX_TAG: "", "at": 0, "n": 0}).shape == (0,)

    def test_all_positive_zero_array(self):
        record = array_to_json(np.zeros(5))
        assert record == {HEX_TAG: "", "at": 0, "n": 5}
        np.testing.assert_array_equal(_bits(array_from_json(record)), np.zeros(5, np.uint64))

    def test_all_negative_zero_array_is_kept(self):
        values = np.full(5, -0.0)
        record = array_to_json(values)
        assert record == {HEX_TAG: _hex(*values), "at": 0, "n": 5}
        np.testing.assert_array_equal(_bits(array_from_json(record)), _bits(values))

    def test_nan_payload_next_to_the_trimmed_region(self):
        bits = np.array(
            [0, 0, 0x7FF8000000000001, 0x3FF0000000000000, 0xFFF4000000000000, 0, 0],
            dtype=np.uint64,
        )
        record = _through_json(array_to_json(bits.view(np.float64)))
        assert (record["at"], len(record[HEX_TAG]) // 16, record["n"]) == (2, 3, 7)
        np.testing.assert_array_equal(_bits(array_from_json(record)), bits)

    def test_writer_refuses_what_no_reader_accepts(self):
        with pytest.raises(ValueError):
            array_to_json(np.ones(MAX_RECORD_POINTS + 1))

    def test_strided_column_of_a_matrix(self):
        matrix = np.arange(12.0).reshape(3, 4)
        back = array_from_json(array_to_json(matrix[:, 1]))
        np.testing.assert_array_equal(back, [1.0, 5.0, 9.0])

    def test_decoded_array_is_writable(self):
        back = array_from_json(array_to_json([1.0, 2.0]))
        back[0] = 3.0  # raises on a read-only view of the decoded bytes
        np.testing.assert_array_equal(back, [3.0, 2.0])
        trimmed = array_from_json(array_to_json([0.0, 2.0, 0.0]))
        trimmed[0] = 3.0
        np.testing.assert_array_equal(trimmed, [3.0, 2.0, 0.0])

    def test_decimal_list_still_decodes(self):
        values = [1.5, -0.0, 5e-324, 1e300]
        np.testing.assert_array_equal(_bits(array_from_json(values)), _bits(values))


class TestLegacyDecimalLists:
    """Documents written before the tagged records load bit-identically."""

    older = staticmethod(_legacy)

    @staticmethod
    def is_older(record):
        return isinstance(record, list)

    @staticmethod
    def write_entry(path, payload):
        """A store entry as that writer laid it out: one ``json.dump``."""
        _write_json(
            path,
            {
                "version": RESULT_FORMAT_VERSION,
                "key": "legacy",
                "design": {"name": "cert"},
                "payload_sha256": _canonical_digest(payload),
                "result": payload,
            },
        )

    def test_certificate(self, certified, cert_design):
        doc = certified.certificate.to_json()
        back = Certificate.from_json(self.older(doc))
        assert back.to_json() == doc
        assert check_certificate(back, design=cert_design).ok

    def test_checkpoint(self, tiny_design, tmp_path):
        path = str(tmp_path / "legacy.json")
        cfg, doc = _checkpoint(tiny_design, path)
        legacy = self.older(doc)
        records = _env_records(doc)
        assert records
        for new, old in zip(records, _env_records(legacy)):
            assert self.is_older(old["env"])
            np.testing.assert_array_equal(
                _bits(envelope_set_from_json(old).env),
                _bits(envelope_set_from_json(new).env),
            )
        _write_json(path, legacy)
        engine = TopKEngine(tiny_design, ADDITION, cfg)
        assert engine.resumed_from == path
        solution = engine.solve(3)
        fresh = TopKEngine(tiny_design, ADDITION, TopKConfig()).solve(3)
        assert solution.best.couplings == fresh.best.couplings
        assert solution.best.score == fresh.best.score

    def test_memo_snapshot(self, snapshot):
        doc = snapshot.to_json()
        assert MemoSnapshot.from_json(self.older(doc)).to_json() == doc

    def test_store_result(self, certified, cert_design, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        self.write_entry(store.result_path("legacy"), self.older(result_to_json(certified)))
        back = store.get_result("legacy")
        assert back is not None
        assert store.stats().hits == 1 and store.stats().corrupt == 0
        assert results_equal(back, certified)
        assert back.certificate.to_json() == certified.certificate.to_json()

    def test_store_memo(self, snapshot, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        _write_json(store.memo_path("legacy"), self.older(snapshot.to_json()))
        back = store.get_memo("legacy")
        assert back is not None
        assert back.to_json() == snapshot.to_json()


class TestBase64Records(TestLegacyDecimalLists):
    """Documents the untrimmed base64 writer wrote load bit-identically."""

    older = staticmethod(_base64_form)

    @staticmethod
    def is_older(record):
        return set(record) == {ARRAY_TAG}

    @staticmethod
    def write_entry(path, payload):
        """A store entry as that writer's ``put_result`` laid it out: the
        canonical payload text spliced after the header."""
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        header = json.dumps({
            "version": RESULT_FORMAT_VERSION,
            "key": "legacy",
            "design": {"name": "cert"},
            "payload_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        })
        atomic_write(path, f"{header[:-1]}{PAYLOAD_SPLICE}{text}}}")


ONE = _hex(1.0)

BAD_RECORDS = {
    "bad-base64": {ARRAY_TAG: "not*base64"},
    "ragged-bytes": {ARRAY_TAG: base64.b64encode(bytes(12)).decode("ascii")},
    "extra-key": {ARRAY_TAG: "", "shape": [0]},
    "non-string": {ARRAY_TAG: 1234},
    "hex-bad-digit": {HEX_TAG: ONE[:-1] + "g", "at": 0, "n": 1},
    "hex-whitespace": {HEX_TAG: "00 " * 16, "at": 0, "n": 3},
    "hex-ragged": {HEX_TAG: ONE + "00" * 4, "at": 0, "n": 2},
    "hex-non-string": {HEX_TAG: 1234, "at": 0, "n": 4},
    "hex-extra-key": {HEX_TAG: ONE, "at": 0, "n": 1, "shape": [1]},
    "hex-missing-key": {HEX_TAG: ONE, "at": 0, "len": 1},
    "at-float": {HEX_TAG: ONE, "at": 0.0, "n": 1},
    "at-bool": {HEX_TAG: ONE, "at": False, "n": 1},
    "at-string": {HEX_TAG: ONE, "at": "0", "n": 1},
    "n-float": {HEX_TAG: ONE, "at": 0, "n": 1.0},
    "n-bool": {HEX_TAG: ONE, "at": 0, "n": True},
    "n-string": {HEX_TAG: ONE, "at": 0, "n": "1"},
    # numpy would read at=-2 as "two from the end" and fill index 0.
    "at-negative": {HEX_TAG: ONE, "at": -2, "n": 2},
    "past-n": {HEX_TAG: ONE + ONE, "at": 1, "n": 2},
    "n-over-cap": {HEX_TAG: ONE, "at": 0, "n": MAX_RECORD_POINTS + 1},
}
bad_records = pytest.mark.parametrize(
    "record", list(BAD_RECORDS.values()), ids=list(BAD_RECORDS)
)


class TestMalformedRecords:
    @bad_records
    def test_decoder(self, record):
        with pytest.raises((ValueError, TypeError)):
            array_from_json(record)

    @bad_records
    def test_checkpoint_load(self, record, tiny_design, tmp_path):
        path = str(tmp_path / "bad.json")
        cfg, doc = _checkpoint(tiny_design, path)
        _env_records(doc)[0]["env"] = record
        _write_json(path, doc)
        with pytest.raises(CheckpointError) as exc:
            TopKEngine(tiny_design, ADDITION, cfg)
        assert exc.value.phase == "checkpoint-load"

    @bad_records
    def test_certificate_load(self, record, certified):
        doc = certified.certificate.to_json()
        doc["witnesses"][0]["dominator"]["env"] = record
        with pytest.raises(CertificateError):
            Certificate.from_json(doc)

    @bad_records
    def test_store_result_is_quarantined(self, record, certified, cert_design, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put_result("bad", certified, cert_design)
        path = store.result_path("bad")
        with open(path, encoding="utf-8") as fh:
            envelope = json.load(fh)
        envelope["result"]["certificate"]["witnesses"][0]["dominator"]["env"] = record
        # The digest matches the damaged payload: decoding must catch it.
        envelope["payload_sha256"] = _canonical_digest(envelope["result"])
        _write_json(path, envelope)
        with pytest.raises(StoreCorruptError):
            store.get_result("bad")
        assert os.path.exists(path + ".corrupt")
        assert not os.path.exists(path)
        assert store.stats().corrupt == 1

    @bad_records
    def test_store_memo_is_a_quarantined_miss(self, record, snapshot, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        doc = snapshot.to_json()
        doc["caches"]["primary_env"][0][1] = record
        path = store.memo_path("bad")
        _write_json(path, doc)
        assert store.get_memo("bad") is None
        assert os.path.exists(path + ".corrupt")


class TestAtomicWrite:
    def test_replaces_the_whole_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write(path, '{"n": 1}')
        atomic_write(path, '{"n": 2}')
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == {"n": 2}
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_failure_removes_the_temp_file(self, tmp_path):
        blocked = tmp_path / "blocked.json"
        blocked.mkdir()  # a directory in the way: os.replace must fail
        with pytest.raises(OSError):
            atomic_write(str(blocked), "{}")
        assert os.listdir(tmp_path) == ["blocked.json"]
