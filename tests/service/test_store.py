"""The persistent store: round trips, corruption, memo merging."""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import analyze
from repro.noise.pulse import NoisePulse
from repro.perf.memo import EnvelopeMemo, MemoSnapshot, readonly
from repro.service import AnalysisService
from repro.service import store as store_module
from repro.service.client import ServiceClient
from repro.service.protocol import JobSpec
from repro.service.serialize import result_from_json, result_to_json, results_equal
from repro.service.store import PAYLOAD_SPLICE, ResultStore, StoreCorruptError
from repro.verify.certificate import Certificate

from .conftest import canonical_text, run_async, write_spliced
from .test_serialize import _json_values, _paths, _replaced

#: A store entry written by ``put_result`` before hits hashed the bytes
#: on disk (the ``JobSpec(gates=12, seed=3, k=2)`` solve, uncertified).
V1_ENTRY = os.path.join(os.path.dirname(__file__), "data", "v1-result-entry.json")


@pytest.fixture()
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


@pytest.fixture(scope="module")
def certified_tiny(tiny_design):
    return analyze(tiny_design, 2, certify=True)


def _solved(design, k=2, **kwargs):
    return analyze(design, k, **kwargs)


def _write_dumped(path, payload):
    """Write ``payload`` in an envelope laid out by ``json.dump``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "result": payload,
                "payload_sha256": hashlib.sha256(
                    canonical_text(payload).encode("utf-8")
                ).hexdigest(),
            },
            fh,
            indent=1,
        )


def _payload_of(result):
    return json.loads(json.dumps(result_to_json(result)))


def _set(payload, dotted, value):
    *parents, leaf = dotted.split(".")
    node = payload
    for name in parents:
        node = node[name]
    node[leaf] = value
    return payload


class TestResultRoundTrip:
    def test_put_get_bit_exact(self, store, tiny_design):
        spec = JobSpec(gates=12, seed=3, k=2)
        key = spec.store_key(tiny_design)
        result = _solved(tiny_design)
        assert store.get_result(key) is None  # cold
        store.put_result(key, result, tiny_design)
        back = store.get_result(key)
        assert back is not None
        assert results_equal(result, back)
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)

    def test_same_question_same_key_different_question_different_key(
        self, store, tiny_design
    ):
        a = JobSpec(gates=12, seed=3, k=2)
        b = JobSpec(gates=12, seed=3, k=2, deadline_s=1.0, priority=5)
        c = JobSpec(gates=12, seed=3, k=3)
        # budget and priority are execution detail, not identity
        assert a.store_key(tiny_design) == b.store_key(tiny_design)
        assert a.store_key(tiny_design) != c.store_key(tiny_design)
        # memo sharing ignores k entirely
        assert a.design_key(tiny_design) == c.design_key(tiny_design)

    def test_design_source_is_part_of_the_identity(self, tiny_design):
        """Same shape, different content (seed) must never share keys."""
        a = JobSpec(gates=12, seed=3, k=2)
        b = JobSpec(gates=12, seed=4, k=2)
        da, db = a.build_design(), b.build_design()
        assert a.store_key(da) != b.store_key(db)
        assert a.design_key(da) != b.design_key(db)


class TestCorruption:
    def test_truncated_entry_quarantined(self, store, tiny_design):
        spec = JobSpec(gates=12, seed=3, k=1)
        key = spec.store_key(tiny_design)
        store.put_result(key, _solved(tiny_design, 1), tiny_design)
        path = store.result_path(key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"version": 1, "result":')  # torn write at rest
        with pytest.raises(StoreCorruptError):
            store.get_result(key)
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert store.stats().corrupt == 1
        # the key is repopulatable after quarantine
        store.put_result(key, _solved(tiny_design, 1), tiny_design)
        assert store.get_result(key) is not None

    def test_digest_mismatch_detected(self, store, tiny_design):
        spec = JobSpec(gates=12, seed=3, k=1)
        key = spec.store_key(tiny_design)
        store.put_result(key, _solved(tiny_design, 1), tiny_design)
        path = store.result_path(key)
        with open(path, encoding="utf-8") as fh:
            envelope = json.load(fh)
        envelope["result"]["delay"] = 123.456  # bit-flip the answer
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(envelope, fh)
        with pytest.raises(StoreCorruptError):
            store.get_result(key)
        assert store.stats().corrupt == 1

    @pytest.mark.parametrize("where", ["header", "payload"])
    def test_non_utf8_byte_is_quarantined(self, store, tiny_design, where):
        key = "nonutf8"
        store.put_result(key, _solved(tiny_design, 1), tiny_design)
        path = store.result_path(key)
        with open(path, "rb") as fh:
            data = fh.read()
        cut = data.index(PAYLOAD_SPLICE.encode("ascii"))
        at = cut // 2 if where == "header" else cut + len(PAYLOAD_SPLICE) + 10
        with open(path, "wb") as fh:
            fh.write(data[:at] + b"\xff" + data[at:])
        with pytest.raises(StoreCorruptError):
            store.get_result(key)
        assert os.path.exists(path + ".corrupt")
        assert not os.path.exists(path)
        assert store.stats().corrupt == 1

    @pytest.mark.parametrize("value", [7, [1, 2]], ids=["number", "list"])
    @pytest.mark.parametrize(
        "section",
        ["stats", "certificate.victims", "certificate.interval_domain"],
    )
    def test_wrongly_typed_section_with_a_valid_digest_is_quarantined(
        self, store, certified_tiny, section, value
    ):
        path = store.result_path("typed")
        write_spliced(path, _set(_payload_of(certified_tiny), section, value))
        with pytest.raises(StoreCorruptError, match="malformed"):
            store.get_result("typed")
        assert os.path.exists(path + ".corrupt")
        assert store.stats().corrupt == 1

    def test_wrongly_typed_memo_is_a_quarantined_miss(self, store):
        path = store.memo_path("d1")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([1, 2], fh)
        assert store.get_memo("d1") is None
        assert os.path.exists(path + ".corrupt")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([1, 2], fh)
        snap = _memo_with([(("a", 1, 0.5), NoisePulse(0.1, 0.2, 0.3, 0.0))]).freeze()
        store.put_memo("d1", snap)  # overwrites the damaged snapshot
        back = store.get_memo("d1")
        assert back is not None and back.to_json() == snap.to_json()

    def test_damaged_memo_is_a_miss_not_a_failure(self, store):
        path = store.memo_path("deadbeef")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json at all")
        assert store.get_memo("deadbeef") is None
        assert os.path.exists(path + ".corrupt")


class TestHitCheck:
    """A hit hashes the payload bytes on disk; only an envelope laid out
    by another writer is re-encoded canonically to be checked."""

    def test_put_result_entry_is_checked_without_a_re_encode(
        self, store, certified_tiny, tiny_design, monkeypatch
    ):
        store.put_result("k", certified_tiny, tiny_design)

        def refuse(payload):
            raise AssertionError("a put_result entry was re-encoded")

        monkeypatch.setattr(store_module, "_canonical", refuse)
        back = store.get_result("k")
        assert back is not None and results_equal(back, certified_tiny)
        assert store.stats().hits == 1

    def test_json_dump_entry_is_checked_by_a_re_encode(
        self, store, certified_tiny, monkeypatch
    ):
        _write_dumped(store.result_path("k"), _payload_of(certified_tiny))
        calls = []
        real = store_module._canonical

        def spy(payload):
            calls.append(1)
            return real(payload)

        monkeypatch.setattr(store_module, "_canonical", spy)
        back = store.get_result("k")
        assert back is not None and results_equal(back, certified_tiny)
        assert calls == [1]

    def test_json_dump_entry_with_a_wrong_digest_is_quarantined(
        self, store, certified_tiny
    ):
        payload = _payload_of(certified_tiny)
        path = store.result_path("k")
        _write_dumped(path, payload)
        with open(path, encoding="utf-8") as fh:
            envelope = json.load(fh)
        envelope["result"]["delay"] = 1.5  # the digest is the old one
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(envelope, fh)
        with pytest.raises(StoreCorruptError, match="digest"):
            store.get_result("k")

    def test_entry_written_before_the_byte_check_is_a_hit(self, store):
        """The layout, the keys and the bytes put_result writes are pinned
        by an entry the earlier writer produced."""
        with open(V1_ENTRY, "rb") as fh:
            stored = fh.read()
        spec = JobSpec(gates=12, seed=3, k=2)
        design = spec.build_design()
        key = spec.store_key(design)
        assert json.loads(stored)["key"] == key
        shutil.copyfile(V1_ENTRY, store.result_path(key))
        back = store.get_result(key)
        assert back is not None
        assert store.stats().hits == 1
        fresh = analyze(design, spec.k, mode=spec.mode, config=spec.solver_config())
        assert results_equal(back, fresh)
        # the decoded result re-encodes to the stored payload bytes, and
        # put_result writes the stored file byte for byte
        cut = stored.index(PAYLOAD_SPLICE.encode("ascii")) + len(PAYLOAD_SPLICE)
        assert canonical_text(result_to_json(back)).encode("utf-8") == stored[cut:-1]
        store.put_result(key, back, design)
        with open(store.result_path(key), "rb") as fh:
            assert fh.read() == stored


@pytest.fixture(scope="module")
def written_entries(tiny_design, certified_tiny, tmp_path_factory):
    """The bytes put_result writes for a plain and a certified result."""
    root = str(tmp_path_factory.mktemp("entries"))
    store = ResultStore(root)
    results = {"plain": _solved(tiny_design, 2), "certified": certified_tiny}
    entries = {}
    for name, result in results.items():
        store.put_result(name, result, tiny_design)
        with open(store.result_path(name), "rb") as fh:
            entries[name] = (fh.read(), result)
    return entries


_damage = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(
        st.just("flip"), st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)
    ),
    st.tuples(
        st.just("insert"),
        st.floats(0.0, 1.0),
        st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xfe\xfe"]),
    ),
)


def _damaged(data, damage):
    kind, where, *rest = damage
    at = int(where * len(data))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ rest[0]]) + data[at + 1:]
    return data[:at] + rest[0] + data[at:]


class TestDamageFuzz:
    @settings(deadline=None)
    @given(st.sampled_from(["plain", "certified"]), _damage)
    def test_damaged_entry_is_the_original_or_quarantined(
        self, written_entries, entry, damage
    ):
        data, original = written_entries[entry]
        with tempfile.TemporaryDirectory() as root:
            store = ResultStore(root)
            path = store.result_path("k")
            with open(path, "wb") as fh:
                fh.write(_damaged(data, damage))
            try:
                back = store.get_result("k")
            except StoreCorruptError:
                assert not os.path.exists(path)
                assert os.path.exists(path + ".corrupt")
                assert store.stats().corrupt == 1
            else:
                assert back is not None and results_equal(back, original)


def _refuse_decodes(monkeypatch):
    """Make every parse and decode of a stored payload fail."""

    def refuse(*args):
        raise AssertionError("a stored payload was parsed or decoded")

    monkeypatch.setattr(store_module, "_parse", refuse)
    monkeypatch.setattr(store_module, "result_from_json", refuse)
    monkeypatch.setattr(Certificate, "from_json", classmethod(refuse))


def _count_decodes(monkeypatch):
    """Spy on the store's payload decode; returns the list of its calls."""
    real = store_module.result_from_json
    calls = []

    def spy(payload):
        calls.append(1)
        return real(payload)

    monkeypatch.setattr(store_module, "result_from_json", spy)
    return calls


def _stored_payload_bytes(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return data[data.index(PAYLOAD_SPLICE.encode("ascii")) + len(PAYLOAD_SPLICE):-1]


class TestDecodedOnce:
    """A store decodes each payload once: a hit on bytes that hash to a
    payload it decoded before parses nothing, and every hit still
    hashes the bytes on disk."""

    def test_a_hit_on_an_entry_the_store_wrote_parses_nothing(
        self, store, certified_tiny, tiny_design, monkeypatch
    ):
        store.put_result("k", certified_tiny, tiny_design)
        _refuse_decodes(monkeypatch)
        back = store.get_result("k")
        assert back is not None and store.stats().hits == 1
        assert results_equal(back, certified_tiny)
        assert isinstance(back.certificate, Certificate)
        payload_text = canonical_text(result_to_json(back)).encode("utf-8")
        assert payload_text == _stored_payload_bytes(store.result_path("k"))
        assert store.get_result("k") is back

    def test_a_service_hit_parses_nothing(self, tmp_path, monkeypatch):
        spec = JobSpec(gates=12, seed=3, k=2, certify=True)

        async def run():
            service = AnalysisService(str(tmp_path / "store"), max_workers=1)
            await service.start()
            try:
                client = ServiceClient(service)
                cold = await client.run(spec)
                _refuse_decodes(monkeypatch)
                view = await client.submit(spec)
                final = await client.wait(view.job_id)
                return cold, final, await client.result(view.job_id)
            finally:
                await service.close()

        cold, final, hit = run_async(run())
        assert final.store_hit and hit is not None
        assert results_equal(hit, cold)

    def test_an_entry_another_store_wrote_is_decoded_on_its_first_hit_only(
        self, tmp_path, certified_tiny, tiny_design, monkeypatch
    ):
        root = str(tmp_path / "store")
        ResultStore(root).put_result("k", certified_tiny, tiny_design)
        reader = ResultStore(root)
        calls = _count_decodes(monkeypatch)
        first = reader.get_result("k")
        assert reader.get_result("k") is first
        assert calls == [1] and reader.stats().hits == 2
        assert results_equal(first, certified_tiny)

    def test_an_entry_rewritten_by_another_store_is_decoded_again(
        self, tmp_path, certified_tiny, tiny_design, monkeypatch
    ):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        store.put_result("k", certified_tiny, tiny_design)
        other = _solved(tiny_design, 1)
        ResultStore(root).put_result("k", other, tiny_design)
        calls = _count_decodes(monkeypatch)
        back = store.get_result("k")
        assert calls == [1] and results_equal(back, other)

    @pytest.mark.parametrize("damage", ["flip", "truncate", "record", "field"])
    def test_damage_to_an_entry_the_store_decoded_is_caught_on_read(
        self, store, certified_tiny, tiny_design, damage
    ):
        store.put_result("k", certified_tiny, tiny_design)
        path = store.result_path("k")
        with open(path, "rb") as fh:
            data = fh.read()
        payload = _payload_of(certified_tiny)
        witness = payload["certificate"]["witnesses"][0]
        if damage == "flip":
            at = len(data) - 20
            with open(path, "wb") as fh:
                fh.write(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])
        elif damage == "truncate":
            with open(path, "wb") as fh:
                fh.write(data[: len(data) // 2])
        elif damage == "record":  # written with a valid digest
            witness["dominator"]["env"]["$x8"] += "0"  # not whole samples
            write_spliced(path, payload)
        else:
            witness["seq"] = [witness["seq"]]
            write_spliced(path, payload)
        with pytest.raises(StoreCorruptError) as err:
            store.get_result("k")
        assert err.value.context["key"] == "k"
        assert os.path.exists(path + ".corrupt") and not os.path.exists(path)
        assert store.stats().corrupt == 1

    def test_kept_results_are_dropped_least_recently_used_first(self):
        kept = store_module._DecodedResults(max_chars=10)
        a, b, c, d = object(), object(), object(), object()
        kept.put("a", a, 6)
        kept.put("b", b, 4)
        assert kept.get("a") is a  # now the most recently used
        kept.put("c", c, 3)  # 13 characters: "b" goes
        assert kept.get("b") is None
        assert kept.get("a") is a and kept.get("c") is c
        kept.put("d", d, 11)  # never fits, and drops nothing
        assert kept.get("d") is None and kept.get("a") is a
        kept.put("a", b, 7)  # replaced: 7 + 3 characters fit
        assert kept.get("a") is b and kept.get("c") is c

    def test_kept_results_stay_within_budget_under_threads(self):
        """Threads putting and getting at once lose no update to the
        character count: it stays the sum of what is kept, and within
        the budget."""
        kept = store_module._DecodedResults(max_chars=40)
        wrong = []

        def churn(seed):
            rng = random.Random(seed)
            try:
                for _ in range(20000):
                    digest = str(rng.randrange(8))
                    if rng.random() < 0.5:
                        kept.put(digest, digest, rng.randrange(1, 30))
                    elif kept.get(digest) not in (None, digest):
                        wrong.append(digest)
            except Exception as exc:  # a race surfaces here, not in the test
                wrong.append(exc)

        previous = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads) and wrong == []
        held = sum(chars for _, chars in kept._entries.values())
        assert kept._chars == held <= 40

    def test_the_store_keeps_no_more_than_its_budget(
        self, tmp_path, certified_tiny, tiny_design, monkeypatch
    ):
        chars = len(canonical_text(result_to_json(certified_tiny)))
        monkeypatch.setattr(store_module, "DECODED_RESULT_CHARS", chars)
        store = ResultStore(str(tmp_path / "store"))
        store.put_result("a", certified_tiny, tiny_design)
        store.put_result("b", _solved(tiny_design, 1), tiny_design)
        calls = _count_decodes(monkeypatch)
        store.get_result("b")
        store.get_result("a")
        assert calls == [1]  # "a" was dropped when "b" was written
        store.get_result("a")
        assert calls == [1]


@pytest.fixture(scope="module")
def certified_text(certified_tiny):
    return json.dumps(result_to_json(certified_tiny))


class TestDecodedOnceFuzz:
    @settings(deadline=None)
    @given(data=st.data(), value=_json_values)
    def test_any_value_at_any_certificate_path_of_a_decoded_entry(
        self, certified_tiny, tiny_design, certified_text, data, value
    ):
        """A store that decoded an entry reads a rewrite of it (any JSON
        value at any certificate path, under a valid digest) as a
        quarantine or as the decode of the new bytes; it serves the
        result it kept only for the same bytes."""
        doc = json.loads(certified_text)
        paths = list(_paths(doc["certificate"], ("certificate",)))
        path = data.draw(st.sampled_from(paths), label="path")
        original = canonical_text(doc)
        changed = _replaced(doc, path, value)
        with tempfile.TemporaryDirectory() as root:
            store = ResultStore(root)
            store.put_result("k", certified_tiny, tiny_design)
            kept = store.get_result("k")
            write_spliced(store.result_path("k"), changed)
            try:
                back = store.get_result("k")
            except StoreCorruptError:
                assert os.path.exists(store.result_path("k") + ".corrupt")
                return
            assert (back is kept) == (canonical_text(changed) == original)
            fresh = result_from_json(json.loads(canonical_text(changed)))
            assert canonical_text(result_to_json(back)) == canonical_text(
                result_to_json(fresh)
            )


def _memo_with(entries):
    memo = EnvelopeMemo()
    for key, value in entries:
        memo.pulse.put(key, value)
    return memo


class TestMemoSnapshots:
    def test_freeze_thaw_snapshot_round_trip(self, store):
        memo = EnvelopeMemo()
        memo.pulse.put(("v1", 3, 0.25), NoisePulse(0.4, 0.1, 0.6, 0.05))
        env_key = (0.4, 0.1, 0.6, 0.05, 0.0, 1.0, 0.0, 0.0, 2.0, 8)
        memo.primary_env.put(env_key, readonly(np.linspace(0.0, 1.0, 8)))
        memo.primary_env.put(("v1", "agg", 7), 0.125)
        snap = memo.freeze()
        assert snap.entry_count() == 3
        store.put_memo("d1", snap)
        back = store.get_memo("d1")
        assert back is not None
        thawed = EnvelopeMemo.thaw(back)
        assert thawed.pulse.get(("v1", 3, 0.25)) == NoisePulse(
            0.4, 0.1, 0.6, 0.05
        )
        env = thawed.primary_env.get(env_key)
        assert env is not None and not env.flags.writeable
        np.testing.assert_array_equal(env, np.linspace(0.0, 1.0, 8))
        assert thawed.primary_env.get(("v1", "agg", 7)) == 0.125

    def test_put_memo_merges_union_existing_wins(self, store):
        p1 = NoisePulse(0.1, 0.2, 0.3, 0.0)
        p2 = NoisePulse(0.5, 0.6, 0.7, 0.0)
        first = _memo_with([(("a", 1, 0.5), p1)]).freeze()
        second = _memo_with(
            [(("a", 1, 0.5), p2), (("b", 2, 0.5), p2)]
        ).freeze()
        store.put_memo("d1", first)
        store.put_memo("d1", second)
        merged = store.get_memo("d1")
        assert merged is not None
        entries = dict(merged.entries["pulse"])
        # collision: the existing entry wins (values are identical by
        # construction in real use; here they differ to prove the rule)
        assert entries[("a", 1, 0.5)] == p1
        assert entries[("b", 2, 0.5)] == p2

    def test_freeze_is_safe_under_concurrent_mutation(self):
        memo = EnvelopeMemo()
        stop = threading.Event()

        def hammer():
            i = 0
            while not stop.is_set():
                memo.pulse.put(("net", i % 64, 0.5), NoisePulse(0.1, 0.2, 0.3, 0.0))
                i += 1

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for _ in range(200):
                snap = memo.freeze()
                # every snapshot is internally consistent and serializable
                MemoSnapshot.from_json(snap.to_json())
        finally:
            stop.set()
            thread.join(timeout=10)

    def test_snapshot_json_round_trip_is_value_exact(self):
        memo = _memo_with([(("n", 9, 0.0625), NoisePulse(0.3, 0.1, 0.9, 0.2))])
        memo.primary_env.put(("n", "m", 1), 0.1 + 0.2)  # a float that needs repr care
        snap = memo.freeze()
        back = MemoSnapshot.from_json(json.loads(json.dumps(snap.to_json())))
        assert back.max_entries == snap.max_entries
        assert dict(back.entries["pulse"]) == dict(snap.entries["pulse"])
        assert dict(back.entries["primary_env"])[("n", "m", 1)] == 0.1 + 0.2

    def test_snapshot_with_an_ho_cache_still_warm_starts(self, store, small_design):
        """Snapshots once also carried an ``ho`` cache of widened
        higher-order envelopes.  A stored one must still load: the
        section is skipped, and the warm start answers exactly like a
        cold solve."""
        memo = EnvelopeMemo()
        analyze(small_design, 2, memo=memo)
        payload = memo.freeze().to_json()
        # the old layout: primary_env keys with a nonzero widening slot
        payload["caches"]["ho"] = [
            [raw_key[:6] + [0.25] + raw_key[7:], raw_value]
            for raw_key, raw_value in payload["caches"]["primary_env"]
        ]
        with open(store.memo_path("d1"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        back = store.get_memo("d1")
        assert back is not None
        assert set(back.entries) == {"pulse", "primary_env"}
        warm = EnvelopeMemo.thaw(back)
        result = analyze(small_design, 3, certify=True, memo=warm)
        assert warm.primary_env.hits > 0
        assert results_equal(result, analyze(small_design, 3, certify=True))
