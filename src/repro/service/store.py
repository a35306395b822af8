"""Disk-backed, content-addressed store shared across jobs and processes.

Layout (all plain JSON, all writes atomic via
:func:`~repro.runtime.jsonio.atomic_write`)::

    <root>/
      lock                     advisory file lock (flock) for writers
      results/<key>.json       result envelope + integrity digest
      memos/<design_key>.json  EnvelopeMemo snapshot for warm starts
      shards/<key>.ckpt.json   resumable engine checkpoint of an
                               interrupted job (bit-exact format, see
                               runtime/checkpoint.py)

Float arrays inside these documents (memo values, certificate and
checkpoint envelopes) are trimmed raw float64 records,
``{"$x8": "<hex>", "at": lo, "n": n}`` (:mod:`repro.runtime.jsonio`):
the hex of the samples between the first and the last one that is not
``+0.0``.  That keeps replay bit-exact and a hit cheap: the witness
envelopes are most of a certified entry, and hex decodes fast.
Entries written with the older untrimmed ``{"$f8": ...}`` records or
decimal float lists still load; an older reader quarantines an entry in
the trimmed form and solves it cold.

Keys are content addresses (:meth:`JobSpec.store_key
<repro.service.protocol.JobSpec.store_key>` /
:meth:`~repro.service.protocol.JobSpec.design_key`): SHA-256 of the
canonical design-fingerprint + config identity.  Two processes that ask
the same question compute the same key with no coordination, which is
what makes the store shareable.

Safety model:

* **Readers never lock.**  Files are only ever replaced atomically, so
  a reader sees either the old or the new complete file — never a torn
  one.  Every result envelope additionally carries a SHA-256 of its
  canonical payload text, so damage *at rest* (the chaos case) is
  detected on read and surfaced as :class:`StoreCorruptError`; the
  caller falls back to a cold solve and records a ``store_corrupt``
  :class:`~repro.runtime.supervisor.ExecIncident`.  A damaged memo is
  a miss; a shard the engine cannot resume from is quarantined by the
  service (:meth:`ResultStore.quarantine_shard`) before a cold solve.
* **A hit hashes the bytes on disk.**  :meth:`ResultStore.put_result`
  splices the canonical payload text into the envelope after
  :data:`PAYLOAD_SPLICE`, so a reader hashes that slice of the file as
  it is and parses it once.  Only an envelope laid out otherwise (by
  another writer, or damaged) is parsed whole and its payload
  re-encoded canonically to be hashed.
* **A payload is decoded once.**  The store keeps the results it decoded
  (each entry it wrote, each entry in that layout it read) by the digest
  of their payload text, up to :data:`DECODED_RESULT_CHARS` characters
  of payload in all.  Bytes that hash to one of those digests are that
  payload, so the hit returns its result without parsing anything; every
  hit still reads and hashes the file, so damage at rest is caught as
  before.  Hits on one entry share one result object: results are values
  (:class:`~repro.core.report.TopKResult` is frozen), and a caller must
  not change the certificate it is given.
* **Writers lock.**  Cross-process writers serialize on ``flock`` over
  ``<root>/lock`` (in-process writers on a ``threading.Lock``), which
  makes read-merge-write sequences (memo snapshots absorb each other)
  safe.  On platforms without ``fcntl`` the file lock degrades to the
  in-process lock alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from ..circuit.design import Design
from ..core.report import TopKResult
from ..perf.memo import MemoSnapshot
from ..runtime.jsonio import atomic_write
from .protocol import ServiceError, StoreStats
from .serialize import (
    RESULT_FORMAT_VERSION,
    _design_anchor,
    result_from_json,
    result_to_json,
)

try:  # pragma: no cover - platform gate
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


class StoreCorruptError(ServiceError):
    """A store entry exists but failed validation (damage at rest)."""


#: What :meth:`ResultStore.put_result` writes between the envelope
#: header (without its closing brace) and the canonical payload text.
#: The header has no ``result`` key and a JSON string holds ``"`` only
#: escaped, so in a file the writer laid out the first occurrence is
#: the splice.
PAYLOAD_SPLICE = ', "result": '
_SPLICE = PAYLOAD_SPLICE.encode("ascii")


#: How many payload characters the decoded results a store keeps for
#: reuse may add up to (a certified i1 k=5 payload is ~2.4 million).
DECODED_RESULT_CHARS = 32 << 20

#: What reading a damaged memo snapshot can raise (AttributeError: a
#: list or number where the snapshot or a section must be an object).
_DAMAGED_MEMO = (OSError, ValueError, TypeError, KeyError, AttributeError)


def _canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_file(path: str) -> Optional[bytes]:
    """The bytes stored at ``path`` (None: no file)."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise ServiceError(f"cannot read the file: {exc}") from exc


def _parse(text: str) -> Any:
    """``json.loads`` of a payload text; :class:`ServiceError` if not JSON."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError
        raise ServiceError(f"not UTF-8 JSON: {exc}") from exc


def _envelope_payload(data: bytes) -> Dict[str, Any]:
    """The payload of an envelope laid out otherwise than by
    :meth:`ResultStore.put_result` (another writer, or damage): the
    whole envelope is parsed and its payload re-encoded canonically to
    be hashed.  Raises :class:`ServiceError` when the file is not UTF-8
    JSON or fails the integrity digest."""
    try:
        envelope = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ServiceError(f"not UTF-8 JSON: {exc}") from exc
    if not isinstance(envelope, dict):
        raise ServiceError("store envelope must be a JSON object")
    payload = envelope.get("result")
    if not isinstance(payload, dict):
        raise ServiceError("store envelope has no result payload")
    expected = envelope.get("payload_sha256")
    actual = _digest(_canonical(payload))
    if expected != actual:
        raise ServiceError(
            "store entry integrity digest mismatch",
            expected=expected,
            actual=actual,
        )
    return payload


def _spliced_payload_text(data: bytes) -> Optional[Tuple[str, str]]:
    """The digest and payload text of an envelope
    :meth:`ResultStore.put_result` laid out, if its bytes hash to the
    recorded digest; None otherwise.  Raises :class:`ServiceError` when
    such a payload is not UTF-8.

    The digest is taken over a view of the file's own bytes, with no
    copy and no re-encode.  A match means the slice is the canonical
    text the writer hashed, so this accepts nothing the whole-envelope
    check would reject.
    """
    cut = data.find(_SPLICE)
    if cut < 0 or not data.endswith(b"}"):
        return None
    try:
        header = json.loads(data[:cut].decode("utf-8") + "}")
    except ValueError:
        return None
    if not isinstance(header, dict):
        return None
    body = memoryview(data)[cut + len(_SPLICE):-1]
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("payload_sha256"):
        return None
    try:
        return digest, str(body, "utf-8")
    except UnicodeDecodeError as exc:
        raise ServiceError(f"not UTF-8 JSON: {exc}") from exc


class _DecodedResults:
    """Decoded results by the digest of their payload text, dropped
    least recently used first once their payloads pass ``max_chars``
    characters in all."""

    def __init__(self, max_chars: int) -> None:
        self._max_chars = max_chars
        self._chars = 0
        self._entries: "OrderedDict[str, Tuple[TopKResult, int]]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, digest: str) -> Optional[TopKResult]:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                return None
            self._entries.move_to_end(digest)
            return entry[0]

    def put(self, digest: str, result: TopKResult, chars: int) -> None:
        if chars > self._max_chars:
            return
        with self._lock:
            old = self._entries.pop(digest, None)
            self._chars += chars - (0 if old is None else old[1])
            self._entries[digest] = (result, chars)
            while self._chars > self._max_chars:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._chars -= dropped


class ResultStore:
    """The persistent result/memo/shard store rooted at one directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._corrupt = 0
        self._decoded = _DecodedResults(DECODED_RESULT_CHARS)
        for sub in ("results", "memos", "shards"):
            os.makedirs(os.path.join(root, sub), exist_ok=True)

    # -- locking -------------------------------------------------------
    @contextmanager
    def _writer_lock(self) -> Iterator[None]:
        """In-process + cross-process writer exclusion."""
        with self._lock:
            if fcntl is None:
                yield
                return
            lock_path = os.path.join(self.root, "lock")
            with open(lock_path, "a", encoding="utf-8") as fh:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    # -- paths ---------------------------------------------------------
    def result_path(self, key: str) -> str:
        return os.path.join(self.root, "results", f"{key}.json")

    def memo_path(self, design_key: str) -> str:
        return os.path.join(self.root, "memos", f"{design_key}.json")

    def shard_path(self, key: str) -> str:
        return os.path.join(self.root, "shards", f"{key}.ckpt.json")

    # -- results -------------------------------------------------------
    def get_result(self, key: str) -> Optional[TopKResult]:
        """The stored result under ``key``, or None on a miss.

        Raises :class:`StoreCorruptError` when an entry exists but is
        damaged (unreadable, not UTF-8 JSON, wrong shape or types, or
        integrity digest mismatch); the damaged file is quarantined
        (renamed aside) so the next writer can repopulate the key.

        A hit on a payload this store decoded before (see
        :meth:`_read_result`) returns the same result object as the
        earlier reads of it.
        """
        path = self.result_path(key)
        try:
            result = self._read_result(path)
        except ServiceError as exc:
            self._quarantine(path)
            raise StoreCorruptError(
                f"store entry corrupt: {exc}", key=key, path=path
            ) from exc
        with self._lock:
            if result is None:
                self._misses += 1
            else:
                self._hits += 1
        return result

    def put_result(self, key: str, result: TopKResult, design: Design) -> None:
        """Publish ``result`` under ``key`` (last writer wins).

        The payload is encoded once, canonically; the digest is taken
        over that text and the same text is spliced into the envelope.
        """
        payload_text = _canonical(result_to_json(result))
        digest = _digest(payload_text)
        header = json.dumps({
            "version": RESULT_FORMAT_VERSION,
            "key": key,
            "design": _design_anchor(design),
            "payload_sha256": digest,
        })
        text = f"{header[:-1]}{PAYLOAD_SPLICE}{payload_text}}}"
        with self._writer_lock():
            atomic_write(self.result_path(key), text)
        with self._lock:
            self._puts += 1
        # Decoded now, so that no hit on this entry parses it.
        decoded = result_from_json(json.loads(payload_text))
        self._decoded.put(digest, decoded, len(payload_text))

    def _read_result(self, path: str) -> Optional[TopKResult]:
        """The result stored at ``path`` (None: no file).

        An envelope :meth:`put_result` laid out is checked by hashing
        its payload bytes (:func:`_spliced_payload_text`).  Bytes with
        the digest of a payload this store decoded before are those
        same bytes, so its decoded result is returned and nothing is
        parsed; other payloads are parsed once, decoded and kept.  Any
        other file gets the whole-envelope check.  Raises
        :class:`ServiceError` when the file cannot be read, is not
        UTF-8 JSON, fails the integrity digest or does not decode.
        """
        data = _read_file(path)
        if data is None:
            return None
        spliced = _spliced_payload_text(data)
        if spliced is None:
            return result_from_json(_envelope_payload(data))
        del data  # parse with only the payload text held
        digest, text = spliced
        result = self._decoded.get(digest)
        if result is None:
            result = result_from_json(_parse(text))
            self._decoded.put(digest, result, len(text))
        return result

    def _quarantine(self, path: str) -> None:
        """Move a damaged file aside (best effort) and count it."""
        with self._lock:
            self._corrupt += 1
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            # Another reader may have quarantined it first; the counter
            # above still records that *this* read saw damage.
            pass

    # -- memo snapshots ------------------------------------------------
    def get_memo(self, design_key: str) -> Optional[MemoSnapshot]:
        """The stored memo snapshot for ``design_key`` (None on miss).

        A damaged snapshot is quarantined and reported as a miss — memo
        warmth is an optimization, never correctness, so corruption
        here must not fail the job.
        """
        path = self.memo_path(design_key)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            return MemoSnapshot.from_json(payload)
        except FileNotFoundError:
            return None
        except _DAMAGED_MEMO:
            self._quarantine(path)
            return None

    def put_memo(self, design_key: str, snapshot: MemoSnapshot) -> None:
        """Merge ``snapshot`` into the stored one (read-merge-write).

        Entries are pure functions of their keys, so merging is
        set-union: existing entries win on key collision (their values
        are identical by construction), new entries append in their
        snapshot order.  The merge runs under the writer lock so two
        finishing jobs cannot lose each other's entries.
        """
        path = self.memo_path(design_key)
        with self._writer_lock():
            existing: Optional[MemoSnapshot] = None
            try:
                with open(path, encoding="utf-8") as fh:
                    existing = MemoSnapshot.from_json(json.load(fh))
            except FileNotFoundError:
                existing = None
            except _DAMAGED_MEMO:
                existing = None  # damaged: overwrite below
            merged = snapshot if existing is None else _merge_snapshots(
                existing, snapshot
            )
            atomic_write(path, json.dumps(merged.to_json()))

    # -- shards --------------------------------------------------------
    def has_shard(self, key: str) -> bool:
        return os.path.exists(self.shard_path(key))

    def clear_shard(self, key: str) -> None:
        try:
            os.remove(self.shard_path(key))
        except FileNotFoundError:
            pass

    def quarantine_shard(self, key: str) -> None:
        """Move a shard the engine could not resume from aside."""
        self._quarantine(self.shard_path(key))

    # -- accounting ----------------------------------------------------
    def stats(self) -> StoreStats:
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                corrupt=self._corrupt,
            )

    def summary(self) -> Dict[str, Any]:
        """Operational snapshot for the ``/v1/store`` endpoint."""
        counts: Dict[str, int] = {}
        for sub in ("results", "memos", "shards"):
            names = [
                n
                for n in os.listdir(os.path.join(self.root, sub))
                if n.endswith(".json")
            ]
            counts[sub] = len(names)
        payload = self.stats().to_json()
        payload["root"] = self.root
        payload["entries"] = counts
        return payload


def _merge_snapshots(
    existing: MemoSnapshot, fresh: MemoSnapshot
) -> MemoSnapshot:
    entries: Dict[str, List[Tuple[Hashable, Any]]] = {}
    names = sorted(set(existing.entries) | set(fresh.entries))
    for name in names:
        base = list(existing.entries.get(name, []))
        seen = {key for key, _ in base}
        for key, value in fresh.entries.get(name, []):
            if key not in seen:
                base.append((key, value))
                seen.add(key)
        entries[name] = base
    return MemoSnapshot(
        max_entries=max(existing.max_entries, fresh.max_entries),
        entries=entries,
    )
