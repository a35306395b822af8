"""JSON persistence helpers: raw float64 arrays and atomic file writes.

Every float array that reaches a JSON document — certificate witness
envelopes, checkpoint I-lists, memo snapshot values, and through the
certificate every stored result — is written as one trimmed raw float64
record::

    {"$x8": "000000000000f03f0000000000000040", "at": 1, "n": 4}
    # [0.0, 1.0, 2.0, 0.0]

``$x8`` is the lowercase hex of the little-endian float64 bytes of
``arr[at:at + len]``, the run from the first to the last sample whose 64
bits are not all zero; the ``n - len`` samples outside it are ``+0.0``.
A noise envelope is a trapezoid sampled on a grid that reaches past its
support, so about half of a certificate's witness envelope samples are
``+0.0``, and they never reach the file.  Only ``+0.0`` is trimmed:
``-0.0``, NaN payloads, infinities and subnormals keep their bits.  An
empty or all-``+0.0`` array is ``{"$x8": "", "at": 0, "n": n}``.

Hex is 1.5x longer than base64 but decodes 4–5x faster per raw byte
(``binascii.unhexlify``), which is what a store hit pays for.  The
document stays plain JSON (``json.load`` / ``json.dump`` / ``==`` all
keep working), and the round trip is bit-exact for every float64 value.

Readers also accept the two forms older files carry: the untrimmed
base64 record ``{"$f8": "<base64 of little-endian float64>"}`` and a
decimal float list.

:func:`atomic_write` is the one writer behind every persisted document
(checkpoints and the service store): write a temp file, then
``os.replace`` it over the target.
"""

from __future__ import annotations

import base64
import binascii
import os
import threading
from typing import Any, Dict, Union

import numpy as np

#: The tag key of a trimmed hex record (the form the writer emits).
HEX_TAG = "$x8"

#: The tag key of an untrimmed base64 record (read only).
ARRAY_TAG = "$f8"

#: The most samples a record may hold, far above any grid a solve
#: samples on (``repro.service.protocol.MAX_GRID_POINTS`` is 4,096): a
#: record a few bytes long cannot ask the reader for a huge array.
MAX_RECORD_POINTS = 1 << 20


def array_to_json(values: Any) -> Dict[str, Union[str, int]]:
    """Encode ``values`` as ``{"$x8": <hex>, "at": lo, "n": n}``.

    Any real array-like is accepted: non-contiguous views are copied,
    narrower float dtypes widen exactly to float64, and inputs of any
    shape are flattened in C order (the decoded array is 1-D).  Raises
    :class:`ValueError` for more than :data:`MAX_RECORD_POINTS` samples,
    which no reader would accept.
    """
    arr = np.ascontiguousarray(values, dtype="<f8").reshape(-1)
    n = arr.size
    if n > MAX_RECORD_POINTS:
        raise ValueError(f"array of {n} samples exceeds {MAX_RECORD_POINTS}")
    kept = np.flatnonzero(arr.view(np.uint64))
    if not kept.size:
        return {HEX_TAG: "", "at": 0, "n": n}
    lo = int(kept[0])
    return {HEX_TAG: arr[lo:kept[-1] + 1].tobytes().hex(), "at": lo, "n": n}


def array_from_json(data: Any) -> np.ndarray:
    """Decode :func:`array_to_json` output, a base64 record or a float list.

    Returns a fresh, writable 1-D float64 array.  Malformed input — a
    record with other keys, a payload that is not a string of whole
    samples in hex (or base64), ``at``/``n`` that are not ints or that
    place the samples outside ``[0, n)``, ``n`` above
    :data:`MAX_RECORD_POINTS`, or anything that is neither a record nor
    a flat number list — raises :class:`ValueError` or
    :class:`TypeError`, so each reader maps it onto its own typed error.
    """
    if isinstance(data, dict):
        if len(data) == 1 and ARRAY_TAG in data:
            return _from_base64_record(data[ARRAY_TAG])
        # A certificate holds about a thousand records: no temporary set
        # per record to check the keys.
        if len(data) != 3 or HEX_TAG not in data or "at" not in data or "n" not in data:
            raise ValueError(f"array record must have the keys {HEX_TAG!r}, 'at' and 'n'")
        return _from_hex_record(data[HEX_TAG], data["at"], data["n"])
    if isinstance(data, list):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"array list must be flat, got {arr.ndim} dimensions")
        return arr
    raise TypeError(f"expected an array record or a number list, got {type(data).__name__}")


def _from_hex_record(text: Any, at: Any, n: Any) -> np.ndarray:
    if not isinstance(text, str):
        raise TypeError(f"array payload must be a string, got {type(text).__name__}")
    # bool is an int subclass; JSON true must not pass for 1.
    if type(at) is not int or type(n) is not int:
        raise TypeError("array record 'at' and 'n' must be integers")
    if len(text) % 16:
        raise ValueError(f"array payload has {len(text)} hex digits, not whole samples")
    count = len(text) // 16
    if at < 0 or at + count > n or n > MAX_RECORD_POINTS:
        raise ValueError(
            f"array record places {count} samples at {at} in {n} "
            f"(at most {MAX_RECORD_POINTS})"
        )
    try:
        # unhexlify, unlike bytes.fromhex, rejects whitespace.
        raw = binascii.unhexlify(text)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"array payload is not valid hex: {exc}") from exc
    out = np.zeros(n, dtype=np.float64)
    out[at:at + count] = np.frombuffer(raw, dtype="<f8")
    return out


def _from_base64_record(text: Any) -> np.ndarray:
    if not isinstance(text, str):
        raise TypeError(f"array payload must be a string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"array payload is not valid base64: {exc}") from exc
    if len(raw) % 8:
        raise ValueError(f"array payload has {len(raw)} bytes, not a multiple of 8")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so readers see the old or the new file.

    The temp file name carries the process and thread id, so concurrent
    writers of one path (two service processes leading the same key)
    never share a temp file; the last ``os.replace`` wins.  On any
    failure the temp file is removed and the exception propagates.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
