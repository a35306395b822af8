"""JSON persistence helpers: raw float64 arrays and atomic file writes.

Every float array that reaches a JSON document — checkpoint envelopes,
memo snapshot values, certificate witness envelopes — is written as its
raw little-endian float64 bytes in base64 under a one-key tag::

    {"$f8": "AAAAAAAA8D8AAAAAAAAAQA=="}      # [1.0, 2.0]

instead of a decimal float list.  The document stays plain JSON
(``json.load`` / ``json.dump`` / ``==`` all keep working), the round
trip is bit-exact for every float64 value (``-0.0``, NaN payloads,
infinities, subnormals), and encoding or decoding costs a memory copy
instead of one shortest-``repr`` float formatting/parsing per sample.
Readers still accept the decimal-list form older files carry.

:func:`atomic_write` is the one writer behind every persisted document
(checkpoints and the service store): write a temp file, then
``os.replace`` it over the target.
"""

from __future__ import annotations

import base64
import binascii
import os
import threading
from typing import Any, Dict

import numpy as np

#: The tag key of an encoded array.
ARRAY_TAG = "$f8"


def array_to_json(values: Any) -> Dict[str, str]:
    """Encode ``values`` as ``{"$f8": <base64 of little-endian float64>}``.

    Any real array-like is accepted: non-contiguous views are copied,
    narrower float dtypes widen exactly to float64, and inputs of any
    shape are flattened in C order (the decoded array is 1-D).
    """
    arr = np.ascontiguousarray(values, dtype="<f8").reshape(-1)
    return {ARRAY_TAG: base64.b64encode(arr.tobytes()).decode("ascii")}


def array_from_json(data: Any) -> np.ndarray:
    """Decode :func:`array_to_json` output, or a plain decimal float list.

    Returns a fresh, writable 1-D float64 array.  Malformed input —
    bad base64, a byte length that is not a multiple of 8, extra keys,
    a non-string payload, or anything that is neither a tagged record
    nor a flat number list — raises :class:`ValueError` or
    :class:`TypeError`, so each reader maps it onto its own typed error.
    """
    if isinstance(data, dict):
        if set(data) != {ARRAY_TAG}:
            raise ValueError(f"array record must have exactly the key {ARRAY_TAG!r}")
        text = data[ARRAY_TAG]
        if not isinstance(text, str):
            raise TypeError(f"array payload must be a string, got {type(text).__name__}")
        try:
            raw = base64.b64decode(text, validate=True)
        except binascii.Error as exc:
            raise ValueError(f"array payload is not valid base64: {exc}") from exc
        if len(raw) % 8:
            raise ValueError(f"array payload has {len(raw)} bytes, not a multiple of 8")
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if isinstance(data, list):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"array list must be flat, got {arr.ndim} dimensions")
        return arr
    raise TypeError(f"expected an array record or a number list, got {type(data).__name__}")


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
