"""Checkpoint/resume of the enumeration engine's state.

The engine's only state that is expensive to recreate is the per-victim
frontier: the irredundant lists of every completed cardinality (plus the
cardinality-1 extension atoms and the solve counters).  Everything else
— contexts, grids, primary envelopes — is rebuilt deterministically from
the design and configuration.  A checkpoint is therefore a JSON snapshot
taken at a *cardinality boundary* (after every victim, including the
virtual sink, finished cardinality i), which makes resume exact: a run
resumed from the snapshot continues precisely as the uninterrupted run
would have, bit for bit.  Envelopes are stored as their raw float64
bytes (see :mod:`~repro.runtime.jsonio`); the few scalar floats
(scores, counters) survive JSON via their shortest round-trip ``repr``.

Layout (version 1)::

    {
      "version": 1,
      "fingerprint": { design + mode + enumeration-config identity },
      "solved_upto": 2,
      "stats": { SolveStats fields },
      "frontier_bytes": 123456,
      "nets": {
        "<net>": {
          "atoms1_extra": [ EnvelopeSet... ],   # non-primary card-1 atoms
          "ilists": { "1": [ EnvelopeSet... ], "2": [...] }
        }, ...
      }
    }

with each EnvelopeSet as ``{"couplings", "env", "blocked", "score",
"label"}`` and ``env`` as ``{"$f8": "<base64 little-endian float64>"}``
(:func:`~repro.runtime.jsonio.array_to_json`); the loader also accepts
the decimal float list older snapshots carry.  Primary atoms are *not*
stored (they are rebuilt and re-identified by their ``primary:``
label), which keeps snapshots small.

Snapshots are written atomically (:func:`~repro.runtime.jsonio.atomic_write`:
a per-writer tmp file + ``os.replace``) so an interrupt during the write
never leaves a torn checkpoint behind.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from .errors import CheckpointError
from .jsonio import array_from_json, array_to_json, atomic_write

CHECKPOINT_VERSION = 1


def fingerprint_digest(fingerprint: Dict[str, Any]) -> str:
    """Stable hex digest of a fingerprint (or any JSON-able identity).

    Canonical JSON (sorted keys, no whitespace) hashed with SHA-256 —
    the content address the service store files results, certificates,
    memo snapshots, and resumable shards under.  Two runs agree on the
    digest iff they agree on the fingerprint value, so a digest
    collision across configs is as hard as a SHA-256 collision.
    """
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def design_fingerprint(design: Any, mode: str, config: Any) -> Dict[str, Any]:
    """Identity of (design, mode, enumeration config) a snapshot binds to.

    Only knobs that shape the enumeration state are included; oracle and
    budget knobs may differ between the interrupted and the resuming run
    (that is the point of resuming with a larger deadline).
    ``parallelism`` is deliberately excluded too: the wave-scheduled
    sweep is bit-exact with the serial one, so a snapshot written by a
    serial run may be resumed by a parallel run and vice versa.
    Certifying runs additionally bind to the certificate format version,
    so a resume across a format change fails loudly instead of producing
    an unverifiable mixed-format certificate.
    """
    stats = design.stats()
    noise = config.noise
    fingerprint: Dict[str, Any] = {
        "design": stats.name,
        "gates": stats.gates,
        "nets": stats.nets,
        "couplings": stats.coupling_caps,
        "mode": mode,
        "grid_points": config.grid_points,
        "max_sets_per_cardinality": config.max_sets_per_cardinality,
        "use_pseudo": config.use_pseudo,
        "use_higher_order": config.use_higher_order,
        "window_filter": config.window_filter,
        "horizon_margin": config.horizon_margin,
        "noise": {
            "max_iterations": noise.max_iterations,
            "tolerance_ns": noise.tolerance_ns,
            "start": noise.start,
            "grid_points": noise.grid_points,
            "window_filter": noise.window_filter,
            "damping": noise.damping,
        },
    }
    if getattr(config, "certify", False):
        from ..verify.certificate import CERTIFICATE_FORMAT_VERSION

        fingerprint["certificate_format"] = CERTIFICATE_FORMAT_VERSION
    return fingerprint


def envelope_set_to_json(es: Any) -> Dict[str, Any]:
    """Serialize one EnvelopeSet (numpy envelope -> raw float64 record)."""
    return {
        "couplings": sorted(es.couplings),
        "env": array_to_json(es.env),
        "blocked": sorted(es.blocked),
        "score": float(es.score),
        "label": es.label,
    }


def envelope_set_from_json(data: Dict[str, Any]) -> Any:
    """Rebuild one EnvelopeSet from its JSON form."""
    from ..core.aggressor_set import EnvelopeSet

    try:
        return EnvelopeSet(
            couplings=frozenset(int(i) for i in data["couplings"]),
            env=array_from_json(data["env"]),
            blocked=frozenset(int(i) for i in data["blocked"]),
            score=float(data["score"]),
            label=str(data.get("label", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed envelope-set record: {exc}", phase="checkpoint-load"
        ) from exc


def save_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Atomically write ``payload`` as JSON to ``path``."""
    payload = dict(payload)
    payload.setdefault("version", CHECKPOINT_VERSION)
    try:
        atomic_write(path, json.dumps(payload))
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint: {exc}", path=path, phase="checkpoint-save"
        ) from exc


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read and structurally validate a checkpoint file."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint: {exc}", path=path, phase="checkpoint-load"
        ) from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint is not valid JSON: {exc}",
            path=path,
            phase="checkpoint-load",
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointError(
            "checkpoint root must be a JSON object",
            path=path,
            phase="checkpoint-load",
        )
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})",
            path=path,
            phase="checkpoint-load",
        )
    for key in ("fingerprint", "solved_upto", "stats", "nets"):
        if key not in payload:
            raise CheckpointError(
                f"checkpoint is missing the {key!r} section",
                path=path,
                phase="checkpoint-load",
            )
    return payload


def check_fingerprint(
    expected: Dict[str, Any], found: Dict[str, Any], path: str
) -> None:
    """Raise when a snapshot was taken for a different design/config."""
    if expected == found:
        return
    diffs = [
        k
        for k in sorted(set(expected) | set(found))
        if expected.get(k) != found.get(k)
    ]
    raise CheckpointError(
        f"checkpoint does not match this run (differs in: {', '.join(diffs)})",
        path=path,
        phase="checkpoint-load",
    )
