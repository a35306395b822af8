"""Keyed caches with hit/miss accounting.

Two cache scopes coexist:

* **Per-solver** — an :class:`EnvelopeMemo` owned by one
  :class:`~repro.core.engine.TopKEngine`: noise pulses and sampled
  primary envelopes.  Entries persist across cardinality levels and
  across repeated ``solve(k)`` calls on the same engine, and a memo can
  be shared between engines over the same design to warm the next
  solve.  Higher-order (widened/narrowed) envelopes are not cached:
  their widenings almost never repeat, and the engine samples all of a
  victim's in one block for less than the lookups would cost.
* **Process-wide** — registered via :func:`global_cache`: small
  derived arrays that are pure functions of their key, such as the
  victim reference ramp sampled in
  :func:`repro.core.dominance.batch_delay_noise` and the boolean
  dominance-interval mask of
  :meth:`repro.core.dominance.DominanceInterval.mask`.

All caches are bounded (FIFO eviction) and count hits/misses; the engine
folds the counters into :class:`~repro.core.engine.SolveStats` so cache
effectiveness shows up in ``BENCH_topk.json``.  Cached arrays are
returned *read-only* — callers that need to mutate must copy.

Keys must be hashable value tuples (floats, ints, strings).  Because a
key fully determines its value, a stale entry is impossible by
construction; "invalidation" is only ever eviction for space.  See
``docs/performance.md`` for the key layouts.

Ownership and the freeze boundary
---------------------------------
A cache's *lookup* path stays lock-free (single GIL-atomic dict reads),
which keeps the engine's hot sweep unchanged.  Mutation (``put`` /
``clear``) and whole-cache observation (``snapshot``) serialize on a
per-cache lock, so an observer can never see a torn eviction (the
``popitem`` + insert pair).  :meth:`EnvelopeMemo.freeze` builds on that:
it returns an immutable :class:`MemoSnapshot` — a consistent copy of
every cache taken at one boundary — that the analysis service's
disk-backed store (:mod:`repro.service.store`) can serialize and ship
across processes *while the owning engine keeps solving*.  Snapshots
share the cached read-only arrays by reference (they are immutable), so
freezing is cheap; :meth:`EnvelopeMemo.thaw` rebuilds a warm,
independently-owned memo from a snapshot.  In a snapshot's JSON form a
primary envelope is a trimmed raw float64 record,
``{"$x8": "<hex>", "at": lo, "n": n}`` (:mod:`repro.runtime.jsonio`),
which leaves out the ``+0.0`` samples outside the envelope's support;
snapshots with the older ``{"$f8": ...}`` records or decimal lists
still load.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..noise.pulse import NoisePulse
from ..runtime.jsonio import array_from_json, array_to_json

#: Default bound on entries per cache (envelope rows are ~2 KB each at
#: the default 256-point grid, so a full cache stays below ~10 MB).
DEFAULT_MAX_ENTRIES = 4096


class KeyedCache:
    """A bounded mapping with FIFO eviction and hit/miss counters.

    ``get`` is lock-free (one GIL-atomic dict read); ``put``/``clear``
    and :meth:`snapshot` serialize on a per-cache lock so a snapshot
    never observes a half-finished eviction.
    """

    def __init__(self, name: str, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __getstate__(self) -> Dict[str, Any]:
        # Locks cannot be pickled; a pickled cache gets a fresh one.
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        """Look up ``key``, counting the hit or miss."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Store ``value`` under ``key`` (evicting the oldest entry)."""
        with self._lock:
            if key not in self._data and len(self._data) >= self.max_entries:
                self._data.popitem(last=False)
            self._data[key] = value
        return value

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._data.clear()

    def snapshot(self) -> List[Tuple[Hashable, Any]]:
        """A consistent, insertion-ordered copy of the entries.

        Values are shared by reference — cached values are immutable
        (frozen dataclasses or read-only arrays) by contract, so the
        copy is shallow and cheap.
        """
        with self._lock:
            return list(self._data.items())

    def load(self, entries: List[Tuple[Hashable, Any]]) -> None:
        """Replace the contents with ``entries`` (oldest first)."""
        with self._lock:
            self._data.clear()
            for key, value in entries[-self.max_entries :]:
                self._data[key] = value

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._data)}


def readonly(arr: np.ndarray) -> np.ndarray:
    """Mark an array immutable before caching it (shared by reference)."""
    arr.setflags(write=False)
    return arr


def grid_key(grid: Any) -> tuple:
    """Value identity of a sampling grid (grids are frozen dataclasses)."""
    return (grid.t_start, grid.t_end, grid.n)


#: The caches of an :class:`EnvelopeMemo`, by name.  Snapshot sections
#: under other names (the ``ho`` cache of older snapshots) are skipped
#: on load.
MEMO_CACHES = ("pulse", "primary_env")


class EnvelopeMemo:
    """The per-solver cache bundle threaded through the engine.

    Attributes
    ----------
    pulse:
        ``(victim, coupling index, aggressor slew)`` ->
        :class:`~repro.noise.pulse.NoisePulse`.
    primary_env:
        ``(pulse peak, rise, decay, lead, window eat, lat, 0.0, grid
        key)`` -> sampled primary envelope (the base sample built once
        per victim grid; the ``0.0`` is a widening slot kept so that
        stored snapshots stay valid).
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.pulse = KeyedCache("pulse", max_entries)
        self.primary_env = KeyedCache("primary_env", max_entries)

    def caches(self) -> tuple:
        return (self.pulse, self.primary_env)

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {c.name: c.stats() for c in self.caches()}

    def freeze(self) -> "MemoSnapshot":
        """An immutable, consistent snapshot of every cache.

        Safe to call from another thread while the owning engine is
        mid-solve: each cache is copied under its mutation lock, so no
        snapshot ever contains a torn eviction.  The snapshot shares
        the cached (immutable) values by reference.
        """
        return MemoSnapshot(
            max_entries=self.pulse.max_entries,
            entries={c.name: c.snapshot() for c in self.caches()},
        )

    @classmethod
    def thaw(cls, snapshot: "MemoSnapshot") -> "EnvelopeMemo":
        """A warm, independently-owned memo rebuilt from ``snapshot``."""
        memo = cls(max_entries=snapshot.max_entries)
        for cache in memo.caches():
            cache.load(snapshot.entries.get(cache.name, []))
        return memo


#: Snapshot serialization format version (bump on layout change).
MEMO_SNAPSHOT_VERSION = 1


def _key_to_json(key: Hashable) -> List[Any]:
    if not isinstance(key, tuple):
        raise TypeError(f"memo keys must be tuples, got {type(key).__name__}")
    for part in key:
        if not isinstance(part, (str, int, float)):
            raise TypeError(f"unserializable key component {part!r}")
    return list(key)


def _key_from_json(parts: List[Any]) -> Tuple[Any, ...]:
    return tuple(parts)


def _value_to_json(cache_name: str, value: Any) -> Any:
    if cache_name == "pulse":
        return {
            "peak": value.peak,
            "rise": value.rise,
            "decay": value.decay,
            "lead": value.lead,
        }
    return array_to_json(value)


def _value_from_json(cache_name: str, payload: Any) -> Any:
    if cache_name == "pulse":
        return NoisePulse(
            peak=float(payload["peak"]),
            rise=float(payload["rise"]),
            decay=float(payload["decay"]),
            lead=float(payload["lead"]),
        )
    return readonly(array_from_json(payload))


@dataclass(frozen=True)
class MemoSnapshot:
    """A frozen copy of an :class:`EnvelopeMemo`'s contents.

    This is the serialization boundary between a live solver and the
    persistent store: values inside a snapshot are immutable and shared
    by reference, and the JSON round trip is bit-exact (array values
    travel as trimmed raw float64 records, see
    :mod:`repro.runtime.jsonio`, and are rebuilt read-only; pulse fields
    and key components survive via their shortest round-trip ``repr``),
    so a thawed memo reproduces the frozen one's lookups bit-for-bit.
    Snapshots written with ``{"$f8": ...}`` records or decimal float
    lists still load.
    """

    max_entries: int = DEFAULT_MAX_ENTRIES
    entries: Dict[str, List[Tuple[Hashable, Any]]] = field(default_factory=dict)

    def entry_count(self) -> int:
        return sum(len(items) for items in self.entries.values())

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": MEMO_SNAPSHOT_VERSION,
            "max_entries": self.max_entries,
            "caches": {
                name: [
                    [_key_to_json(key), _value_to_json(name, value)]
                    for key, value in items
                ]
                for name, items in sorted(self.entries.items())
            },
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "MemoSnapshot":
        version = payload.get("version")
        if version != MEMO_SNAPSHOT_VERSION:
            raise ValueError(f"unsupported memo snapshot version {version!r}")
        entries: Dict[str, List[Tuple[Hashable, Any]]] = {}
        for name, items in payload.get("caches", {}).items():
            if name not in MEMO_CACHES:
                continue
            entries[name] = [
                (_key_from_json(raw_key), _value_from_json(name, raw_value))
                for raw_key, raw_value in items
            ]
        return cls(max_entries=int(payload.get("max_entries", DEFAULT_MAX_ENTRIES)), entries=entries)


# ----------------------------------------------------------------------
# process-wide caches
# ----------------------------------------------------------------------
_GLOBAL: Dict[str, KeyedCache] = {}


def global_cache(name: str, max_entries: int = DEFAULT_MAX_ENTRIES) -> KeyedCache:
    """The process-wide cache registered under ``name`` (created once)."""
    cache = _GLOBAL.get(name)
    if cache is None:
        cache = _GLOBAL[name] = KeyedCache(name, max_entries)
    return cache


def global_cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/entry counts of every registered process-wide cache."""
    return {name: cache.stats() for name, cache in sorted(_GLOBAL.items())}


def reset_global_caches() -> None:
    """Drop entries *and* counters of all process-wide caches (tests)."""
    for cache in _GLOBAL.values():
        cache.clear()
        cache.hits = 0
        cache.misses = 0


def counter_delta(
    now: Dict[str, Dict[str, int]], base: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-cache ``now - base`` hit/miss counts (entry counts dropped)."""
    delta: Dict[str, Dict[str, int]] = {}
    for name, counts in now.items():
        ref = base.get(name, {})
        hits = counts.get("hits", 0) - ref.get("hits", 0)
        misses = counts.get("misses", 0) - ref.get("misses", 0)
        if hits or misses:
            delta[name] = {"hits": hits, "misses": misses}
    return delta
