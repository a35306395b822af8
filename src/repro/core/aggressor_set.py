"""Aggressor sets as (coupling ids, combined envelope) pairs.

The unit the top-k algorithm enumerates is an :class:`EnvelopeSet`: a set
of aggressor-victim coupling ids together with the combined noise envelope
those couplings contribute on one victim, sampled on that victim's grid.
Primary aggressors, pseudo input aggressors and higher-order aggressors are
all EnvelopeSets (of innate cardinality 1, i, and j+1 respectively), and
the irredundant lists are lists of EnvelopeSets.

``blocked`` carries coupling ids that must not co-occur with this set —
used in elimination mode where removing a primary coupling subsumes
removing the fanin couplings that merely widened its envelope (merging the
two would double-count the envelope).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet

import numpy as np


class SetError(ValueError):
    """Raised for invalid aggressor-set operations."""


@dataclass
class EnvelopeSet:
    """A candidate aggressor set on one victim.

    Attributes
    ----------
    couplings:
        The aggressor-victim coupling ids in the set (the paper's atomic
        "aggressors"); cardinality is ``len(couplings)``.
    env:
        Combined noise envelope sampled on the victim's grid (normalized
        voltage per grid point).
    blocked:
        Coupling ids that may not be merged into this set (see module doc).
    score:
        Mode-dependent figure of merit at this victim: the delay noise the
        set *adds* (addition mode) or the delay noise *remaining* after the
        set is removed (elimination mode).  Filled by the solver's scoring
        pass.
    label:
        Human-readable provenance for reports/debugging, e.g.
        ``"primary:c17"`` or ``"pseudo(u3)"``.
    """

    couplings: FrozenSet[int]
    env: np.ndarray
    blocked: FrozenSet[int] = frozenset()
    score: float = 0.0
    label: str = ""

    @property
    def cardinality(self) -> int:
        return len(self.couplings)

    def compatible(self, other: "EnvelopeSet") -> bool:
        """True when the two sets may merge (disjoint and un-blocked)."""
        if self.couplings & other.couplings:
            return False
        if self.blocked & other.couplings:
            return False
        if other.blocked & self.couplings:
            return False
        return True

    def merged(self, other: "EnvelopeSet") -> "EnvelopeSet":
        """Union of two compatible sets; envelopes add (linear framework)."""
        if not self.compatible(other):
            raise SetError(
                f"sets {sorted(self.couplings)} and {sorted(other.couplings)} "
                "are not compatible"
            )
        if self.env.shape != other.env.shape:
            raise SetError("cannot merge envelopes on different grids")
        return EnvelopeSet(
            couplings=self.couplings | other.couplings,
            env=self.env + other.env,
            blocked=self.blocked | other.blocked,
            label=join_labels(self.label, other.label),
        )

    def with_score(self, score: float) -> "EnvelopeSet":
        return replace(self, score=score)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ids = ",".join(str(i) for i in sorted(self.couplings))
        return f"EnvelopeSet({{{ids}}}, score={self.score:.5f}, {self.label})"


def join_labels(a: str, b: str) -> str:
    """The provenance label of a merge: ``"a+b"``, or whichever is set."""
    return f"{a}+{b}" if a and b else a or b

