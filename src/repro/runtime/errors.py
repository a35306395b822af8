"""Structured error taxonomy of the resilient runtime.

Every failure the solver stack can produce descends from
:class:`ReproError`, which carries *where* the failure happened (victim
net, coupling id, candidate set, solve phase) alongside the message.
Callers can switch on the subclass and machine-read the context instead
of parsing strings, and the chaos suite asserts that injected faults
never escape as anything outside this taxonomy.

The legacy exception types keep their historical bases so existing
``except ValueError`` / ``except RuntimeError`` call sites continue to
work:

* :class:`~repro.core.engine.TopKError` is ``(ReproError, ValueError)``;
* :class:`~repro.noise.analysis.ConvergenceError` is
  ``(ReproError, RuntimeError)``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Type, cast


class ReproError(Exception):
    """Base class of all structured solver errors.

    Context is passed as keyword arguments and rendered into the message;
    ``None`` values are dropped so call sites can pass whatever they have::

        raise ReproError("bad sample", net="n12", coupling=7, phase="sweep")

    Attributes
    ----------
    message:
        The bare human-readable message (without the context suffix).
    context:
        The non-``None`` keyword context, e.g. ``{"net": "n12"}``.
    """

    def __init__(self, message: str, **context: Any) -> None:
        self.message = message
        self.context: Dict[str, Any] = {
            k: v for k, v in context.items() if v is not None
        }
        super().__init__(message)

    def __str__(self) -> str:
        if not self.context:
            return self.message
        ctx = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
        return f"{self.message} [{ctx}]"

    def __reduce__(self) -> Tuple[Any, ...]:
        # Default Exception pickling replays only ``args`` (the bare
        # message) and would drop the keyword context — an error that
        # crosses a process boundary must keep its net/phase context.
        return (_rebuild_error, (type(self), self.message, self.context))

    @property
    def net(self) -> Optional[str]:
        """The victim/net the failure is attributed to, when known."""
        return cast(Optional[str], self.context.get("net"))

    @property
    def phase(self) -> Optional[str]:
        """The solve phase (``sweep``, ``score``, ``noise``, ...)."""
        return cast(Optional[str], self.context.get("phase"))


def _rebuild_error(
    cls: Type["ReproError"], message: str, context: Dict[str, Any]
) -> "ReproError":
    """Unpickle hook for :meth:`ReproError.__reduce__`."""
    return cls(message, **context)


class BudgetExceededError(ReproError):
    """A :class:`~repro.runtime.budget.RunBudget` cap was hit with
    ``on_budget="raise"``.

    Context always includes ``reason`` (``deadline`` / ``candidates`` /
    ``memory``) and ``elapsed_s``; during a sweep it also carries the
    victim ``net`` and ``cardinality`` at the cancellation checkpoint.
    """


class WaveformFaultError(ReproError):
    """A waveform / envelope sample is non-finite (NaN or Inf) or
    negative beyond tolerance.

    Raised by the guards in :mod:`repro.core.engine` and
    :mod:`repro.noise.pulse` at the offending net, instead of letting the
    corruption propagate silently into t50 scoring.
    """


class CheckpointError(ReproError):
    """A checkpoint file is unreadable, malformed, or does not match the
    design/config it is being restored into."""


class CertificateError(ReproError):
    """A solve certificate is unreadable, malformed, or was rejected by
    the independent checker (:func:`repro.verify.check_certificate`).

    When the checker rejects, the message carries its summary and the
    context includes ``findings`` (the stringified error findings), so
    the offending net/prune record is pinpointed in the exception."""
