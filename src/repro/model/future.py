"""Future/promise used by both runtimes.

Semantics follow ``std::future`` / ``hpx::future``: single producer,
single fulfilment, value or exception, ready-callbacks for the runtimes
to wake waiters.  The *waiting* mechanics differ per runtime (an HPX
task suspends; a kernel thread blocks) and live in the runtimes — this
class only carries state.
"""

from __future__ import annotations

import enum
from typing import Any, Callable


class FutureState(enum.Enum):
    NOT_READY = "not_ready"
    READY = "ready"
    EXCEPTION = "exception"


class FutureError(RuntimeError):
    """Invalid future usage (double set, get before ready)."""


# Hot-path aliases (one global load each).
_NOT_READY = FutureState.NOT_READY
_READY = FutureState.READY


class ThrowValue:
    """Resume marker: throw the wrapped exception into the waiting
    generator instead of sending a value (``future.get()`` re-raising)."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


def resume_payload(future: "SimFuture") -> Any:
    """What a waiter of the settled *future* should be resumed with:
    the value, or a :class:`ThrowValue` carrying the stored exception."""
    exc = future._exception
    if exc is not None:
        return ThrowValue(exc)
    return future._value


def resume_payload_all(futures: Any) -> Any:
    """Joint resume payload for a list of futures: the list of values,
    or a :class:`ThrowValue` of the first stored exception."""
    for fut in futures:
        exc = fut._exception
        if exc is not None:
            return ThrowValue(exc)
    return [fut._value for fut in futures]


class SimFuture:
    """Write-once container with ready callbacks.

    Until it is settled a future holds its ``producer_task``, which the
    runtimes read to run a ``deferred`` task inline at its first wait;
    settling drops it, so a retired task and its future do not keep
    each other alive.  ``producer_tid``, which the producer passes in
    with itself, outlives the settlement: the probe bus reads it for the
    ``depend`` edges of the join.
    """

    __slots__ = ("state", "_value", "_exception", "_callbacks", "producer_task", "producer_tid")

    def __init__(self, producer_task: Any = None, producer_tid: int | None = None) -> None:
        self.state = _NOT_READY
        self._value: Any = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["SimFuture"], None]] = []
        self.producer_task = producer_task
        self.producer_tid = producer_tid

    @property
    def is_ready(self) -> bool:
        return self.state is not _NOT_READY

    def set_value(self, value: Any) -> None:
        """Fulfil the future; fires callbacks synchronously, in FIFO order."""
        if self.state is not _NOT_READY:
            raise FutureError("future already satisfied")
        self._value = value
        self.state = _READY
        self.producer_task = None
        if self._callbacks:
            self._fire()

    def set_exception(self, exc: BaseException) -> None:
        """Fail the future; ``value`` will re-raise *exc* for every waiter."""
        if self.state is not _NOT_READY:
            raise FutureError("future already satisfied")
        self._exception = exc
        self.state = FutureState.EXCEPTION
        self.producer_task = None
        self._fire()

    def value(self) -> Any:
        """The stored value (re-raises a stored exception)."""
        if self.state is FutureState.READY:
            return self._value
        if self.state is FutureState.EXCEPTION:
            assert self._exception is not None
            raise self._exception
        raise FutureError("future not ready")

    def exception(self) -> BaseException | None:
        """The stored exception, or None."""
        return self._exception

    def on_ready(self, callback: Callable[["SimFuture"], None]) -> None:
        """Run *callback(self)* when ready (immediately if already ready)."""
        if self.state is not _NOT_READY:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)
