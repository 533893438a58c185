"""The one effect-interpretation loop both runtimes execute through.

Task bodies are generator coroutines yielding
:mod:`repro.model.effects` values.  :class:`EffectInterpreter` owns the
runtime-independent mechanics of driving them — resume the generator
(``send`` or ``throw`` for exception propagation through futures),
translate ``StopIteration`` into task completion and an uncaught
exception into task failure, and dispatch the yielded effect through a
table keyed on the effect's exact class (the effects are final frozen
dataclasses, so a dict lookup replaces an isinstance chain on the
hottest path).

The backend supplies the policy: every handler, completion, failure and
the per-step gate come from the :class:`~repro.exec.backend.SchedulerBackend`.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Generator

from repro.model.context import TaskContext
from repro.model.effects import (
    Await,
    AwaitAll,
    Compute,
    Lock,
    Spawn,
    Unlock,
    YieldNow,
)
from repro.model.future import ThrowValue

Handler = Callable[[Any, Any, Any], None]

#: ``rewriter(task, work) -> Work`` — return ``work`` itself (the same
#: object) to leave the effect untouched; any other value replaces it.
WorkRewriter = Callable[[Any, Any], Any]


class EffectInterpreter:
    """Drives one backend's task coroutines, one step at a time.

    A *step* is one resumption of a task body: send the pending value
    (or throw the pending exception) into the generator, then hand the
    yielded effect to the backend handler that implements it.  Backends
    schedule ``interp.step`` on the event engine wherever they used to
    schedule their private step function.  The first step calls the
    task's body, ``task.fn(ctx, *task.args)``, to create ``task.gen``;
    every task of the backend shares that one :class:`TaskContext`.
    """

    __slots__ = ("backend", "_ctx", "_handlers", "compute_rewriter")

    def __init__(self, backend: Any) -> None:
        self.backend = backend
        self._ctx = TaskContext(backend)
        self.compute_rewriter: WorkRewriter | None = None
        self._handlers: dict[type, Handler] = {
            Compute: backend.do_compute,
            Spawn: backend.do_spawn,
            Await: backend.do_await,
            AwaitAll: backend.do_await_all,
            Lock: backend.do_lock,
            Unlock: backend.do_unlock,
            YieldNow: backend.do_yield,
        }

    def set_compute_rewriter(self, rewriter: WorkRewriter | None) -> None:
        """Install (or, with ``None``, remove) a what-if work rewriter.

        The rewriter intercepts every :class:`Compute` effect *before*
        the backend handles it and may substitute a different
        :class:`~repro.model.work.Work`.  When it returns the identical
        object the original effect is dispatched untouched, so a
        factor-1.0 rewrite (``Work.scaled(1.0)`` returns ``self``) is
        bit-identical to running without a rewriter.  The swap happens
        in the dispatch table, so the non-rewriting path costs nothing.
        """
        self.compute_rewriter = rewriter
        if rewriter is None:
            self._handlers[Compute] = self.backend.do_compute
            return
        do_compute = self.backend.do_compute

        def rewritten_compute(worker: Any, task: Any, effect: Any) -> None:
            new_work = rewriter(task, effect.work)
            if new_work is not effect.work:
                effect = Compute(new_work)
            do_compute(worker, task, effect)

        self._handlers[Compute] = rewritten_compute

    def step(self, worker: Any, task: Any, send_value: Any) -> None:
        """Resume *task* with *send_value* and dispatch what it yields."""
        backend = self.backend
        if not backend.begin_step(worker, task):
            return
        gen = task.gen
        if gen is None:  # first activation: bind the body to its context
            gen = task.fn(self._ctx, *task.args)
            # The exact-type test spares plain generators the ABC check.
            if gen.__class__ is not GeneratorType and not isinstance(gen, Generator):
                raise TypeError(f"task body {task.description!r} must be a generator function")
            task.gen = gen
        task.pending_send = None
        try:
            if send_value.__class__ is ThrowValue:
                effect = gen.throw(send_value.exc)
            else:
                effect = gen.send(send_value)
        except StopIteration as stop:
            backend.complete(worker, task, stop.value)
            return
        except Exception as exc:  # body raised: propagate through the future
            backend.fail(worker, task, exc)
            return
        handler = self._handlers.get(effect.__class__)
        if handler is None:
            backend.fail(worker, task, TypeError(f"task yielded non-effect {effect!r}"))
            return
        handler(worker, task, effect)
