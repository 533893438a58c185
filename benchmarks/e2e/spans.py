"""Outside-in layer attribution for the end-to-end benchmark.

A :class:`SpanTracer` replaces public entry points of the simulator's
layers — methods on classes, functions on modules — with wrappers that
time each call.  Spans nest through one stack: a span's *self* time is
its duration minus the time its traced children cover, so the self
times of all layers plus the time no span covers add up to the traced
wall time.  :meth:`SpanTracer.restore` puts every original attribute
back, so an untraced pass after a traced one runs the unchanged code.

Nothing under ``src/`` is edited: wrappers are installed on the live
objects, before the runs they observe construct their runtimes (the
schedulers bind their handler tables at construction).

A wrapper costs time of its own.  :func:`calibrate` measures that cost
in the running process and the tracer charges it to nobody: ``inner_ns``
(the clock read that falls inside a span) is taken off the span's own
self time and ``outer_ns`` (the rest) off its parent's.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, NamedTuple

#: Backend methods timed as "the scheduler" on both runtimes.
SCHEDULER_METHODS = (
    "begin_step",
    "do_compute",
    "do_spawn",
    "do_await",
    "do_await_all",
    "do_lock",
    "do_unlock",
    "do_yield",
    "complete",
    "fail",
)

#: TelemetryPipeline methods timed as "telemetry" (``record`` also
#: counts the samples it routes).
TELEMETRY_METHODS = ("start", "reset", "sample", "stop", "close")

_MISSING = object()


class Calibration(NamedTuple):
    """Per-call wrapper cost, split at the span's clock reads."""

    inner_ns: float
    outer_ns: float

    @property
    def per_call_ns(self) -> float:
        return self.inner_ns + self.outer_ns


class Span:
    """Accumulators of one span name."""

    __slots__ = ("self_ns", "calls", "count", "durations")

    def __init__(self) -> None:
        self.self_ns = 0.0
        self.calls = 0
        self.count = 0
        self.durations: list[float] | None = None


class SpanTracer:
    """Times wrapped callables and keeps per-name self time and call counts."""

    def __init__(
        self,
        calibration: Calibration = Calibration(0.0, 0.0),
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.calibration = calibration
        self.clock = clock
        # stack[0] collects the inclusive time of top-level spans (plus
        # their outer wrapper cost); deeper entries collect children.
        self.stack: list[float] = [0.0]
        self.spans: dict[str, Span] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._hooks: dict[Any, Callable[..., Any]] = {}

    # -- wrapping ------------------------------------------------------------

    def span(self, name: str) -> Span:
        found = self.spans.get(name)
        if found is None:
            found = self.spans[name] = Span()
        return found

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        keep_durations: bool = False,
        count: Callable[[Any], int] | None = None,
    ) -> Callable[..., Any]:
        """Return *fn* wrapped in a span called *name*.

        ``keep_durations`` records each call's duration (minus the
        wrapper cost of the spans nested in it); ``count`` adds
        ``count(result)`` to the span's count after each call.
        """
        acc = self.span(name)
        stack = self.stack
        clock = self.clock
        inner, outer = self.calibration
        if not keep_durations and count is None:

            def timed(*args: Any, **kwargs: Any) -> Any:
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    acc.self_ns += dt - stack.pop() - inner
                    acc.calls += 1
                    stack[-1] += dt + outer

            return timed

        if keep_durations:
            acc.durations = []
        durations = acc.durations
        spans = self.spans.values()
        per_call = inner + outer

        def timed_extra(*args: Any, **kwargs: Any) -> Any:
            nested = sum(s.calls for s in spans) if durations is not None else 0
            stack.append(0.0)
            t0 = clock()
            result = _MISSING
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                acc.self_ns += dt - stack.pop() - inner
                stack[-1] += dt + outer
                if durations is not None:
                    nested = sum(s.calls for s in spans) - nested
                    durations.append(dt - nested * per_call - inner)
                acc.calls += 1
                if count is not None and result is not _MISSING:
                    acc.count += count(result)

        return timed_extra

    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Replace ``owner.attr`` with a span wrapper (undone by :meth:`restore`)."""
        original = owner.__dict__.get(attr, _MISSING)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(name, original.__func__, **options))
        else:
            replacement = self.wrap(name, getattr(owner, attr), **options)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_trace_hooks(self, bus_class: Any, name: str) -> None:
        """Time every hook passed to ``bus_class.subscribe_trace``.

        The bus stores the wrapper; ``unsubscribe_trace`` with the
        original hook is mapped back to that wrapper.
        """
        subscribe = bus_class.subscribe_trace
        unsubscribe = bus_class.unsubscribe_trace
        hooks = self._hooks

        def subscribe_trace(bus: Any, hook: Callable[..., Any]) -> None:
            wrapped = hooks.get(hook)
            if wrapped is None:
                wrapped = hooks[hook] = self.wrap(name, hook)
            subscribe(bus, wrapped)

        def unsubscribe_trace(bus: Any, hook: Callable[..., Any]) -> None:
            unsubscribe(bus, hooks.pop(hook, hook))

        for attr, replacement in (
            ("subscribe_trace", subscribe_trace),
            ("unsubscribe_trace", unsubscribe_trace),
        ):
            self._patches.append((bus_class, attr, bus_class.__dict__.get(attr, _MISSING)))
            setattr(bus_class, attr, replacement)

    def restore(self) -> None:
        """Put back every attribute this tracer replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._hooks.clear()

    # -- results -------------------------------------------------------------

    @property
    def covered_ns(self) -> float:
        """Time inside top-level spans, their outer wrapper cost included."""
        return self.stack[0]

    @property
    def total_calls(self) -> int:
        return sum(s.calls for s in self.spans.values())

    def self_s(self, *names: str) -> float:
        return sum(self.spans[n].self_ns for n in names if n in self.spans) / 1e9

    def calls(self, name: str) -> int:
        return self.spans[name].calls if name in self.spans else 0

    def count(self, name: str) -> int:
        return self.spans[name].count if name in self.spans else 0

    def durations(self, name: str) -> list[float]:
        span = self.spans.get(name)
        return list(span.durations or ()) if span is not None else []


def calibrate(rounds: int = 7, calls: int = 20_000) -> Calibration:
    """Measure the per-call cost of a span wrapper in this process.

    ``inner_ns`` is one back-to-back clock read (the part of the cost
    a span's own duration contains); the remainder of the difference
    between a wrapped and a bare call is ``outer_ns``.  Medians over
    ``rounds`` keep a descheduled round from skewing either.
    """
    clock = time.perf_counter_ns

    # The wrapped entry points are mostly methods taking three
    # positional arguments (a handler's worker, task and effect).
    class Target:
        def noop(self, worker: Any, task: Any, effect: Any) -> Any:
            return effect

    bare_target = Target()
    wrapped_class = type("Wrapped", (Target,), {"noop": SpanTracer().wrap("cal", Target.noop)})
    wrapped_target = wrapped_class()

    reads: list[float] = []
    per_call: list[float] = []
    for _ in range(rounds):
        t0 = clock()
        for _ in range(calls):
            clock()
        reads.append((clock() - t0) / calls)
        t0 = clock()
        for i in range(calls):
            bare_target.noop(i, i, i)
        bare = clock() - t0
        t0 = clock()
        for i in range(calls):
            wrapped_target.noop(i, i, i)
        per_call.append((clock() - t0 - bare) / calls)
    inner = statistics.median(reads)
    return Calibration(inner, max(0.0, statistics.median(per_call) - inner))


def install_layers(tracer: SpanTracer) -> None:
    """Wrap the public entry point of every layer of the simulator."""
    from repro import api
    from repro.campaign import engine as campaign_engine
    from repro.campaign.cache import ResultCache
    from repro.exec.cohort import CohortEngine
    from repro.exec.interp import EffectInterpreter
    from repro.exec.probes import ProbeBus
    from repro.kernel.scheduler import StdRuntime
    from repro.profiler.builder import ProfileBuilder
    from repro.runtime.scheduler import HpxRuntime
    from repro.simcore.events import Engine
    from repro.simcore.machine import Machine
    from repro.telemetry.pipeline import TelemetryPipeline
    from repro.workloads import available_workloads, get_workload
    from repro.workloads.spec import WorkloadSpec

    tracer.patch(api.Session, "run", "api.run")
    tracer.patch(WorkloadSpec, "build", "workloads.build")
    tracer.patch(api, "build_registry", "counters.registry")
    tracer.patch(Engine, "run", "simcore.events")
    tracer.patch(EffectInterpreter, "step", "exec.interp")
    for method in SCHEDULER_METHODS:
        tracer.patch(HpxRuntime, method, "runtime.scheduler")
        tracer.patch(StdRuntime, method, "kernel.scheduler")
    tracer.patch(Machine, "segment_begin", "platform.resource.begin")
    tracer.patch(Machine, "segment_end", "platform.resource.end")
    tracer.patch(ProbeBus, "emit_dependencies", "exec.probes")
    tracer.patch_trace_hooks(ProbeBus, "profiler.hook")
    tracer.patch(ProfileBuilder, "finalize", "profiler.finalize")
    for method in TELEMETRY_METHODS:
        tracer.patch(TelemetryPipeline, method, "telemetry")
    tracer.patch(TelemetryPipeline, "record", "telemetry.record", count=len)
    tracer.patch(CohortEngine, "submit", "exec.cohort")
    # Patch each class that defines ``verify`` once, so an inherited
    # verifier is not wrapped twice.
    definers = {
        next(c for c in type(get_workload(name).benchmark).__mro__ if "verify" in c.__dict__)
        for name in available_workloads()
    }
    for cls in sorted(definers, key=lambda c: c.__qualname__):
        tracer.patch(cls, "verify", "inncabs.verify")
    tracer.patch(campaign_engine, "execute_cell", "campaign.cell", keep_durations=True)
    tracer.patch(campaign_engine, "cell_cache_key", "campaign.keys")
    tracer.patch(campaign_engine.CampaignArtifact, "build", "campaign.artifact")
    tracer.patch(ResultCache, "load", "campaign.cache.load", count=lambda hit: hit is not None)
    tracer.patch(ResultCache, "store", "campaign.cache.store")
