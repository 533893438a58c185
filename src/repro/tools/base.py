"""External-tool instrumentation model over the kernel runtime."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.inncabs.suite import get_benchmark
from repro.kernel.config import default_std_params
from repro.kernel.scheduler import StdRuntime
from repro.kernel.thread import OSThread
from repro.simcore.clock import s as seconds
from repro.simcore.events import Engine
from repro.simcore.machine import Machine


class ToolOutcome(enum.Enum):
    """Table I cell states."""

    COMPLETED = "completed"
    SEGV = "SegV"
    ABORT = "Abort"
    TIMEOUT = "timeout"


class ToolCrash(RuntimeError):
    """The instrumented process died (tool-induced)."""

    def __init__(self, outcome: ToolOutcome, reason: str) -> None:
        super().__init__(reason)
        self.outcome = outcome


@dataclass(frozen=True)
class ToolModel:
    """Cost/failure model of one external tool."""

    name: str
    # Fixed-size thread bookkeeping: creating more threads than this
    # kills the process (TAU's compile-time table).  None = unlimited.
    max_threads: int | None
    # Serialized per-thread setup (file creation, table registration):
    # every thread creation queues on this shared resource.
    serialized_per_thread_ns: int
    # Extra committed memory per live thread (measurement buffers).
    per_thread_memory_bytes: int
    # Per-dispatch sampling/probe overhead on every context switch.
    per_dispatch_ns: int
    # Simulated wall-clock budget before the run is declared hung.
    timeout_ns: int = seconds(120)


@dataclass
class ToolRunResult:
    """One Table I cell."""

    benchmark: str
    tool: str
    outcome: ToolOutcome
    exec_time_ns: int = 0
    threads_created: int = 0

    @property
    def exec_time_ms(self) -> float:
        return self.exec_time_ns / 1e6

    def overhead_percent(self, baseline_ns: int) -> float | None:
        """Overhead vs an uninstrumented baseline, as the paper reports."""
        if self.outcome is not ToolOutcome.COMPLETED or baseline_ns <= 0:
            return None
        return (self.exec_time_ns - baseline_ns) / baseline_ns * 100.0


class InstrumentedStdRuntime(StdRuntime):
    """Kernel runtime with an external tool attached.

    Thread creation pays the tool's serialized setup (a shared-timeline
    resource, like the scheduler lock), commits extra measurement
    memory, and trips the tool's thread-table limit.
    """

    def __init__(self, *args: Any, tool: ToolModel, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        base = self.params
        self.params = replace(
            base,
            context_switch_ns=base.context_switch_ns + tool.per_dispatch_ns,
            thread_commit_bytes=base.thread_commit_bytes + tool.per_thread_memory_bytes,
        )
        self.tool = tool
        self._tool_serial_free_at = 0

    def _tool_serial_delay(self) -> int:
        start = max(self.engine.now, self._tool_serial_free_at)
        self._tool_serial_free_at = start + self.tool.serialized_per_thread_ns
        return self._tool_serial_free_at - self.engine.now

    def _make_thread(self, *args: Any, **kwargs: Any) -> OSThread:
        if (
            self.tool.max_threads is not None
            and self.stats.tasks_created >= self.tool.max_threads
        ):
            reason = (
                f"{self.tool.name}: thread table exhausted "
                f"({self.stats.tasks_created} >= {self.tool.max_threads})"
            )
            self.abort_reason = reason
            self.aborted = True
            self.engine.stop(reason)
            raise ToolCrash(ToolOutcome.SEGV, reason)
        thread = super()._make_thread(*args, **kwargs)
        return thread

    def do_spawn(self, core: Any, thread: Any, effect: Any) -> None:
        # The tool's serialized per-thread setup happens inside the
        # creating thread, before std::async returns.
        delay = self._tool_serial_delay()
        thread.exec_ns += delay
        self.stats.exec_ns += delay
        self.engine.schedule(delay, lambda: self._spawn_after_tool(core, thread, effect))

    def _spawn_after_tool(self, core: Any, thread: Any, effect: Any) -> None:
        if self.aborted:
            return
        try:
            super().do_spawn(core, thread, effect)
        except ToolCrash:
            pass  # abort flag already set; the engine stops


def run_with_tool(
    benchmark: str,
    tool: ToolModel,
    *,
    cores: int = 20,
    params: Mapping[str, Any] | None = None,
) -> ToolRunResult:
    """Run the std::async *benchmark* under *tool* on the paper's node; one Table I cell."""
    bench = get_benchmark(benchmark)
    merged = bench.params_with_defaults(params)
    root_fn, root_args = bench.make_root(merged)

    engine = Engine()
    machine = Machine()
    rt = InstrumentedStdRuntime(
        engine, machine, num_workers=cores, params=default_std_params(), tool=tool
    )
    result = ToolRunResult(benchmark=benchmark, tool=tool.name, outcome=ToolOutcome.COMPLETED)
    try:
        future = rt.submit(root_fn, *root_args)
        engine.run(until=tool.timeout_ns)
    except ToolCrash as crash:
        result.outcome = crash.outcome
        result.threads_created = rt.stats.tasks_created
        return result
    result.threads_created = rt.stats.tasks_created
    if rt.aborted:
        # Tool-induced memory exhaustion reads as SegV (the tool's
        # buffers clobbered); plain thread explosion as Abort.
        induced = tool.per_thread_memory_bytes > 0
        result.outcome = ToolOutcome.SEGV if induced else ToolOutcome.ABORT
        return result
    if not future.is_ready:
        result.outcome = ToolOutcome.TIMEOUT
        result.exec_time_ns = engine.now
        return result
    result.exec_time_ns = engine.now
    return result
