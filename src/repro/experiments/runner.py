"""The result record of one benchmark run.

One :class:`RunResult` is one cell of the paper's experiment matrix:
wall time, verification, counter values sampled exactly as the paper
does with ``hpx::evaluate_active_counters`` / ``reset_active_counters``,
and the process statistics.  Runs are executed by
:class:`repro.api.Session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class RunResult:
    """Outcome of one benchmark run."""

    benchmark: str
    runtime: str  # "hpx" | "std"
    cores: int
    mode: str = "exact"  # execution mode: "exact" | "cohort"
    aborted: bool = False
    abort_reason: str | None = None
    exec_time_ns: int = 0
    verified: bool = False
    result: Any = None
    counters: dict[str, float] = field(default_factory=dict)
    # The run's telemetry frame: every sample recorded through the
    # pipeline (periodic rows plus the final evaluation).  ``counters``
    # is the final evaluation as a {name: value} dict.
    telemetry: Any = None  # repro.telemetry.frame.TelemetryFrame | None
    tasks_executed: int = 0
    tasks_created: int = 0
    peak_live_tasks: int = 0
    offcore_bytes: int = 0
    engine_events: int = 0
    # The causal profile (repro.profiler.report.RunProfile) when the
    # run was profiled; a plain summary dict when loaded back from a
    # campaign artifact.
    profile: Any = None

    @property
    def exec_time_us(self) -> float:
        return self.exec_time_ns / 1_000

    @property
    def exec_time_ms(self) -> float:
        return self.exec_time_ns / 1_000_000

    def counter(self, name: str) -> float:
        """Counter value by exact name; raises KeyError listing names."""
        try:
            return self.counters[name]
        except KeyError:
            known = "\n  ".join(self.counters)
            raise KeyError(f"no counter {name!r} in result; collected:\n  {known}") from None
