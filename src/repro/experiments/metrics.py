"""The paper's metrics (Section V-C) as first-class extractors.

Each function maps a :class:`~repro.api.RunResult` or a
:class:`~repro.experiments.harness.ScalingPoint` (anything carrying a
``counters`` dict, plus an execution time) to one number, exactly as the
paper defines it.  The figure and table generators compute these
metrics through this module, so each has one definition:

- **Task Duration** — ``/threads/time/average``;
- **Task Overhead** — ``/threads/time/average-overhead``;
- **Task Time (per core)** — ``/threads/time/cumulative`` ÷ cores;
- **Scheduling Overhead (per core)** —
  ``/threads/time/cumulative-overhead`` ÷ cores;
- **Bandwidth** — offcore requests × 64 B ÷ execution time.
"""

from __future__ import annotations

from typing import Any

from repro.model.work import CACHE_LINE
from repro.telemetry.pipeline import PAPI_COUNTERS

TASK_DURATION = "/threads{locality#0/total}/time/average"
TASK_OVERHEAD = "/threads{locality#0/total}/time/average-overhead"
TASK_TIME = "/threads{locality#0/total}/time/cumulative"
SCHED_OVERHEAD = "/threads{locality#0/total}/time/cumulative-overhead"
IDLE_RATE = "/threads{locality#0/total}/idle-rate"


def _counters(run: Any) -> dict[str, float]:
    counters = getattr(run, "counters", None)
    if not counters:
        raise ValueError("no counters on this result — collect them (counters=() turns them off)")
    return counters


def _exec_time_ns(run: Any) -> float:
    for attr in ("exec_time_ns", "median_exec_ns"):
        value = getattr(run, attr, None)
        if value is not None:
            return float(value)
    raise ValueError("result carries no execution time")


def task_duration_us(run: Any) -> float:
    """Average task grain size in µs (Table V's measurement)."""
    return _counters(run)[TASK_DURATION] / 1e3


def task_overhead_us(run: Any) -> float:
    """Average per-task scheduling cost in µs."""
    return _counters(run)[TASK_OVERHEAD] / 1e3


def task_time_per_core_ms(run: Any, cores: int) -> float:
    """Cumulative task execution time divided by cores, in ms."""
    if cores < 1:
        raise ValueError("cores must be >= 1")
    return _counters(run)[TASK_TIME] / cores / 1e6


def scheduling_overhead_per_core_ms(run: Any, cores: int) -> float:
    """Cumulative scheduling overhead divided by cores, in ms."""
    if cores < 1:
        raise ValueError("cores must be >= 1")
    return _counters(run)[SCHED_OVERHEAD] / cores / 1e6


def overhead_fraction(run: Any) -> float:
    """Scheduling overhead as a fraction of task time (Figs 11/12's
    'overheads equivalent to / ~50% of the task time')."""
    counters = _counters(run)
    task_time = counters[TASK_TIME]
    return counters[SCHED_OVERHEAD] / task_time if task_time else 0.0


def idle_fraction(run: Any) -> float:
    """Idle rate as a plain fraction in [0, 1]."""
    return _counters(run)[IDLE_RATE] / 10_000.0


def bandwidth_gbs(run: Any) -> float:
    """The paper's offcore bandwidth estimate in GB/s."""
    counters = _counters(run)
    requests = sum(counters[name] for name in PAPI_COUNTERS)
    seconds = _exec_time_ns(run) / 1e9
    return requests * CACHE_LINE / seconds / 1e9 if seconds else 0.0
