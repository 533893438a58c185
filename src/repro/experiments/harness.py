"""Strong-scaling aggregation.

The paper's protocol: increase the core count while holding the
workload fixed; 20 samples per configuration; medians of execution
times and of every performance counter (counters are evaluated and
reset around each sample with the ``hpx::evaluate_active_counters`` /
``reset_active_counters`` API).

A :class:`~repro.campaign.spec.CampaignSpec` describes that experiment
and :func:`~repro.campaign.engine.run_campaign` runs it; its artifact
folds each core count's samples with :func:`aggregate_point` into the
:class:`ScalingCurve`\\ s every figure and table reads.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Sequence

from repro.api import RunResult


@dataclass
class ScalingPoint:
    """Aggregated samples for one core count."""

    cores: int
    aborted: bool
    median_exec_ns: float = 0.0
    exec_samples: tuple[int, ...] = ()
    counters: dict[str, float] = field(default_factory=dict)  # medians
    tasks_executed: int = 0
    peak_live_tasks: int = 0
    offcore_bytes: int = 0

    @property
    def median_exec_ms(self) -> float:
        return self.median_exec_ns / 1e6


@dataclass
class ScalingCurve:
    """One benchmark x runtime strong-scaling series."""

    benchmark: str
    runtime: str
    points: list[ScalingPoint]

    def point(self, cores: int) -> ScalingPoint:
        for p in self.points:
            if p.cores == cores:
                return p
        raise KeyError(f"no point for {cores} cores in {self.benchmark}/{self.runtime}")

    @property
    def baseline_ns(self) -> float | None:
        """Median one-core time (None if the one-core run aborted)."""
        p = self.points[0]
        return None if p.aborted else p.median_exec_ns

    def speedup(self, cores: int) -> float | None:
        base = self.baseline_ns
        p = self.point(cores)
        if base is None or p.aborted or p.median_exec_ns <= 0:
            return None
        return base / p.median_exec_ns

    def scales_to(self, tolerance: float = 0.03) -> str:
        """Table V style scaling label: 'to N', 'no scaling' or 'fail'.

        'to N' names the :func:`knee`; any aborted point fails.
        """
        best_cores = knee(self, tolerance)
        if best_cores is None or any(p.aborted for p in self.points):
            return "fail"
        if best_cores == self.points[0].cores:
            return "no scaling"
        return f"to {best_cores}"


def knee(curve: ScalingCurve, tolerance: float = 0.03) -> int | None:
    """The core count past which no point improves by > *tolerance*.

    The largest core count whose time improves on every smaller one by
    more than *tolerance*; aborted points are skipped.  None when the
    curve fails at every point.
    """
    live = [p for p in curve.points if not p.aborted]
    if not live:
        return None
    best_cores = live[0].cores
    best = live[0].median_exec_ns
    for point in live[1:]:
        if point.median_exec_ns < best * (1 - tolerance):
            best = point.median_exec_ns
            best_cores = point.cores
    return best_cores


def aggregate_point(cores: int, runs: Sequence[RunResult]) -> ScalingPoint:
    """Fold one core count's samples into a :class:`ScalingPoint`.

    Medians of execution time and of every counter, per the paper's
    protocol.
    """
    aborted = any(r.aborted for r in runs)
    point = ScalingPoint(cores=cores, aborted=aborted)
    point.peak_live_tasks = max(r.peak_live_tasks for r in runs)
    if not aborted:
        times = [r.exec_time_ns for r in runs]
        point.median_exec_ns = statistics.median(times)
        point.exec_samples = tuple(times)
        point.tasks_executed = runs[0].tasks_executed
        point.offcore_bytes = round(statistics.median([r.offcore_bytes for r in runs]))
        point.counters = {
            name: statistics.median([r.counters[name] for r in runs]) for name in runs[0].counters
        }
    return point
