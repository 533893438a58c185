"""Generators for Table I and Table V."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.experiments import metrics
from repro.api import RunSpec, Session
from repro.inncabs.suite import available_benchmarks, get_benchmark
from repro.tools import HPCTOOLKIT, TAU, ToolOutcome, ToolRunResult, run_with_tool
from repro.workloads import WorkloadSpec

if TYPE_CHECKING:
    from repro.campaign.artifact import CampaignArtifact


def classify_granularity(task_duration_us: float) -> str:
    """Grain-size class per the paper's Table V bands."""
    if task_duration_us >= 500:
        return "coarse"
    if task_duration_us >= 150:
        return "moderate"
    if task_duration_us >= 10:
        return "fine"
    return "very fine"


@dataclass
class Table1Row:
    """One row of Table I: baseline vs TAU vs HPCToolkit at 20 cores."""

    benchmark: str
    baseline_ms: float | None  # None = baseline itself aborted
    baseline_tasks: int
    tau: ToolRunResult
    hpctoolkit: ToolRunResult

    def cell(self, tool_result: ToolRunResult) -> str:
        if tool_result.outcome is not ToolOutcome.COMPLETED:
            return tool_result.outcome.value
        if self.baseline_ms is None:
            return f"{tool_result.exec_time_ms:.0f}"
        overhead = tool_result.overhead_percent(round(self.baseline_ms * 1e6))
        return f"{tool_result.exec_time_ms:.0f} ({overhead:.0f}%)"


def table1(*, benchmarks: Sequence[str] | None = None, cores: int = 20) -> list[Table1Row]:
    """Regenerate Table I: external tools on the std::async versions.

    The baseline is the plain std::async run: no counters, like the tool runs.
    """
    rows = []
    for name in benchmarks or available_benchmarks():
        base = Session().run(RunSpec(name, runtime="std", cores=cores, counters=()))
        rows.append(
            Table1Row(
                benchmark=name,
                baseline_ms=None if base.aborted else base.exec_time_ms,
                baseline_tasks=base.tasks_created,
                tau=run_with_tool(name, TAU, cores=cores),
                hpctoolkit=run_with_tool(name, HPCTOOLKIT, cores=cores),
            )
        )
    return rows


@dataclass
class Table5Row:
    """One row of Table V: classification, grain size and scaling."""

    benchmark: str
    structure: str
    synchronization: str
    task_duration_us: float  # measured, 1 core, HPX counter
    granularity: str  # classified from the measurement
    scaling_std: str  # measured "to N" / "fail" / "no scaling"
    scaling_hpx: str
    paper_task_duration_us: float
    paper_granularity: str
    paper_scaling_std: str
    paper_scaling_hpx: str


def table5(artifact: "CampaignArtifact") -> list[Table5Row]:
    """Regenerate Table V from *artifact*: one row per benchmark of its spec.

    Task duration is the ``/threads/time/average`` counter on one core
    (exactly how the paper measured grain size); scaling labels come
    from the strong-scaling medians of both runtimes.
    """
    rows = []
    for name in artifact.spec.benchmarks:
        bench = get_benchmark(WorkloadSpec.parse(name).name)  # "fib:n=12" is a fib row
        hpx = artifact.curve(name, "hpx")
        std = artifact.curve(name, "std")
        duration_us = metrics.task_duration_us(hpx.points[0])
        rows.append(
            Table5Row(
                benchmark=name,
                structure=bench.info.structure,
                synchronization=bench.info.synchronization,
                task_duration_us=duration_us,
                granularity=classify_granularity(duration_us),
                scaling_std=std.scales_to(),
                scaling_hpx=hpx.scales_to(),
                paper_task_duration_us=bench.info.paper_task_duration_us,
                paper_granularity=bench.info.paper_granularity,
                paper_scaling_std=bench.info.paper_scaling_std,
                paper_scaling_hpx=bench.info.paper_scaling_hpx,
            )
        )
    return rows
