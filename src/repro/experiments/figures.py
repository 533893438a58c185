"""Series generators for every figure of the paper.

- Figures 1-7: execution time vs cores, HPX vs C++11 Standard
  (Alignment, Pyramids, Strassen, Sort, FFT, UTS, Intersim).
- Figures 8-12: overhead decomposition for HPX (execution time, ideal
  scaling, task time per core, ideal task time, scheduling overhead per
  core) for Alignment, Pyramids, Strassen, FFT, UTS.
- Figures 13-14: OFFCORE bandwidth estimate vs cores for Alignment and
  Pyramids — (ALL_DATA_RD + DEMAND_CODE_RD + DEMAND_RFO) x 64 B /
  execution time, exactly the paper's formula.

Every generator reads its curves from a campaign artifact (a
:class:`~repro.campaign.artifact.CampaignArtifact`) and returns plain
dataclasses of series, so callers (benches, CLI, notebooks) can print
or plot without re-running.  Figures 1-7 read the benchmark's ``hpx``
and ``std`` curves, Figures 8-14 its ``hpx`` curve; fresh numbers come
from building a :class:`~repro.campaign.spec.CampaignSpec` and running
it with :func:`~repro.campaign.engine.run_campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.experiments import metrics
from repro.experiments.harness import ScalingCurve

if TYPE_CHECKING:
    from repro.campaign.artifact import CampaignArtifact

#: benchmark behind each execution-time figure
EXEC_TIME_FIGURES: dict[str, str] = {
    "fig1": "alignment",
    "fig2": "pyramids",
    "fig3": "strassen",
    "fig4": "sort",
    "fig5": "fft",
    "fig6": "uts",
    "fig7": "intersim",
}

#: benchmark behind each overhead figure
OVERHEAD_FIGURES: dict[str, str] = {
    "fig8": "alignment",
    "fig9": "pyramids",
    "fig10": "strassen",
    "fig11": "fft",
    "fig12": "uts",
}

#: benchmark behind each bandwidth figure
BANDWIDTH_FIGURES: dict[str, str] = {
    "fig13": "alignment",
    "fig14": "pyramids",
}


@dataclass
class ExecutionTimeFigure:
    """One of Figures 1-7."""

    figure: str
    benchmark: str
    hpx: ScalingCurve
    std: ScalingCurve

    def rows(self) -> list[tuple[int, float | None, float | None]]:
        """(cores, hpx_ms, std_ms); None marks an aborted run."""
        out = []
        for ph, ps in zip(self.hpx.points, self.std.points):
            assert ph.cores == ps.cores
            out.append(
                (
                    ph.cores,
                    None if ph.aborted else ph.median_exec_ms,
                    None if ps.aborted else ps.median_exec_ms,
                )
            )
        return out


@dataclass
class OverheadFigure:
    """One of Figures 8-12 (HPX only, per the paper)."""

    figure: str
    benchmark: str
    cores: list[int] = field(default_factory=list)
    exec_time_ms: list[float] = field(default_factory=list)
    ideal_scaling_ms: list[float] = field(default_factory=list)
    task_time_per_core_ms: list[float] = field(default_factory=list)
    ideal_task_time_ms: list[float] = field(default_factory=list)
    sched_overhead_per_core_ms: list[float] = field(default_factory=list)

    def rows(self) -> list[tuple[float, ...]]:
        return list(
            zip(
                self.cores,
                self.exec_time_ms,
                self.ideal_scaling_ms,
                self.task_time_per_core_ms,
                self.ideal_task_time_ms,
                self.sched_overhead_per_core_ms,
            )
        )


@dataclass
class BandwidthFigure:
    """One of Figures 13-14."""

    figure: str
    benchmark: str
    cores: list[int] = field(default_factory=list)
    bandwidth_gbs: list[float] = field(default_factory=list)

    def rows(self) -> list[tuple[int, float]]:
        return list(zip(self.cores, self.bandwidth_gbs))


def execution_time_figure(figure: str, artifact: "CampaignArtifact") -> ExecutionTimeFigure:
    """Regenerate one of Figures 1-7 from *artifact*."""
    benchmark = _lookup(EXEC_TIME_FIGURES, figure)
    hpx = artifact.curve(benchmark, "hpx")
    std = artifact.curve(benchmark, "std")
    return ExecutionTimeFigure(figure=figure, benchmark=benchmark, hpx=hpx, std=std)


def overhead_figure(figure: str, artifact: "CampaignArtifact") -> OverheadFigure:
    """Regenerate one of Figures 8-12 from *artifact*'s HPX counters."""
    benchmark = _lookup(OVERHEAD_FIGURES, figure)
    curve = artifact.curve(benchmark, "hpx")
    out = OverheadFigure(figure=figure, benchmark=benchmark)
    base = curve.points[0]
    for p in curve.points:
        if p.aborted:
            continue
        out.cores.append(p.cores)
        out.exec_time_ms.append(p.median_exec_ns / 1e6)
        out.ideal_scaling_ms.append(base.median_exec_ns / p.cores / 1e6)
        out.task_time_per_core_ms.append(metrics.task_time_per_core_ms(p, p.cores))
        out.ideal_task_time_ms.append(metrics.task_time_per_core_ms(base, p.cores))
        out.sched_overhead_per_core_ms.append(metrics.scheduling_overhead_per_core_ms(p, p.cores))
    return out


def bandwidth_figure(figure: str, artifact: "CampaignArtifact") -> BandwidthFigure:
    """Regenerate Figure 13 or 14 from *artifact*: offcore bandwidth vs cores.

    Bandwidth = (sum of the three offcore request counters) x 64-byte
    cache lines / execution time (Section V-C).
    """
    benchmark = _lookup(BANDWIDTH_FIGURES, figure)
    curve = artifact.curve(benchmark, "hpx")
    out = BandwidthFigure(figure=figure, benchmark=benchmark)
    for p in curve.points:
        if p.aborted or p.median_exec_ns <= 0:
            continue
        out.cores.append(p.cores)
        out.bandwidth_gbs.append(metrics.bandwidth_gbs(p))
    return out


def _lookup(table: Mapping[str, str], figure: str) -> str:
    try:
        return table[figure.lower()]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure!r}; available: {', '.join(sorted(table))}"
        ) from None
