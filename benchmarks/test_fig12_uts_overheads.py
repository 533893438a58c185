"""Fig. 12 — UTS overhead decomposition (HPX counters).

Paper: scheduling overheads ~50% of the task time; after ~4 cores task
time exceeds the ideal and it increases past the socket boundary —
poor scaling and increased execution time past 10 cores.
"""

from __future__ import annotations

from repro.experiments.figures import overhead_figure
from repro.experiments.report import render_overhead_figure

from conftest import experiment, run_once


def _at(fig, cores):
    return fig.cores.index(cores)


def test_fig12_uts_overheads(benchmark):
    fig = overhead_figure("fig12", run_once(benchmark, experiment, ["uts"], ["hpx"]))
    print()
    print(render_overhead_figure(fig))

    # Scheduling overhead ~50% of task time.
    i1 = _at(fig, 1)
    ratio = fig.sched_overhead_per_core_ms[i1] / fig.task_time_per_core_ms[i1]
    assert 0.3 < ratio < 0.9, f"sched/task ratio {ratio:.2f}, paper says ~0.5"
    # Task time exceeds ideal past the socket boundary.
    i20 = _at(fig, 20)
    assert fig.task_time_per_core_ms[i20] > 1.15 * fig.ideal_task_time_ms[i20]
    # Execution time does not improve past the boundary.
    i10 = _at(fig, 10)
    assert fig.exec_time_ms[i20] >= fig.exec_time_ms[i10] * 0.9
