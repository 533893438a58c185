"""Fig. 8 — Alignment overhead decomposition (HPX counters).

Paper: scheduling overheads are tiny against the coarse tasks, the
execution time is composed almost entirely of task time, and scaling
tracks the ideal closely (speedup 17 at 20 cores).
"""

from __future__ import annotations

from repro.experiments.figures import overhead_figure
from repro.experiments.report import render_overhead_figure

from conftest import experiment, run_once


def test_fig8_alignment_overheads(benchmark):
    fig = overhead_figure("fig8", run_once(benchmark, experiment, ["alignment"], ["hpx"]))
    print()
    print(render_overhead_figure(fig))

    for i, cores in enumerate(fig.cores):
        # Scheduling overhead is a tiny fraction of task time.
        assert fig.sched_overhead_per_core_ms[i] < 0.05 * fig.task_time_per_core_ms[i]
        # Execution time is essentially all task time.
        assert fig.exec_time_ms[i] < 1.35 * fig.task_time_per_core_ms[i]
    # Near-ideal scaling (paper: 17x at 20 cores).
    speedup20 = fig.exec_time_ms[0] / fig.exec_time_ms[-1]
    assert speedup20 > 13
    # Task time per core tracks its ideal.
    assert fig.task_time_per_core_ms[-1] < 1.4 * fig.ideal_task_time_ms[-1]
