"""Fig. 10 — Strassen overhead decomposition (HPX counters).

Paper: small scheduling overheads but a visibly larger gap between the
ideal and the actual task time than Pyramids shows; speedup 11 at 20.
"""

from __future__ import annotations

from repro.experiments.figures import overhead_figure
from repro.experiments.report import render_overhead_figure

from conftest import experiment, run_once


def test_fig10_strassen_overheads(benchmark):
    fig = overhead_figure("fig10", run_once(benchmark, experiment, ["strassen"], ["hpx"]))
    print()
    print(render_overhead_figure(fig))

    for i in range(len(fig.cores)):
        assert fig.sched_overhead_per_core_ms[i] < 0.15 * fig.task_time_per_core_ms[i]
    # Paper: speedup 11 at 20 cores (less than Alignment's 17).
    speedup20 = fig.exec_time_ms[0] / fig.exec_time_ms[-1]
    assert 8 < speedup20 < 15
    # A real gap opens between actual and ideal task time at 20 cores.
    assert fig.task_time_per_core_ms[-1] > 1.02 * fig.ideal_task_time_ms[-1]
