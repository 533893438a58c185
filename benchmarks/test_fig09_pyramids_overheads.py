"""Fig. 9 — Pyramids overhead decomposition (HPX counters).

Paper: low scheduling overheads; speedup 13 at 20 cores.
"""

from __future__ import annotations

from repro.experiments.figures import overhead_figure
from repro.experiments.report import render_overhead_figure

from conftest import experiment, run_once


def test_fig9_pyramids_overheads(benchmark):
    fig = overhead_figure("fig9", run_once(benchmark, experiment, ["pyramids"], ["hpx"]))
    print()
    print(render_overhead_figure(fig))

    for i in range(len(fig.cores)):
        assert fig.sched_overhead_per_core_ms[i] < 0.10 * fig.task_time_per_core_ms[i]
    # Paper: speedup 13 at 20 cores.
    speedup20 = fig.exec_time_ms[0] / fig.exec_time_ms[-1]
    assert 10 < speedup20 < 17
