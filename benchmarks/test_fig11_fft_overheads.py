"""Fig. 11 — FFT overhead decomposition (HPX counters).

Paper: very fine grain — scheduling overheads are *equivalent to the
task time*, and both increase significantly beyond the socket boundary,
limiting scaling to one socket.
"""

from __future__ import annotations

from repro.experiments.figures import overhead_figure
from repro.experiments.report import render_overhead_figure

from conftest import experiment, run_once


def _at(fig, cores):
    return fig.cores.index(cores)


def test_fig11_fft_overheads(benchmark):
    fig = overhead_figure("fig11", run_once(benchmark, experiment, ["fft"], ["hpx"]))
    print()
    print(render_overhead_figure(fig))

    # Scheduling overhead is comparable to the task time itself.
    i1 = _at(fig, 1)
    ratio = fig.sched_overhead_per_core_ms[i1] / fig.task_time_per_core_ms[i1]
    assert 0.4 < ratio < 2.0, f"sched/task ratio {ratio:.2f} not 'equivalent'"
    # Beyond the socket boundary overhead per core grows.
    i10, i20 = _at(fig, 10), _at(fig, 20)
    assert fig.sched_overhead_per_core_ms[i20] > fig.sched_overhead_per_core_ms[i10] * 0.8
    # Execution stops improving past the boundary.
    assert fig.exec_time_ms[i20] >= fig.exec_time_ms[i10] * 0.9
