"""Fig. 5 — FFT execution time, HPX vs C++11 Standard.

Paper: ~1 us grain, very fine; HPX shows limited scaling (to ~6) and
the Standard version's execution times are much greater — scheduling
and context-switch costs are a large multiple of the task size.
"""

from __future__ import annotations

from repro.experiments.figures import execution_time_figure
from repro.experiments.report import render_execution_time_figure

from conftest import experiment, run_once


def test_fig5_fft(benchmark):
    fig = execution_time_figure("fig5", run_once(benchmark, experiment, ["fft"]))
    print()
    print(render_execution_time_figure(fig))

    assert all(not p.aborted for p in fig.hpx.points)
    # Standard times are much greater (paper: order of magnitude).
    for cores in (1, 4, 10, 20):
        ratio = fig.std.point(cores).median_exec_ns / fig.hpx.point(cores).median_exec_ns
        assert ratio > 4, f"std only {ratio:.1f}x slower at {cores} cores"
    # Limited HPX scaling: the best point is inside the first socket or
    # just past it, and 20 cores is no better than 10.
    best_cores = min(fig.hpx.points, key=lambda p: p.median_exec_ns).cores
    assert best_cores <= 12
    assert fig.hpx.point(20).median_exec_ns >= fig.hpx.point(10).median_exec_ns * 0.95
    # Absolute speedup is modest (paper shows ~6x at best).
    assert fig.hpx.speedup(best_cores) < 10
