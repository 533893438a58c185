"""Fig. 7 — Intersim execution time, HPX vs C++11 Standard.

Paper: ~3.5 us grain with multiple mutexes per task; HPX shows limited
scaling (to ~10) while the Standard version *degrades* with added cores
(every contended lock is a futex round trip; every task a pthread).
"""

from __future__ import annotations

from repro.experiments.figures import execution_time_figure
from repro.experiments.report import render_execution_time_figure

from conftest import experiment, run_once


def test_fig7_intersim(benchmark):
    fig = execution_time_figure("fig7", run_once(benchmark, experiment, ["intersim"]))
    print()
    print(render_execution_time_figure(fig))

    assert all(not p.aborted for p in fig.hpx.points)
    assert all(not p.aborted for p in fig.std.points)
    # HPX is far faster in absolute terms at every core count.
    for p_hpx, p_std in zip(fig.hpx.points, fig.std.points):
        assert p_hpx.median_exec_ns < p_std.median_exec_ns
    # The Standard version shows essentially no scaling.
    assert fig.std.speedup(20) < 3
    # HPX scales moderately, peaking by the socket boundary region.
    best = min(fig.hpx.points, key=lambda p: p.median_exec_ns)
    assert best.cores <= 12
    assert 4 < fig.hpx.speedup(best.cores) < 12
