"""Fig. 6 — UTS execution time, HPX vs C++11 Standard.

Paper: ~1 us grain; HPX scales until the socket boundary at 10 cores
and degrades past it; the Standard version runs out of resources and
fails (80k-97k pthreads live just before the failure).
"""

from __future__ import annotations

from repro.experiments.figures import execution_time_figure
from repro.experiments.report import render_execution_time_figure

from conftest import experiment, run_once


def test_fig6_uts(benchmark):
    fig = execution_time_figure("fig6", run_once(benchmark, experiment, ["uts"]))
    print()
    print(render_execution_time_figure(fig))

    # The Standard version fails at every core count: the spawned
    # frontier exceeds the (scaled) memory budget regardless of cores.
    assert all(p.aborted for p in fig.std.points), "std UTS should abort"
    # HPX completes everywhere and scales to the socket boundary.
    assert all(not p.aborted for p in fig.hpx.points)
    assert fig.hpx.speedup(10) > 8
    # Past the boundary: no further improvement (degradation allowed).
    t10 = fig.hpx.point(10).median_exec_ns
    t20 = fig.hpx.point(20).median_exec_ns
    assert t20 > t10 * 0.85
