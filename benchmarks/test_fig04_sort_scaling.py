"""Fig. 4 — Sort execution time, HPX vs C++11 Standard.

Paper: variable/fine grain (~52 us); HPX scales to 16 cores while the
Standard version only scales to 10 and runs far slower in absolute
terms (thread creation on every merge/sort task).
"""

from __future__ import annotations

from repro.experiments.figures import execution_time_figure
from repro.experiments.report import render_execution_time_figure

from conftest import experiment, run_once


def test_fig4_sort(benchmark):
    fig = execution_time_figure("fig4", run_once(benchmark, experiment, ["sort"]))
    print()
    print(render_execution_time_figure(fig))

    assert all(not p.aborted for p in fig.hpx.points)
    assert all(not p.aborted for p in fig.std.points)
    # HPX is faster in absolute terms at every core count.
    for p_hpx, p_std in zip(fig.hpx.points, fig.std.points):
        assert p_hpx.median_exec_ns < p_std.median_exec_ns
    # HPX keeps improving past the 10-core socket boundary (to ~16).
    assert fig.hpx.point(16).median_exec_ns < fig.hpx.point(10).median_exec_ns
    # Beyond 16 the curve is flat (no meaningful further gain).
    t16 = fig.hpx.point(16).median_exec_ns
    t20 = fig.hpx.point(20).median_exec_ns
    assert t20 > t16 * 0.9
