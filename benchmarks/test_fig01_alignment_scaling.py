"""Fig. 1 — Alignment execution time, HPX vs C++11 Standard.

Paper: coarse-grained (~2.7 ms tasks); *both* libraries scale well all
the way to 20 cores and their curves nearly coincide (scheduling
overhead is negligible against the task size).
"""

from __future__ import annotations

from repro.experiments.figures import execution_time_figure
from repro.experiments.report import render_execution_time_figure

from conftest import experiment, run_once


def test_fig1_alignment(benchmark):
    fig = execution_time_figure("fig1", run_once(benchmark, experiment, ["alignment"]))
    print()
    print(render_execution_time_figure(fig))

    assert fig.benchmark == "alignment"
    # Both complete everywhere.
    assert all(not p.aborted for p in fig.hpx.points)
    assert all(not p.aborted for p in fig.std.points)
    # Both scale strongly to 20 cores (paper: ~17x for HPX).
    assert fig.hpx.speedup(20) > 12
    assert fig.std.speedup(20) > 12
    assert fig.hpx.scales_to() == "to 20"
    assert fig.std.scales_to() == "to 20"
    # The curves nearly coincide: coarse grain hides the runtime cost.
    for cores in (1, 4, 10, 20):
        hpx_t = fig.hpx.point(cores).median_exec_ns
        std_t = fig.std.point(cores).median_exec_ns
        assert 0.65 < hpx_t / std_t < 1.5
