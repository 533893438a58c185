"""Fig. 3 — Strassen execution time, HPX vs C++11 Standard.

Paper: fine grain (~100 us); HPX scales well (speedup 11 at 20 cores),
the Standard version is slower and does not run for some experiments.
"""

from __future__ import annotations

from repro.experiments.figures import execution_time_figure
from repro.experiments.report import render_execution_time_figure

from conftest import experiment, run_once


def test_fig3_strassen(benchmark):
    fig = execution_time_figure("fig3", run_once(benchmark, experiment, ["strassen"]))
    print()
    print(render_execution_time_figure(fig))

    assert all(not p.aborted for p in fig.hpx.points)
    # Paper: speedup reaches a factor of 11 at 20 cores.
    assert 8 < fig.hpx.speedup(20) < 15
    # HPX beats the Standard version at every core count.
    for p_hpx, p_std in zip(fig.hpx.points, fig.std.points):
        if not p_std.aborted:
            assert p_hpx.median_exec_ns < p_std.median_exec_ns
