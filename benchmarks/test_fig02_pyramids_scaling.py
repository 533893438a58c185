"""Fig. 2 — Pyramids execution time, HPX vs C++11 Standard.

Paper: moderate grain (~250 us); the only benchmark where the Standard
version beats HPX on more than one core — up to ~14 cores — after which
the curves converge: "the minimum execution times are equivalent", with
HPX showing the higher speedup factor (13 vs 8 at 20 cores).
"""

from __future__ import annotations

from repro.experiments.figures import execution_time_figure
from repro.experiments.report import render_execution_time_figure

from conftest import experiment, run_once


def test_fig2_pyramids(benchmark):
    fig = execution_time_figure("fig2", run_once(benchmark, experiment, ["pyramids"]))
    print()
    print(render_execution_time_figure(fig))

    # std is faster through the mid-range (paper: until ~14 cores)...
    std_faster = [
        cores
        for cores in (2, 4, 6, 8, 10, 12, 14)
        if fig.std.point(cores).median_exec_ns < fig.hpx.point(cores).median_exec_ns
    ]
    assert len(std_faster) >= 5, f"std faster only at {std_faster}"
    # ... but not at 1 core or at 20.
    assert fig.hpx.point(20).median_exec_ns <= fig.std.point(20).median_exec_ns
    # Minimum execution times are equivalent (within ~40%).
    min_hpx = min(p.median_exec_ns for p in fig.hpx.points)
    min_std = min(p.median_exec_ns for p in fig.std.points)
    assert 0.6 < min_hpx / min_std < 1.4
    # HPX's speedup factor exceeds the Standard's (paper: 13 vs 8).
    assert fig.hpx.speedup(20) > fig.std.speedup(20)
    assert fig.hpx.speedup(20) > 10
