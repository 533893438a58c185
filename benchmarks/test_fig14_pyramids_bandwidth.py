"""Fig. 14 — Pyramids OFFCORE bandwidth (moderate-grained tasks).

The stencil streams real grid data: per-core demand is higher than
Alignment's, so the per-socket controller shows visible contention by
the middle of the first socket and the second socket's controller adds
headroom past 10 cores.
"""

from __future__ import annotations

from repro.experiments.figures import bandwidth_figure
from repro.experiments.report import render_bandwidth_figure

from conftest import experiment, run_once


def test_fig14_pyramids_bandwidth(benchmark):
    fig = bandwidth_figure("fig14", run_once(benchmark, experiment, ["pyramids"], ["hpx"]))
    print()
    print(render_bandwidth_figure(fig))

    assert fig.cores[0] == 1
    # Bandwidth rises with cores.
    assert fig.bandwidth_gbs[-1] > 4 * fig.bandwidth_gbs[0]
    # Sub-linear by 20 cores: scaling efficiency of the bandwidth curve
    # drops below 80% (contention + the locality profile).
    per_core_1 = fig.bandwidth_gbs[0]
    per_core_20 = fig.bandwidth_gbs[-1] / fig.cores[-1]
    assert per_core_20 < per_core_1 * 1.1
    assert fig.bandwidth_gbs[-1] < 84
