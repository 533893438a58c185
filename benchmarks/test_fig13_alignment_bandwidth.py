"""Fig. 13 — Alignment OFFCORE bandwidth (coarse-grained tasks).

Paper formula (Section V-C): sum the three offcore request counters,
multiply by the 64-byte cache line and divide by execution time.  The
estimate grows with the core count as more DP matrices stream
concurrently.
"""

from __future__ import annotations

from repro.experiments.figures import bandwidth_figure
from repro.experiments.report import render_bandwidth_figure

from conftest import experiment, run_once


def test_fig13_alignment_bandwidth(benchmark):
    fig = bandwidth_figure("fig13", run_once(benchmark, experiment, ["alignment"], ["hpx"]))
    print()
    print(render_bandwidth_figure(fig))

    assert fig.cores[0] == 1
    # Bandwidth grows substantially with cores (near-linear for this
    # compute-bound benchmark: no controller saturation).
    assert fig.bandwidth_gbs[-1] > 8 * fig.bandwidth_gbs[0]
    # Monotone non-decreasing within noise.
    for a, b in zip(fig.bandwidth_gbs, fig.bandwidth_gbs[1:]):
        assert b > a * 0.9
    # Physically plausible magnitudes for the node (2 sockets x 42 GB/s).
    assert fig.bandwidth_gbs[-1] < 84
