"""Shared configuration for the reproduction benchmarks.

Every ``benchmarks/test_*`` module regenerates one table or figure of
the paper and asserts its *shape* (who wins, by roughly what factor,
where the knees fall) — not absolute numbers, which belong to the
authors' hardware.

pytest-benchmark is used in pedantic single-shot mode: each experiment
is a deterministic simulation, so repeating it buys nothing but time.
"""

from __future__ import annotations

from typing import Sequence

from repro.api import RUNTIMES
from repro.campaign.artifact import CampaignArtifact
from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.experiments.config import PAPER_CORE_COUNTS


def experiment(
    benchmarks: Sequence[str],
    runtimes: Sequence[str] = RUNTIMES,
    core_counts: Sequence[int] = PAPER_CORE_COUNTS,
) -> CampaignArtifact:
    """The paper's experiment over *benchmarks* x *runtimes*, one sample per point.

    Figures use the paper's 1..20 grid; the heavy full-suite Table V
    passes the cheaper ``QUICK_CORE_COUNTS``.
    """
    spec = CampaignSpec(
        benchmarks=tuple(benchmarks),
        runtimes=tuple(runtimes),
        core_counts=tuple(core_counts),
        samples=1,
    )
    return run_campaign(spec).artifact


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
