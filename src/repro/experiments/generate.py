"""Regenerate every table and figure of the paper into text files.

Run:  repro generate [outdir] [--samples N] [--jobs N] [--cache-dir DIR]

Produces one ``<experiment>.txt`` per table/figure under *outdir*
(default ``results/``) plus a combined ``all_results.txt``.  This is
what EXPERIMENTS.md is built from.

All scaling curves come from two campaign runs (one on the figure core
grid, one on the table grid) executed through
:func:`repro.campaign.engine.run_campaign`: ``--jobs N`` fans the
matrix over a process pool and ``--cache-dir`` reuses cells across
invocations, so regenerating after a partial run only executes what is
missing.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.campaign.cache import ResultCache
from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.experiments.config import PAPER_CORE_COUNTS, QUICK_CORE_COUNTS
from repro.experiments.figures import (
    BANDWIDTH_FIGURES,
    EXEC_TIME_FIGURES,
    OVERHEAD_FIGURES,
    bandwidth_figure,
    execution_time_figure,
    overhead_figure,
)
from repro.experiments.report import (
    render_bandwidth_figure,
    render_execution_time_figure,
    render_overhead_figure,
    render_table1,
    render_table5,
)
from repro.experiments.tables import table1, table5
from repro.inncabs.suite import available_benchmarks


def generate_all(
    outdir: Path,
    samples: int = 1,
    verbose: bool = True,
    jobs: int = 1,
    cache_dir: Path | str | None = None,
) -> dict[str, str]:
    """Regenerate everything; returns {experiment id: rendered text}."""
    outdir.mkdir(parents=True, exist_ok=True)
    cache = ResultCache(Path(cache_dir)) if cache_dir is not None else None
    results: dict[str, str] = {}

    def note(message: str) -> None:
        if verbose:
            print(f"[{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr)

    def emit(key: str, text: str) -> None:
        results[key] = text
        (outdir / f"{key}.txt").write_text(text + "\n")
        note(f"wrote {key}.txt")

    figure_benchmarks = tuple(sorted(set(EXEC_TIME_FIGURES.values())))
    fig_spec = CampaignSpec(
        benchmarks=figure_benchmarks, core_counts=PAPER_CORE_COUNTS, samples=samples
    )
    note(f"figure campaign: {sum(1 for _ in fig_spec.cells())} cells (jobs={jobs})")
    fig_artifact = run_campaign(fig_spec, jobs=jobs, cache=cache).artifact

    table_spec = CampaignSpec(
        benchmarks=tuple(available_benchmarks()), core_counts=QUICK_CORE_COUNTS, samples=samples
    )
    note(f"table campaign: {sum(1 for _ in table_spec.cells())} cells (jobs={jobs})")
    table_artifact = run_campaign(table_spec, jobs=jobs, cache=cache).artifact

    emit("table1", render_table1(table1(cores=20)))
    emit("table5", render_table5(table5(table_artifact)))
    for fig in sorted(EXEC_TIME_FIGURES):
        emit(fig, render_execution_time_figure(execution_time_figure(fig, fig_artifact)))
    for fig in sorted(OVERHEAD_FIGURES):
        emit(fig, render_overhead_figure(overhead_figure(fig, fig_artifact)))
    for fig in sorted(BANDWIDTH_FIGURES):
        emit(fig, render_bandwidth_figure(bandwidth_figure(fig, fig_artifact)))

    combined = "\n\n".join(f"===== {key} =====\n{text}" for key, text in sorted(results.items()))
    (outdir / "all_results.txt").write_text(combined + "\n")
    return results
