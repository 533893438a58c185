"""Serial and process-parallel campaign execution.

Every cell is an independent seeded discrete-event simulation, so the
matrix fans out over a :class:`concurrent.futures.ProcessPoolExecutor`
with no shared state and ``--jobs N`` is bit-identical to a serial
replay (cells are reassembled in canonical spec order, never in
completion order).  Finished cells are written to the result cache as
they complete, from the parent process, so an interrupted campaign
resumes where it stopped: the next run only executes the missing
cells.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import Session
from repro.campaign.artifact import CampaignArtifact, CellResult
from repro.campaign.cache import ResultCache
from repro.campaign.spec import CampaignSpec, Cell, cell_cache_key

#: Called after each cell resolves: (cell, result_dict, from_cache).
ProgressFn = Callable[[Cell, dict[str, Any], bool], None]


@dataclass
class CampaignStats:
    """How a campaign run was satisfied."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    aborted: int = 0  # cells whose run aborted (e.g. std thread-budget death)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0


@dataclass
class CampaignRun:
    """Artifact plus execution statistics for one engine invocation."""

    artifact: CampaignArtifact
    stats: CampaignStats = field(default_factory=CampaignStats)


def execute_cell(spec: CampaignSpec, cell: Cell) -> dict[str, Any]:
    """Run one cell to completion; the process-pool worker entry point."""
    return Session().run(spec.run_spec(cell)).to_json()


def run_campaign(
    spec: CampaignSpec,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    progress: ProgressFn | None = None,
) -> CampaignRun:
    """Execute *spec*, reusing cached cells; returns artifact + stats.

    ``jobs=1`` runs serially in-process; ``jobs>1`` fans pending cells
    out over a process pool.  Either way the artifact is identical.
    """
    cells = list(spec.cells())
    keys = {cell: cell_cache_key(spec, cell) for cell in cells}
    stats = CampaignStats(total=len(cells))
    results: dict[Cell, dict[str, Any]] = {}

    pending: list[Cell] = []
    for cell in cells:
        cached = cache.load(keys[cell]) if cache is not None else None
        if cached is not None:
            results[cell] = cached
            stats.cache_hits += 1
            if progress is not None:
                progress(cell, cached, True)
        else:
            pending.append(cell)

    def finish(cell: Cell, result: dict[str, Any]) -> None:
        results[cell] = result
        stats.executed += 1
        if cache is not None:
            cache.store(keys[cell], result)
        if progress is not None:
            progress(cell, result, False)

    if pending and jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {pool.submit(execute_cell, spec, cell): cell for cell in pending}
            remaining = set(futures)
            # Drain as results complete so the cache reflects progress
            # even if a later cell raises or the run is interrupted.
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    finish(futures[future], future.result())
    else:
        for cell in pending:
            finish(cell, execute_cell(spec, cell))

    ordered = [CellResult(cell=cell, key=keys[cell], result=results[cell]) for cell in cells]
    stats.aborted = sum(1 for cr in ordered if cr.result["aborted"])
    return CampaignRun(artifact=CampaignArtifact.build(spec, ordered), stats=stats)
