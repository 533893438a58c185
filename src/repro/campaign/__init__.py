"""Parallel experiment campaign engine.

A *campaign* is the paper's full experiment matrix — (benchmark,
runtime, cores, seed) cells — executed as independent simulation runs.
Because every cell is a seeded discrete-event simulation, cells can be
fanned out over a process pool and the results are bit-identical to a
serial replay; that invariant is what makes cached artifacts and the
CI regression gate trustworthy.

One module per concern:

- :mod:`repro.campaign.spec` — the campaign description, cell
  enumeration and stable cache keys;
- :mod:`repro.campaign.cache` — the content-addressed result cache
  (re-running a campaign only executes missing or invalidated cells);
- :mod:`repro.campaign.engine` — serial/process-parallel execution;
- :mod:`repro.campaign.artifact` — the versioned JSON artifact format
  written under ``results/campaigns/``;
- :mod:`repro.campaign.compare` — artifact diffing and the regression
  gate behind ``repro compare``.
"""

from repro.campaign.artifact import ARTIFACT_SCHEMA, CampaignArtifact, CellResult
from repro.campaign.cache import ResultCache
from repro.campaign.compare import (
    CompareReport,
    CompareThresholds,
    PointDelta,
    compare_artifacts,
    render_compare,
)
from repro.campaign.engine import CampaignRun, CampaignStats, run_campaign
from repro.campaign.spec import CampaignSpec, Cell, cell_cache_key

__all__ = [
    "ARTIFACT_SCHEMA",
    "CampaignArtifact",
    "CampaignRun",
    "CampaignSpec",
    "CampaignStats",
    "Cell",
    "CellResult",
    "CompareReport",
    "CompareThresholds",
    "PointDelta",
    "ResultCache",
    "cell_cache_key",
    "compare_artifacts",
    "render_compare",
    "run_campaign",
]
