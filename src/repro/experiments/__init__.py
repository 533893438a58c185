"""Experiments: the paper's protocol, tables and figures.

One experiment is one :class:`~repro.campaign.spec.CampaignSpec`, run
by :func:`~repro.campaign.engine.run_campaign`; every table and figure
reads the resulting :class:`~repro.campaign.artifact.CampaignArtifact`.
One module per concern:

- :mod:`repro.experiments.config` — the paper's platform (Table III),
  core grids and protocol constants;
- :mod:`repro.experiments.harness` — strong-scaling curves: medians of
  each core count's :class:`~repro.api.RunResult` samples;
- :mod:`repro.experiments.tables` — Table I and Table V generators;
- :mod:`repro.experiments.figures` — series for Figures 1-14;
- :mod:`repro.experiments.report` — plain-text rendering.
"""

from repro.experiments.harness import ScalingCurve, ScalingPoint, aggregate_point

__all__ = [
    "ScalingCurve",
    "ScalingPoint",
    "aggregate_point",
]
