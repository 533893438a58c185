"""Unified workload discovery and parametrization.

One API for every workload family the reproduction can run: the
fourteen Inncabs applications and the parameterized Task Bench
dependency-graph generator both register into the same registry, and a
frozen :class:`WorkloadSpec` names one workload plus its parameter
overrides.  ``Session.run``, campaign cells, the serve layer and the
CLI all accept a :class:`WorkloadSpec` (or its canonical string
spelling ``name[:key=val,...]``) instead of bare benchmark-name
strings.
"""

from repro.workloads.registry import (
    WorkloadEntry,
    available_workloads,
    get_workload,
    overlay_params,
    register_workload,
    workload_preset_params,
)
from repro.workloads.spec import WorkloadSpec, as_workload_spec, parse_param

__all__ = [
    "WorkloadEntry",
    "WorkloadSpec",
    "as_workload_spec",
    "available_workloads",
    "get_workload",
    "overlay_params",
    "parse_param",
    "register_workload",
    "workload_preset_params",
]
