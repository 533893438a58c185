"""repro — reproduction of "Using Intrinsic Performance Counters to Assess
Efficiency in Task-based Parallel Applications" (Grubel, Kaiser, Huck, Cook,
2016).

The package provides:

- :mod:`repro.simcore` — a discrete-event simulation of a dual-socket
  multicore node (the paper's Ivy Bridge test platform).
- :mod:`repro.runtime` — an HPX-style task runtime: lightweight tasks,
  per-worker queues, work stealing, futures and launch policies.
- :mod:`repro.kernel` — the ``std::async`` baseline: one OS thread per
  task, a time-sliced kernel scheduler and per-thread memory accounting.
- :mod:`repro.counters` — the paper's contribution: an HPX-style
  performance-counter framework (name grammar, discovery, evaluate /
  reset, periodic query).
- :mod:`repro.telemetry` — the streaming sample pipeline every counter
  reading flows through: record model, bounded buffering, pluggable
  sinks (CSV, JSON lines, Chrome trace).
- :mod:`repro.papi` — simulated hardware event counters (offcore
  requests, cycles, instructions) fed by the machine model.
- :mod:`repro.inncabs` — all fourteen Inncabs benchmarks written against
  a runtime-agnostic task API.
- :mod:`repro.workloads` — the unified workload registry and the frozen
  :class:`~repro.workloads.WorkloadSpec` every layer accepts.
- :mod:`repro.taskbench` — parameterized dependency-graph workloads
  (Task Bench shapes) and the METG(eps) sweep driver.
- :mod:`repro.tools` — models of the TAU and HPCToolkit external tools
  used for Table I.
- :mod:`repro.apex` — an APEX-style introspection / adaptation layer.
- :mod:`repro.campaign` — the experiment matrix (``CampaignSpec``), its
  process-parallel engine, result cache and versioned artifacts.
- :mod:`repro.experiments` — strong-scaling curves and the generators
  for every table and figure in the paper, read from a campaign
  artifact.

Quickstart::

    from repro import Session, WorkloadSpec
    session = Session(runtime="hpx", cores=4)
    result = session.run(WorkloadSpec.parse("fib"))
    print(result.exec_time_us)
"""

from repro._version import __version__
from repro.api import RunResult, RunSpec, Session, TelemetryConfig
from repro.inncabs.suite import available_benchmarks, get_benchmark
from repro.workloads import WorkloadSpec, available_workloads, get_workload

__all__ = [
    "__version__",
    "RunSpec",
    "Session",
    "TelemetryConfig",
    "RunResult",
    "WorkloadSpec",
    "available_benchmarks",
    "available_workloads",
    "get_benchmark",
    "get_workload",
]
