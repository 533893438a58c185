"""Shared execution layer: one effect interpreter, many scheduler backends.

Both task runtimes (:mod:`repro.runtime` — the HPX-style thread manager,
:mod:`repro.kernel` — the ``std::async`` thread-per-task model) execute
the same benchmark bodies: generator coroutines yielding
:mod:`repro.model.effects` values.  This package holds everything that
is runtime-independent about executing them:

- :mod:`repro.exec.interp` — the single effect-interpretation loop
  (coroutine resume, ``SimFuture`` payload/exception propagation, task
  completion), dispatching each yielded effect to the backend;
- :mod:`repro.exec.backend` — the :class:`SchedulerBackend` base class
  both runtimes subclass: the scheduler mechanics written once (waits,
  mutexes, retirement, the probe bus), with the policy (spawn
  placement, block/wake, dispatch cost, memory commit) left to hooks;
- :mod:`repro.exec.probes` — the instrumentation probe bus: typed stat
  views feeding the counter framework, the trace hook, and the
  per-activation instrumentation charge, shared by every backend;
- :mod:`repro.exec.errors` — the execution failure modes (deadlock,
  resource exhaustion) with diagnostics naming the stuck tasks;
- :mod:`repro.exec.modes` — the :class:`ExecutionMode` selection
  (``exact`` | ``cohort``) resolved per run;
- :mod:`repro.exec.cohort` — the mesoscale engine: advances whole
  homogeneous task populations per event using mean-value math from
  the resource model, materializing exact probe deltas at cohort
  boundaries (see ``docs/cohort.md``).

Adding a third runtime means subclassing :class:`SchedulerBackend`
(see ``docs/backends.md``); the interpreter, the counters, tracing and
the experiment harness come along for free.
"""

from repro.exec.backend import SchedulerBackend
from repro.exec.cohort import CohortEngine
from repro.exec.errors import (
    DeadlockError,
    ExecutionError,
    ResourceExhausted,
    TaskFailed,
    describe_tasks,
    format_stall,
)
from repro.exec.interp import EffectInterpreter
from repro.exec.modes import (
    EXECUTION_MODES,
    CohortIneligibleError,
    ExecutionMode,
    resolve_mode,
)
from repro.exec.probes import KernelProbe, ProbeBus, SchedulerProbe, WorkerProbe

__all__ = [
    "EXECUTION_MODES",
    "CohortEngine",
    "CohortIneligibleError",
    "DeadlockError",
    "EffectInterpreter",
    "ExecutionError",
    "ExecutionMode",
    "KernelProbe",
    "ProbeBus",
    "ResourceExhausted",
    "SchedulerBackend",
    "SchedulerProbe",
    "TaskFailed",
    "WorkerProbe",
    "describe_tasks",
    "format_stall",
    "resolve_mode",
]
