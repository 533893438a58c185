"""Benchmark infrastructure for the Inncabs suite.

Each benchmark is a *real algorithm* written against the runtime-
agnostic task API (:class:`repro.model.context.TaskContext`): it
computes a verifiable result (a Fibonacci number, a sorted array, an
optimal placement, ...) while describing the machine cost of each task
through :class:`repro.model.work.Work`.  Cost models are calibrated so
the ``/threads/time/average`` counter on one core reproduces the task
grain sizes of Table V.

Inputs are scaled down from the original Inncabs input sets (the paper
runs up to 1.75x10^7 tasks; a Python discrete-event simulation cannot
replay that many events in reasonable time).  Scaling preserves grain
size, task-count ratios between benchmarks, and the live-thread blow-up
behaviour of the ``std::async`` versions; the matching memory budget
lives in :mod:`repro.kernel.config`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.exec.modes import resolve_mode
from repro.model.population import CohortPlan

DEFAULT_SEED = 20160523  # IPDPS-workshops 2016 vintage

#: The value types a parameter takes, by the type of its default (never
#: a ``bool``); a ``None`` default is an optional integer (floorplan's
#: ``task_limit``).  Defaults of other types are not checked.  Each
#: benchmark also bounds its integer sizes, counts and cutoffs from
#: below (:attr:`Benchmark.param_minimums`).
PARAM_TYPES: dict[type, tuple[type, ...]] = {
    int: (int,),
    float: (int, float),
    str: (str,),
    type(None): (int, type(None)),
}


@dataclass(frozen=True)
class BenchmarkInfo:
    """Static description matching the rows of Table V."""

    name: str
    structure: str  # loop-like | recursive-balanced | recursive-unbalanced | co-dependent
    synchronization: str  # none | atomic pruning | mult. mutex/task | 2 mutex/task
    paper_task_duration_us: float
    paper_granularity: str  # coarse | moderate | fine | very fine | variable/...
    paper_scaling_std: str  # e.g. "to 20", "fail", "no scaling"
    paper_scaling_hpx: str
    description: str = ""
    # Memory-traffic multiplier the HPX runtime applies for this
    # benchmark (depth-first execution order vs the benchmark's access
    # pattern); 1.0 for all but the wavefront-stencil Pyramids.
    hpx_locality_factor: float = 1.0


def effective_locality_factor(base_factor: float, cores: int) -> float:
    """Core-count profile of the HPX execution-order penalty.

    The penalty models the temporal-locality loss of depth-first (LIFO)
    execution for wavefront access patterns (see Pyramids).  It is
    absent on one worker (no stealing, execution order equals program
    order), full while all workers share a socket, and decays across
    the second socket: there, memory-bandwidth saturation and QPI
    latency dominate both execution orders equally, masking the
    ordering effect (the convergence visible in the paper's Fig. 2 at
    high core counts).
    """
    if cores <= 1 or base_factor == 1.0:
        return 1.0
    if cores <= 10:
        return base_factor
    t = min(1.0, (cores - 10) / 8.0)
    return base_factor + (1.0 - base_factor) * t


class Benchmark(abc.ABC):
    """One Inncabs benchmark.

    Subclasses provide ``info``, default parameters, the task-graph
    entry point and a verifier for the computed result.
    """

    info: BenchmarkInfo

    #: Default (scaled) input parameters.
    default_params: Mapping[str, Any] = {}

    #: The least value of each integer size, count and cutoff parameter.
    #: Below it a run can only hang (a cutoff of 0 splits a one-element
    #: range for ever), deadlock, crash inside the run or compute a wrong
    #: answer, so :meth:`params_with_defaults` refuses it.
    param_minimums: Mapping[str, int] = {}

    def params_with_defaults(self, params: Mapping[str, Any] | None) -> dict[str, Any]:
        """The defaults overlaid with *params*, seed included.

        Raises ``ValueError`` for an unknown name, a bad ``mode``, a
        value whose type its default does not take (:data:`PARAM_TYPES`)
        and an integer below its minimum (:attr:`param_minimums`).
        """
        merged = dict(self.default_params)
        if params:
            # ``seed`` and ``mode`` are harness-level parameters every
            # benchmark accepts: the root RNG seed and the execution
            # mode (exact | cohort, see repro.exec.modes).
            unknown = set(params) - set(self.default_params) - {"seed", "mode"}
            if unknown:
                raise ValueError(f"unknown parameters for {self.info.name}: {sorted(unknown)}")
            if "mode" in params:
                resolve_mode(params["mode"])  # reject bad spellings early
            for name, value in params.items():
                if name not in self.default_params:
                    continue  # seed and mode
                accepted = PARAM_TYPES.get(type(self.default_params[name]))
                if accepted and (isinstance(value, bool) or not isinstance(value, accepted)):
                    expected = " or ".join(t.__name__ for t in accepted).replace("NoneType", "None")
                    raise ValueError(
                        f"parameter {name!r} of {self.info.name} takes {expected}, got {value!r}"
                    )
                least = self.param_minimums.get(name)
                if least is not None and value is not None and value < least:
                    raise ValueError(
                        f"parameter {name!r} of {self.info.name} must be at least {least}, "
                        f"got {value!r}"
                    )
            merged.update(params)
        merged.setdefault("seed", DEFAULT_SEED)
        return merged

    @abc.abstractmethod
    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        """Return ``(root_fn, args)``: the generator function and its
        arguments; the harness submits ``root_fn(ctx, *args)`` as the
        application's main task.

        *params* has already been merged with the defaults.
        """

    @abc.abstractmethod
    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        """Check the computed result for algorithmic correctness."""

    def cohort_plan(self, params: Mapping[str, Any]) -> CohortPlan | None:
        """Mesoscale description of this parameterisation, or ``None``.

        A benchmark whose task population is homogeneous (same body,
        same grain, no cross-cohort data dependence) can describe one
        run as an ordered :class:`~repro.model.population.CohortPlan`;
        the cohort engine then advances whole populations per event
        instead of interpreting every effect.  ``None`` (the default)
        means this benchmark — or this parameterisation of it — must
        run in ``exact`` mode.

        *params* has already been merged with the defaults.
        """
        return None

    # -- conveniences used by the harness -------------------------------------

    @property
    def name(self) -> str:
        return self.info.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Benchmark {self.info.name}>"
