"""The Task Bench workload: graph lowering onto the task runtimes.

The generated :class:`~repro.taskbench.graph.TaskGraph` is lowered to
real task bodies against the runtime-agnostic
:class:`~repro.model.context.TaskContext` API: a driver task spawns
one task per graph node (``ctx.async_``), each node task joins its
parents' futures (``ctx.wait_all``), burns its grain
(``ctx.compute``), and returns its mixed 64-bit value.  The same
source runs unchanged on ``HpxRuntime`` and ``StdRuntime`` through the
shared ``EffectInterpreter``/``SchedulerBackend`` path, so every
ProbeBus counter (``/threads``, idle-rate, steal counts, PAPI
bandwidth) works on it out of the box.

Note the ``std`` model spawns one kernel thread per node: wide/deep
graphs hit the same live-thread blow-up the paper reports for
``std::async`` — that is the measurement, not a bug.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.population import CohortPlan, TaskCohort
from repro.model.work import Work
from repro.taskbench.graph import build_graph, graph_checksum, mix, node_token

__all__ = ["TASKBENCH_PRESETS", "TaskBenchBenchmark"]

#: Preset overrides in the Inncabs small/default/large convention.
#: ``paper`` is Task-Bench-at-scale (1.7x10^7 independent tasks, the
#: paper's largest population) and is only tractable in cohort mode.
TASKBENCH_PRESETS: dict[str, dict[str, Any]] = {
    "small": {"width": 8, "steps": 4},
    "large": {"width": 128, "steps": 64},
    "paper": {"shape": "trivial", "width": 4096, "steps": 4096},
}


def _node_task(ctx: Any, parents: tuple, grain_ns: int, membytes: int, token: int):
    """One graph node: join parents, burn the grain, mix the value."""
    acc = token
    if parents:
        values = yield ctx.wait_all(parents)
        for value in values:
            acc = mix(acc, value)
    yield ctx.compute(grain_ns, membytes=membytes)
    return acc


def _taskbench_root(
    ctx: Any,
    shape: str,
    width: int,
    steps: int,
    grain_ns: int,
    membytes: int,
    degree: float,
    seed: int,
):
    """The driver task: spawn every node, then fold the last row."""
    graph = build_graph(shape, width, steps, seed=seed, degree=degree)
    prev: list = []
    for t, row_width in enumerate(graph.row_widths):
        row_parents = graph.parents[t]
        cur = []
        for p in range(row_width):
            fut = yield ctx.async_(
                _node_task,
                tuple(prev[q] for q in row_parents[p]),
                grain_ns,
                membytes,
                node_token(seed, t, p),
            )
            cur.append(fut)
        prev = cur
    values = yield ctx.wait_all(prev)
    acc = 0
    for value in values:
        acc = mix(acc, value)
    return acc


class TaskBenchBenchmark(Benchmark):
    """Task Bench as a registered workload (name: ``taskbench``)."""

    info = BenchmarkInfo(
        name="taskbench",
        structure="parameterized-graph",
        synchronization="none",
        paper_task_duration_us=0.0,  # the grain is a knob, not a measurement
        paper_granularity="configurable",
        paper_scaling_std="n/a",
        paper_scaling_hpx="n/a",
        description="Task Bench parameterized dependency graph (METG workload)",
    )

    default_params = {
        "shape": "stencil_1d",
        "width": 16,
        "steps": 8,
        "grain_ns": 2000,
        "membytes": 0,
        "degree": 3.0,
    }
    param_minimums = {"width": 1, "steps": 1, "grain_ns": 0, "membytes": 0}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _taskbench_root, (
            params["shape"],
            params["width"],
            params["steps"],
            params["grain_ns"],
            params["membytes"],
            params["degree"],
            params["seed"],
        )

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        graph = build_graph(
            params["shape"],
            params["width"],
            params["steps"],
            seed=params["seed"],
            degree=params["degree"],
        )
        return result == graph_checksum(graph, params["seed"])

    @staticmethod
    def task_count(shape: str, width: int, steps: int) -> int:
        """Number of node tasks (driver excluded) for a configuration."""
        return build_graph(shape, width, steps).node_count

    #: Above this node count the plan skips the O(nodes) checksum walk
    #: and marks itself mean-value (``exact=False``) — at paper scale
    #: the walk would dominate the whole cohort run.
    CHECKSUM_LIMIT = 65_536

    def cohort_plan(self, params: Mapping[str, Any]) -> CohortPlan | None:
        """Cohorts for the ``trivial`` shape; ``None`` for the rest.

        Only ``trivial`` is a homogeneous population: every node is
        independent (no parents, no joins), so one driver cohort plus
        one node cohort describe the run completely.  Shapes with
        dependencies (stencil, fft, ...) have row-structured joins the
        mean-value model does not represent — they stay exact-only.
        """
        if params["shape"] != "trivial":
            return None
        width = int(params["width"])
        steps = int(params["steps"])
        grain_ns = int(params["grain_ns"])
        membytes = int(params["membytes"])
        seed = int(params["seed"])
        nodes = width * steps
        exact = nodes <= self.CHECKSUM_LIMIT
        result = None
        if exact:
            graph = build_graph(
                "trivial", width, steps, seed=seed, degree=float(params["degree"])
            )
            result = graph_checksum(graph, seed)
        cohorts = (
            TaskCohort(
                label="taskbench-driver",
                tasks=1,
                work=Work(0),
                spawns=float(nodes),
                blocking_awaits=1.0,
            ),
            TaskCohort(
                label="taskbench-nodes",
                tasks=nodes,
                work=Work(grain_ns, membytes=membytes),
                depth=1,
            ),
        )
        return CohortPlan(
            workload="taskbench",
            cohorts=cohorts,
            result=result,
            exact=exact,
            note="" if exact else f"checksum skipped above {self.CHECKSUM_LIMIT} nodes",
        )
