"""UTS — Unbalanced Tree Search.

Recursive unbalanced, very fine grain (Table V: 1.37 µs average).  A
geometric random tree: the root has ``b0`` children; every other node
has ``m`` children with probability ``q`` (expected size
``b0 / (1 - q*m)`` for ``q*m < 1``).  Child counts derive
deterministically from the seed and the node's path id, so the tree —
and therefore the verified node count — is identical on every runtime
and core count.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.population import CohortPlan, TaskCohort
from repro.model.work import Work
from repro.simcore.rng import seed_prefix

NODE_NS = 1_050  # per-node processing cost

_U64 = float(2**64)


def _node_draw(prefix: Any, node_id: int) -> int:
    """``derive_seed(seed, "uts", node_id)``, finished on a copy of the
    seed's ``seed_prefix(seed, "uts")``."""
    h = prefix.copy()
    h.update(b"%d" % node_id)
    return int.from_bytes(h.digest(), "little")


def _num_children(prefix: Any, node_id: int, m: int, q: float, depth: int, max_depth: int) -> int:
    if depth >= max_depth:
        return 0
    return m if _node_draw(prefix, node_id) / _U64 < q else 0


def _uts_task(
    ctx: Any, prefix: Any, node_id: int, depth: int, b0: int, m: int, q: float, max_depth: int
):
    yield ctx.compute(NODE_NS, membytes=128)
    if depth == 0:
        n_children = b0
    else:
        n_children = _num_children(prefix, node_id, m, q, depth, max_depth)
    if n_children == 0:
        return 1
    futures = []
    for i in range(n_children):
        child_id = node_id * 61 + i + 1  # deterministic path id
        fut = yield ctx.async_(_uts_task, prefix, child_id, depth + 1, b0, m, q, max_depth)
        futures.append(fut)
    counts = yield ctx.wait_all(futures)
    return 1 + sum(counts)


def uts_reference_count(seed: int, b0: int, m: int, q: float, max_depth: int) -> int:
    """Sequential tree size with the identical child-count derivation."""
    prefix = seed_prefix(seed, "uts")
    total = 0
    stack = [(0, 0)]  # (node_id, depth)
    while stack:
        node_id, depth = stack.pop()
        total += 1
        n_children = b0 if depth == 0 else _num_children(prefix, node_id, m, q, depth, max_depth)
        for i in range(n_children):
            stack.append((node_id * 61 + i + 1, depth + 1))
    return total


class UtsBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="uts",
        structure="recursive-unbalanced",
        synchronization="none",
        paper_task_duration_us=1.37,
        paper_granularity="very fine",
        paper_scaling_std="fail",
        paper_scaling_hpx="to 10",
        description="Unbalanced tree search (geometric tree)",
    )

    default_params = {"b0": 40, "m": 4, "q": 0.31, "max_depth": 22}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        # Every task shares the seed's hashed prefix (one hash per run).
        return _uts_task, (
            seed_prefix(params["seed"], "uts"),
            0,
            0,
            params["b0"],
            params["m"],
            params["q"],
            params["max_depth"],
        )

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        return result == uts_reference_count(
            params["seed"], params["b0"], params["m"], params["q"], params["max_depth"]
        )

    @staticmethod
    def expected_nodes(b0: int, m: int, q: float, max_depth: int) -> float:
        """Expected tree size of the geometric branching process.

        Level populations: ``E_1 = b0`` and ``E_{d+1} = E_d * q * m``
        up to the depth cap.  Finite even for supercritical growth
        (``q*m >= 1``) because the cap truncates the process.
        """
        total = 1.0  # the root
        level = float(b0)
        for _ in range(max_depth):
            total += level
            level *= q * m
        return total

    def cohort_plan(self, params: Mapping[str, Any]) -> CohortPlan:
        """Mean-value plan over the *expected* tree (``exact=False``).

        Unlike fib, the concrete tree depends on the seed; walking it
        to build an exact plan would cost as much as running it.  The
        cohort sizes are expectations of the branching process instead,
        so the plan's result and counter totals are population means —
        verification is skipped and equivalence holds in expectation.
        """
        b0 = int(params["b0"])
        m = int(params["m"])
        q = float(params["q"])
        max_depth = int(params["max_depth"])
        expected = self.expected_nodes(b0, m, q, max_depth)
        non_root = max(1, round(expected - 1.0))
        # Children of non-root nodes are every node at depth >= 2; the
        # internal (spawning) non-root nodes each have exactly m.
        child_total = max(0.0, expected - 1.0 - b0)
        spawns = child_total / non_root
        internal_frac = (child_total / m) / non_root if m > 0 else 0.0
        node_work = Work(NODE_NS, membytes=128)
        cohorts = (
            TaskCohort(
                label="uts-root",
                tasks=1,
                work=node_work,
                spawns=float(b0),
                blocking_awaits=1.0,
                # The whole tree is live while the root waits: eager
                # backends commit the calibrated live fraction here.
                live_tasks=max(1, round(0.7 * expected)),
            ),
            TaskCohort(
                label="uts-nodes",
                tasks=non_root,
                work=node_work,
                spawns=spawns,
                blocking_awaits=internal_frac,
                depth=max(1, max_depth),
                live_tasks=1,
            ),
        )
        return CohortPlan(
            workload="uts",
            cohorts=cohorts,
            result=round(expected),
            exact=False,
            note=(
                "mean-value plan over the expected geometric tree; "
                f"E[nodes] = {expected:.1f}"
            ),
        )
