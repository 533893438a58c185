"""Health — multilevel health-system simulation (BOTS 'health').

Loop-like over timesteps, very fine grain (Table V: 1.02 µs average;
the paper's input creates 1.75x10^7 tasks — the largest of the suite).
A tree of villages is simulated step by step: every step spawns one
task per village (recursively down the tree); each task processes its
patient queue with deterministic, seed-derived arrivals/treatment/
referral decisions so the final counts are verifiable.

Referrals travel through per-step inboxes: a patient referred during
step ``S`` becomes visible to the parent village at step ``S+1``.  The
root task joins every village between steps, so results are identical
regardless of runtime, core count or scheduling order — which is what
lets the same verifier check both runtimes.

This is the benchmark whose ``std::async`` version dies fastest: tens
of thousands of tiny tasks per step, each a pthread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.simcore.rng import seed_prefix

TASK_NS = 700  # base per-village step cost
PATIENT_NS = 60  # additional cost per patient processed

_U64 = float(2**64)


@dataclass(slots=True)
class VillageState:
    """Mutable per-village counters."""

    waiting: int = 0
    treated: int = 0
    referred: int = 0
    # Patients referred up to this village, keyed by the step in which
    # the referral happened; consumed at the following step.
    inbox: dict[int, int] = field(default_factory=dict)


def _village_children(village_id: int, level: int, levels: int, branching: int) -> list[int]:
    if level + 1 >= levels:
        return []
    return [village_id * branching + c + 1 for c in range(branching)]


def _parent_of(village_id: int, branching: int) -> int:
    return (village_id - 1) // branching


def _arrival_draw(prefix: Any, village_id: int, step: int) -> int:
    """``derive_seed(seed, "health", village_id, step)``, finished on a
    copy of the seed's ``seed_prefix(seed, "health")``."""
    h = prefix.copy()
    h.update(b"%d/%d" % (village_id, step))
    return int.from_bytes(h.digest(), "little")


def _treat_capacity(level: int) -> int:
    """Deeper villages are smaller clinics; the root is the hospital."""
    return 3 if level == 0 else 2


def _referral_draw(prefix: Any, village_id: int, step: int) -> int:
    """``derive_seed(seed, "health", village_id, step, "refer")``, finished
    on a copy of the seed's ``seed_prefix(seed, "health")``."""
    h = prefix.copy()
    h.update(b"%d/%d/'refer'" % (village_id, step))
    return int.from_bytes(h.digest(), "little")


def step_village(
    state: dict[int, VillageState],
    prefix: Any,
    village_id: int,
    level: int,
    step: int,
    branching: int,
) -> int:
    """Process one village for one step; returns patients handled.

    Shared between the task body and the sequential reference so both
    runtimes and the verifier agree exactly.  *prefix* is the seed's
    ``seed_prefix(seed, "health")``.
    """
    village = state.get(village_id)
    if village is None:
        village = state[village_id] = VillageState()
    # 0-3 new patients, deterministic per (village, step), join the
    # referrals that arrived during the previous step.
    village.waiting += village.inbox.pop(step - 1, 0) + _arrival_draw(prefix, village_id, step) % 4
    handled = min(village.waiting, _treat_capacity(level))
    village.waiting -= handled
    village.treated += handled
    # One waiting patient is referred up with probability ~25%.
    if (
        village.waiting > 0
        and level > 0
        and _referral_draw(prefix, village_id, step) / _U64 < 0.25
    ):
        village.waiting -= 1
        village.referred += 1
        parent_id = _parent_of(village_id, branching)
        parent = state.get(parent_id)
        if parent is None:
            parent = state[parent_id] = VillageState()
        parent.inbox[step] = parent.inbox.get(step, 0) + 1
    return handled


def _collect(state: dict[int, VillageState]) -> tuple[int, int, int]:
    treated = sum(v.treated for v in state.values())
    waiting = sum(v.waiting for v in state.values()) + sum(
        sum(v.inbox.values()) for v in state.values()
    )
    referred = sum(v.referred for v in state.values())
    return treated, waiting, referred


def _village_task(
    ctx: Any,
    state: dict,
    prefix: Any,
    village_id: int,
    level: int,
    step: int,
    levels: int,
    branching: int,
):
    futures = []
    for child in _village_children(village_id, level, levels, branching):
        fut = yield ctx.async_(
            _village_task, state, prefix, child, level + 1, step, levels, branching
        )
        futures.append(fut)
    handled = step_village(state, prefix, village_id, level, step, branching)
    yield ctx.compute(TASK_NS + PATIENT_NS * handled, membytes=256)
    if futures:
        child_totals = yield ctx.wait_all(futures)
        handled += sum(child_totals)
    return handled


def _health_root(ctx: Any, levels: int, branching: int, steps: int, seed: int):
    state: dict[int, VillageState] = {}
    prefix = seed_prefix(seed, "health")  # one hash per run, shared by every task
    total = 0
    for step in range(steps):
        fut = yield ctx.async_(_village_task, state, prefix, 0, 0, step, levels, branching)
        total += yield ctx.wait(fut)
    treated, waiting, referred = _collect(state)
    return total, treated, waiting, referred


def health_reference(levels: int, branching: int, steps: int, seed: int) -> tuple:
    """Sequential simulation with identical per-village decisions."""
    state: dict[int, VillageState] = {}
    prefix = seed_prefix(seed, "health")
    total = 0

    def recurse(village_id: int, level: int, step: int) -> int:
        handled = 0
        for child in _village_children(village_id, level, levels, branching):
            handled += recurse(child, level + 1, step)
        handled += step_village(state, prefix, village_id, level, step, branching)
        return handled

    for step in range(steps):
        total += recurse(0, 0, step)
    treated, waiting, referred = _collect(state)
    return (total, treated, waiting, referred)


class HealthBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="health",
        structure="loop-like",
        synchronization="none",
        paper_task_duration_us=1.02,
        paper_granularity="very fine",
        paper_scaling_std="fail",
        paper_scaling_hpx="to 10",
        description="Multilevel health-system simulation",
    )

    # 7 levels x branching 4 = 5,461 villages; 3 steps -> ~16,400 tasks.
    # The per-step village count exceeds the scaled thread budget, so
    # the std::async version aborts (paper: health fails).
    default_params = {"levels": 7, "branching": 4, "steps": 3}
    param_minimums = {"levels": 0, "branching": 0, "steps": 0}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _health_root, (
            params["levels"],
            params["branching"],
            params["steps"],
            params["seed"],
        )

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        return tuple(result) == health_reference(
            params["levels"], params["branching"], params["steps"], params["seed"]
        )
