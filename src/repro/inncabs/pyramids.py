"""Pyramids — space-time blocked 1-D stencil relaxation.

Recursive balanced, moderate grain (Table V: 246 µs average).  The
domain is advanced in time chunks; within a chunk the space dimension
is divided recursively down to leaf blocks, and each leaf task advances
its block ``K`` steps locally using a halo of width ``K`` (the classic
trapezoid/pyramid decomposition).  The arithmetic is real: the final
grid equals the sequential relaxation exactly.

Pyramids is the one benchmark where the paper's Standard version beats
HPX below ~14 cores (Fig. 2).  The mechanism we model: the stencil is
memory-bound and its wavefront access pattern loses temporal locality
under HPX's depth-first (LIFO) execution order, while the kernel's
breadth-first global queue happens to execute spatially adjacent blocks
back to back.  The benchmark therefore carries an
``hpx_locality_factor`` > 1 that the HPX runtime applies to its memory
traffic; at high core counts the shared-L3 pressure and bandwidth
saturation equalise both runtimes, reproducing the crossover.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.work import Work
from repro.simcore.rng import derive_rng

CELL_NS = 6.6  # per cell-update compute cost
BYTES_PER_CELL = 8


def stencil_step(grid: np.ndarray) -> np.ndarray:
    """One global relaxation step with clamped boundaries."""
    padded = np.concatenate((grid[:1], grid, grid[-1:]))
    return 0.25 * padded[:-2] + 0.5 * padded[1:-1] + 0.25 * padded[2:]


def advance_window(window: np.ndarray, k: int, clamp_left: bool, clamp_right: bool) -> np.ndarray:
    """Advance a local window *k* steps.

    Clamped sides sit on the physical domain boundary and keep their
    width; open sides shrink by one cell per step (the halo is consumed).
    """
    for _ in range(k):
        interior = 0.25 * window[:-2] + 0.5 * window[1:-1] + 0.25 * window[2:]
        parts = []
        if clamp_left:
            parts.append(np.array([0.75 * window[0] + 0.25 * window[1]]))
        parts.append(interior)
        if clamp_right:
            parts.append(np.array([0.25 * window[-2] + 0.75 * window[-1]]))
        window = np.concatenate(parts)
    return window


def _leaf_task(ctx: Any, cur: np.ndarray, nxt: np.ndarray, lo: int, hi: int, k: int):
    n = len(cur)
    wl = max(0, lo - k)
    wr = min(n, hi + k)
    clamp_left = lo - k < 0
    clamp_right = hi + k > n
    cells = k * (wr - wl)
    yield ctx.compute(
        Work(
            cpu_ns=round(cells * CELL_NS),
            membytes=2 * (wr - wl) * BYTES_PER_CELL * max(1, k // 8),
            working_set=2 * (wr - wl) * BYTES_PER_CELL,
        )
    )
    window = advance_window(cur[wl:wr].copy(), k, clamp_left, clamp_right)
    # After k steps the window covers [0 if clamp_left else lo, ...) in
    # global coordinates; locate our block inside it.
    start = lo if clamp_left else 0
    nxt[lo:hi] = window[start : start + (hi - lo)]
    return None


def _split_task(ctx: Any, cur: np.ndarray, nxt: np.ndarray, lo: int, hi: int, k: int, block: int):
    if hi - lo <= block:
        yield from _leaf_task(ctx, cur, nxt, lo, hi, k)
        return None
    mid = (lo + hi) // 2
    f1 = yield ctx.async_(_split_task, cur, nxt, lo, mid, k, block)
    f2 = yield ctx.async_(_split_task, cur, nxt, mid, hi, k, block)
    yield ctx.wait_all([f1, f2])
    return None


def _pyramids_root(ctx: Any, width: int, steps: int, chunk: int, block: int, seed: int):
    rng = derive_rng(seed, "pyramids")
    cur = rng.standard_normal(width)
    initial = cur.copy()
    nxt = np.empty_like(cur)
    done = 0
    while done < steps:
        k = min(chunk, steps - done)
        fut = yield ctx.async_(_split_task, cur, nxt, 0, width, k, block)
        yield ctx.wait(fut)
        cur, nxt = nxt, cur
        done += k
    return initial, cur


def pyramids_reference(initial: np.ndarray, steps: int) -> np.ndarray:
    """Sequential relaxation for verification."""
    grid = initial.copy()
    for _ in range(steps):
        grid = stencil_step(grid)
    return grid


class PyramidsBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="pyramids",
        structure="recursive-balanced",
        synchronization="none",
        paper_task_duration_us=246.0,
        paper_granularity="moderate",
        paper_scaling_std="to 20",
        paper_scaling_hpx="to 20",
        description="Space-time blocked 1-D stencil relaxation",
        hpx_locality_factor=1.45,
    )

    # 64ki cells, 96 steps in chunks of 16: 6 chunks x (127 tasks) ~ 760 tasks;
    # leaf tasks update 16*(4096+32) ~ 66k cells -> ~215 us + memory time.
    default_params = {"width": 1 << 16, "steps": 96, "chunk": 16, "block": 1 << 12}
    param_minimums = {"width": 1, "steps": 0, "chunk": 1, "block": 1}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _pyramids_root, (
            params["width"],
            params["steps"],
            params["chunk"],
            params["block"],
            params["seed"],
        )

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        initial, final = result
        reference = pyramids_reference(initial, params["steps"])
        return bool(np.allclose(final, reference, atol=1e-10))
