"""Strassen — recursive Strassen matrix multiplication.

Recursive balanced, fine grain (Table V: 107 µs average).  Multiplies
real ``numpy`` matrices: below the cutoff a task performs the classic
product; above it, the seven Strassen sub-products are spawned as
tasks and combined with real additions.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.work import Work
from repro.simcore.rng import derive_rng

# Cost model (per element counts; n is the block edge).
MUL_NS_PER_FLOP = 1.6  # leaf product: 2*n^3 flops
ADD_NS_PER_ELEM = 2.2  # combine additions per element
BYTES_PER_ELEM = 8


def _leaf_work(n: int) -> Work:
    flops = 2 * n * n * n
    return Work(
        cpu_ns=round(flops * MUL_NS_PER_FLOP),
        membytes=3 * n * n * BYTES_PER_ELEM,
        working_set=3 * n * n * BYTES_PER_ELEM,
    )


def _combine_work(n: int) -> Work:
    # 18 block additions of (n/2)^2 elements in the classic formulation.
    elems = 18 * (n // 2) * (n // 2)
    return Work(
        cpu_ns=round(elems * ADD_NS_PER_ELEM),
        membytes=elems * BYTES_PER_ELEM,
        working_set=3 * n * n * BYTES_PER_ELEM,
    )


def _strassen_task(ctx: Any, a: np.ndarray, b: np.ndarray, cutoff: int):
    n = a.shape[0]
    if n <= cutoff:
        yield ctx.compute(_leaf_work(n))
        return a @ b
    h = n // 2
    a11, a12, a21, a22 = a[:h, :h], a[:h, h:], a[h:, :h], a[h:, h:]
    b11, b12, b21, b22 = b[:h, :h], b[:h, h:], b[h:, :h], b[h:, h:]
    futures = []
    for left, right in (
        (a11 + a22, b11 + b22),  # M1
        (a21 + a22, b11),  # M2
        (a11, b12 - b22),  # M3
        (a22, b21 - b11),  # M4
        (a11 + a12, b22),  # M5
        (a21 - a11, b11 + b12),  # M6
        (a12 - a22, b21 + b22),  # M7
    ):
        fut = yield ctx.async_(_strassen_task, left, right, cutoff)
        futures.append(fut)
    m1, m2, m3, m4, m5, m6, m7 = (yield ctx.wait_all(futures))
    yield ctx.compute(_combine_work(n))
    c = np.empty((n, n), dtype=a.dtype)
    c[:h, :h] = m1 + m4 - m5 + m7
    c[:h, h:] = m3 + m5
    c[h:, :h] = m2 + m4
    c[h:, h:] = m1 - m2 + m3 + m6
    return c


def _strassen_root(ctx: Any, n: int, cutoff: int, seed: int):
    rng = derive_rng(seed, "strassen")
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    fut = yield ctx.async_(_strassen_task, a, b, cutoff)
    c = yield ctx.wait(fut)
    return a, b, c


class StrassenBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="strassen",
        structure="recursive-balanced",
        synchronization="none",
        paper_task_duration_us=107.0,
        paper_granularity="fine",
        paper_scaling_std="(some fail)",
        paper_scaling_hpx="to 8",
        description="Strassen matrix multiplication",
    )

    # 256x256 with 32 cutoff: 7^3 = 343 leaves, 400 tasks total.
    default_params = {"n": 256, "cutoff": 32}
    param_minimums = {"n": 1, "cutoff": 1}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _strassen_root, (params["n"], params["cutoff"], params["seed"])

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        a, b, c = result
        return bool(np.allclose(c, a @ b, atol=1e-6 * params["n"]))
