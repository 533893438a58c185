"""Sort — parallel mergesort with parallel merges (cilksort style).

Recursive balanced, variable/fine grain (Table V: 52.1 µs average).
Sorts a real ``numpy`` array: leaf ranges sort sequentially; merges are
themselves parallel (split the larger run at its midpoint, binary-
search the split point in the other run, and merge the two halves as
independent tasks).  A merge task's body is one stable sort of its two
runs (:func:`merge_sorted`).  The parallel merge is what lets sort
scale past the handful of top-level merges — the paper reports HPX sort
scaling to 16 cores.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.work import Work
from repro.simcore.rng import derive_rng

# Cost model: ns per element for the leaf sort / the merge.
LEAF_NS_PER_ELEM = 14.0
MERGE_NS_PER_ELEM = 5.5
COPY_NS_PER_ELEM = 0.8
BYTES_PER_ELEM = 8


def merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two sorted arrays; on ties, ``a``'s elements come first.

    A stable sort of the concatenation is a merge: timsort finds the
    two runs and merges them in linear time.
    """
    out = np.concatenate((a, b))
    out.sort(kind="stable")
    return out


def _merge_work(n: int) -> Work:
    return Work(
        cpu_ns=round(n * MERGE_NS_PER_ELEM),
        # Halves re-read mostly from cache below the L3; charge one
        # streaming pass (write-back dominated).
        membytes=n * BYTES_PER_ELEM,
        working_set=n * BYTES_PER_ELEM,
    )


def _pmerge_task(
    ctx: Any,
    src: np.ndarray,
    lo1: int,
    hi1: int,
    lo2: int,
    hi2: int,
    dst: np.ndarray,
    out: int,
    cutoff: int,
):
    """Merge src[lo1:hi1] and src[lo2:hi2] into dst[out:...]."""
    n1, n2 = hi1 - lo1, hi2 - lo2
    n = n1 + n2
    if n <= cutoff:
        yield ctx.compute(_merge_work(n))
        dst[out : out + n] = merge_sorted(src[lo1:hi1], src[lo2:hi2])
        return None
    if n1 < n2:
        lo1, hi1, lo2, hi2 = lo2, hi2, lo1, hi1
        n1, n2 = n2, n1
    mid1 = (lo1 + hi1) // 2
    split2 = lo2 + int(np.searchsorted(src[lo2:hi2], src[mid1]))
    left_len = (mid1 - lo1) + (split2 - lo2)
    f1 = yield ctx.async_(_pmerge_task, src, lo1, mid1, lo2, split2, dst, out, cutoff)
    f2 = yield ctx.async_(_pmerge_task, src, mid1, hi1, split2, hi2, dst, out + left_len, cutoff)
    yield ctx.wait_all([f1, f2])
    return None


def _sort_task(ctx: Any, arr: np.ndarray, buf: np.ndarray, lo: int, hi: int, cutoff: int):
    n = hi - lo
    if n <= cutoff:
        yield ctx.compute(
            Work(
                cpu_ns=round(n * LEAF_NS_PER_ELEM),
                membytes=n * BYTES_PER_ELEM,
                working_set=n * BYTES_PER_ELEM,
            )
        )
        arr[lo:hi] = np.sort(arr[lo:hi])
        return None
    mid = (lo + hi) // 2
    f1 = yield ctx.async_(_sort_task, arr, buf, lo, mid, cutoff)
    f2 = yield ctx.async_(_sort_task, arr, buf, mid, hi, cutoff)
    yield ctx.wait_all([f1, f2])
    fm = yield ctx.async_(_pmerge_task, arr, lo, mid, mid, hi, buf, lo, 2 * cutoff)
    yield ctx.wait(fm)
    yield ctx.compute(Work(cpu_ns=round(n * COPY_NS_PER_ELEM), membytes=n * BYTES_PER_ELEM))
    arr[lo:hi] = buf[lo:hi]
    return None


def _sort_root(ctx: Any, n: int, cutoff: int, seed: int):
    rng = derive_rng(seed, "sort")
    arr = rng.integers(0, 2**31, size=n).astype(np.int64)
    buf = np.empty_like(arr)
    checksum = int(arr.sum())
    fut = yield ctx.async_(_sort_task, arr, buf, 0, n, cutoff)
    yield ctx.wait(fut)
    return arr, checksum


class SortBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="sort",
        structure="recursive-balanced",
        synchronization="none",
        paper_task_duration_us=52.1,
        paper_granularity="variable/fine",
        paper_scaling_std="to 10",
        paper_scaling_hpx="to 16",
        description="Parallel mergesort with parallel merges",
    )

    # ~1,600 tasks: 128 leaf sorts, 127 sorters, ~1,300 merge tasks.
    default_params = {"n": 1 << 19, "cutoff": 1 << 12}
    param_minimums = {"n": 0, "cutoff": 1}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _sort_root, (params["n"], params["cutoff"], params["seed"])

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        arr, checksum = result
        if len(arr) != params["n"]:
            return False
        return bool(np.all(arr[:-1] <= arr[1:])) and int(arr.sum()) == checksum
