"""FFT — recursive Cooley-Tukey decimation in time.

Recursive balanced, variable/very fine grain (Table V: 1.03 µs
average).  Computes a real complex FFT: leaves evaluate small DFTs
directly, parents combine children with vectorised butterflies.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.work import Work
from repro.simcore.rng import derive_rng

LEAF_NS_PER_ELEM = 90.0  # direct DFT on tiny leaves
COMBINE_NS_PER_ELEM = 19.0  # butterfly pass
BYTES_PER_ELEM = 16  # complex128


def _dft(x: np.ndarray) -> np.ndarray:
    """Direct DFT (leaves are tiny, so O(n^2) is fine and honest)."""
    n = len(x)
    k = np.arange(n)
    twiddle = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return twiddle @ x


def _fft_task(ctx: Any, x: np.ndarray, offset: int, stride: int, n: int, cutoff: int):
    if n <= cutoff:
        yield ctx.compute(Work(cpu_ns=round(n * LEAF_NS_PER_ELEM), membytes=n * BYTES_PER_ELEM))
        return _dft(x[offset : offset + stride * n : stride])
    half = n // 2
    feven = yield ctx.async_(_fft_task, x, offset, stride * 2, half, cutoff)
    fodd = yield ctx.async_(_fft_task, x, offset + stride, stride * 2, half, cutoff)
    even, odd = (yield ctx.wait_all([feven, fodd]))
    yield ctx.compute(Work(cpu_ns=round(n * COMBINE_NS_PER_ELEM), membytes=2 * n * BYTES_PER_ELEM))
    twiddle = np.exp(-2j * np.pi * np.arange(half) / n) * odd
    return np.concatenate([even + twiddle, even - twiddle])


def _fft_root(ctx: Any, n: int, cutoff: int, seed: int):
    rng = derive_rng(seed, "fft")
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fut = yield ctx.async_(_fft_task, x, 0, 1, n, cutoff)
    result = yield ctx.wait(fut)
    return x, result


class FftBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="fft",
        structure="recursive-balanced",
        synchronization="none",
        paper_task_duration_us=1.03,
        paper_granularity="variable/very fine",
        paper_scaling_std="to 6",
        paper_scaling_hpx="to 6",
        description="Recursive Cooley-Tukey FFT",
    )

    # 4096-point FFT, cutoff 4: 1023 internal + 1024 leaf tasks.
    default_params = {"n": 1 << 12, "cutoff": 4}
    param_minimums = {"n": 1, "cutoff": 1}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _fft_root, (params["n"], params["cutoff"], params["seed"])

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        x, out = result
        return bool(np.allclose(out, np.fft.fft(x), atol=1e-8 * params["n"]))
