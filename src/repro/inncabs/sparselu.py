"""SparseLU — blocked LU factorisation of a sparse block matrix.

Loop-like, coarse grain (Table V: 988 µs average).  The classic BOTS
kernel set: for each diagonal step ``k`` — ``lu0`` on the diagonal
block, then parallel ``fwd`` (row) / ``bdiv`` (column) tasks, then
parallel ``bmod`` updates on the trailing submatrix.  All kernels do
real ``numpy``/``scipy`` linear algebra on the blocks; verification
compares against a sequential factorisation of the same matrix.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.work import Work
from repro.simcore.rng import derive_rng

BYTES_PER_ELEM = 8
LU0_NS_PER_FLOP = 1.0
TRSM_NS_PER_FLOP = 0.8
GEMM_NS_PER_FLOP = 0.55


def _block_present(i: int, j: int) -> bool:
    """Deterministic sparsity pattern (~2/3 of blocks present)."""
    return i == j or (i + j) % 3 != 0


def build_matrix(nb: int, bs: int, seed: int) -> dict[tuple[int, int], np.ndarray]:
    """Diagonally dominant block matrix on the sparsity pattern."""
    rng = derive_rng(seed, "sparselu")
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for i in range(nb):
        for j in range(nb):
            if _block_present(i, j):
                block = rng.standard_normal((bs, bs))
                if i == j:
                    block += np.eye(bs) * (4.0 * bs)
                blocks[(i, j)] = block
    return blocks


def lu0(diag: np.ndarray) -> None:
    """In-place unpivoted LU of the diagonal block."""
    n = diag.shape[0]
    for k in range(n):
        diag[k + 1 :, k] /= diag[k, k]
        diag[k + 1 :, k + 1 :] -= np.outer(diag[k + 1 :, k], diag[k, k + 1 :])


def fwd(diag: np.ndarray, right: np.ndarray) -> None:
    """Solve L X = right in place (L unit-lower from *diag*)."""
    from scipy.linalg import solve_triangular  # at first use: ``import repro`` skips scipy

    right[:] = solve_triangular(diag, right, lower=True, unit_diagonal=True)


def bdiv(diag: np.ndarray, below: np.ndarray) -> None:
    """Solve X U = below in place (U upper from *diag*)."""
    from scipy.linalg import solve_triangular

    below[:] = solve_triangular(diag.T, below.T, lower=True).T


def bmod(row: np.ndarray, col: np.ndarray, inner: np.ndarray) -> None:
    """inner -= col @ row (the trailing update)."""
    inner -= col @ row


def sparselu_sequential(blocks: dict[tuple[int, int], np.ndarray], nb: int) -> dict:
    """Sequential reference factorisation (mutates and returns a copy)."""
    blocks = {key: b.copy() for key, b in blocks.items()}
    for k in range(nb):
        lu0(blocks[(k, k)])
        for j in range(k + 1, nb):
            if (k, j) in blocks:
                fwd(blocks[(k, k)], blocks[(k, j)])
        for i in range(k + 1, nb):
            if (i, k) in blocks:
                bdiv(blocks[(k, k)], blocks[(i, k)])
        for i in range(k + 1, nb):
            for j in range(k + 1, nb):
                if (i, k) in blocks and (k, j) in blocks:
                    if (i, j) not in blocks:
                        blocks[(i, j)] = np.zeros_like(blocks[(i, k)])
                    bmod(blocks[(k, j)], blocks[(i, k)], blocks[(i, j)])
    return blocks


def _trsm_work(bs: int) -> Work:
    flops = bs * bs * bs
    return Work(
        cpu_ns=round(flops * TRSM_NS_PER_FLOP),
        membytes=2 * bs * bs * BYTES_PER_ELEM,
        working_set=2 * bs * bs * BYTES_PER_ELEM,
    )


def _fwd_task(ctx: Any, blocks: dict, k: int, j: int):
    yield ctx.compute(_trsm_work(blocks[(k, k)].shape[0]))
    fwd(blocks[(k, k)], blocks[(k, j)])
    return None


def _bdiv_task(ctx: Any, blocks: dict, k: int, i: int):
    yield ctx.compute(_trsm_work(blocks[(k, k)].shape[0]))
    bdiv(blocks[(k, k)], blocks[(i, k)])
    return None


def _bmod_task(ctx: Any, blocks: dict, k: int, i: int, j: int):
    bs = blocks[(i, k)].shape[0]
    flops = 2 * bs * bs * bs
    yield ctx.compute(
        Work(
            cpu_ns=round(flops * GEMM_NS_PER_FLOP),
            membytes=3 * bs * bs * BYTES_PER_ELEM,
            working_set=3 * bs * bs * BYTES_PER_ELEM,
        )
    )
    if (i, j) not in blocks:
        blocks[(i, j)] = np.zeros((bs, bs))
    bmod(blocks[(k, j)], blocks[(i, k)], blocks[(i, j)])
    return None


def _sparselu_root(ctx: Any, nb: int, bs: int, seed: int):
    blocks = build_matrix(nb, bs, seed)
    original = {key: b.copy() for key, b in blocks.items()}
    for k in range(nb):
        flops = round(2 / 3 * bs * bs * bs)
        yield ctx.compute(
            Work(cpu_ns=round(flops * LU0_NS_PER_FLOP), membytes=bs * bs * BYTES_PER_ELEM)
        )
        lu0(blocks[(k, k)])
        futures = []
        for j in range(k + 1, nb):
            if (k, j) in blocks:
                futures.append((yield ctx.async_(_fwd_task, blocks, k, j)))
        for i in range(k + 1, nb):
            if (i, k) in blocks:
                futures.append((yield ctx.async_(_bdiv_task, blocks, k, i)))
        if futures:
            yield ctx.wait_all(futures)
        futures = []
        for i in range(k + 1, nb):
            for j in range(k + 1, nb):
                if (i, k) in blocks and (k, j) in blocks:
                    futures.append((yield ctx.async_(_bmod_task, blocks, k, i, j)))
        if futures:
            yield ctx.wait_all(futures)
    return original, blocks


class SparseLuBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="sparselu",
        structure="loop-like",
        synchronization="none",
        paper_task_duration_us=988.0,
        paper_granularity="coarse",
        paper_scaling_std="to 20",
        paper_scaling_hpx="to 20",
        description="Blocked LU factorisation of a sparse block matrix",
    )

    # 14x14 blocks of 96x96: ~900 tasks at ~1 ms each.
    default_params = {"nb": 14, "bs": 96}
    param_minimums = {"nb": 1, "bs": 1}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _sparselu_root, (params["nb"], params["bs"], params["seed"])

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        original, factored = result
        reference = sparselu_sequential(original, params["nb"])
        if set(reference) != set(factored):
            return False
        return all(np.allclose(factored[key], reference[key]) for key in reference)
