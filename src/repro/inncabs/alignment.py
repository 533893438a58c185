"""Alignment — all-pairs global sequence alignment.

Loop-like, coarse grain (Table V: 2,748 µs average; the paper runs 100
protein sequences → 4,950 pair tasks).  One task per sequence pair
computes a real Needleman-Wunsch global alignment score by dynamic
programming.  The kernel works in shifted coordinates, where every
move of the DP is a plain maximum, so each row is three array
operations (see :func:`nw_score`).  The verifier checks the run's
scores against the kernel and a prefix of the first pair against the
scalar DP of :func:`nw_score_reference`.

Note from the paper (Section V-B): the original benchmark allocated its
DP arrays on the task stack, which overflows HPX's small (8 kB default)
task stacks — both versions were changed to heap allocation.  The port
keeps ``stack_bytes=0`` (heap) accordingly.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.work import Work
from repro.simcore.rng import derive_rng

MATCH = 2
MISMATCH = -1
GAP = -2

# ~30 ns per DP cell reproduces the paper's 2,748 µs grain at the
# scaled sequence length of 300 residues (the paper's prot.100.aa mean
# length is ~460 at ~13 ns/cell; we shrink the real DP work and scale
# the per-cell cost so the task grain is preserved).
CELL_NS = 30.5
BYTES_PER_CELL = 4

#: Prefix length of the first pair that :meth:`AlignmentBenchmark.verify`
#: re-scores with the scalar DP (about 1 ms).
SPOT_CHECK_LEN = 48


def nw_score_reference(a: np.ndarray, b: np.ndarray) -> int:
    """Plain O(mn) scalar DP — the ground truth for tests and for the verifier."""
    m, n = len(a), len(b)
    prev = [j * GAP for j in range(n + 1)]
    for i in range(1, m + 1):
        cur = [i * GAP] + [0] * n
        for j in range(1, n + 1):
            sub = MATCH if a[i - 1] == b[j - 1] else MISMATCH
            cur[j] = max(prev[j - 1] + sub, prev[j] + GAP, cur[j - 1] + GAP)
        prev = cur
    return prev[n]


def nw_score(a: np.ndarray, b: np.ndarray) -> int:
    """Needleman-Wunsch global alignment score, three array operations per row.

    In shifted coordinates ``R[i][j] = H[i][j] - (i + j) * GAP`` row 0
    and column 0 are zero, the diagonal move gains the constant
    ``s - 2 * GAP`` (6 on a match, 3 on a mismatch) and both gap moves
    become plain maxima.  So a row is the elementwise maximum of the
    diagonal and vertical moves, and the horizontal gap chain is its
    prefix maximum.  The score is ``R[m][n] + (m + n) * GAP``.
    """
    m, n = len(a), len(b)
    diagonal = np.where(a[:, None] == b, np.int32(MATCH - 2 * GAP), np.int32(MISMATCH - 2 * GAP))
    rows = np.zeros((2, n + 1), dtype=np.int32)
    (prev_head, prev_tail), (cur_head, cur_tail) = ((row[:-1], row[1:]) for row in rows)
    for step in diagonal:
        np.add(prev_head, step, out=cur_tail)
        np.maximum(cur_tail, prev_tail, out=cur_tail)
        np.maximum.accumulate(cur_tail, out=cur_tail)
        prev_head, prev_tail, cur_head, cur_tail = cur_head, cur_tail, prev_head, prev_tail
    return int(rows[m % 2, n]) + (m + n) * GAP


def _align_pair_task(ctx: Any, seqs: list[np.ndarray], i: int, j: int):
    a, b = seqs[i], seqs[j]
    cells = len(a) * len(b)
    yield ctx.compute(
        Work(
            cpu_ns=round(cells * CELL_NS),
            # The original stores the full DP matrix (traceback): one
            # write + re-read of every cell dominates the traffic.
            membytes=round(cells * BYTES_PER_CELL * 1.5),
            working_set=2 * (len(b) + 1) * BYTES_PER_CELL,
        )
    )
    return nw_score(a, b)


def _alignment_root(ctx: Any, nseq: int, seqlen: int, seed: int):
    rng = derive_rng(seed, "alignment")
    seqs = [rng.integers(0, 20, size=seqlen).astype(np.int8) for _ in range(nseq)]
    futures = []
    for i in range(nseq):
        for j in range(i + 1, nseq):
            fut = yield ctx.async_(_align_pair_task, seqs, i, j)
            futures.append(fut)
    scores = yield ctx.wait_all(futures)
    return seqs, scores


class AlignmentBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="alignment",
        structure="loop-like",
        synchronization="none",
        paper_task_duration_us=2748.0,
        paper_granularity="coarse",
        paper_scaling_std="to 20",
        paper_scaling_hpx="to 20",
        description="All-pairs Needleman-Wunsch sequence alignment",
    )

    # 16 sequences of 300 residues -> 120 pair tasks at ~2.75 ms each.
    default_params = {"nseq": 16, "seqlen": 300}
    param_minimums = {"nseq": 2, "seqlen": 1}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _alignment_root, (params["nseq"], params["seqlen"], params["seed"])

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        seqs, scores = result
        nseq = params["nseq"]
        if len(scores) != nseq * (nseq - 1) // 2:
            return False
        if nw_score(seqs[0], seqs[0]) != MATCH * len(seqs[0]):
            return False
        head_a, head_b = seqs[0][:SPOT_CHECK_LEN], seqs[1][:SPOT_CHECK_LEN]
        if nw_score(head_a, head_b) != nw_score_reference(head_a, head_b):
            return False
        return scores[0] == nw_score(seqs[0], seqs[1])
