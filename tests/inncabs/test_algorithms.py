"""Algorithm-level correctness of the benchmark kernels."""

import itertools

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.inncabs.alignment import GAP, MATCH, nw_score, nw_score_reference
from repro.inncabs.fib import fib_reference
from repro.inncabs.floorplan import DEFAULT_CELLS, floorplan_optimum, solve_sequential
from repro.inncabs.health import health_reference
from repro.inncabs.intersim import intersim_reference
from repro.inncabs.pyramids import advance_window, pyramids_reference, stencil_step
from repro.inncabs.qap import make_instance, qap_optimum
from repro.inncabs.round import round_reference
from repro.inncabs.sort import merge_sorted
from repro.inncabs.sparselu import build_matrix, sparselu_sequential
from repro.inncabs.uts import uts_reference_count


def test_fib_reference():
    assert [fib_reference(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert fib_reference(30) == 832040


@given(
    arrays(np.int8, st.integers(0, 25), elements=st.integers(0, 19)),
    arrays(np.int8, st.integers(0, 25), elements=st.integers(0, 19)),
)
def test_property_nw_score_matches_scalar_dp(a, b):
    assert nw_score(a, b) == nw_score_reference(a, b)


def test_nw_score_matches_scalar_dp_at_the_default_shape():
    """One 300x300 pair of the 20-letter alphabet, as the default preset aligns."""
    rng = np.random.default_rng(7)
    a, b = (rng.integers(0, 20, size=300).astype(np.int8) for _ in range(2))
    assert nw_score(a, b) == nw_score_reference(a, b)


def test_nw_self_alignment_is_perfect():
    seq = np.array([1, 2, 3, 4, 5], dtype=np.int8)
    assert nw_score(seq, seq) == MATCH * len(seq)


def test_nw_empty_vs_gap_chain():
    a = np.array([1, 2, 3], dtype=np.int8)
    b = np.array([], dtype=np.int8)
    for x, y in ((a, b), (b, a)):
        assert nw_score(x, y) == nw_score_reference(x, y) == 3 * GAP
    assert nw_score(b, b) == nw_score_reference(b, b) == 0


@given(
    arrays(np.int64, st.integers(0, 30), elements=st.integers(-1000, 1000)),
    arrays(np.int64, st.integers(0, 30), elements=st.integers(-1000, 1000)),
)
def test_property_merge_sorted(a, b):
    a.sort()
    b.sort()
    merged = merge_sorted(a, b)
    assert len(merged) == len(a) + len(b)
    assert np.all(merged[:-1] <= merged[1:])
    assert sorted(merged.tolist()) == sorted(a.tolist() + b.tolist())


def test_merge_sorted_keeps_a_before_b_on_ties():
    # -0.0 == 0.0, so the sign bit shows which run each tied element came from.
    merged = merge_sorted(np.array([-0.0, 0.0, 1.0]), np.array([0.0, -0.0, 2.0]))
    assert merged.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 2.0]
    assert np.signbit(merged).tolist() == [True, False, False, True, False, False]


@given(
    st.integers(min_value=8, max_value=64),
    st.integers(min_value=1, max_value=6),
)
def test_property_trapezoid_equals_global_stencil(width, k):
    rng = np.random.default_rng(0)
    grid = rng.standard_normal(width)
    # Whole domain as one window, both sides clamped == k global steps.
    local = advance_window(grid.copy(), k, True, True)
    reference = pyramids_reference(grid, k)
    assert np.allclose(local, reference)


def test_stencil_step_conserves_shape():
    grid = np.ones(16)
    assert np.allclose(stencil_step(grid), grid)  # fixed point of smoothing


def test_floorplan_optimum_vs_exhaustive_subset():
    cells = DEFAULT_CELLS[:3]
    best = [1 << 30]
    nodes = solve_sequential(cells, 0, (), best)
    assert nodes > 1
    assert best[0] == floorplan_optimum(cells)
    assert best[0] > 0


def test_floorplan_single_cell_area():
    cells = (((4, 1), (2, 2)),)
    assert floorplan_optimum(cells) == 4  # both shapes cover 4 area; bbox 4


def test_qap_optimum_matches_brute_force():
    flow, dist = make_instance(6, seed=123)
    n = len(flow)
    brute = min(
        sum(
            flow[i][j] * dist[p[i]][p[j]]
            for i in range(n)
            for j in range(n)
        )
        for p in itertools.permutations(range(n))
    )
    assert qap_optimum(flow, dist) == brute


def test_qap_instance_symmetric_zero_diag():
    flow, dist = make_instance(7, seed=5)
    for i in range(7):
        assert flow[i][i] == 0
        for j in range(7):
            assert flow[i][j] == flow[j][i]
            assert dist[i][j] == dist[j][i]


def test_uts_reference_deterministic():
    a = uts_reference_count(42, 10, 3, 0.3, 8)
    b = uts_reference_count(42, 10, 3, 0.3, 8)
    assert a == b
    assert a >= 11  # root + b0 children at least


def test_uts_depth_cap():
    shallow = uts_reference_count(42, 5, 4, 0.9, 2)
    # depth <= 2: root + 5 children + at most 5*4 grandchildren
    assert shallow <= 1 + 5 + 20


def test_health_reference_deterministic_and_conserving():
    total, treated, waiting, referred = health_reference(3, 3, 4, seed=7)
    assert total == treated
    again = health_reference(3, 3, 4, seed=7)
    assert again == (total, treated, waiting, referred)


def test_intersim_reference_counts():
    counts = intersim_reference(3, 8, 5)
    assert sum(counts) == 2 * 3 * 8  # two increments per task


def test_round_reference_scores():
    scores = round_reference(4, 3)
    assert sum(scores) == 3 * 4 * 3  # 3 points per task
    assert all(s == 9 for s in scores)  # symmetric ring


def test_sparselu_sequential_factorisation():
    blocks = build_matrix(4, 8, seed=3)
    factored = sparselu_sequential(blocks, 4)
    # Reconstruct L @ U and compare against the assembled original.
    nb, bs = 4, 8
    dense = np.zeros((nb * bs, nb * bs))
    for (i, j), block in blocks.items():
        dense[i * bs : (i + 1) * bs, j * bs : (j + 1) * bs] = block
    lower = np.eye(nb * bs)
    upper = np.zeros((nb * bs, nb * bs))
    for (i, j), block in factored.items():
        bi, bj = i * bs, j * bs
        if i > j:
            lower[bi : bi + bs, bj : bj + bs] = block
        elif i < j:
            upper[bi : bi + bs, bj : bj + bs] = block
        else:
            lower[bi : bi + bs, bj : bj + bs] = np.tril(block, -1) + np.eye(bs)
            upper[bi : bi + bs, bj : bj + bs] = np.triu(block)
    assert np.allclose(lower @ upper, dense, atol=1e-8)
