"""uts and health draw their randomness from a per-seed hashed prefix.

``seed_prefix`` hashes ``derive_seed``'s key path up to the keys a seed
shares once; each draw finishes on a copy.  The draws must equal
``derive_seed``, the definition, for every seed and id, and the
sequential references that verify every run are pinned at values
recorded when both workloads still called ``derive_seed`` per draw.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.inncabs.health import _arrival_draw, _referral_draw, health_reference
from repro.inncabs.uts import _node_draw, uts_reference_count
from repro.simcore.rng import derive_seed, seed_prefix

SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**63, 2**64 - 1]),
    st.integers(min_value=-(2**64), max_value=2**72),
)
IDS = st.integers(min_value=0, max_value=2**48)


@settings(derandomize=True, max_examples=200)
@example(seed=0, node=0)
@example(seed=2**63 + 7, node=2**40 + 1)
@given(seed=SEEDS, node=IDS)
def test_uts_draw_is_derive_seed(seed, node):
    assert _node_draw(seed_prefix(seed, "uts"), node) == derive_seed(seed, "uts", node)


@settings(derandomize=True, max_examples=200)
@example(seed=0, village=0, step=0)
@example(seed=2**63 + 7, village=2**40 + 1, step=2**41)
@given(seed=SEEDS, village=IDS, step=IDS)
def test_health_draws_are_derive_seed(seed, village, step):
    prefix = seed_prefix(seed, "health")
    assert _arrival_draw(prefix, village, step) == derive_seed(seed, "health", village, step)
    assert _referral_draw(prefix, village, step) == derive_seed(
        seed, "health", village, step, "refer"
    )


#: Seed 0, the default seed and one above 2**63.
PINNED_SEEDS = (0, 20160523, 2**63 + 12345)


@pytest.mark.parametrize(
    ("params", "expected"),
    [
        ((10, 3, 0.3, 8), (26, 35, 17)),
        ((40, 4, 0.31, 10), (1405, 1065, 1001)),
        ((200, 2, 0.45, 14), (1411, 1379, 1545)),
    ],
)
def test_uts_reference_count_is_pinned(params, expected):
    # params: (b0, m, q, max_depth)
    assert tuple(uts_reference_count(seed, *params) for seed in PINNED_SEEDS) == expected


@pytest.mark.parametrize(
    ("params", "expected"),
    [
        ((3, 3, 4), ((76, 76, 8, 6), (63, 63, 5, 1), (68, 68, 6, 4))),
        ((5, 4, 3), ((1362, 1362, 138, 82), (1322, 1322, 164, 77), (1382, 1382, 167, 72))),
        ((4, 2, 12), ((269, 269, 6, 19), (253, 253, 10, 11), (243, 243, 3, 9))),
    ],
)
def test_health_reference_is_pinned(params, expected):
    # params: (levels, branching, steps); results: (total, treated, waiting, referred)
    assert tuple(health_reference(*params, seed=seed) for seed in PINNED_SEEDS) == expected
