"""Deterministic RNG derivation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.simcore.rng import derive_rng, derive_seed


def test_same_keys_same_seed():
    assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)


def test_different_keys_differ():
    assert derive_seed(42, "a") != derive_seed(42, "b")
    assert derive_seed(42, "a", 0) != derive_seed(42, "a", 1)
    assert derive_seed(41, "a") != derive_seed(42, "a")


def test_key_order_matters():
    assert derive_seed(1, "x", "y") != derive_seed(1, "y", "x")


def test_rng_reproducible():
    a = derive_rng(7, "stream").random(5)
    b = derive_rng(7, "stream").random(5)
    assert (a == b).all()


def test_rng_streams_independent():
    a = derive_rng(7, "s1").random(5)
    b = derive_rng(7, "s2").random(5)
    assert not (a == b).all()


def test_seeds_are_pinned():
    # Every UTS tree shape, health arrival and steal order derives from
    # these digests: a change to the derivation moves every fixture.
    assert derive_seed(20160523, "uts", 12345) == 16749789406023888468
    assert derive_seed(0xABAD1DEA, "steal-order", 3) == 1519099399091738162
    assert derive_seed(7, "health", 4, 5, "refer") == 12149909802971178948


def test_seed_is_64_bit():
    seed = derive_seed(123, "k")
    assert 0 <= seed < 2**64


@given(st.integers(), st.text(max_size=20), st.integers())
def test_property_deterministic(root, key1, key2):
    assert derive_seed(root, key1, key2) == derive_seed(root, key1, key2)


@given(st.integers(min_value=0, max_value=10**6))
def test_property_distinct_nodes(node):
    # Adjacent node ids should essentially never collide.
    assert derive_seed(5, "uts", node) != derive_seed(5, "uts", node + 1)
