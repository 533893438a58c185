"""Deterministic random-number derivation.

Every stochastic component (UTS tree shapes, benchmark jitter, kernel
scheduler tie-breaking) derives its generator from a root seed plus a
tuple of string/int keys, so sub-streams are independent and stable no
matter in which order components are constructed.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, *keys: object) -> int:
    """Derive a 64-bit child seed from *root_seed* and a key path.

    The seed is the 8-byte BLAKE2b digest of ``str(root_seed)`` and the
    ``repr`` of every key, joined by ``/``.
    """
    path = "/".join([str(root_seed), *map(repr, keys)])
    return int.from_bytes(hashlib.blake2b(path.encode(), digest_size=8).digest(), "little")


def derive_rng(root_seed: int, *keys: object) -> np.random.Generator:
    """A :class:`numpy.random.Generator` seeded from a derived seed."""
    return np.random.default_rng(derive_seed(root_seed, *keys))
