"""Deterministic random-number derivation.

Every stochastic component (UTS tree shapes, benchmark jitter, kernel
scheduler tie-breaking) derives its generator from a root seed plus a
tuple of string/int keys, so sub-streams are independent and stable no
matter in which order components are constructed.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np


def derive_seed(root_seed: int, *keys: object) -> int:
    """Derive a 64-bit child seed from *root_seed* and a key path.

    The seed is the 8-byte BLAKE2b digest of ``str(root_seed)`` and the
    ``repr`` of every key, joined by ``/``.
    """
    path = "/".join([str(root_seed), *map(repr, keys)])
    return int.from_bytes(hashlib.blake2b(path.encode(), digest_size=8).digest(), "little")


def seed_prefix(root_seed: int, *keys: object) -> Any:
    """The BLAKE2b state of :func:`derive_seed`'s path up to and
    including the ``/`` after *keys*.

    For callers that draw many seeds under one prefix (a uts node per
    task): hash the prefix once, then finish each draw on a ``.copy()``
    fed the remaining keys' ``repr``s joined by ``/``.  BLAKE2b is a
    streaming hash, so ``int.from_bytes(h.digest(), "little")`` of the
    copy equals ``derive_seed(root_seed, *keys, *rest)`` by construction.
    """
    path = "/".join([str(root_seed), *map(repr, keys)])
    return hashlib.blake2b(f"{path}/".encode(), digest_size=8)


def derive_rng(root_seed: int, *keys: object) -> np.random.Generator:
    """A :class:`numpy.random.Generator` seeded from a derived seed."""
    return np.random.default_rng(derive_seed(root_seed, *keys))
