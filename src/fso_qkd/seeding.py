"""Deterministic seeding and counter-based random streams.

Large runs never materialize per-symbol random state. Alice's symbol and
the receiver's analyzer port in each slot are two-bit codes, pure functions
of (seed, symbol index) through a splitmix64-style mixer, so any slice of a
multi-gigasymbol stream can be reproduced independently and two runs with
the same seed are bit-identical regardless of chunking or worker count.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF


def mix64(*parts: int) -> int:
    """Fold integers into one well-mixed 64-bit value (order-sensitive)."""
    acc = 0
    for part in parts:
        acc = (acc + (int(part) & _MASK) + _GOLDEN) & _MASK
        acc ^= acc >> 30
        acc = (acc * _MIX_A) & _MASK
        acc ^= acc >> 27
        acc = (acc * _MIX_B) & _MASK
        acc ^= acc >> 31
    return acc


def hash_stream(seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over ``indices`` for the stream ``seed``.

    Returns uint64 words; each word is an independent uniform draw keyed by
    (seed, index), suitable for slicing bits off for discrete choices.
    """
    # z = seed + (index + 1) * golden, then three xor-shift-multiply rounds,
    # in place on one copy of the indices and one scratch array.
    z = np.array(indices, dtype=np.uint64)
    shifted = np.empty_like(z)
    with np.errstate(over="ignore"):
        z += np.uint64(1)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(seed & _MASK)
        for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
            np.right_shift(z, np.uint64(shift), out=shifted)
            z ^= shifted
            z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def two_bit_codes(seed: int, indices: np.ndarray) -> np.ndarray:
    """The low two bits of ``hash_stream(seed, indices)`` as uint8: the one
    source of symbol and analyzer port codes."""
    words = hash_stream(seed, indices)
    words &= np.uint64(3)
    return words.astype(np.uint8)


def rng_from(seed: int) -> np.random.Generator:
    """Owned generator for a (sub-)run; pair with mix64 to derive sub-seeds."""
    return np.random.default_rng(seed & _MASK)
