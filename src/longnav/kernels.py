"""Descriptor-distance kernels: one exact float32 matrix product.

Descriptors are handled as packed bit vectors: C-contiguous ``uint64`` arrays
of shape ``(n, n_words)``, bit ``i`` of a descriptor living at bit ``i % 64``
of word ``i // 64``. Padding bits beyond the descriptor width must be zero.

Every kernel works on ±1 bit rows, one entry per bit, so one ``float32``
matrix product gives ``dot = agreements - disagreements`` for all pairs, and
``hamming = (n_bits - dot) / 2``. A kernel takes either the packed words,
which it unpacks with ``bit_rows``, or bit rows already unpacked (a
``FeatureBlock`` caches them, see ``features.pack_features``). Bit rows are
stored as ``int8``, a quarter of the memory of ``float32``, and widened only
for the product. The product is exact: each partial sum is an integer of
magnitude at most ``n_bits``, far below 2**24. Zero padding bits agree on both sides, so they add nothing to
the distance. The reductions work on ``dot`` directly (nearest means largest
``dot``) and only the reduced vectors are converted to integer distances.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits in a packed word array."""
    return int(np.unpackbits(np.ascontiguousarray(words).view(np.uint8)).sum())


def bit_rows(a: np.ndarray) -> np.ndarray:
    """``(n, 64 * n_words)`` int8 rows of ±1, one entry per bit of the packed
    words ``a``; int8 input is taken as bit rows already."""
    if a.dtype == np.int8:
        return a
    octets = np.ascontiguousarray(a).view(np.uint8)
    bits = np.unpackbits(octets, axis=1, bitorder="little")
    return (2 * bits - 1).view(np.int8)  # uint8 arithmetic wraps 0 to 255, i.e. -1


def _dot(a: np.ndarray, b: np.ndarray):
    """Bit agreements minus disagreements for all pairs (float32) and the
    bit count. The widened operands are freed on return, before the caller's
    reductions allocate."""
    a = bit_rows(a).astype(np.float32)
    b = bit_rows(b).astype(np.float32)
    return a @ b.T, a.shape[1]


def _distance(dot: np.ndarray, n_bits: int) -> np.ndarray:
    return ((n_bits - dot) * 0.5).astype(np.int64)


def hamming_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances, shape ``(len(a), len(b))``, int64."""
    return _distance(*_dot(a, b))


def mutual_nearest_pairs(a: np.ndarray, b: np.ndarray, d_max: int):
    """Mutual nearest neighbours under Hamming distance.

    Returns ``(a_idx, b_idx, dist)`` int64 arrays sorted by ``a_idx``. Ties in
    the nearest neighbour are broken toward the lower index on both sides.
    """
    if a.shape[0] == 0 or b.shape[0] == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    dot, n_bits = _dot(a, b)
    best_b = dot.argmax(axis=1)
    best_a = dot.argmax(axis=0)
    ii = np.arange(a.shape[0])
    dist = _distance(dot[ii, best_b], n_bits)
    keep = (best_a[best_b] == ii) & (dist <= d_max)
    return ii[keep], best_b[keep], dist[keep]


def nearest_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row distance from ``a`` to its nearest row of ``b`` (b non-empty)."""
    dot, n_bits = _dot(a, b)
    return _distance(dot.max(axis=1), n_bits)


def self_nearest_distances(a: np.ndarray) -> np.ndarray:
    """Per-row distance to the nearest *other* row (needs at least 2 rows)."""
    dot, n_bits = _dot(a, a)
    np.fill_diagonal(dot, -np.inf)
    return _distance(dot.max(axis=1), n_bits)
