"""Descriptor-distance kernels: one exact float32 matrix product.

Descriptors are handled as packed bit vectors: C-contiguous ``uint64`` arrays
of shape ``(n, n_words)``, bit ``i`` of a descriptor living at bit ``i % 64``
of word ``i // 64``. Padding bits beyond the descriptor width must be zero.

Every kernel unpacks its rows into ±1 ``float32`` bit rows, so one matrix
product gives ``dot = agreements - disagreements`` for all pairs, and
``hamming = (64 * n_words - dot) / 2``. The product is exact: each partial sum
is an integer of magnitude at most ``64 * n_words``, far below 2**24. Zero
padding bits agree on both sides, so they add nothing to the distance. The
reductions work on ``dot`` directly (nearest means largest ``dot``) and only
the reduced vectors are converted to integer distances.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits in a packed word array."""
    return int(np.unpackbits(np.ascontiguousarray(words).view(np.uint8)).sum())


def _signs(words: np.ndarray) -> np.ndarray:
    """``(n, 64 * n_words)`` float32 rows of ±1, one entry per bit."""
    octets = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(octets, axis=1, bitorder="little")
    return np.subtract(2 * bits, 1, dtype=np.float32)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit agreements minus disagreements for all pairs, float32."""
    return _signs(a) @ _signs(b).T


def _distance(dot: np.ndarray, n_words: int) -> np.ndarray:
    return ((64 * n_words - dot) * 0.5).astype(np.int64)


def hamming_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances, shape ``(len(a), len(b))``, int64."""
    return _distance(_dot(a, b), a.shape[1])


def mutual_nearest_pairs(a: np.ndarray, b: np.ndarray, d_max: int):
    """Mutual nearest neighbours under Hamming distance.

    Returns ``(a_idx, b_idx, dist)`` int64 arrays sorted by ``a_idx``. Ties in
    the nearest neighbour are broken toward the lower index on both sides.
    """
    if a.shape[0] == 0 or b.shape[0] == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    dot = _dot(a, b)
    best_b = dot.argmax(axis=1)
    best_a = dot.argmax(axis=0)
    ii = np.arange(a.shape[0])
    dist = _distance(dot[ii, best_b], a.shape[1])
    keep = (best_a[best_b] == ii) & (dist <= d_max)
    return ii[keep], best_b[keep], dist[keep]


def nearest_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row distance from ``a`` to its nearest row of ``b`` (b non-empty)."""
    return _distance(_dot(a, b).max(axis=1), a.shape[1])


def self_nearest_distances(a: np.ndarray) -> np.ndarray:
    """Per-row distance to the nearest *other* row (needs at least 2 rows)."""
    dot = _dot(a, a)
    np.fill_diagonal(dot, -np.inf)
    return _distance(dot.max(axis=1), a.shape[1])
