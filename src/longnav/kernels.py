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
magnitude at most ``n_bits``, far below 2**24. Zero padding bits agree on
both sides, so they add nothing to the distance. The reductions work on
``dot`` directly (nearest means largest ``dot``) and only the reduced vectors
are converted to integer distances.

Mutual-nearest matching takes the column argmax only at the columns that
can pair: those picked as nearest by a row within the acceptance radius.
Gathered as rows, they are reduced along the last axis, in place of
numpy's transposed copy of the whole product; when every column is picked
this is the work of a full column argmax (see ``mutual_nearest_pairs``).

A comparison registers each camera view against many feature sets (every
strategy's active rows, and each of ``multiple``'s alternatives), and those
sets share most of their rows. ``ViewProduct`` multiplies the view once with
the distinct rows of all of them (see ``distinct_rows``), and
``mutual_nearest_pairs`` and ``nearest_distances`` reduce a set's rows of
that product when handed them as ``dot`` instead of multiplying again. Being
exact, the shared product gives every set the same distances, and so the
same pairs and rankings, as a product of its own.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# odd multipliers mixing every word of a row into one sort key; rows that
# differ in exactly one word never share a key
_ROW_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                     0x165667B19E3779F9, 0xD6E8FEB86659FD93], dtype=np.uint64)


def bit_rows(a: np.ndarray) -> np.ndarray:
    """``(n, 64 * n_words)`` int8 rows of ±1, one entry per bit of the packed
    words ``a``; int8 input is taken as bit rows already."""
    if a.dtype == np.int8:
        return a
    octets = np.ascontiguousarray(a).view(np.uint8)
    bits = np.unpackbits(octets, axis=1, bitorder="little")
    return (2 * bits - 1).view(np.int8)  # uint8 arithmetic wraps 0 to 255, i.e. -1


def _n_bits(a: np.ndarray) -> int:
    return a.shape[1] if a.dtype == np.int8 else 64 * a.shape[1]


def _dot(a: np.ndarray, b: np.ndarray):
    """Bit agreements minus disagreements for all pairs (float32) and the
    bit count. The widened operands are freed on return, before the caller's
    reductions allocate."""
    a = bit_rows(a).astype(np.float32)
    b = bit_rows(b).astype(np.float32)
    return a @ b.T, a.shape[1]


def _distance(dot: np.ndarray, n_bits: int) -> np.ndarray:
    return ((n_bits - dot) * 0.5).astype(np.int64)


def distinct_rows(words: np.ndarray):
    """``(first, inverse)`` for the rows of packed ``words``: ``inverse[i]``
    numbers row i's distinct value and ``first[u]`` is a row holding value
    u. Two rows share a number exactly when they are equal in every word.

    Rows are sorted by one mixed 64-bit key each and checked word by word,
    which costs a seventh of ``np.unique(words, axis=0)`` and a third of
    ``np.unique`` on whole rows (``BENCH_shared_product.json``,
    ``distinct_rows``)."""
    n = words.shape[0]
    mix = np.resize(_ROW_MIX, words.shape[1])
    key = (words * mix).sum(axis=1, dtype=np.uint64)  # wraps modulo 2**64
    order = np.argsort(key)
    key = key[order]
    new = np.ones(n, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    first = order[new]
    if not (words[first[inverse]] == words).all():
        # two different rows share a key: number the rows by sorting them
        _, first, inverse = np.unique(words, axis=0, return_index=True,
                                      return_inverse=True)
    return first, inverse.reshape(n)


class ViewProduct:
    """One view's ``dot`` with the rows of several row sets, from one matrix
    product over their distinct rows.

    ``sets`` holds one ``(words, bits)`` pair per set: its packed rows and
    their bit rows (see ``bit_rows``). A single set is multiplied as it is;
    several are multiplied once per distinct row (see ``distinct_rows``).
    ``dot(k)`` is set k's ``(len(set k), len(view))`` float32 product with
    the view, equal to the one ``mutual_nearest_pairs`` would compute.
    """

    __slots__ = ("_dot", "_rows")

    def __init__(self, view: np.ndarray, sets):
        if len(sets) == 1:
            bits = sets[0][1]
            self._rows = [slice(None)]
        else:
            first, inverse = distinct_rows(np.concatenate([w for w, _ in sets]))
            bits = np.concatenate([b for _, b in sets])[first]
            ends = np.cumsum([len(w) for w, _ in sets])
            self._rows = np.split(inverse, ends[:-1])
        self._dot = _dot(bits, view)[0]

    def dot(self, k: int) -> np.ndarray:
        """Set k's product with the view: the shared product itself for a
        single set, else a copy of the set's rows of it."""
        return self._dot[self._rows[k]]

    def part(self, start: int, stop: int) -> "ViewProduct":
        """The same product, for the sets start..stop-1 only, renumbered
        from 0."""
        part = object.__new__(ViewProduct)
        part._dot, part._rows = self._dot, self._rows[start:stop]
        return part


def mutual_nearest_pairs(a: np.ndarray, b: np.ndarray, d_max: int,
                         dot: np.ndarray | None = None):
    """Mutual nearest neighbours under Hamming distance, within ``d_max``.

    Returns ``(a_idx, b_idx, dist)`` int64 arrays sorted by ``a_idx``. Ties in
    the nearest neighbour are broken toward the lower index on both sides.
    ``dot``, when given, is a's product with b computed elsewhere (for
    instance ``ViewProduct.dot``) and is reduced instead of multiplying.

    Each row's nearest column comes from a row argmax. Only rows whose
    nearest lies within ``d_max`` can be paired, so only the columns they
    pick are reduced, each once and over all of its rows: a row is paired
    when it is its picked column's nearest row (largest ``dot``, then lowest
    row). That is the full column argmax wherever the mutual check reads it,
    so the pairs are exact. Its cost falls with the share of columns that
    no row within ``d_max`` picks; with none left out, it is the work of a
    full column argmax.
    """
    if a.shape[0] == 0 or b.shape[0] == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    if dot is None:
        dot, n_bits = _dot(a, b)
    else:
        n_bits = _n_bits(a)
    best_b = dot.argmax(axis=1)
    dist = _distance(dot[np.arange(a.shape[0]), best_b], n_bits)
    near = np.flatnonzero(dist <= d_max)
    picked = np.zeros(dot.shape[1], dtype=bool)
    picked[best_b[near]] = True
    best_a = np.empty(dot.shape[1], dtype=np.intp)
    best_a[picked] = dot.T[picked].argmax(axis=1)  # picked columns as rows
    near = near[best_a[best_b[near]] == near]
    return near, best_b[near], dist[near]


def nearest_distances(a: np.ndarray, b: np.ndarray,
                      dot: np.ndarray | None = None, rows=None) -> np.ndarray:
    """Per-row distance from ``a`` to its nearest row of ``b`` (b non-empty).

    ``dot``, when given, holds a's products with b's rows ``rows`` (all of b
    when rows is None), computed elsewhere; only b's other rows are
    multiplied here.
    """
    if dot is None:
        dot, n_bits = _dot(a, b)
        return _distance(dot.max(axis=1), n_bits)
    best = dot.max(axis=1, initial=-np.inf)
    if rows is not None and len(rows) < b.shape[0]:
        rest = np.ones(b.shape[0], dtype=bool)
        rest[rows] = False
        best = np.maximum(best, _dot(a, b[rest])[0].max(axis=1))
    return _distance(best, _n_bits(a))


def self_nearest_distances(a: np.ndarray) -> np.ndarray:
    """Per-row distance to the nearest *other* row (needs at least 2 rows)."""
    dot, n_bits = _dot(a, a)
    np.fill_diagonal(dot, -np.inf)
    return _distance(dot.max(axis=1), n_bits)
