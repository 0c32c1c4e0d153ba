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

A comparison registers each camera view against many feature sets (every
strategy's active rows, and each of ``multiple``'s alternatives), and those
sets share most of their rows. ``ViewProduct`` multiplies the view once with
the distinct rows of all of them (see ``distinct_rows``) and reduces that
product once, for every set at once:

- A row's nearest column does not depend on the set that holds it, so one
  row argmax over the distinct rows serves every set.
- The distinct rows are grouped by the sets that hold them, so that the
  rows of one membership class lie in one block. Each block gives its
  column max and the number of its rows that reach it. A set's column max
  is the max over its own classes, and the rows reaching it are counted
  from theirs.
- A row pairs with its nearest column when it alone reaches its set's max
  there, so every set's pairs come from one pass over the sets' rows.

``mutual_nearest_pairs`` reads every set's pairs through the product, or
one set's through its ``SetProduct``, and the insertion ranking
(``nearest_distances``) reads a set's column max through its share; no set
copies or gathers its rows or columns of the product.
``mutual_nearest_pairs`` called without either builds a one-set
``ViewProduct``, so every product is reduced the same way. Being exact, the
shared product gives every set the same distances, and so the same pairs and
rankings, as a product of its own.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# odd multipliers mixing every word of a row into one sort key; rows that
# differ in exactly one word never share a key
_ROW_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                     0x165667B19E3779F9, 0xD6E8FEB86659FD93], dtype=np.uint64)
_BASE_4 = 4 ** np.arange(32, dtype=np.uint64)


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


def _grouped_rows(words: np.ndarray):
    """``(order, new)`` for the rows of packed ``words``: ``order`` lists the
    rows so that equal rows come together, and ``new[i]`` is True where the
    row at ``order[i]`` differs from the one before it.

    Rows are sorted by one mixed 64-bit key each, which is the row itself
    for one word; longer rows are then checked word by word. This costs a
    seventh of ``np.unique(words, axis=0)`` and a third of ``np.unique`` on
    whole rows (``BENCH_shared_product.json``, ``distinct_rows``)."""
    n, n_words = words.shape
    key = words @ np.resize(_ROW_MIX, n_words)  # wraps modulo 2**64
    order = np.argsort(key)
    key = key[order]
    new = np.ones(n, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    if n_words == 1:  # odd multipliers: equal keys mean equal rows
        return order, new
    rows = words[order]
    if not (new[1:] | (rows[1:] == rows[:-1]).all(axis=1)).all():
        # two different rows share a key: sort the rows themselves
        _, inverse = np.unique(words, axis=0, return_inverse=True)
        order = np.argsort(inverse.reshape(n), kind="stable")
        inverse = inverse.reshape(n)[order]
        np.not_equal(inverse[1:], inverse[:-1], out=new[1:])
    return order, new


def distinct_rows(words: np.ndarray):
    """``(first, inverse)`` for the rows of packed ``words``: ``inverse[i]``
    numbers row i's distinct value and ``first[u]`` is a row holding value
    u. Two rows share a number exactly when they are equal in every word."""
    order, new = _grouped_rows(words)
    inverse = np.empty(words.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


class ViewProduct:
    """One view's product with the rows of several row sets, reduced once for
    all of them.

    ``sets`` holds one ``(words, bits)`` pair per set: its packed rows and
    their bit rows (see ``bit_rows``; packed words serve too). A single set
    is multiplied as it is. Several are multiplied once per distinct row (see
    ``distinct_rows``), grouped by membership: how often each set holds the
    row, counted up to 2. The rows of one membership class form one block of
    the product.

    The reductions are taken once:

    - the row side, per distinct row: its nearest column (largest ``dot``,
      then lowest column), that ``dot`` and its distance;
    - the column side, per class: the column max over the class's rows and
      how many of them reach it. From these, per set: ``tops``, the column
      max over the set's rows (the max over its classes), and ``reach``, how
      many of its rows reach it (the counts of its classes at that max),
      exact up to 2, which is all that pairing reads: a row the set holds
      more than once counts at least twice.

    ``pairs`` finds every set's mutual nearest pairs from them at once, and
    ``shares()`` gives each set's part (a ``SetProduct``). The product keeps
    its operands, ``words`` (the sets' packed rows one after another) and
    ``view``, and ``memo``, a dict in which callers keep what they derive
    from it once for all its sets (see ``registration.register``).
    """

    __slots__ = ("_dot", "tops", "reach", "_row", "_best", "_best_dot",
                 "_dist", "_owner", "_cut", "_pairs", "words", "view", "memo")

    def __init__(self, view: np.ndarray, sets):
        sizes = [len(bits) for _, bits in sets]
        k = len(sets)
        owner = np.repeat(np.arange(k), sizes)
        if k == 1:  # one class, the set's rows as they are, and the empty
            (words, bits), rows = sets[0], np.arange(sizes[0])
            starts = np.zeros(min(sizes[0], 1), dtype=np.intp)
            held = np.ones((len(starts) + 1, 1), dtype=np.uint8)
        else:
            words = np.concatenate([w for w, _ in sets])
            first, inverse = distinct_rows(words)
            n = len(first)
            n_words = -(-k // 32)  # a base-4 digit per set, 32 to a word
            held = np.zeros((n, 32 * n_words), dtype=np.uint8)
            held[:, :k] = np.minimum(np.bincount(
                inverse * k + owner, minlength=n * k), 2).reshape(n, k)
            order, new = _grouped_rows(held.reshape(n, n_words, 32) @ _BASE_4)
            starts = np.flatnonzero(new)
            held = np.concatenate((held[order[starts], :k],  # one per class
                                   np.ones((1, k), dtype=np.uint8)))
            rows = np.empty(n, dtype=np.intp)
            rows[order] = np.arange(n)
            rows = rows[inverse]
            bits = np.concatenate([b for _, b in sets])[first[order]]
        dot, n_bits = _dot(bits, view)
        self._dot = dot
        n, n_cols = dot.shape
        if n_cols:
            best = dot.argmax(axis=1)
            best_dot = dot[np.arange(n), best]
            dist = _distance(best_dot, n_bits)
        else:  # a view without features: no row has a nearest column
            best = np.zeros(n, dtype=np.intp)
            best_dot = np.zeros(n, dtype=np.float32)
            dist = np.full(n, np.iinfo(np.int64).max)
        # one row per class, and a last, empty class: max -inf, reach 0
        class_max = np.full((len(held), n_cols), -np.inf, dtype=np.float32)
        class_reach = np.ones((len(held), n_cols), dtype=np.int32)
        class_reach[-1] = 0
        at_max = np.empty(dot.shape, dtype=bool)
        bounds = [*starts.tolist(), n]
        for top, reach, start, end in zip(class_max, class_reach, bounds,
                                          bounds[1:]):
            block = dot[start:end]
            np.maximum.reduce(block, axis=0, out=top)
            if end - start > 1:
                np.equal(block, top, out=at_max[start:end])
                np.add.reduce(at_max[start:end], axis=0, out=reach)
        # every set's classes, the empty one last: no list is empty
        member, classes = np.nonzero(held.T)
        set_start = np.searchsorted(member, np.arange(k))
        at = class_max[classes]
        self.tops = np.maximum.reduceat(at, set_start, axis=0)
        self.reach = np.add.reduceat(
            (at == self.tops[member])
            * (held.T[member, classes, None] * class_reach[classes]),
            set_start, axis=0)
        # the sets' rows one after another: product row, nearest column, its
        # dot and distance, and set
        self._row, self._best = rows, best[rows]
        self._best_dot, self._dist = best_dot[rows], dist[rows]
        self._cut = np.cumsum([0, *sizes])
        self._owner = owner
        self._pairs = {}
        self.words, self.view, self.memo = words, view, {}

    def shares(self) -> list:
        """Every set's share, in set order."""
        return [SetProduct(self, k) for k in range(len(self.tops))]

    def pairs(self, d_max: int):
        """Every set's mutual nearest pairs within ``d_max``: ``(cut, a_idx,
        b_idx, dist)``, set k's being ``cut[k]:cut[k + 1]`` of the others.

        A row within ``d_max`` of its nearest column pairs with it when its
        ``dot`` there is its set's column max and no other row of the set
        reaches it: the classes of the set at that max count one row between
        them. Where more rows reach it, the lowest of them is found in the
        product itself; such ties are rare but for repeated rows.
        """
        if d_max in self._pairs:
            return self._pairs[d_max]
        near = np.flatnonzero(self._dist <= d_max)
        owner = self._owner[near]
        cols = self._best[near]
        top = self.tops[owner, cols]
        at_top = self._best_dot[near] == top
        near, owner, cols, top = (a[at_top] for a in (near, owner, cols, top))
        keep = self.reach[owner, cols] == 1
        for k in np.unique(owner[~keep]).tolist():
            i = np.flatnonzero(~keep & (owner == k))
            set_rows = self._row[self._cut[k]:self._cut[k + 1]]
            lowest = (self._dot[set_rows[:, None], cols[i]] == top[i]).argmax(
                axis=0)
            keep[i] = lowest == near[i] - self._cut[k]
        near, owner = near[keep], owner[keep]
        found = (np.searchsorted(owner, np.arange(len(self._cut))).tolist(),
                 near - self._cut[owner], self._best[near], self._dist[near])
        self._pairs[d_max] = found
        return found


class SetProduct:
    """Set k's share of a ``ViewProduct``: its reductions, read for that
    set's rows and columns."""

    __slots__ = ("product", "k")

    def __init__(self, product: ViewProduct, k: int):
        self.product, self.k = product, k

    def top(self, cols) -> np.ndarray:
        """The column max of ``dot`` over the set's rows, at columns cols
        (-inf for a set without rows)."""
        return self.product.tops[self.k, cols]

    def pairs(self, d_max: int):
        """The set's ``(a_idx, b_idx, dist)`` (see ``ViewProduct.pairs``)."""
        cut, *found = self.product.pairs(d_max)
        span = slice(cut[self.k], cut[self.k + 1])
        return tuple(a[span] for a in found)


def mutual_nearest_pairs(a: np.ndarray, b: np.ndarray, d_max: int,
                         share: SetProduct | None = None):
    """Mutual nearest neighbours under Hamming distance, within ``d_max``.

    Returns ``(a_idx, b_idx, dist)`` int64 arrays sorted by ``a_idx``. Ties in
    the nearest neighbour are broken toward the lower index on both sides.
    ``share``, when given, is a's share of a ``ViewProduct`` with the view b
    (a ``SetProduct``), whose pairs are read instead of multiplying. It may
    also be the ``ViewProduct`` itself, a then being its ``words`` and b its
    ``view``: every set's pairs come at once, as ``(cut, a_idx, b_idx,
    dist)`` (see ``ViewProduct.pairs``). Without a share, a and b make a
    one-set product.
    """
    if share is None:
        if a.shape[0] == 0 or b.shape[0] == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy(), e.copy()
        share, = ViewProduct(b, [(a, a)]).shares()
    return share.pairs(d_max)


def nearest_distances(a: np.ndarray, b: np.ndarray,
                      top: np.ndarray | None = None, rows=None) -> np.ndarray:
    """Per-row distance from ``a`` to its nearest row of ``b`` (b non-empty).

    ``top``, when given, holds each row of a's largest ``dot`` with b's rows
    ``rows`` (all of b when rows is None), for instance ``SetProduct.top``;
    only b's other rows are multiplied here.
    """
    if top is None:
        dot, n_bits = _dot(a, b)
        return _distance(dot.max(axis=1), n_bits)
    if rows is not None and len(rows) < b.shape[0]:
        rest = np.ones(b.shape[0], dtype=bool)
        rest[rows] = False
        top = np.maximum(top, _dot(a, b[rest])[0].max(axis=1))
    return _distance(top, _n_bits(a))


def self_nearest_distances(a: np.ndarray) -> np.ndarray:
    """Per-row distance to the nearest *other* row (needs at least 2 rows)."""
    dot, n_bits = _dot(a, a)
    np.fill_diagonal(dot, -np.inf)
    return _distance(dot.max(axis=1), n_bits)
