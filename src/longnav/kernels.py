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
sets share most of their rows: a row keeps its id (``FeatureBlock.ids``)
wherever it is copied. ``ViewProduct`` takes several views at once (an
open-loop traversal's) and each set's view. It multiplies each view once
with the distinct rows of its sets, found by id, one matrix product per
view, and reduces the products once, for every set of every view at once:

- A row's nearest column does not depend on the set that holds it, so one
  row argmax over the distinct rows serves every set.
- The distinct rows are grouped by the sets that hold them, so that the
  rows of one membership class lie in one block. Each block gives its
  column max, and a set's column max is the max over its own classes.
- A row pairs with its nearest column when it alone among its set's rows
  reaches the set's max there. A row that reaches it lies within the
  acceptance radius of that column too, so only the product's entries
  within the radius are counted, and every set's pairs come from one pass.

``mutual_nearest_pairs`` reads every set's pairs through the product, and
the insertion ranking (``nearest_distances``) reads a set's column max
through its share (a ``SetProduct``); no set copies or gathers its rows or
columns of the product. ``mutual_nearest_pairs`` called without a product
builds a one-set ``ViewProduct``, so every product is reduced the same way
and its pairs come in one shape. Being exact, the shared product gives every
set the same distances, and so the same pairs and rankings, as a product of
its own.
"""

from __future__ import annotations

import itertools

import numpy as np

BACKEND = "numpy"

_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


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


def _dots(a: np.ndarray, views: list, row_view: np.ndarray):
    """``_dot`` of several views: the rows a, grouped by view (row i of view
    ``row_view[i]``), each multiplied with its own view alone, one view at a
    time. The product has the widest view's columns; a narrower view's rows
    read -inf beyond its own."""
    a = bit_rows(a)
    dot = np.empty((len(a), max(map(len, views))), dtype=np.float32)
    ends = np.searchsorted(row_view, np.arange(len(views) + 1))
    for view, start, end in zip(views, ends, ends[1:]):
        if start < end:
            c = len(view)
            dot[start:end, c:] = -np.inf
            np.matmul(a[start:end].astype(np.float32),
                      bit_rows(view).astype(np.float32).T,
                      out=dot[start:end, :c])
    return dot, _n_bits(a)


def _distance(dot: np.ndarray, n_bits: int) -> np.ndarray:
    return ((n_bits - dot) * 0.5).astype(np.int64)


def _grouped(*keys):
    """``(order, new)`` for rows keyed by the 1-D integer arrays keys, the
    last key sorting first (as ``np.lexsort``): ``order`` lists the rows so
    that equal keys come together, rows of equal keys in their own order,
    and ``new[i]`` is True where the keys at ``order[i]`` differ from those
    before it."""
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    return order, new


def _membership(owner: np.ndarray, starts: np.ndarray, k: int) -> np.ndarray:
    """The sets holding each run of rows (runs starting at ``starts``, row i
    held by set ``owner[i]`` of k), as ``(runs, ceil(k / 64))`` uint64 words
    with bit ``s % 64`` of word ``s // 64`` set for each set s."""
    n_words = -(-k // 64)
    bit = _BIT[owner % 64 if n_words > 1 else owner]
    if n_words > 1:
        words = np.zeros((len(owner), n_words), dtype=np.uint64)
        words[np.arange(len(owner)), owner // 64] = bit
        bit = words
    if not len(starts):
        return np.zeros((0, n_words), dtype=np.uint64)
    return np.bitwise_or.reduceat(bit, starts, axis=0).reshape(-1, n_words)


class ViewProduct:
    """Several views' products with the rows of several row sets, each set
    against its own view, reduced once for all of them.

    ``views`` holds each view's bit rows (see ``bit_rows``; packed words
    serve too), all of one width, and ``sets`` one ``(v, ids, bits)``
    triple per set: the index of its view in views, an int64 id per row and
    the rows' bit rows. Rows that share an id must share their bits: a
    block's rows carry such ids (see ``features.FeatureBlock``). A single
    set is multiplied as it is, and its ids are not read. Several are
    multiplied once per distinct (view, id), found with one integer sort,
    and grouped by view and membership: the sets of that view that hold the
    row. The rows of one membership class form one block of the product,
    and the classes of one view one run of blocks, which is multiplied with
    that view alone: one matrix product per view, and no entry of a row
    with another view's column. The product has the widest view's columns;
    a narrower view's rows read -inf beyond its own. A product of one view
    leaves the view out of its keys, keeps no per-view tables and
    multiplies its rows in one matrix product.

    The reductions are taken once, over every view:

    - the row side, per product row: its nearest column (largest ``dot``,
      then lowest column), that ``dot`` and its distance;
    - the column side, per class: the column max over the class's rows.
      From these, per set, ``tops``: the column max over the set's rows (the
      max over its classes).

    Which of a set's rows reach its column max is not kept: ``pairs`` counts
    them only where a row could pair, from the entries within its radius.

    ``pairs`` finds every set's mutual nearest pairs from them at once, and
    ``shares()`` gives each set's part (a ``SetProduct``). The product keeps
    its operands, ``ids`` (the sets' ids one after another) and ``view``
    (the views' bit rows one after another), and ``memo``, a dict in which
    callers keep what they derive from it once for all its sets (see
    ``registration.register``).
    """

    __slots__ = ("_dot", "tops", "_class_max", "_bounds", "_class", "_held",
                 "_class_sets", "_twice", "_row", "_best", "_best_dot",
                 "_dist", "_owner", "_cut", "_n_bits", "_n_cols", "_views",
                 "_pairs", "ids", "memo")

    def __init__(self, views, sets):
        several = len(views) > 1
        if several:  # each set's view, and each view's and set's columns
            set_view = np.array([v for v, _, _ in sets], dtype=np.intp)
            n_cols = np.array([len(v) for v in views])
            self._n_cols = n_cols[set_view].tolist()
        else:
            self._n_cols = None
        sizes = [len(bits) for *_, bits in sets]
        k = len(sets)
        self._cut = np.array([0, *itertools.accumulate(sizes)])
        self._twice = None  # set rows whose set holds their id twice
        if k == 1:  # one class, the set's rows as they are
            (v, ids, bits), = sets
            n = sizes[0]
            starts = [0] if n else []
            row_view = np.full(n, v)
            self._owner = np.zeros(n, dtype=np.intp)
            self._class = self._held = self._class_sets = self._row = None
        else:
            ids = np.concatenate([i for _, i, _ in sets])
            self._owner = owner = np.repeat(np.arange(k), sizes)
            # the rows of one (view, id) together, a set's in set order; the
            # view is a key only when there are several
            by_id, new = _grouped(ids,
                                  *((set_view[owner],) if several else ()))
            runs = new.nonzero()[0]
            id_of = np.cumsum(new) - 1  # each sorted row's distinct row
            owner = owner[by_id]
            twice = ~new[1:] & (owner[1:] == owner[:-1])
            if twice.any():
                both = np.zeros(len(ids), dtype=bool)
                both[1:] |= twice
                both[:-1] |= twice
                self._twice = np.empty_like(both)
                self._twice[by_id] = both
            if several:  # each set's place among its view's sets: a
                # membership word holds a bit per set of one view
                by_view = np.argsort(set_view, kind="stable")
                in_order = set_view[by_view]
                local = np.empty(k, dtype=np.intp)
                local[by_view] = (np.arange(k)
                                  - np.searchsorted(in_order, in_order))
                k_view = int(local.max()) + 1
                member = _membership(local[owner], runs, k_view)
                run_view = set_view[owner[runs]]
            else:
                k_view = k
                member = _membership(owner, runs, k)
            by_class, new = _grouped(*member.T,
                                     *((run_view,) if several else ()))
            n = len(runs)
            starts = new.nonzero()[0].tolist()
            self._class = np.cumsum(new) - 1  # of each product row
            # each class's sets: which of its view's sets hold it, and (of
            # several views) those sets' indices
            heads = by_class[new]
            self._held = np.unpackbits(member[heads].view(np.uint8), axis=1,
                                       count=k_view,
                                       bitorder="little").view(bool)
            if several:
                set_at = np.zeros((len(views), k_view), dtype=np.intp)
                set_at[set_view, local] = np.arange(k)
                self._class_sets = set_at[run_view[heads]]
            else:
                self._class_sets = None
            at = np.empty(n, dtype=np.intp)  # each distinct row's product row
            at[by_class] = np.arange(n)
            self._row = np.empty(len(ids), dtype=np.intp)
            self._row[by_id] = at[id_of]
            if several:
                row_view = run_view[by_class]
            bits = np.concatenate([b for *_, b in sets])[by_id[runs[by_class]]]
        if several:
            dot, n_bits = _dots(bits, views, row_view)
        else:
            dot, n_bits = _dot(bits, views[0])
        self._dot, self._n_bits = dot, n_bits
        width = dot.shape[1]
        if width:
            best = dot.argmax(axis=1)
            best_dot = dot[np.arange(n), best]
            # of several views, a row of a view without features has no
            # nearest column
            blank = n_cols[row_view] == 0 if several and 0 in n_cols else None
            if blank is not None:
                best_dot[blank] = 0
            dist = _distance(best_dot, n_bits)
            if blank is not None:
                dist[blank] = np.iinfo(np.int64).max
        else:  # no view has features: no row has a nearest column
            best = np.zeros(n, dtype=np.intp)
            best_dot = np.zeros(n, dtype=np.float32)
            dist = np.full(n, np.iinfo(np.int64).max)
        # one row per class, and a last, empty class: max -inf
        class_max = np.full((len(starts) + 1, width), -np.inf,
                            dtype=np.float32)
        self._bounds = bounds = [*starts, n]
        for top, start, end in zip(class_max, bounds, bounds[1:]):
            np.maximum.reduce(dot[start:end], axis=0, out=top)
        self._class_max = class_max
        if k == 1:
            self.tops = class_max[:1]  # the set's class, or the empty one
        else:  # every set's classes, and the empty one: no list is empty
            if self._class_sets is None:  # one view: set by set, the empty
                # class last
                member, classes = np.vstack(
                    (self._held, np.ones((1, k), dtype=bool))).T.nonzero()
            else:
                j, c = self._held.T.nonzero()
                member = np.concatenate((self._class_sets[c, j], np.arange(k)))
                classes = np.concatenate((c, np.full(k, len(starts))))
                order = np.argsort(member, kind="stable")
                member, classes = member[order], classes[order]
            self.tops = np.maximum.reduceat(
                class_max[classes], np.searchsorted(member, np.arange(k)),
                axis=0)
        # the sets' rows one after another: nearest column, its dot and
        # distance (and product row, see _row)
        if self._row is None:
            self._best, self._best_dot, self._dist = best, best_dot, dist
        else:
            rows = self._row
            self._best, self._best_dot = best[rows], best_dot[rows]
            self._dist = dist[rows]
        self._pairs = {}
        self._views, self.ids, self.memo = views, ids, {}

    @property
    def view(self) -> np.ndarray:
        """Every view's bit rows, one view after another."""
        if len(self._views) == 1:
            return self._views[0]
        return np.concatenate([bit_rows(v) for v in self._views])

    def shares(self) -> list:
        """Every set's share, in set order."""
        return [SetProduct(self, k) for k in range(len(self.tops))]

    def pairs(self, d_max: int):
        """Every set's mutual nearest pairs within ``d_max``: ``(cut, a_idx,
        b_idx, dist)``, set k's being ``cut[k]:cut[k + 1]`` of the others,
        b_idx a column of its own view.

        A row within ``d_max`` of its nearest column pairs with it when its
        ``dot`` there is its set's column max and no other row of the set
        reaches that max. A row that does lies within ``d_max`` of the
        column too, so the rows reaching each candidate's max are counted
        from the product's entries within ``d_max`` alone (see
        ``_reached_once``). Where more than one row reaches it, the lowest of
        them is found in the product itself; such ties are rare but for
        repeated rows.
        """
        if d_max in self._pairs:
            return self._pairs[d_max]
        near = (self._dist <= d_max).nonzero()[0]
        owner = self._owner[near]
        cols = self._best[near]
        top = self.tops[owner, cols]
        at_top = self._best_dot[near] == top
        near, owner, cols, top = (a[at_top] for a in (near, owner, cols, top))
        if len(near):
            keep = self._reached_once(near, owner, cols, d_max)
            if not keep.all():
                for k in np.unique(owner[~keep]).tolist():
                    i = (~keep & (owner == k)).nonzero()[0]
                    a, b = self._cut[k], self._cut[k + 1]
                    set_rows = (np.arange(a, b) if self._row is None
                                else self._row[a:b])
                    lowest = (self._dot[set_rows[:, None], cols[i]]
                              == top[i]).argmax(axis=0)
                    keep[i] = lowest == near[i] - self._cut[k]
                near, owner = near[keep], owner[keep]
        found = (np.searchsorted(owner, np.arange(len(self._cut))).tolist(),
                 near - self._cut[owner], self._best[near], self._dist[near])
        self._pairs[d_max] = found
        return found

    def _reached_once(self, near, owner, cols, d_max: int) -> np.ndarray:
        """Whether each candidate (set row near of set owner, at its nearest
        column cols, where its dot is the set's column max) is the only row
        of its set that reaches that max."""
        dot, (k, n_cols) = self._dot, self.tops.shape
        radius = self._n_bits - 2 * d_max  # as a dot
        within = dot >= radius
        class_max, bounds = self._class_max, self._bounds
        if np.count_nonzero(within) > class_max.size:
            # a wide radius: a row reaching a set's column max reaches its
            # own class's max there, so count only the class maxima within it
            for top, start, end in zip(np.maximum(class_max, radius), bounds,
                                       bounds[1:]):
                np.greater_equal(dot[start:end], top, out=within[start:end])
        at = within.ravel().nonzero()[0]
        row, col = np.divmod(at, n_cols)
        value = dot.ravel()[at]
        if k > 1:  # an entry counts for each set of its view that holds its
            # row and whose column max it is
            cls = self._class[row]
            if self._class_sets is None:  # one view: its sets are all sets
                entry, j = (self._held[cls]
                            & (self.tops.T[col] == value[:, None])).nonzero()
                col = j * n_cols + col[entry]
            else:
                sets = self._class_sets[cls]
                entry, j = (self._held[cls] & (self.tops[sets, col[:, None]]
                                               == value[:, None])).nonzero()
                col = sets[entry, j] * n_cols + col[entry]
            cols = owner * n_cols + cols
        else:
            col = col[self.tops[0, col] == value]
        once = np.bincount(col, minlength=k * n_cols)[cols] == 1
        if self._twice is not None:
            once &= ~self._twice[near]
        return once


class SetProduct:
    """Set k's share of a ``ViewProduct``: its reductions, read for that
    set's rows and its view's columns."""

    __slots__ = ("product", "k")

    def __init__(self, product: ViewProduct, k: int):
        self.product, self.k = product, k

    def top(self, cols) -> np.ndarray:
        """The column max of ``dot`` over the set's rows, at columns cols of
        its view (an index array or a mask over them; -inf for a set
        without rows)."""
        p = self.product
        if p._n_cols is None:  # one view
            return p.tops[self.k, cols]
        return p.tops[self.k, :p._n_cols[self.k]][cols]


def mutual_nearest_pairs(a: np.ndarray, b: np.ndarray, d_max: int,
                         product: ViewProduct | None = None):
    """Mutual nearest neighbours under Hamming distance, within ``d_max``.

    Returns ``(cut, a_idx, b_idx, dist)``: set k's pairs are
    ``cut[k]:cut[k + 1]`` of the int64 arrays, sorted by ``a_idx`` within
    each set (see ``ViewProduct.pairs``). Ties in the nearest neighbour are
    broken toward the lower index on both sides. ``product`` is a
    ``ViewProduct``, whose pairs are read instead of multiplying; a is then
    its ``ids`` and b its ``view``. Without one, the rows a and the view b
    make a one-set product, and cut is ``[0, len(a_idx)]``.
    """
    if product is None:
        product = ViewProduct([b], [(0, None, a)])
    return product.pairs(d_max)


def nearest_distances(a: np.ndarray, b: np.ndarray,
                      top: np.ndarray | None = None, rows=None) -> np.ndarray:
    """Per-row distance from ``a`` to its nearest row of ``b`` (b non-empty).

    ``top``, when given, holds each row of a's largest ``dot`` with b's rows
    ``rows`` (all of b when rows is None), for instance ``SetProduct.top``;
    only b's other rows are multiplied here. When none are, only a's width
    is read, so a may hold other rows of that width.
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
    w = bit_rows(a).astype(np.float32)
    dot = w @ w.T  # one operand: the symmetric product, half the work
    np.fill_diagonal(dot, -np.inf)
    return _distance(dot.max(axis=1), w.shape[1])
