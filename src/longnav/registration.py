"""View-to-map registration: descriptor matching, histogram voting, outcomes.

Registration estimates the horizontal shift delta between the current camera
view and a local map by matching binary features and voting on the horizontal
position differences (x_view - x_map). Every map feature then gets exactly one
outcome: not matched, matched consistently with delta, or matched against it.

A comparison registers each view against many feature sets, and several
views at once (an open-loop traversal's): the sets share one product with
their views (see view_product), and all of them register in one pass over
that product: match_features gathers every set's pairs at once,
histogram_vote counts every set's votes in one bincount, and
classify_outcomes gives every set's outcomes in one pass over the pairs.
Each stage takes the sets in this one form only. The pass runs at the first
register call on a product and is kept on it; each register call reads its
own set's part. register is the one entry for a single set: without a
share, it builds a one-set product and runs the same pass.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import check_settings, in_range, is_int
from .features import pack_features


class MatchOutcome(enum.IntEnum):
    """Outcome of one map feature; outcome arrays hold these as int8."""

    NotMatched = 0
    MatchedCorrectly = 1
    MatchedIncorrectly = 2


# not matched, matched correctly, incorrectly, as plain ints: numpy takes
# IntEnum members the slow way
_N, _C, _I = map(int, MatchOutcome)


@dataclass
class Pairs:
    """Accepted one-to-one matches as parallel arrays, sorted by map index.

    A pass's pairs hold every set's, one set after another, set k's being
    ``cut[k]:cut[k + 1]``. A RegistrationResult's pairs are its own set's
    part of them and carry no cut."""

    map_idx: np.ndarray  # int64 row of the map block
    view_idx: np.ndarray  # int64 row of the view block
    diff: np.ndarray  # float64 x_view - x_map, pixels
    dist: np.ndarray  # int64 Hamming distance, bits
    cut: list | None = None

    def __len__(self) -> int:
        return self.map_idx.shape[0]


@dataclass(frozen=True)
class RegistrationParams:
    """Settings of one registration pass, one value for every stage.

    d_max is the Hamming acceptance radius (default width/4 for 256-bit
    descriptors). bin_width is the vote's bin, and a pair counts as matched
    correctly within one bin_width of delta. min_votes is the smallest
    winning-bin count accepted as consensus.
    """

    d_max: int = 64
    bin_width: float = 10.0
    image_width: int = 640
    min_votes: int = 3

    def __post_init__(self):
        check_settings(self, [
            ("d_max", is_int(self.d_max, 0), "a non-negative integer"),
            ("bin_width", in_range(self.bin_width, 0.0) and self.bin_width > 0,
             "finite and > 0"),
            *((name, is_int(getattr(self, name), 1), "a positive integer")
              for name in ("image_width", "min_votes")),
        ])


@dataclass
class RegistrationResult:
    delta: float | None  # None when registration failed
    pairs: Pairs
    outcomes: np.ndarray  # int8 MatchOutcome per map feature
    correct_count: int

    @property
    def incorrect_count(self) -> int:
        """Map features matched against delta: a success classifies every
        pair, correctly or not, and a failure none."""
        return 0 if self.delta is None else len(self.pairs) - self.correct_count


def view_product(views: list, blocks: list) -> list:
    """Each block's share (a kernels.SetProduct) of one product of the views
    with the rows of all blocks, each block against its own view: one matrix
    product per distinct view over its blocks' distinct rows (by row id),
    reduced once for all of them (see kernels.ViewProduct), and registered
    once for all of them (see register). views holds each block's view.
    Views that share their descriptors (one frame, or frames that differ
    only in x, see World.observe_offsets) are one view of the product.
    Blocks with equal ids and x, registered against the same view, are one
    set of the product: they get one share, and so one RegistrationResult.
    A view without features matches nothing, whatever width it was given.
    ValueError unless every block and every view with features have one
    descriptor width."""
    if len({b.width for b in blocks}
           | {v.width for v in views if len(v)}) > 1:
        raise ValueError("map and view descriptor widths differ")
    slots, sets, first = [], {}, []  # (view, ids, x) -> set of the product
    for i, (b, v) in enumerate(zip(blocks, views)):
        j = sets.setdefault((id(v), b.ids.tobytes(), b.x.tobytes()), len(sets))
        if j == len(first):
            first.append(i)
        slots.append(j)
    if len(first) < len(blocks):
        blocks, views = [blocks[i] for i in first], [views[i] for i in first]
    bits = [pack_features(b) for b in blocks]
    at, product_views = {}, []  # descriptor array id -> view of the product
    for v, b in zip(views, bits):
        if at.setdefault(id(v.words), len(at)) == len(product_views):
            product_views.append(pack_features(v) if len(v) else b[:0])
    product = kernels.ViewProduct(product_views, [
        (at[id(v.words)], b.ids, rows)
        for v, b, rows in zip(views, blocks, bits)])
    product.memo["sets"] = blocks, views
    shares = product.shares()
    return [shares[j] for j in slots]


def _owner(cut) -> np.ndarray:
    """The set of each of the items that cut splits into sets (see
    Pairs.cut)."""
    return np.arange(len(cut) - 1).repeat(np.subtract(cut[1:], cut[:-1]))


def _x_at(blocks: list, owner: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """x[idx] of blocks[owner], in one gather."""
    if len(blocks) == 1:
        return blocks[0].x[idx]
    start = np.add.accumulate([0, *map(len, blocks)])
    return np.concatenate([b.x for b in blocks])[start[owner] + idx]


def match_features(blocks: list, views: list, d_max: int, product) -> Pairs:
    """Mutual nearest neighbours under Hamming distance, one-to-one, coupled
    with the horizontal position difference of each accepted pair, for every
    set at once: blocks[k] matched with views[k] through the
    kernels.ViewProduct of exactly these sets (see view_product), the pairs
    one set after another (see Pairs.cut)."""
    cut, ai, bi, dist = kernels.mutual_nearest_pairs(
        product.ids, product.view, d_max, product)
    owner = _owner(cut)
    diff = _x_at(views, owner, bi) - _x_at(blocks, owner, ai)
    return Pairs(ai, bi, diff, dist, cut)


@functools.lru_cache(maxsize=8)
def _bins(bin_width: float, image_width: int):
    """(n_bins, order): the bins over [-W, W] and their order of precedence
    among equally populated bins, the center closer to zero first, then the
    lower one."""
    w = float(image_width)
    n_bins = max(1, math.ceil(2.0 * w / bin_width))
    centers = -w + (np.arange(n_bins) + 0.5) * bin_width
    return n_bins, np.lexsort((centers, np.abs(centers)))


def histogram_vote(diff, params: RegistrationParams, cut) -> np.ndarray:
    """Every set's shift delta from its matched pairs' differences, set k's
    being diff[cut[k]:cut[k + 1]] (see Pairs.cut), as a float64 array.

    Differences are binned over [-W, W]; the winning bin is the most populated
    one (ties prefer the center closer to zero, then the lower center) and
    delta is the mean of the differences inside it. NaN when a set has no
    pairs or its winning bin holds fewer than params.min_votes entries.
    """
    bin_width, image_width = params.bin_width, params.image_width
    diffs = np.asarray(diff, dtype=np.float64)
    k = len(cut) - 1
    n_bins, order = _bins(bin_width, image_width)
    idx = np.floor((diffs + float(image_width)) / bin_width).astype(np.int64)
    np.minimum(np.maximum(idx, 0, out=idx), n_bins - 1, out=idx)
    owner = _owner(cut)
    counts = np.bincount(owner * n_bins + idx,
                         minlength=k * n_bins).reshape(k, n_bins)
    win = order[counts[:, order].argmax(axis=1)]
    top = counts[np.arange(k), win]
    # every set's winning-bin differences, one set after another in pair
    # order. Each set's mean reduces its own run, as np.mean would: a
    # reduceat or a weighted bincount sums in another order and can change
    # the last bit of delta
    inside = diffs[idx == win[owner]]
    end, votes = np.add.accumulate(top).tolist(), top.tolist()
    delta = np.full(k, np.nan)
    for s in np.flatnonzero(top >= params.min_votes).tolist():
        delta[s] = np.add.reduce(inside[end[s] - votes[s]:end[s]]) / votes[s]
    return delta


def classify_outcomes(sizes, pairs: Pairs, delta,
                      params: RegistrationParams) -> np.ndarray:
    """One int8 outcome per map feature of every set, the sets' outcomes one
    set after another. sizes and delta hold one value per set of pairs (see
    Pairs.cut), delta NaN where registration failed (as histogram_vote gives
    them): a failed set's features are all NotMatched. A pair is matched
    correctly within params.bin_width of its set's delta."""
    start = np.add.accumulate([0, *sizes])
    outcomes = np.zeros(start[-1], dtype=np.int8)  # NotMatched
    owner = _owner(pairs.cut)
    off = np.abs(pairs.diff - np.asarray(delta, dtype=np.float64)[owner])
    # NaN, a failed set's, is neither within one bin nor beyond it
    w = params.bin_width
    outcomes[start[owner] + pairs.map_idx] = np.where(
        off <= w, _C, np.where(off > w, _I, _N))
    return outcomes


def _register_sets(blocks: list, views: list, product,
                   p: RegistrationParams) -> list:
    """Every set's RegistrationResult, blocks[k] registered against views[k]
    through their product, in one pass. The results' arrays are read-only:
    a result may serve several identical sets (see view_product)."""
    pairs = match_features(blocks, views, p.d_max, product)
    delta = histogram_vote(pairs.diff, p, pairs.cut)
    sizes = [len(b) for b in blocks]
    outcomes = classify_outcomes(sizes, pairs, delta, p)
    start = [0, *itertools.accumulate(sizes)]
    correct = np.bincount(_owner(start)[outcomes == _C],
                          minlength=len(sizes)).tolist()
    cut, mi, vi, diff, dist = (pairs.cut, pairs.map_idx, pairs.view_idx,
                               pairs.diff, pairs.dist)
    for a in (outcomes, mi, vi, diff, dist):
        a.flags.writeable = False
    results = []
    for s, d in enumerate(delta.tolist()):
        a, b = cut[s], cut[s + 1]
        results.append(RegistrationResult(
            None if math.isnan(d) else d,
            Pairs(mi[a:b], vi[a:b], diff[a:b], dist[a:b]),
            outcomes[start[s]:start[s + 1]], correct[s]))
    return results


def register(map_features, view_features,
             params: RegistrationParams | None = None,
             share=None) -> RegistrationResult:
    """Full registration pass; failure is reported as delta None, never
    raised. share is the map rows' share of a product with the view (see
    view_product), by default one of a product of their own: the first
    register call on a product with params equal to these registers every
    set of it at once, and each call returns its own set's result."""
    p = params or RegistrationParams()
    if share is None:
        share, = view_product([view_features], [map_features])
    memo = share.product.memo
    if p not in memo:
        memo[p] = _register_sets(*memo["sets"], share.product, p)
    return memo[p][share.k]
