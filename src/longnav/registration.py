"""View-to-map registration: descriptor matching, histogram voting, outcomes.

Registration estimates the horizontal shift delta between the current camera
view and a local map by matching binary features and voting on the horizontal
position differences (x_view - x_map). Every map feature then gets exactly one
outcome: not matched, matched consistently with delta, or matched against it.

A comparison registers each view against many feature sets, which share one
product with the view (see view_product), and registers all of them in one
pass over that product: match_features gathers every set's pairs at once,
histogram_vote counts every set's votes in one bincount, and
classify_outcomes gives every set's outcomes in one pass over the pairs.
The pass runs at the first register call on a product and is kept on it;
each register call reads its own set's part. Registering one set alone is
the one-set case of the same pass.
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

    The pairs of several sets come one set after another, set k's being
    ``cut[k]:cut[k + 1]``; cut is None for one set's pairs."""

    map_idx: np.ndarray  # int64 row of the map block
    view_idx: np.ndarray  # int64 row of the view block
    diff: np.ndarray  # float64 x_view - x_map, pixels
    dist: np.ndarray  # int64 Hamming distance, bits
    cut: list | None = None

    def __len__(self) -> int:
        return self.map_idx.shape[0]


@dataclass
class RegistrationParams:
    """Tunables for one registration pass.

    d_max is the Hamming acceptance radius (default width/4 for 256-bit
    descriptors). tolerance defaults to bin_width when left as None. min_votes
    is the smallest winning-bin count accepted as consensus.
    """

    d_max: int = 64
    bin_width: float = 10.0
    image_width: int = 640
    min_votes: int = 3
    tolerance: float | None = None

    def __post_init__(self):
        t = self.tolerance
        check_settings(self, [
            ("d_max", is_int(self.d_max, 0), "a non-negative integer"),
            ("bin_width", in_range(self.bin_width, 0.0) and self.bin_width > 0,
             "finite and > 0"),
            *((name, is_int(getattr(self, name), 1), "a positive integer")
              for name in ("image_width", "min_votes")),
            ("tolerance", t is None or in_range(t, 0.0),
             "null or finite and >= 0"),
        ])

    def effective_tolerance(self) -> float:
        return self.bin_width if self.tolerance is None else self.tolerance


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


def view_product(view_features, blocks) -> list:
    """Each block's share (a kernels.SetProduct) of the view's product with
    the rows of all blocks: one matrix product over their distinct rows (by
    row id), reduced once for all of them (see kernels.ViewProduct), and
    registered once for all of them (see register). view_features is the
    view, or a list with each block's view: frames that share their
    descriptors but differ in x (see World.observe_offsets). Blocks with
    equal ids and x, registered against the same view, are one set of the
    product: they get one share, and so one RegistrationResult. A view
    without features matches nothing, whatever width it was given."""
    views = (view_features if isinstance(view_features, list)
             else [view_features] * len(blocks))
    view = views[0] if len(views[0]) else blocks[0].take(slice(0))
    if any(b.width != view.width for b in blocks):
        raise ValueError("map and view descriptor widths differ")
    slots, sets, first = [], {}, []  # (view, ids, x) -> set of the product
    for i, (b, v) in enumerate(zip(blocks, views)):
        j = sets.setdefault((id(v), b.ids.tobytes(), b.x.tobytes()), len(sets))
        if j == len(first):
            first.append(i)
        slots.append(j)
    if len(first) < len(blocks):
        blocks, views = [blocks[i] for i in first], [views[i] for i in first]
    product = kernels.ViewProduct(pack_features(view),
                                  [(b.ids, pack_features(b)) for b in blocks])
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


def match_features(map_features, view_features, d_max: int = 64,
                   product=None) -> Pairs:
    """Mutual nearest neighbours under Hamming distance, one-to-one, coupled
    with the horizontal position difference of each accepted pair.

    map_features and view_features may also be lists, several sets' rows and
    the view each is matched with, and product their kernels.ViewProduct
    (see view_product); the pairs of every set then come at once, one set
    after another (see Pairs.cut)."""
    one = not isinstance(map_features, list)
    if one:
        map_features, view_features = [map_features], [view_features]
        product = view_product(view_features, map_features)[0].product
    cut, ai, bi, dist = kernels.mutual_nearest_pairs(
        product.ids, product.view, d_max, product)
    owner = _owner(cut)
    diff = _x_at(view_features, owner, bi) - _x_at(map_features, owner, ai)
    return Pairs(ai, bi, diff, dist, None if one else cut)


@functools.lru_cache(maxsize=8)
def _bins(bin_width: float, image_width: int):
    """(n_bins, order): the bins over [-W, W] and their order of precedence
    among equally populated bins, the center closer to zero first, then the
    lower one."""
    w = float(image_width)
    n_bins = max(1, math.ceil(2.0 * w / bin_width))
    centers = -w + (np.arange(n_bins) + 0.5) * bin_width
    return n_bins, np.lexsort((centers, np.abs(centers)))


def histogram_vote(diff, bin_width: float = 10.0, image_width: int = 640,
                   min_votes: int = 1, cut=None):
    """Estimate the shift delta from the matched pairs' differences.

    Differences are binned over [-W, W]; the winning bin is the most populated
    one (ties prefer the center closer to zero, then the lower center) and
    delta is the mean of the differences inside it. None when there are no
    pairs or the winning bin holds fewer than min_votes entries.

    cut, when given, splits diff into sets, set k's differences being
    diff[cut[k]:cut[k + 1]] (see Pairs.cut): every set is voted on at once,
    and a float64 array of their deltas is returned, NaN where a vote fails.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    diffs = np.asarray(diff, dtype=np.float64)
    one = cut is None
    if one:
        cut = (0, diffs.size)
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
    for s in np.flatnonzero(top >= max(min_votes, 1)).tolist():
        delta[s] = np.add.reduce(inside[end[s] - votes[s]:end[s]]) / votes[s]
    if one:
        return None if math.isnan(delta[0]) else float(delta[0])
    return delta


def classify_outcomes(map_size, pairs: Pairs, delta,
                      tolerance: float = 10.0) -> np.ndarray:
    """One int8 outcome per map feature; failed registration means all
    NotMatched.

    For several sets' pairs (see Pairs.cut), map_size and delta hold one
    value per set, delta NaN where registration failed (as histogram_vote
    gives them), and the sets' outcomes come one set after another."""
    cut = pairs.cut
    if cut is None:
        map_size, cut = [map_size], (0, len(pairs))
        delta = [math.nan if delta is None else delta]
    start = np.add.accumulate([0, *map_size])
    outcomes = np.zeros(start[-1], dtype=np.int8)  # NotMatched
    owner = _owner(cut)
    off = np.abs(pairs.diff - np.asarray(delta, dtype=np.float64)[owner])
    # NaN, a failed set's, is neither within tolerance nor beyond it
    outcomes[start[owner] + pairs.map_idx] = np.where(
        off <= tolerance, _C, np.where(off > tolerance, _I, _N))
    return outcomes


def _register_sets(blocks: list, views: list, product,
                   p: RegistrationParams) -> list:
    """Every set's RegistrationResult, blocks[k] registered against views[k]
    through their product, in one pass. The results' arrays are read-only:
    a result may serve several identical sets (see view_product)."""
    pairs = match_features(blocks, views, p.d_max, product)
    delta = histogram_vote(pairs.diff, p.bin_width, p.image_width,
                           p.min_votes, pairs.cut)
    sizes = [len(b) for b in blocks]
    outcomes = classify_outcomes(sizes, pairs, delta, p.effective_tolerance())
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
    raised. share, when given, is the map rows' share of a product with the
    view (see view_product): the first register call on a product registers
    every set of it at once, for these params, and each call returns its own
    set's result."""
    p = params or RegistrationParams()
    if share is None:
        share, = view_product(view_features, [map_features])
    memo = share.product.memo
    key = (p.d_max, p.bin_width, p.image_width, p.min_votes,
           p.effective_tolerance())
    if key not in memo:
        memo[key] = _register_sets(*memo["sets"], share.product, p)
    return memo[key][share.k]
