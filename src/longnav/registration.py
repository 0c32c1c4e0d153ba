"""View-to-map registration: descriptor matching, histogram voting, outcomes.

Registration estimates the horizontal shift delta between the current camera
view and a local map by matching binary features and voting on the horizontal
position differences (x_view - x_map). Every map feature then gets exactly one
outcome: not matched, matched consistently with delta, or matched against it.
"""

from __future__ import annotations

import enum
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


@dataclass
class Pairs:
    """Accepted one-to-one matches as parallel arrays, sorted by map index."""

    map_idx: np.ndarray  # int64 row of the map block
    view_idx: np.ndarray  # int64 row of the view block
    diff: np.ndarray  # float64 x_view - x_map, pixels
    dist: np.ndarray  # int64 Hamming distance, bits

    def __len__(self) -> int:
        return self.map_idx.shape[0]


_NO_PAIRS = Pairs(*(np.empty(0, dtype=t)
                    for t in (np.int64, np.int64, np.float64, np.int64)))


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


def view_product(view_features, blocks) -> kernels.ViewProduct:
    """The view's products with the rows of each block, from one matrix
    product over their distinct rows (see kernels.ViewProduct). A view
    without features matches nothing, whatever width it was given."""
    if not len(view_features):
        view_features = blocks[0].take(slice(0))
    if any(b.width != view_features.width for b in blocks):
        raise ValueError("map and view descriptor widths differ")
    return kernels.ViewProduct(pack_features(view_features),
                               [(b.words, pack_features(b)) for b in blocks])


def match_features(map_features, view_features, d_max: int = 64,
                   dot=None) -> Pairs:
    """Mutual nearest neighbours under Hamming distance, one-to-one, coupled
    with the horizontal position difference of each accepted pair. dot,
    when given, is the map rows' product with the view (see view_product)."""
    if not len(map_features) or not len(view_features):
        return _NO_PAIRS
    if map_features.width != view_features.width:
        raise ValueError("map and view descriptor widths differ")
    a = pack_features(map_features)
    b = pack_features(view_features)
    ai, bi, dist = kernels.mutual_nearest_pairs(a, b, d_max, dot)
    return Pairs(ai, bi, view_features.x[bi] - map_features.x[ai], dist)


def histogram_vote(diff, bin_width: float = 10.0, image_width: int = 640,
                   min_votes: int = 1) -> float | None:
    """Estimate the shift delta from the matched pairs' differences.

    Differences are binned over [-W, W]; the winning bin is the most populated
    one (ties prefer the center closer to zero) and delta is the mean of the
    differences inside it. None when there are no pairs or the winning bin
    holds fewer than min_votes entries.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    diffs = np.asarray(diff, dtype=np.float64)
    if not diffs.size:
        return None
    w = float(image_width)
    n_bins = max(1, math.ceil(2.0 * w / bin_width))
    idx = np.floor((diffs + w) / bin_width).astype(np.int64)
    np.minimum(np.maximum(idx, 0, out=idx), n_bins - 1, out=idx)
    counts = np.bincount(idx, minlength=n_bins)
    top = counts.max()
    if top < min_votes:
        return None
    candidates = np.flatnonzero(counts == top)
    centers = -w + (candidates + 0.5) * bin_width
    _, _, pick = min(zip(np.abs(centers).tolist(), centers.tolist(),
                         range(len(candidates))))
    inside = diffs[idx == candidates[pick]]
    return float(np.add.reduce(inside) / inside.size)  # the mean, as np.mean


def classify_outcomes(map_size: int, pairs: Pairs, delta: float | None,
                      tolerance: float = 10.0) -> np.ndarray:
    """One int8 outcome per map feature; failed registration means all
    NotMatched."""
    outcomes = np.zeros(map_size, dtype=np.int8)  # NotMatched
    if delta is None:
        return outcomes
    outcomes[pairs.map_idx] = np.where(np.abs(pairs.diff - delta) <= tolerance,
                                       MatchOutcome.MatchedCorrectly,
                                       MatchOutcome.MatchedIncorrectly)
    return outcomes


def register(map_features, view_features,
             params: RegistrationParams | None = None,
             dot=None) -> RegistrationResult:
    """Full registration pass; failure is reported as delta None, never
    raised. dot, when given, is the map rows' product with the view (see
    view_product)."""
    p = params or RegistrationParams()
    pairs = match_features(map_features, view_features, p.d_max, dot)
    delta = histogram_vote(pairs.diff, p.bin_width, p.image_width, p.min_votes)
    outcomes = classify_outcomes(len(map_features), pairs, delta,
                                 p.effective_tolerance())
    correct = int(np.count_nonzero(outcomes == MatchOutcome.MatchedCorrectly))
    return RegistrationResult(delta, pairs, outcomes, correct)
