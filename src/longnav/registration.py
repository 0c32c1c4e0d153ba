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
from .errors import ConfigError, NoConsensusError
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
        if not self.d_max >= 0:
            raise ConfigError(f"d_max must be >= 0, got {self.d_max}")
        if not (math.isfinite(self.bin_width) and self.bin_width > 0):
            raise ConfigError("bin_width must be finite and > 0, "
                              f"got {self.bin_width}")
        if self.image_width < 1:
            raise ConfigError(f"image_width must be >= 1, got {self.image_width}")
        if self.min_votes < 1:
            raise ConfigError(f"min_votes must be >= 1, got {self.min_votes}")
        t = self.tolerance
        if t is not None and not (math.isfinite(t) and t >= 0):
            raise ConfigError("tolerance must be None or finite and >= 0, "
                              f"got {t}")

    def effective_tolerance(self) -> float:
        return self.bin_width if self.tolerance is None else self.tolerance


@dataclass
class RegistrationResult:
    delta: float | None  # None when registration failed
    histogram: list  # (bin center, count) for non-empty bins
    pairs: Pairs
    outcomes: np.ndarray  # int8 MatchOutcome per map feature
    correct_count: int

    @property
    def failed(self) -> bool:
        return self.delta is None


def match_features(map_features, view_features, d_max: int = 64) -> Pairs:
    """Mutual nearest neighbours under Hamming distance, one-to-one, coupled
    with the horizontal position difference of each accepted pair."""
    if not len(map_features) or not len(view_features):
        return _NO_PAIRS
    if map_features.width != view_features.width:
        raise ValueError("map and view descriptor widths differ")
    a = pack_features(map_features)
    b = pack_features(view_features)
    ai, bi, dist = kernels.mutual_nearest_pairs(a, b, d_max)
    return Pairs(ai, bi, view_features.x[bi] - map_features.x[ai], dist)


def histogram_vote(diff, bin_width: float = 10.0, image_width: int = 640,
                   min_votes: int = 1):
    """Estimate the shift delta from the matched pairs' differences.

    Differences are binned over [-W, W]; the winning bin is the most populated
    one (ties prefer the center closer to zero) and delta is the mean of the
    differences inside it. Raises NoConsensusError when there are no pairs or
    the winning bin holds fewer than min_votes entries.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    diffs = np.asarray(diff, dtype=np.float64)
    if not diffs.size:
        raise NoConsensusError("no matched pairs to vote with")
    w = float(image_width)
    n_bins = max(1, math.ceil(2.0 * w / bin_width))
    idx = np.floor((diffs + w) / bin_width).astype(np.int64)
    np.minimum(np.maximum(idx, 0, out=idx), n_bins - 1, out=idx)
    counts = np.bincount(idx, minlength=n_bins)
    top = counts.max()
    if top < min_votes:
        raise NoConsensusError(f"winning bin has {int(top)} votes, need {min_votes}")
    candidates = np.flatnonzero(counts == top)
    centers = -w + (candidates + 0.5) * bin_width
    _, _, pick = min(zip(np.abs(centers).tolist(), centers.tolist(),
                         range(len(candidates))))
    inside = diffs[idx == candidates[pick]]
    delta = float(np.add.reduce(inside) / inside.size)  # the mean, as np.mean
    nonempty = np.flatnonzero(counts)
    histogram = list(zip((-w + (nonempty + 0.5) * bin_width).tolist(),
                         counts[nonempty].tolist()))
    return delta, histogram


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
             params: RegistrationParams | None = None) -> RegistrationResult:
    """Full registration pass; failure is reported as delta None, never raised."""
    p = params or RegistrationParams()
    pairs = match_features(map_features, view_features, p.d_max)
    try:
        delta, histogram = histogram_vote(pairs.diff, p.bin_width, p.image_width,
                                          p.min_votes)
    except NoConsensusError:
        outcomes = classify_outcomes(len(map_features), pairs, None)
        return RegistrationResult(None, [], pairs, outcomes, 0)
    outcomes = classify_outcomes(len(map_features), pairs, delta,
                                 p.effective_tolerance())
    correct = int(np.count_nonzero(outcomes == MatchOutcome.MatchedCorrectly))
    return RegistrationResult(delta, histogram, pairs, outcomes, correct)
