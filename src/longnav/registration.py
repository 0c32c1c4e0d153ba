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
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import ConfigError, NoConsensusError
from .features import pack_features


class MatchOutcome(enum.Enum):
    NotMatched = "not_matched"
    MatchedCorrectly = "matched_correctly"
    MatchedIncorrectly = "matched_incorrectly"


class MatchPair(NamedTuple):
    map_index: int
    view_index: int
    difference: float  # x_view - x_map, pixels
    distance: int  # Hamming distance, bits


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
    pairs: list  # MatchPair list
    outcomes: list  # MatchOutcome per map feature
    correct_count: int

    @property
    def failed(self) -> bool:
        return self.delta is None


def match_features(map_features, view_features, d_max: int = 64) -> list:
    """Mutual nearest neighbours under Hamming distance, one-to-one, coupled
    with the horizontal position difference of each accepted pair."""
    if not map_features or not view_features:
        return []
    if map_features[0].descriptor.width != view_features[0].descriptor.width:
        raise ValueError("map and view descriptor widths differ")
    a = pack_features(map_features)
    b = pack_features(view_features)
    ai, bi, dist = kernels.mutual_nearest_pairs(a, b, d_max)
    pairs = []
    for i, j, d in zip(ai, bi, dist):
        i = int(i)
        j = int(j)
        diff = view_features[j].x - map_features[i].x
        pairs.append(MatchPair(i, j, diff, int(d)))
    return pairs


def histogram_vote(pairs, bin_width: float = 10.0, image_width: int = 640,
                   min_votes: int = 1):
    """Estimate the shift delta from matched pairs.

    Differences are binned over [-W, W]; the winning bin is the most populated
    one (ties prefer the center closer to zero) and delta is the mean of the
    differences inside it. Raises NoConsensusError when there are no pairs or
    the winning bin holds fewer than min_votes entries.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if not pairs:
        raise NoConsensusError("no matched pairs to vote with")
    w = float(image_width)
    diffs = np.array([p.difference for p in pairs], dtype=np.float64)
    n_bins = max(1, math.ceil(2.0 * w / bin_width))
    idx = np.floor((diffs + w) / bin_width).astype(np.int64)
    np.clip(idx, 0, n_bins - 1, out=idx)
    counts = np.bincount(idx, minlength=n_bins)
    top = counts.max()
    candidates = np.flatnonzero(counts == top)
    centers = -w + (candidates + 0.5) * bin_width
    pick = min(range(len(candidates)), key=lambda k: (abs(centers[k]), centers[k]))
    win = candidates[pick]
    if top < min_votes:
        raise NoConsensusError(f"winning bin has {int(top)} votes, need {min_votes}")
    delta = float(diffs[idx == win].mean())
    nonempty = np.flatnonzero(counts)
    histogram = [(float(-w + (b + 0.5) * bin_width), int(counts[b])) for b in nonempty]
    return delta, histogram


def classify_outcomes(map_size: int, pairs, delta: float | None,
                      tolerance: float = 10.0) -> list:
    """One outcome per map feature; failed registration means all NotMatched."""
    outcomes = [MatchOutcome.NotMatched] * map_size
    if delta is None:
        return outcomes
    for p in pairs:
        if abs(p.difference - delta) <= tolerance:
            outcomes[p.map_index] = MatchOutcome.MatchedCorrectly
        else:
            outcomes[p.map_index] = MatchOutcome.MatchedIncorrectly
    return outcomes


def register(map_features, view_features,
             params: RegistrationParams | None = None) -> RegistrationResult:
    """Full registration pass; failure is reported as delta None, never raised."""
    p = params or RegistrationParams()
    pairs = match_features(map_features, view_features, p.d_max)
    try:
        delta, histogram = histogram_vote(pairs, p.bin_width, p.image_width,
                                          p.min_votes)
    except NoConsensusError:
        outcomes = classify_outcomes(len(map_features), pairs, None)
        return RegistrationResult(None, [], pairs, outcomes, 0)
    outcomes = classify_outcomes(len(map_features), pairs, delta,
                                 p.effective_tolerance())
    correct = sum(1 for o in outcomes if o is MatchOutcome.MatchedCorrectly)
    return RegistrationResult(delta, histogram, pairs, outcomes, correct)
