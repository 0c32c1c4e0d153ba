"""Map-update strategies: scoring, active-feature selection, feature exchange.

Eight strategies share one update entry point. The taught map is either kept
verbatim (static), replaced wholesale (latest), pruned by match outcome
(aggressive, strict, summary), forked into alternatives (multiple), or managed
by per-feature scores (score) / temporal models (fremen) that exchange a fixed
fraction of features every traversal.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError
from .features import Feature, LocalMap, MapAlternative, pack_features
from .fremen import DEFAULT_PERIODS, FremenModel, predict_many
from .registration import MatchOutcome, RegistrationParams, register

STRATEGY_KINDS = ("static", "latest", "aggressive", "strict", "summary",
                  "multiple", "score", "fremen")


@dataclass
class StrategyConfig:
    """Configuration shared by all strategies; kind picks the behaviour.

    Score weights follow the sign convention: a correct match adds s_c, an
    incorrect match subtracts s_i, a miss subtracts s_n.
    """

    kind: str = "static"
    s_c: float = 1.0
    s_i: float = 1.0
    s_n: float = 0.0
    exchange_fraction: float = 0.05
    m: int = 500
    summary_add_fraction: float = 0.10
    multiple_threshold: float = 0.10
    multiple_max_alternatives: int = 8
    fremen_order: int = 2
    fremen_periods: tuple = DEFAULT_PERIODS
    image_width: int = 640

    def __post_init__(self):
        self.kind = str(self.kind).lower()
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}; "
                              f"expected one of {'|'.join(STRATEGY_KINDS)}")
        for name in ("s_c", "s_i", "s_n"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if not 0 < self.exchange_fraction <= 1:
            raise ConfigError("exchange_fraction must be in (0, 1]")
        if self.m < 1:
            raise ConfigError("m must be >= 1")


def score_update(feature: Feature, outcome: MatchOutcome, cfg: StrategyConfig,
                 t: float) -> Feature:
    """Fold one match outcome into the feature's strategy state (in place)."""
    if outcome is MatchOutcome.MatchedCorrectly:
        v = cfg.s_c
    elif outcome is MatchOutcome.MatchedIncorrectly:
        v = -cfg.s_i
    else:
        v = -cfg.s_n
    if cfg.kind == "score":
        feature.score += v
    elif cfg.kind == "fremen":
        if feature.temporal is None:
            feature.temporal = FremenModel(cfg.fremen_periods)
        feature.temporal.add_observation(v, t)
    return feature


def select_active_indices(local_map: LocalMap, cfg: StrategyConfig,
                          t: float) -> list:
    """Indices of the features used for localisation, in map order.

    Fremen ranks by predicted score at t, score by accumulated score, every
    other strategy keeps all features; the top m survive the cap, ties going
    to the newest inserted_at and then to list order.
    """
    feats = local_map.features
    n = len(feats)
    if n <= cfg.m:
        return list(range(n))
    if cfg.kind == "fremen":
        key = predict_many([f.temporal for f in feats], t, cfg.fremen_order)
    elif cfg.kind == "score":
        key = np.array([f.score for f in feats])
    else:
        key = np.zeros(n)
    order = sorted(range(n), key=lambda i: (-key[i], -feats[i].inserted_at, i))
    return sorted(order[:cfg.m])


def rank_addition_candidates(unmatched_view, local_map: LocalMap) -> list:
    """Unmatched view features ordered most-unique-first, uniqueness being the
    Hamming distance to the nearest map feature; ties keep view order."""
    if not unmatched_view:
        return []
    if not local_map.features:
        return list(unmatched_view)
    a = pack_features(unmatched_view)
    b = pack_features(local_map.features)
    dist = kernels.nearest_distances(a, b)
    order = sorted(range(len(unmatched_view)), key=lambda i: (-dist[i], i))
    return [unmatched_view[i] for i in order]


def correct_positions(features, delta: float, image_width: int = 640) -> list:
    """Copies of the features shifted by -delta, x clipped into [0, W)."""
    hi = np.nextafter(float(image_width), 0.0)
    out = []
    for f in features:
        x = min(max(f.x - delta, 0.0), hi)
        out.append(Feature(x, f.y, f.descriptor, score=f.score,
                           temporal=f.temporal, inserted_at=f.inserted_at))
    return out


def init_strategy_state(path_or_map, cfg: StrategyConfig) -> None:
    """Attach fresh temporal models to taught features when fremen owns them."""
    if cfg.kind != "fremen":
        return
    maps = getattr(path_or_map, "local_maps", None) or [path_or_map]
    for lm in maps:
        for f in lm.features:
            if f.temporal is None:
                f.temporal = FremenModel(cfg.fremen_periods)


def _new_feature(template: Feature, traversal: int, cfg: StrategyConfig) -> Feature:
    temporal = FremenModel(cfg.fremen_periods) if cfg.kind == "fremen" else None
    return Feature(template.x, template.y, template.descriptor, score=0.0,
                   temporal=temporal, inserted_at=traversal)


def _insert_candidates(view, reg, local_map, count, traversal, cfg):
    # candidates are ranked against the map as it stands before any removal
    if count <= 0 or reg.delta is None:
        return []
    matched = {p.view_index for p in reg.pairs}
    unmatched = [f for j, f in enumerate(view) if j not in matched]
    ranked = rank_addition_candidates(unmatched, local_map)[:count]
    corrected = correct_positions(ranked, reg.delta, cfg.image_width)
    return [_new_feature(f, traversal, cfg) for f in corrected]


def update_map(local_map: LocalMap, view, reg, cfg: StrategyConfig, t: float,
               traversal: int, active_indices=None) -> LocalMap:
    """Apply one traversal's registration result to the local map (in place).

    reg must have been computed against the features select_active_indices
    picks from this map at time t (for multiple: against the best
    alternative). On a failed registration only score/temporal bookkeeping
    runs; nothing is ever inserted or removed.
    """
    kind = cfg.kind
    if kind == "static":
        return local_map
    failed = reg.delta is None

    if kind == "latest":
        if not failed:
            corrected = correct_positions(view, reg.delta, cfg.image_width)
            local_map.features = [_new_feature(f, traversal, cfg) for f in corrected]
        return local_map

    if kind == "multiple":
        if failed:
            return local_map
        active_n = max(len(reg.outcomes), 1)
        if reg.correct_count / active_n < cfg.multiple_threshold:
            total = 1 + len(local_map.alternatives)
            if total >= cfg.multiple_max_alternatives:
                warnings.warn("alternative cap reached; new alternative dropped",
                              stacklevel=2)
            else:
                corrected = correct_positions(view, reg.delta, cfg.image_width)
                alt = [_new_feature(f, traversal, cfg) for f in corrected]
                local_map.alternatives.append(MapAlternative(alt, traversal))
        return local_map

    feats = local_map.features
    if active_indices is None:
        active_indices = select_active_indices(local_map, cfg, t)

    # one outcome per map feature; features outside the active set count as
    # not matched for bookkeeping and outcome-based pruning
    outcome_of = [MatchOutcome.NotMatched] * len(feats)
    if not failed:
        for k, i in enumerate(active_indices):
            outcome_of[i] = reg.outcomes[k]

    if kind in ("score", "fremen"):
        for f, o in zip(feats, outcome_of):
            score_update(f, o, cfg, t)

    if failed:
        return local_map

    if kind == "aggressive":
        remove = {i for i, o in enumerate(outcome_of)
                  if o is not MatchOutcome.MatchedCorrectly}
        n_insert = len(remove)
    elif kind == "strict":
        remove = {i for i, o in enumerate(outcome_of)
                  if o is MatchOutcome.MatchedIncorrectly}
        n_insert = len(remove)
    elif kind == "summary":
        remove = {i for i, o in enumerate(outcome_of)
                  if o is MatchOutcome.MatchedIncorrectly}
        n_insert = math.ceil(cfg.summary_add_fraction * len(view))
    else:  # score, fremen: exchange the n worst features
        n = math.ceil(cfg.exchange_fraction * len(feats))
        if kind == "score":
            key = [f.score for f in feats]
        else:
            key = [f.temporal.mean_score() if f.temporal else 0.0 for f in feats]
        order = sorted(range(len(feats)),
                       key=lambda i: (key[i], feats[i].inserted_at, i))
        remove = set(order[:n])
        n_insert = n

    inserted = _insert_candidates(view, reg, local_map, n_insert, traversal, cfg)
    local_map.features = [f for i, f in enumerate(feats) if i not in remove]
    local_map.features.extend(inserted)
    return local_map


def _cap_newest(features, m: int) -> list:
    if len(features) <= m:
        return list(features)
    order = sorted(range(len(features)),
                   key=lambda i: (-features[i].inserted_at, i))
    return [features[i] for i in sorted(order[:m])]


def select_best_alternative(local_map: LocalMap, view, cfg: StrategyConfig,
                            params: RegistrationParams | None = None):
    """Register the view against every alternative (taught set first) and
    return (index, RegistrationResult) of the one with most correct matches;
    ties keep the oldest alternative. Index 0 is the taught map."""
    alts = [local_map.features] + [a.features for a in local_map.alternatives]
    best_i = 0
    best_reg = None
    best_key = (-1, -1)
    for i, feats in enumerate(alts):
        reg = register(_cap_newest(feats, cfg.m), view, params)
        key = (0 if reg.delta is None else 1, reg.correct_count)
        if best_reg is None or key > best_key:
            best_i, best_reg, best_key = i, reg, key
    return best_i, best_reg
