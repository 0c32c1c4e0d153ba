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
from .errors import ConfigError, check_settings, in_range, is_int
from .features import (FeatureBlock, LocalMap, MapAlternative, concat,
                       pack_features)
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
        periods = self.fremen_periods
        check_settings(self, [
            *((name, in_range(getattr(self, name), 0.0), "finite and >= 0")
              for name in ("s_c", "s_i", "s_n")),
            ("exchange_fraction", in_range(self.exchange_fraction, 0.0, 1.0)
             and self.exchange_fraction > 0, "in (0, 1]"),
            *((name, in_range(getattr(self, name), 0.0, 1.0), "in [0, 1]")
              for name in ("summary_add_fraction", "multiple_threshold")),
            *((name, is_int(getattr(self, name), 1), "a positive integer")
              for name in ("m", "multiple_max_alternatives", "image_width")),
            ("fremen_order", is_int(self.fremen_order, 0),
             "a non-negative integer"),
            ("fremen_periods", isinstance(periods, (tuple, list))
             and len(periods) > 0
             and all(in_range(p, 0.0) and p > 0 for p in periods),
             "a non-empty list of finite periods > 0"),
        ])


def score_update(block: FeatureBlock, outcomes, cfg: StrategyConfig,
                 t: float) -> FeatureBlock:
    """Fold one match outcome per row into the block's strategy state (in
    place)."""
    if cfg.kind not in ("score", "fremen"):
        return block
    outcomes = np.asarray(outcomes)
    v = np.where(outcomes == MatchOutcome.MatchedCorrectly, cfg.s_c,
                 np.where(outcomes == MatchOutcome.MatchedIncorrectly, -cfg.s_i,
                          -cfg.s_n))
    if cfg.kind == "score":
        block.score += v
    else:
        if block.temporal is None:
            block.temporal = FremenModel(cfg.fremen_periods, len(block))
        block.temporal.add_observation(v, t)
        block.has_temporal = None  # every row now has a model
    return block


def _ranked(key_order, n: int, m: int) -> np.ndarray:
    """The first m of n rows under np.lexsort keys (last key primary, row
    index the final tiebreak), in row order."""
    order = np.lexsort((np.arange(n),) + key_order)
    return np.sort(order[:m])


def select_active_indices(local_map: LocalMap, cfg: StrategyConfig,
                          t: float) -> np.ndarray:
    """Indices of the features used for localisation, in map order.

    Fremen ranks by predicted score at t, score by accumulated score, every
    other strategy keeps all features; the top m survive the cap, ties going
    to the newest inserted_at and then to row order.
    """
    feats = local_map.features
    n = len(feats)
    if n <= cfg.m:
        return np.arange(n)
    if cfg.kind == "fremen":
        key = predict_many(feats.temporal, t, cfg.fremen_order)
    elif cfg.kind == "score":
        key = feats.score
    else:
        key = np.zeros(n)
    return _ranked((-feats.inserted_at, -key), n, cfg.m)


def rank_addition_candidates(unmatched_view: FeatureBlock,
                             local_map: LocalMap) -> FeatureBlock:
    """Unmatched view features ordered most-unique-first, uniqueness being the
    Hamming distance to the nearest map feature; ties keep view order."""
    if not len(unmatched_view) or not len(local_map.features):
        return unmatched_view
    dist = kernels.nearest_distances(pack_features(unmatched_view),
                                     pack_features(local_map.features))
    return unmatched_view.take(np.lexsort((np.arange(dist.shape[0]), -dist)))


def correct_positions(features: FeatureBlock, delta: float,
                      image_width: int = 640) -> FeatureBlock:
    """The rows shifted by -delta, x clipped into [0, W); the result owns
    copies of the score and temporal state (see ``FeatureBlock.with_x``)."""
    hi = np.nextafter(float(image_width), 0.0)
    return features.with_x(np.clip(features.x - delta, 0.0, hi))


def init_strategy_state(path_or_map, cfg: StrategyConfig) -> None:
    """Attach fresh temporal models to taught features when fremen owns them;
    rows marked without a model keep their empty one as a fresh model."""
    if cfg.kind != "fremen":
        return
    maps = getattr(path_or_map, "local_maps", None) or [path_or_map]
    for lm in maps:
        if lm.features.temporal is None:
            lm.features.temporal = FremenModel(cfg.fremen_periods,
                                               len(lm.features))
        lm.features.has_temporal = None


def _new_rows(view: FeatureBlock, delta: float, traversal: int,
              cfg: StrategyConfig) -> FeatureBlock:
    rows = correct_positions(view, delta, cfg.image_width)
    temporal = (FremenModel(cfg.fremen_periods, len(rows))
                if cfg.kind == "fremen" else None)
    return rows.as_map(traversal, temporal)


def _insert_candidates(view, reg, local_map, count, traversal, cfg):
    # candidates are ranked against the map as it stands before any removal
    if count <= 0 or reg.delta is None:
        return None
    unmatched = np.ones(len(view), dtype=bool)
    unmatched[reg.pairs.view_idx] = False
    ranked = rank_addition_candidates(view.take(unmatched), local_map)
    return _new_rows(ranked.take(slice(count)), reg.delta, traversal, cfg)


def update_map(local_map: LocalMap, view: FeatureBlock, reg,
               cfg: StrategyConfig, t: float, traversal: int,
               active_indices=None) -> LocalMap:
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
            local_map.features = _new_rows(view, reg.delta, traversal, cfg)
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
                alt = _new_rows(view, reg.delta, traversal, cfg)
                local_map.alternatives.append(MapAlternative(alt, traversal))
        return local_map

    feats = local_map.features
    n = len(feats)
    if active_indices is None:
        active_indices = select_active_indices(local_map, cfg, t)

    # one outcome per map feature; features outside the active set count as
    # not matched for bookkeeping and outcome-based pruning
    outcome_of = np.zeros(n, dtype=np.int8)  # MatchOutcome.NotMatched
    if not failed:
        outcome_of[active_indices] = reg.outcomes

    if kind in ("score", "fremen"):
        score_update(feats, outcome_of, cfg, t)

    if failed:
        return local_map

    if kind == "aggressive":
        remove = outcome_of != MatchOutcome.MatchedCorrectly
        n_insert = int(np.count_nonzero(remove))
    elif kind == "strict":
        remove = outcome_of == MatchOutcome.MatchedIncorrectly
        n_insert = int(np.count_nonzero(remove))
    elif kind == "summary":
        remove = outcome_of == MatchOutcome.MatchedIncorrectly
        n_insert = math.ceil(cfg.summary_add_fraction * len(view))
    else:  # score, fremen: exchange the n worst features
        n_insert = math.ceil(cfg.exchange_fraction * n)
        key = feats.score if kind == "score" else feats.temporal.mu
        remove = np.zeros(n, dtype=bool)
        remove[_ranked((feats.inserted_at, key), n, n_insert)] = True

    inserted = _insert_candidates(view, reg, local_map, n_insert, traversal, cfg)
    kept = feats.take(~remove) if remove.any() else feats
    local_map.features = concat(kept, inserted)
    return local_map


def _cap_newest(features: FeatureBlock, m: int) -> FeatureBlock:
    n = len(features)
    if n <= m:
        return features
    return features.take(_ranked((-features.inserted_at,), n, m))


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
