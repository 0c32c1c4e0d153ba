"""Map-update strategies as the paper's three map-management steps.

Each kind is one row of ``_STEPS``: (i) the per-row state that selects the
active features, (ii) the rows a registration removes and (iii) the view rows
it inserts; multiple instead forks the map into alternatives.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, check_settings, in_range, is_int
from .features import FeatureBlock, LocalMap, concat, pack_features
from .fremen import FremenModel, predict_many
from .registration import MatchOutcome, RegistrationParams, register


def _ranked(key_order, m: int) -> np.ndarray:
    """The first m rows under np.lexsort keys (last key primary; the sort is
    stable, so row order breaks the remaining ties), in row order."""
    return np.sort(np.lexsort(key_order)[:m])


# (i) per-row state: the key (rows, cfg, t) active selection ranks by, how
# one match value per row folds into it (rows, values, t) (None: it does
# not), and whether rows carry fremen models
_State = namedtuple("_State", "key fold temporal", defaults=(None, False))
_NO_STATE = _State(lambda feats, cfg, t: np.zeros(len(feats)))
_SCORE = _State(lambda feats, cfg, t: feats.score,
                lambda feats, v, t: np.add(feats.score, v, out=feats.score))
_FREMEN = _State(lambda feats, cfg, t: predict_many(feats.temporal, t,
                                                    cfg.fremen_order),
                 lambda feats, v, t: feats.temporal.add_observation(v, t), True)


def _outcomes(*which):
    """(ii) Removal of the rows whose match outcome is one of which."""
    removed = np.array([o in which for o in MatchOutcome])
    return lambda feats, outcome_of, cfg: removed[outcome_of]


def _lowest(key):
    """(ii) Removal of the ceil(exchange_fraction * n) rows lowest under
    key(rows), the oldest first among equals."""
    def remove(feats, outcome_of, cfg):
        n = len(feats)
        mask = np.zeros(n, dtype=bool)
        mask[_ranked((feats.inserted_at, key(feats)),
                     math.ceil(cfg.exchange_fraction * n))] = True
        return mask
    return remove


def _as_removed(view, remove, cfg):
    """(iii) As many unmatched view rows as rows were removed."""
    return int(np.count_nonzero(remove))


def _view_fraction(view, remove, cfg):
    """(iii) summary_add_fraction of the view's rows, rounded up."""
    return math.ceil(cfg.summary_add_fraction * len(view))


_N, _C, _I = MatchOutcome  # not matched, matched correctly, incorrectly
# One row per kind, in report order: (i) its per-row state; (ii) the rows a
# successful registration removes, (rows, outcome per row, cfg) -> mask;
# (iii) how many unmatched view rows it inserts, most unique first, (view,
# mask, cfg) -> count, None inserting the whole view in view order.
# multiple forks the map into alternatives instead (see update_map).
_STEPS = {
    "static": (_NO_STATE, _outcomes(), _as_removed),
    "latest": (_NO_STATE, _outcomes(_N, _C, _I), None),
    "aggressive": (_NO_STATE, _outcomes(_I, _N), _as_removed),
    "strict": (_NO_STATE, _outcomes(_I), _as_removed),
    "summary": (_NO_STATE, _outcomes(_I), _view_fraction),
    "multiple": (_NO_STATE, None, None),
    "score": (_SCORE, _lowest(lambda feats: feats.score), _as_removed),
    "fremen": (_FREMEN, _lowest(lambda feats: feats.temporal.mu), _as_removed),
}
STRATEGY_KINDS = tuple(_STEPS)

# fremen's candidate periods: diurnal harmonics (24 h / j for j = 1..12) plus
# one week
DEFAULT_PERIODS = tuple(86400.0 / j for j in range(1, 13)) + (604800.0,)


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

    def __post_init__(self):
        self.kind = str(self.kind).lower()
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}; "
                              f"expected one of {'|'.join(STRATEGY_KINDS)}")
        periods = self.fremen_periods
        fremen = _STEPS[self.kind][0].temporal  # its models observe [-1, 1]
        check_settings(self, [
            *((name, in_range(getattr(self, name), 0.0,
                              1.0 if fremen else math.inf),
               "in [0, 1] under fremen" if fremen else "finite and >= 0")
              for name in ("s_c", "s_i", "s_n")),
            ("exchange_fraction", in_range(self.exchange_fraction, 0.0, 1.0)
             and self.exchange_fraction > 0, "in (0, 1]"),
            *((name, in_range(getattr(self, name), 0.0, 1.0), "in [0, 1]")
              for name in ("summary_add_fraction", "multiple_threshold")),
            *((name, is_int(getattr(self, name), 1), "a positive integer")
              for name in ("m", "multiple_max_alternatives")),
            ("fremen_order", is_int(self.fremen_order, 0),
             "a non-negative integer"),
            ("fremen_periods", isinstance(periods, (tuple, list))
             and len(periods) > 0
             and all(in_range(p, 0.0) and p > 0 for p in periods),
             "a non-empty list of finite periods > 0"),
        ])


def score_update(block: FeatureBlock, outcomes, cfg: StrategyConfig,
                 t: float) -> FeatureBlock:
    """Fold one match outcome per row into the block's per-row state (in
    place), the models init_strategy_state gave it under fremen."""
    fold = _STEPS[cfg.kind][0].fold
    if fold is None:
        return block
    outcomes = np.asarray(outcomes)
    v = np.where(outcomes == _C, cfg.s_c,
                 np.where(outcomes == _I, -cfg.s_i, -cfg.s_n))
    fold(block, v, t)
    return block


def select_active_indices(feats: FeatureBlock, cfg: StrategyConfig,
                          t: float) -> np.ndarray:
    """Indices of the rows used for localisation, in row order: every row
    within the cap m, else the top m under the kind's state key at t
    (fremen: predicted score, score: accumulated score, others: none), ties
    going to the newest inserted_at and then to row order."""
    n = len(feats)
    if n <= cfg.m:
        return np.arange(n)
    key = _STEPS[cfg.kind][0].key(feats, cfg, t)
    return _ranked((-feats.inserted_at, -key), cfg.m)


def active_sets(local_map: LocalMap, cfg: StrategyConfig, t: float) -> list:
    """(indices, rows) that select_active_indices picks at t from each
    feature set of the map: the taught set, then every alternative (which
    only multiple keeps, see init_strategy_state)."""
    sets = [local_map.features, *local_map.alternatives]
    picks = [select_active_indices(feats, cfg, t) for feats in sets]
    return [(idx, feats if len(idx) == len(feats) else feats.take(idx))
            for idx, feats in zip(picks, sets)]


def rank_addition_candidates(unmatched_view: FeatureBlock,
                             local_map: LocalMap, top=None,
                             rows=None) -> FeatureBlock:
    """Unmatched view features ordered most-unique-first, uniqueness being the
    Hamming distance to the nearest map feature; ties keep view order.

    top, when given, holds each unmatched feature's largest product with the
    map rows `rows` (all rows when None), e.g. the registration's
    SetProduct.top; only the other map rows are multiplied (see
    kernels.nearest_distances)."""
    if not len(unmatched_view) or not len(local_map.features):
        return unmatched_view
    dist = kernels.nearest_distances(pack_features(unmatched_view),
                                     pack_features(local_map.features),
                                     top, rows)
    return unmatched_view.take(np.argsort(-dist, kind="stable"))


def correct_positions(features: FeatureBlock, delta: float,
                      image_width: int = 640) -> FeatureBlock:
    """The rows shifted by -delta, x clipped into [0, W), without strategy
    state (see ``FeatureBlock.with_x``)."""
    hi = np.nextafter(float(image_width), 0.0)
    return features.with_x(np.clip(features.x - delta, 0.0, hi))


def init_strategy_state(path_or_map, cfg: StrategyConfig) -> None:
    """Give each local map the state its kind uses, once before a run.

    Alternatives: multiple keeps a supplied map's, without temporal models;
    every other kind drops them. Temporal models: when the kind's state has
    them (fremen), every row of each taught set carries one, a supplied model
    kept and the other sets given fresh ones; otherwise no row does.
    ConfigError when a supplied model's periods differ from fremen_periods."""
    periods = tuple(float(p) for p in cfg.fremen_periods)
    for lm in getattr(path_or_map, "local_maps", [path_or_map]):
        if cfg.kind != "multiple":
            lm.alternatives = []
        for alt in lm.alternatives:
            alt.temporal = None
        feats = lm.features
        if not _STEPS[cfg.kind][0].temporal:
            feats.temporal = None
        elif feats.temporal is None:
            feats.temporal = FremenModel(periods, len(feats))
        elif feats.temporal.periods != periods:
            raise ConfigError(f"the map's fremen periods {feats.temporal.periods}"
                              f" differ from fremen_periods {periods}")


def _new_rows(view: FeatureBlock, delta: float, traversal: int,
              cfg: StrategyConfig, image_width: int) -> FeatureBlock:
    rows = correct_positions(view, delta, image_width)
    temporal = (FremenModel(cfg.fremen_periods, len(rows))
                if _STEPS[cfg.kind][0].temporal else None)
    return rows.as_map(traversal, temporal)


def update_map(local_map: LocalMap, view: FeatureBlock, reg,
               cfg: StrategyConfig, t: float, traversal: int,
               active_indices=None, image_width: int = 640,
               share=None) -> LocalMap:
    """Apply one traversal's registration result to the local map (in place).

    reg must have been computed against the features select_active_indices
    picks from this map at time t (for multiple: against the best
    alternative). share, when given, is those rows' share of a product with
    the view (see registration.view_product); the insertion ranking reuses
    its column max, and then active_indices must be given too. New rows are
    clipped into the registration's image_width. Every registration updates
    the per-row state; only a successful one removes and inserts rows (see
    _STEPS).
    """
    failed = reg.delta is None
    if cfg.kind == "multiple":
        if not failed and (reg.correct_count / max(len(reg.outcomes), 1)
                           < cfg.multiple_threshold):
            if 1 + len(local_map.alternatives) >= cfg.multiple_max_alternatives:
                warnings.warn("alternative cap reached; new alternative dropped",
                              stacklevel=2)
            else:
                local_map.alternatives.append(
                    _new_rows(view, reg.delta, traversal, cfg, image_width))
        return local_map

    _, remove_rule, insert_rule = _STEPS[cfg.kind]
    feats = local_map.features
    if active_indices is None:
        active_indices = select_active_indices(feats, cfg, t)
    outcome_of = np.zeros(len(feats), dtype=np.int8)  # MatchOutcome.NotMatched
    if not failed:
        outcome_of[active_indices] = reg.outcomes
    score_update(feats, outcome_of, cfg, t)
    if failed:
        return local_map

    remove = remove_rule(feats, outcome_of, cfg)
    count = None if insert_rule is None else insert_rule(view, remove, cfg)
    rows = view if count is None else None
    if count:  # ranked against the map as it stands before removal
        unmatched = np.ones(len(view), dtype=bool)
        unmatched[reg.pairs.view_idx] = False
        rows = rank_addition_candidates(
            view.take(unmatched), local_map,
            None if share is None else share.top(unmatched),
            active_indices).take(slice(count))
    kept = feats.take(~remove) if remove.any() else feats
    local_map.features = concat(kept, None if rows is None else _new_rows(
        rows, reg.delta, traversal, cfg, image_width))
    return local_map


def select_best_alternative(view, sets, shares,
                            params: RegistrationParams | None = None):
    """Register the view against every alternative's active rows, sets as
    active_sets picks them (taught set first), reading their shares of one
    product with the view, shares (see registration.view_product); return
    (index, RegistrationResult) of the one with most correct matches. Ties
    keep the oldest alternative. Index 0 is the taught map."""
    best_i, best_reg, best_key = 0, None, (-1, -1)
    for i, (_, active) in enumerate(sets):
        reg = register(active, view, params, shares[i])
        key = (0 if reg.delta is None else 1, reg.correct_count)
        if key > best_key:
            best_i, best_reg, best_key = i, reg, key
    return best_i, best_reg
