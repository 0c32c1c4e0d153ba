"""Per-strategy update semantics with synthetic registration results."""

import warnings

import numpy as np
import pytest

from longnav.errors import ConfigError
from longnav.features import Descriptor, Feature, LocalMap, MapAlternative, hamming_distance
from longnav.fremen import FremenModel
from longnav.registration import (MatchOutcome, MatchPair, RegistrationResult,
                                  register)
from longnav.strategies import (StrategyConfig, correct_positions,
                                init_strategy_state, rank_addition_candidates,
                                score_update, select_active_indices,
                                select_best_alternative, update_map)

C = MatchOutcome.MatchedCorrectly
I = MatchOutcome.MatchedIncorrectly
N = MatchOutcome.NotMatched


def rand_feature(rng, width=256, **kw):
    v = int.from_bytes(rng.bytes(width // 8), "little")
    kw.setdefault("x", float(rng.uniform(0, 640)))
    kw.setdefault("y", float(rng.uniform(0, 480)))
    return Feature(kw.pop("x"), kw.pop("y"), Descriptor.from_int(v, width), **kw)


def make_map(rng, n, **kw):
    return LocalMap(0, 0.0, [rand_feature(rng, **kw) for _ in range(n)])


def synthetic_reg(outcomes, view_pairs, delta=0.0):
    """RegistrationResult where view_pairs lists the matched view indices."""
    pairs = [MatchPair(m, v, delta, 0) for m, v in view_pairs]
    return RegistrationResult(delta, [(delta, len(pairs))], pairs,
                              list(outcomes), outcomes.count(C))


def test_config_validation():
    with pytest.raises(ConfigError):
        StrategyConfig(kind="banana")
    with pytest.raises(ConfigError):
        StrategyConfig(s_i=-1.0)
    with pytest.raises(ConfigError):
        StrategyConfig(exchange_fraction=0.0)
    assert StrategyConfig(kind="FreMEn").kind == "fremen"


def test_score_update_arithmetic():
    cfg = StrategyConfig(kind="score")
    f = Feature(0, 0, Descriptor.from_int(0, 64), score=2.0)
    score_update(f, C, cfg, 0.0)
    assert f.score == 3.0
    score_update(f, I, cfg, 0.0)
    assert f.score == 2.0
    score_update(f, N, cfg, 0.0)
    assert f.score == 2.0  # misses are free by default

    cfg = StrategyConfig(kind="score", s_c=2.0, s_i=0.5, s_n=0.25)
    f.score = 0.0
    for o in (C, I, N):
        score_update(f, o, cfg, 0.0)
    assert f.score == pytest.approx(2.0 - 0.5 - 0.25)


def test_score_update_feeds_temporal_model():
    cfg = StrategyConfig(kind="fremen")
    f = Feature(0, 0, Descriptor.from_int(0, 64))
    score_update(f, C, cfg, 0.0)
    assert isinstance(f.temporal, FremenModel)
    assert f.temporal.n_obs == 1 and f.temporal.mean_score() == 1.0
    score_update(f, I, cfg, 3600.0)
    assert f.temporal.mean_score() == pytest.approx(0.0)


def test_score_update_noop_for_outcome_blind_kinds():
    for kind in ("static", "latest", "aggressive", "strict", "summary", "multiple"):
        f = Feature(0, 0, Descriptor.from_int(0, 64), score=1.0)
        score_update(f, I, StrategyConfig(kind=kind), 0.0)
        assert f.score == 1.0 and f.temporal is None


def test_select_active_no_cap():
    rng = np.random.default_rng(0)
    lm = make_map(rng, 5)
    assert select_active_indices(lm, StrategyConfig(kind="score", m=500), 0.0) \
        == [0, 1, 2, 3, 4]


def test_select_active_score_cap():
    rng = np.random.default_rng(1)
    lm = make_map(rng, 4)
    for f, s in zip(lm.features, [5.0, 1.0, 9.0, 3.0]):
        f.score = s
    cfg = StrategyConfig(kind="score", m=2)
    assert select_active_indices(lm, cfg, 0.0) == [0, 2]


def test_select_active_ties_prefer_newest_then_first():
    rng = np.random.default_rng(2)
    lm = make_map(rng, 4)
    for i, f in enumerate(lm.features):
        f.inserted_at = i
    cfg = StrategyConfig(kind="score", m=2)
    assert select_active_indices(lm, cfg, 0.0) == [2, 3]
    for f in lm.features:
        f.inserted_at = 0
    assert select_active_indices(lm, cfg, 0.0) == [0, 1]


def test_select_active_fremen_uses_prediction():
    rng = np.random.default_rng(3)
    lm = make_map(rng, 4)
    day, night = 43200.0, 0.0
    for i, f in enumerate(lm.features):
        f.temporal = FremenModel()
        seen_by_day = i % 2 == 0
        for d in range(10):
            f.temporal.add_observation(1.0 if seen_by_day else -1.0, d * 86400 + day)
            f.temporal.add_observation(-1.0 if seen_by_day else 1.0, d * 86400 + night)
    cfg = StrategyConfig(kind="fremen", m=2)
    assert select_active_indices(lm, cfg, 20 * 86400 + day) == [0, 2]
    assert select_active_indices(lm, cfg, 20 * 86400 + night) == [1, 3]


def test_rank_addition_candidates_oracle():
    rng = np.random.default_rng(4)
    lm = make_map(rng, 12)
    cands = [rand_feature(rng) for _ in range(8)]
    cands.append(Feature(1.0, 1.0, lm.features[0].descriptor))  # dup of a map feature
    ranked = rank_addition_candidates(cands, lm)
    assert ranked[-1] is cands[-1]
    dist = [min(hamming_distance(c.descriptor, f.descriptor)
                for f in lm.features) for c in cands]
    order = sorted(range(len(cands)), key=lambda i: (-dist[i], i))
    assert ranked == [cands[i] for i in order]


def test_rank_addition_candidates_empty_cases():
    rng = np.random.default_rng(5)
    lm = make_map(rng, 3)
    assert rank_addition_candidates([], lm) == []
    empty = LocalMap(0, 0.0, [])
    cands = [rand_feature(rng) for _ in range(3)]
    assert rank_addition_candidates(cands, empty) == cands


def test_correct_positions():
    d = Descriptor.from_int(7, 64)
    m = FremenModel()
    feats = [Feature(100.0, 5.0, d, score=2.0, temporal=m, inserted_at=3),
             Feature(5.0, 0.0, d), Feature(630.0, 0.0, d)]
    out = correct_positions(feats, 50.0, image_width=640)
    assert out[0].x == pytest.approx(50.0)
    assert out[1].x == 0.0  # clipped at the left edge
    assert (out[0].y, out[0].score, out[0].inserted_at) == (5.0, 2.0, 3)
    assert out[0].temporal is m and out[0] is not feats[0]

    out = correct_positions(feats, -50.0, image_width=640)
    assert out[2].x < 640.0 and out[2].x == pytest.approx(640.0)
    assert feats[2].x == 630.0  # originals untouched


def test_static_never_changes():
    rng = np.random.default_rng(6)
    lm = make_map(rng, 5)
    before = list(lm.features)
    view = [rand_feature(rng) for _ in range(5)]
    reg = synthetic_reg([I] * 5, [(i, i) for i in range(5)], delta=3.0)
    update_map(lm, view, reg, StrategyConfig(kind="static"), 0.0, 1)
    assert lm.features == before


def test_latest_replaces_on_success_only():
    rng = np.random.default_rng(7)
    lm = make_map(rng, 5)
    view = [rand_feature(rng) for _ in range(7)]
    cfg = StrategyConfig(kind="latest")

    reg = synthetic_reg([C] * 5, [(i, i) for i in range(5)], delta=10.0)
    update_map(lm, view, reg, cfg, 0.0, 4)
    assert len(lm.features) == 7
    assert all(f.inserted_at == 4 for f in lm.features)
    assert [f.descriptor for f in lm.features] == [v.descriptor for v in view]
    assert lm.features[0].x == pytest.approx(view[0].x - 10.0)

    kept = list(lm.features)
    failed = RegistrationResult(None, [], [], [N] * 7, 0)
    update_map(lm, [rand_feature(rng)], failed, cfg, 0.0, 5)
    assert lm.features == kept


def outcome_map(lm, outcomes):
    return {f.descriptor: o for f, o in zip(lm.features, outcomes)}


def test_aggressive_exchanges_every_non_correct():
    rng = np.random.default_rng(8)
    lm = make_map(rng, 10)
    outcomes = [C, C, I, N, C, C, I, C, N, C]
    by_desc = outcome_map(lm, outcomes)
    view = [rand_feature(rng) for _ in range(12)]
    reg = synthetic_reg(outcomes, [(i, i) for i in range(8) if outcomes[i] is not N])
    update_map(lm, view, reg, StrategyConfig(kind="aggressive"), 0.0, 2)
    assert len(lm.features) == 10  # removed 4, inserted 4
    survivors = [f for f in lm.features if f.descriptor in by_desc]
    assert len(survivors) == 6
    assert all(by_desc[f.descriptor] is C for f in survivors)
    assert sum(f.inserted_at == 2 for f in lm.features) == 4


def test_strict_removes_incorrect_only():
    rng = np.random.default_rng(9)
    lm = make_map(rng, 10)
    outcomes = [C, I, N, C, I, C, C, N, C, C]
    by_desc = outcome_map(lm, outcomes)
    view = [rand_feature(rng) for _ in range(12)]
    reg = synthetic_reg(outcomes, [(i, i) for i in range(8) if outcomes[i] is not N])
    update_map(lm, view, reg, StrategyConfig(kind="strict"), 0.0, 2)
    assert len(lm.features) == 10
    old = [f for f in lm.features if f.descriptor in by_desc]
    assert all(by_desc[f.descriptor] is not I for f in old)
    assert sum(by_desc[f.descriptor] is N for f in old) == 2


def test_summary_size_arithmetic():
    rng = np.random.default_rng(10)
    lm = make_map(rng, 500)
    outcomes = [I] * 20 + [C] * 400 + [N] * 80
    view = [rand_feature(rng) for _ in range(300)]
    pairs = [(i, i % 270) for i in range(420)]  # view features 270..299 unmatched
    reg = synthetic_reg(outcomes, pairs)
    update_map(lm, view, reg, StrategyConfig(kind="summary"), 0.0, 3)
    assert len(lm.features) == 500 - 20 + 30  # ceil(0.10 * 300) added


def test_score_exchange_picks_lowest_scores():
    rng = np.random.default_rng(11)
    lm = make_map(rng, 500)
    outcomes = [C if rng.random() < 0.7 else I for _ in range(500)]
    view = [rand_feature(rng) for _ in range(60)]
    reg = synthetic_reg(outcomes, [])  # no view feature matched: all 60 insertable
    cfg = StrategyConfig(kind="score")
    update_map(lm, view, reg, cfg, 0.0, 5)
    assert len(lm.features) == 500  # ceil(0.05 * 500) = 25 exchanged

    # oracle: survivors must dominate the removed set under the post-update key
    scores = sorted(f.score for f in lm.features if f.inserted_at != 5)
    expect = sorted(1.0 if o is C else -1.0 for o in outcomes)[25:]
    assert scores == expect
    assert sum(f.inserted_at == 5 for f in lm.features) == 25


def test_fremen_updates_every_feature_and_exchanges():
    rng = np.random.default_rng(12)
    lm = make_map(rng, 40)
    cfg = StrategyConfig(kind="fremen", m=20)
    init_strategy_state(lm, cfg)
    active = select_active_indices(lm, cfg, 0.0)
    outcomes = [C if i % 4 else I for i in range(20)]
    view = [rand_feature(rng) for _ in range(10)]
    reg = synthetic_reg(outcomes, [])
    update_map(lm, view, reg, cfg, 0.0, 1, active_indices=active)
    assert len(lm.features) == 40  # ceil(0.05 * 40) = 2 exchanged
    old = [f for f in lm.features if f.inserted_at == 0]
    assert all(f.temporal.n_obs == 1 for f in old)
    assert sum(f.inserted_at == 1 for f in lm.features) == 2


def test_no_insertion_or_removal_on_failure():
    rng = np.random.default_rng(13)
    for kind in ("aggressive", "strict", "summary", "score", "fremen"):
        lm = make_map(rng, 8)
        cfg = StrategyConfig(kind=kind)
        init_strategy_state(lm, cfg)
        before = list(lm.features)
        failed = RegistrationResult(None, [], [], [N] * 8, 0)
        update_map(lm, [rand_feature(rng) for _ in range(5)], failed, cfg, 0.0, 2)
        assert lm.features == before


def test_failure_still_counts_against_scores():
    rng = np.random.default_rng(14)
    lm = make_map(rng, 4)
    cfg = StrategyConfig(kind="score", s_n=0.5)
    failed = RegistrationResult(None, [], [], [N] * 4, 0)
    update_map(lm, [], failed, cfg, 0.0, 1)
    assert all(f.score == -0.5 for f in lm.features)


def test_higher_incorrect_weight_lowers_scores():
    rng = np.random.default_rng(15)
    outcomes = [C, I, I, N]
    totals = []
    for s_i in (0.5, 1.0, 2.0):
        lm = make_map(rng, 4)
        reg = synthetic_reg(outcomes, [])
        update_map(lm, [], reg, StrategyConfig(kind="score", s_i=s_i,
                                               exchange_fraction=1e-9), 0.0, 1)
        totals.append(sum(f.score for f in lm.features))
    assert totals[0] > totals[1] > totals[2]


def test_multiple_appends_alternative_below_threshold():
    rng = np.random.default_rng(16)
    lm = make_map(rng, 10)
    view = [rand_feature(rng) for _ in range(6)]
    cfg = StrategyConfig(kind="multiple", multiple_threshold=0.10)

    good = synthetic_reg([C] * 9 + [N], [(i, i % 6) for i in range(9)])
    update_map(lm, view, good, cfg, 0.0, 1)
    assert lm.alternatives == []

    bad = synthetic_reg([N] * 10, [], delta=5.0)
    update_map(lm, view, bad, cfg, 0.0, 2)
    assert len(lm.alternatives) == 1
    alt = lm.alternatives[0]
    assert alt.created_at == 2 and len(alt.features) == 6
    assert alt.features[0].x == pytest.approx(view[0].x - 5.0)

    failed = RegistrationResult(None, [], [], [N] * 10, 0)
    update_map(lm, view, failed, cfg, 0.0, 3)
    assert len(lm.alternatives) == 1


def test_multiple_cap_warns_and_drops():
    rng = np.random.default_rng(17)
    lm = make_map(rng, 4)
    view = [rand_feature(rng) for _ in range(4)]
    cfg = StrategyConfig(kind="multiple", multiple_max_alternatives=3)
    bad = synthetic_reg([N] * 4, [], delta=0.0)
    update_map(lm, view, bad, cfg, 0.0, 1)
    update_map(lm, view, bad, cfg, 0.0, 2)
    assert len(lm.alternatives) == 2
    with pytest.warns(UserWarning):
        update_map(lm, view, bad, cfg, 0.0, 3)
    assert len(lm.alternatives) == 2


def test_select_best_alternative():
    rng = np.random.default_rng(18)
    taught = [rand_feature(rng) for _ in range(10)]
    other = [rand_feature(rng, inserted_at=1) for _ in range(10)]
    lm = LocalMap(0, 0.0, list(taught),
                  alternatives=[MapAlternative(list(other), 1)])
    cfg = StrategyConfig(kind="multiple")

    view = [Feature(f.x + 2.0, f.y, f.descriptor) for f in other]
    idx, reg = select_best_alternative(lm, view, cfg)
    assert idx == 1 and reg.correct_count == 10
    assert reg.delta == pytest.approx(2.0)

    view = [Feature(f.x, f.y, f.descriptor) for f in taught]
    idx, reg = select_best_alternative(lm, view, cfg)
    assert idx == 0 and reg.correct_count == 10

    # identical alternatives tie; the taught set (oldest) wins
    lm2 = LocalMap(0, 0.0, list(taught),
                   alternatives=[MapAlternative(list(taught), 1)])
    idx, _ = select_best_alternative(lm2, view, cfg)
    assert idx == 0


def test_select_best_alternative_registers_against_cap():
    rng = np.random.default_rng(19)
    old = [rand_feature(rng, inserted_at=0) for _ in range(6)]
    new = [rand_feature(rng, inserted_at=2) for _ in range(6)]
    lm = LocalMap(0, 0.0, old + new)
    cfg = StrategyConfig(kind="multiple", m=6)
    # view matches only the features outside the newest-m cap: must not count
    view = [Feature(f.x, f.y, f.descriptor) for f in old]
    idx, reg = select_best_alternative(lm, view, cfg)
    assert idx == 0 and reg.correct_count == 0
