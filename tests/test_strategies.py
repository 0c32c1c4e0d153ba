"""Per-strategy update semantics with synthetic registration results."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from longnav.errors import ConfigError
from longnav.evaluation import registration_errors
from longnav.features import FeatureBlock, LocalMap
from longnav.fremen import FremenModel
from longnav.registration import (MatchOutcome, Pairs, RegistrationParams,
                                  RegistrationResult, register, view_product)
from longnav.simulator import (World, WorldConfig, generate_frames,
                               replay_frames, uniform_offset_schedule)
from longnav.strategies import (DEFAULT_PERIODS, StrategyConfig, active_sets,
                                correct_positions, init_strategy_state,
                                rank_addition_candidates, score_update,
                                select_active_indices,
                                select_best_alternative, update_map)

from blocks import (Descriptor, block_from_descriptors, hamming_distance,
                    shared_sets)

C = MatchOutcome.MatchedCorrectly
I = MatchOutcome.MatchedIncorrectly
N = MatchOutcome.NotMatched


def feature(x, y, d, score=0.0, inserted_at=0):
    """One feature row as a dict; block() stacks rows."""
    return {"x": x, "y": y, "d": d, "score": score, "inserted_at": inserted_at}


def block(rows, **state):
    return block_from_descriptors(
        [r["x"] for r in rows], [r["y"] for r in rows], [r["d"] for r in rows],
        inserted_at=np.array([r["inserted_at"] for r in rows], dtype=np.int64),
        score=np.array([r["score"] for r in rows], dtype=np.float64), **state)


def rand_feature(rng, width=256, **kw):
    v = int.from_bytes(rng.bytes(width // 8), "little")
    kw.setdefault("x", float(rng.uniform(0, 640)))
    kw.setdefault("y", float(rng.uniform(0, 480)))
    return feature(kw.pop("x"), kw.pop("y"), Descriptor.from_int(v, width), **kw)


def make_map(rng, n, **kw):
    return LocalMap(0, 0.0, block([rand_feature(rng, **kw) for _ in range(n)]))


def rand_view(rng, n):
    return block([rand_feature(rng) for _ in range(n)])


def descriptors(feats):
    return [Descriptor(w, feats.width) for w in feats.words]


def keys(feats):
    return [w.tobytes() for w in feats.words]


def synthetic_reg(outcomes, view_pairs, delta=0.0):
    """RegistrationResult where view_pairs lists the matched view indices."""
    m = np.array([p[0] for p in view_pairs], dtype=np.int64)
    v = np.array([p[1] for p in view_pairs], dtype=np.int64)
    pairs = Pairs(m, v, np.full(len(view_pairs), delta, dtype=np.float64),
                  np.zeros(len(view_pairs), dtype=np.int64))
    return RegistrationResult(delta, pairs, np.array(outcomes, dtype=np.int8),
                              outcomes.count(C))


def failed_reg(n):
    return RegistrationResult(None, synthetic_reg([], []).pairs,
                              np.full(n, N, dtype=np.int8), 0)


def test_config_validation():
    with pytest.raises(ConfigError):
        StrategyConfig(kind="banana")
    with pytest.raises(ConfigError):
        StrategyConfig(s_i=-1.0)
    with pytest.raises(ConfigError):
        StrategyConfig(exchange_fraction=0.0)
    assert StrategyConfig(kind="FreMEn").kind == "fremen"


@pytest.mark.parametrize("name", ["s_c", "s_i", "s_n"])
def test_fremen_match_weights_are_observations_in_unit_range(name):
    # fremen folds +s_c, -s_i and -s_n into models that observe [-1, 1]
    with pytest.raises(ConfigError,
                       match=rf"{name} must be in \[0, 1\] under fremen"):
        StrategyConfig(kind="fremen", **{name: 1.5})
    assert getattr(StrategyConfig(kind="fremen", **{name: 1.0}), name) == 1.0
    assert getattr(StrategyConfig(kind="score", **{name: 1.5}), name) == 1.5


def test_score_update_arithmetic():
    cfg = StrategyConfig(kind="score")
    f = block([feature(0, 0, Descriptor.from_int(0, 64), score=2.0)])
    score_update(f, [C], cfg, 0.0)
    assert f.score[0] == 3.0
    score_update(f, [I], cfg, 0.0)
    assert f.score[0] == 2.0
    score_update(f, [N], cfg, 0.0)
    assert f.score[0] == 2.0  # misses are free by default

    cfg = StrategyConfig(kind="score", s_c=2.0, s_i=0.5, s_n=0.25)
    f.score[0] = 0.0
    for o in (C, I, N):
        score_update(f, [o], cfg, 0.0)
    assert f.score[0] == pytest.approx(2.0 - 0.5 - 0.25)


def test_score_update_feeds_temporal_model():
    cfg = StrategyConfig(kind="fremen")
    lm = LocalMap(0, 0.0, block([feature(0, 0, Descriptor.from_int(0, 64))]))
    init_strategy_state(lm, cfg)
    f = lm.features
    score_update(f, [C], cfg, 0.0)
    assert f.temporal.n_obs[0] == 1 and f.temporal.mu[0] == 1.0
    score_update(f, [I], cfg, 3600.0)
    assert f.temporal.mu[0] == pytest.approx(0.0)


def test_score_update_noop_for_outcome_blind_kinds():
    for kind in ("static", "latest", "aggressive", "strict", "summary", "multiple"):
        f = block([feature(0, 0, Descriptor.from_int(0, 64), score=1.0)])
        score_update(f, [I], StrategyConfig(kind=kind), 0.0)
        assert f.score[0] == 1.0 and f.temporal is None


def test_select_active_no_cap():
    rng = np.random.default_rng(0)
    lm = make_map(rng, 5)
    assert select_active_indices(lm.features, StrategyConfig(kind="score", m=500),
                                 0.0).tolist() == [0, 1, 2, 3, 4]


def test_select_active_score_cap():
    rng = np.random.default_rng(1)
    lm = make_map(rng, 4)
    lm.features.score[:] = [5.0, 1.0, 9.0, 3.0]
    cfg = StrategyConfig(kind="score", m=2)
    assert select_active_indices(lm.features, cfg, 0.0).tolist() == [0, 2]


def test_select_active_ties_prefer_newest_then_first():
    rng = np.random.default_rng(2)
    lm = make_map(rng, 4)
    lm.features.inserted_at[:] = range(4)
    cfg = StrategyConfig(kind="score", m=2)
    assert select_active_indices(lm.features, cfg, 0.0).tolist() == [2, 3]
    lm.features.inserted_at[:] = 0
    assert select_active_indices(lm.features, cfg, 0.0).tolist() == [0, 1]


def test_select_active_fremen_uses_prediction():
    rng = np.random.default_rng(3)
    lm = make_map(rng, 4)
    day, night = 43200.0, 0.0
    lm.features.temporal = model = FremenModel(DEFAULT_PERIODS, 4)
    seen_by_day = np.arange(4) % 2 == 0
    for d in range(10):
        model.add_observation(np.where(seen_by_day, 1.0, -1.0), d * 86400 + day)
        model.add_observation(np.where(seen_by_day, -1.0, 1.0), d * 86400 + night)
    cfg = StrategyConfig(kind="fremen", m=2)
    assert select_active_indices(lm.features, cfg, 20 * 86400 + day).tolist() == [0, 2]
    assert select_active_indices(lm.features, cfg, 20 * 86400 + night).tolist() == [1, 3]


def test_rank_addition_candidates_oracle():
    rng = np.random.default_rng(4)
    lm = make_map(rng, 12)
    rows = [rand_feature(rng) for _ in range(8)]
    rows.append(feature(1.0, 1.0, descriptors(lm.features)[0]))  # dup of a map feature
    cands = block(rows)
    ranked = rank_addition_candidates(cands, lm)
    assert ranked.x[-1] == 1.0 and keys(ranked)[-1] == keys(cands)[-1]
    dist = [min(hamming_distance(r["d"], f) for f in descriptors(lm.features))
            for r in rows]
    order = sorted(range(len(rows)), key=lambda i: (-dist[i], i))
    assert keys(ranked) == [keys(cands)[i] for i in order]
    assert ranked.x.tolist() == [rows[i]["x"] for i in order]


@given(shared_sets())
@settings(max_examples=80, deadline=None)
def test_shared_product_gives_each_set_its_own_pairs_and_ranking(data):
    # several maps against one view, through one product over their
    # active rows: every map gets the pairs and the insertion order that
    # products of its own give
    pool, sets, view_rows, active = data

    def rows_block(idx, x0):
        n = len(idx)
        return FeatureBlock(x0 + 10.0 * np.arange(n), np.zeros(n),
                            pool[np.asarray(idx, dtype=np.intp)], 128)

    view = rows_block(view_rows, 3.0)
    maps = [rows_block(s, 0.0).as_map(0) for s in sets]
    actives = [np.flatnonzero(a) for a in active]
    shares = view_product(view, [m.take(idx) for m, idx in zip(maps, actives)])
    params = RegistrationParams(d_max=128, min_votes=1)
    for feats, idx, share in zip(maps, actives, shares):
        shared = register(feats.take(idx), view, params, share)
        own = register(feats.take(idx), view, params)
        for field in ("map_idx", "view_idx", "diff", "dist"):
            assert np.array_equal(getattr(shared.pairs, field),
                                  getattr(own.pairs, field))
        unmatched = np.ones(len(view), dtype=bool)
        unmatched[own.pairs.view_idx] = False
        lm = LocalMap(0, 0.0, feats)
        ranked = rank_addition_candidates(view.take(unmatched), lm,
                                          share.top(unmatched), idx)
        want = rank_addition_candidates(view.take(unmatched), lm)
        assert ranked.x.tolist() == want.x.tolist()
        assert keys(ranked) == keys(want)


def test_rank_addition_candidates_empty_cases():
    rng = np.random.default_rng(5)
    lm = make_map(rng, 3)
    assert len(rank_addition_candidates(block([]), lm)) == 0
    empty = LocalMap(0, 0.0, block([]))
    cands = rand_view(rng, 3)
    assert rank_addition_candidates(cands, empty) is cands


def test_correct_positions():
    d = Descriptor.from_int(7, 64)
    feats = block([feature(100.0, 5.0, d, score=2.0, inserted_at=3),
                   feature(5.0, 0.0, d), feature(630.0, 0.0, d)],
                  temporal=FremenModel(DEFAULT_PERIODS, 3).add_observation(
                      np.ones(3), 0.0))
    out = correct_positions(feats, 50.0, image_width=640)
    assert out.x[0] == pytest.approx(50.0)
    assert out.x[1] == 0.0  # clipped at the left edge
    assert out.y.tolist() == [5.0, 0.0, 0.0] and out is not feats
    # the result is rows for a fresh map: it carries no strategy state
    assert (out.inserted_at, out.score, out.temporal) == (None, None, None)
    assert feats.score.tolist() == [2.0, 0.0, 0.0]

    out = correct_positions(feats, -50.0, image_width=640)
    assert out.x[2] < 640.0 and out.x[2] == pytest.approx(640.0)
    assert feats.x[2] == 630.0  # originals untouched


def test_static_never_changes():
    rng = np.random.default_rng(6)
    lm = make_map(rng, 5)
    before = lm.features
    view = rand_view(rng, 5)
    reg = synthetic_reg([I] * 5, [(i, i) for i in range(5)], delta=3.0)
    update_map(lm, view, reg, StrategyConfig(kind="static"), 0.0, 1)
    assert lm.features is before


def test_latest_replaces_on_success_only():
    rng = np.random.default_rng(7)
    lm = make_map(rng, 5)
    view = rand_view(rng, 7)
    cfg = StrategyConfig(kind="latest")

    reg = synthetic_reg([C] * 5, [(i, i) for i in range(5)], delta=10.0)
    update_map(lm, view, reg, cfg, 0.0, 4)
    assert len(lm.features) == 7
    assert (lm.features.inserted_at == 4).all()
    assert keys(lm.features) == keys(view)
    assert lm.features.x[0] == pytest.approx(view.x[0] - 10.0)

    kept = lm.features
    update_map(lm, rand_view(rng, 1), failed_reg(7), cfg, 0.0, 5)
    assert lm.features is kept


def outcome_map(lm, outcomes):
    return dict(zip(keys(lm.features), outcomes))


def test_aggressive_exchanges_every_non_correct():
    rng = np.random.default_rng(8)
    lm = make_map(rng, 10)
    outcomes = [C, C, I, N, C, C, I, C, N, C]
    by_desc = outcome_map(lm, outcomes)
    view = rand_view(rng, 12)
    reg = synthetic_reg(outcomes, [(i, i) for i in range(8) if outcomes[i] is not N])
    update_map(lm, view, reg, StrategyConfig(kind="aggressive"), 0.0, 2)
    assert len(lm.features) == 10  # removed 4, inserted 4
    survivors = [k for k in keys(lm.features) if k in by_desc]
    assert len(survivors) == 6
    assert all(by_desc[k] is C for k in survivors)
    assert (lm.features.inserted_at == 2).sum() == 4


def test_strict_removes_incorrect_only():
    rng = np.random.default_rng(9)
    lm = make_map(rng, 10)
    outcomes = [C, I, N, C, I, C, C, N, C, C]
    by_desc = outcome_map(lm, outcomes)
    view = rand_view(rng, 12)
    reg = synthetic_reg(outcomes, [(i, i) for i in range(8) if outcomes[i] is not N])
    update_map(lm, view, reg, StrategyConfig(kind="strict"), 0.0, 2)
    assert len(lm.features) == 10
    old = [k for k in keys(lm.features) if k in by_desc]
    assert all(by_desc[k] is not I for k in old)
    assert sum(by_desc[k] is N for k in old) == 2


def test_summary_size_arithmetic():
    rng = np.random.default_rng(10)
    lm = make_map(rng, 500)
    outcomes = [I] * 20 + [C] * 400 + [N] * 80
    view = rand_view(rng, 300)
    pairs = [(i, i % 270) for i in range(420)]  # view features 270..299 unmatched
    reg = synthetic_reg(outcomes, pairs)
    update_map(lm, view, reg, StrategyConfig(kind="summary"), 0.0, 3)
    assert len(lm.features) == 500 - 20 + 30  # ceil(0.10 * 300) added


def test_score_exchange_picks_lowest_scores():
    rng = np.random.default_rng(11)
    lm = make_map(rng, 500)
    outcomes = [C if rng.random() < 0.7 else I for _ in range(500)]
    view = rand_view(rng, 60)
    reg = synthetic_reg(outcomes, [])  # no view feature matched: all 60 insertable
    cfg = StrategyConfig(kind="score")
    update_map(lm, view, reg, cfg, 0.0, 5)
    assert len(lm.features) == 500  # ceil(0.05 * 500) = 25 exchanged

    # oracle: survivors must dominate the removed set under the post-update key
    scores = sorted(lm.features.score[lm.features.inserted_at != 5].tolist())
    expect = sorted(1.0 if o is C else -1.0 for o in outcomes)[25:]
    assert scores == expect
    assert (lm.features.inserted_at == 5).sum() == 25


def _snapshot_map(rng, periods=DEFAULT_PERIODS):
    """A local map as read from a fremen snapshot: one observed model on every
    taught row, and an alternative whose rows carry models too."""
    lm = make_map(rng, 40)
    lm.features.temporal = FremenModel(periods, 40).add_observation(
        np.linspace(-1, 1, 40), 60.0)
    alt = make_map(rng, 5).features
    alt.temporal = FremenModel(DEFAULT_PERIODS, 5)
    lm.alternatives.append(alt)
    return lm


def test_init_strategy_state_keeps_supplied_models_for_fremen():
    rng = np.random.default_rng(14)
    lm = _snapshot_map(rng)
    models = lm.features.temporal.copy()
    fresh = make_map(rng, 3)
    cfg = StrategyConfig(kind="fremen")
    for m in (lm, fresh):
        init_strategy_state(m, cfg)
    assert lm.features.temporal.mu.tolist() == models.mu.tolist()
    assert lm.features.temporal.n_obs.tolist() == [1] * 40
    assert lm.alternatives == []
    assert fresh.features.temporal.n_obs.tolist() == [0] * 3
    assert fresh.features.temporal.periods == cfg.fremen_periods
    # the exchange concatenates kept rows and new ones, both with models
    update_map(lm, rand_view(rng, 10), synthetic_reg([C] * 40, []), cfg, 0.0, 5)
    assert len(lm.features.temporal.mu) == len(lm.features) == 40


def test_init_strategy_state_drops_models_for_score():
    rng = np.random.default_rng(13)
    lm = _snapshot_map(rng)
    init_strategy_state(lm, StrategyConfig(kind="score"))
    assert lm.features.temporal is None
    assert lm.alternatives == []
    update_map(lm, rand_view(rng, 10), synthetic_reg([C] * 40, []),
               StrategyConfig(kind="score"), 0.0, 5)
    assert (lm.features.inserted_at == 5).sum() == 2  # ceil(0.05 * 40)
    assert lm.features.temporal is None


def test_init_strategy_state_keeps_alternatives_only_for_multiple():
    # a map with alternatives, as a multiple run writes it: only multiple
    # registers against them, so only multiple keeps them
    for kind in ("multiple", "score", "static"):
        lm = _snapshot_map(np.random.default_rng(16))
        cfg = StrategyConfig(kind=kind)
        init_strategy_state(lm, cfg)
        held = len(active_sets(lm, cfg, 0.0))
        if kind == "multiple":
            assert held == len(lm.alternatives) + 1 == 2
            assert lm.alternatives[0].temporal is None
        else:
            assert held == 1 and lm.alternatives == []
        assert lm.features.temporal is None


def test_init_strategy_state_rejects_other_fremen_periods():
    lm = _snapshot_map(np.random.default_rng(15), periods=(86400.0, 3600.0))
    with pytest.raises(ConfigError, match=r"\(86400.0, 3600.0\) differ from "
                       r"fremen_periods \(86400.0, 43200.0\)"):
        init_strategy_state(lm, StrategyConfig(kind="fremen",
                                               fremen_periods=(86400, 43200)))


def test_fremen_updates_every_feature_and_exchanges():
    rng = np.random.default_rng(12)
    lm = make_map(rng, 40)
    cfg = StrategyConfig(kind="fremen", m=20)
    init_strategy_state(lm, cfg)
    active = select_active_indices(lm.features, cfg, 0.0)
    outcomes = [C if i % 4 else I for i in range(20)]
    view = rand_view(rng, 10)
    reg = synthetic_reg(outcomes, [])
    update_map(lm, view, reg, cfg, 0.0, 1, active_indices=active)
    assert len(lm.features) == 40  # ceil(0.05 * 40) = 2 exchanged
    old = lm.features.inserted_at == 0
    assert (lm.features.temporal.n_obs[old] == 1).all()
    assert (lm.features.inserted_at == 1).sum() == 2


@pytest.mark.parametrize("m", [500, 50])
def test_fremen_spectral_term_decides_outcomes_only_under_a_binding_cap(m):
    # scarce bimodal world; 90/178 days between visits puts consecutive
    # visits near opposite phases of the day
    world = WorldConfig(seed=0, n_locations=2, landmarks_per_location=120,
                        visibility_mean=(0.45, 0.55),
                        visibility_amp=(0.40, 0.50),
                        visibility_phases=(0.0, math.pi))
    frames = generate_frames(World(world), 40, 90 * 86400.0 / 178,
                             offset_fn=uniform_offset_schedule(0.25))
    _, logs = replay_frames(frames, [
        StrategyConfig(kind="fremen", m=m, fremen_order=order)
        for order in (0, 2)])
    binds = max(r.map_size for r in logs[0]) > m
    order0, order2 = (registration_errors(log, 320.0).values for log in logs)
    assert len(order0) == len(order2) == 80
    if m == 500:  # every row is active: the prediction ranks nothing
        assert not binds and np.array_equal(order0, order2)
    else:  # selection by predicted score moves registrations
        assert binds and (order0 != order2).sum() > len(order0) // 2


def test_no_insertion_or_removal_on_failure():
    rng = np.random.default_rng(13)
    for kind in ("aggressive", "strict", "summary", "score", "fremen"):
        lm = make_map(rng, 8)
        cfg = StrategyConfig(kind=kind)
        init_strategy_state(lm, cfg)
        before = lm.features
        update_map(lm, rand_view(rng, 5), failed_reg(8), cfg, 0.0, 2)
        assert lm.features is before


def test_failure_still_counts_against_scores():
    rng = np.random.default_rng(14)
    lm = make_map(rng, 4)
    cfg = StrategyConfig(kind="score", s_n=0.5)
    update_map(lm, block([]), failed_reg(4), cfg, 0.0, 1)
    assert (lm.features.score == -0.5).all()


def test_higher_incorrect_weight_lowers_scores():
    rng = np.random.default_rng(15)
    outcomes = [C, I, I, N]
    totals = []
    for s_i in (0.5, 1.0, 2.0):
        lm = make_map(rng, 4)
        reg = synthetic_reg(outcomes, [])
        update_map(lm, block([]), reg, StrategyConfig(kind="score", s_i=s_i,
                                                      exchange_fraction=1e-9),
                   0.0, 1)
        totals.append(sum(lm.features.score.tolist()))
    assert totals[0] > totals[1] > totals[2]


def test_multiple_appends_alternative_below_threshold():
    rng = np.random.default_rng(16)
    lm = make_map(rng, 10)
    view = rand_view(rng, 6)
    cfg = StrategyConfig(kind="multiple", multiple_threshold=0.10)

    good = synthetic_reg([C] * 9 + [N], [(i, i % 6) for i in range(9)])
    update_map(lm, view, good, cfg, 0.0, 1)
    assert lm.alternatives == []

    bad = synthetic_reg([N] * 10, [], delta=5.0)
    update_map(lm, view, bad, cfg, 0.0, 2)
    assert len(lm.alternatives) == 1
    alt = lm.alternatives[0]
    assert alt.inserted_at.tolist() == [2] * 6
    assert alt.x[0] == pytest.approx(view.x[0] - 5.0)

    update_map(lm, view, failed_reg(10), cfg, 0.0, 3)
    assert len(lm.alternatives) == 1


def test_multiple_cap_warns_and_drops():
    rng = np.random.default_rng(17)
    lm = make_map(rng, 4)
    view = rand_view(rng, 4)
    cfg = StrategyConfig(kind="multiple", multiple_max_alternatives=3)
    bad = synthetic_reg([N] * 4, [], delta=0.0)
    update_map(lm, view, bad, cfg, 0.0, 1)
    update_map(lm, view, bad, cfg, 0.0, 2)
    assert len(lm.alternatives) == 2
    with pytest.warns(UserWarning):
        update_map(lm, view, bad, cfg, 0.0, 3)
    assert len(lm.alternatives) == 2


def select_best(lm, view, cfg, t):
    """select_best_alternative on the map's active rows at time t."""
    sets = active_sets(lm, cfg, t)
    shares = view_product(view, [active for _, active in sets])
    return select_best_alternative(view, sets, shares)


def test_select_best_alternative():
    rng = np.random.default_rng(18)
    taught = [rand_feature(rng) for _ in range(10)]
    other = [rand_feature(rng, inserted_at=1) for _ in range(10)]
    lm = LocalMap(0, 0.0, block(taught),
                  alternatives=[block(other)])
    cfg = StrategyConfig(kind="multiple")

    view = block([feature(f["x"] + 2.0, f["y"], f["d"]) for f in other])
    idx, reg = select_best(lm, view, cfg, 0.0)
    assert idx == 1 and reg.correct_count == 10
    assert reg.delta == pytest.approx(2.0)

    view = block([feature(f["x"], f["y"], f["d"]) for f in taught])
    idx, reg = select_best(lm, view, cfg, 0.0)
    assert idx == 0 and reg.correct_count == 10

    # identical alternatives tie; the taught set (oldest) wins
    lm2 = LocalMap(0, 0.0, block(taught),
                   alternatives=[block(taught)])
    idx, _ = select_best(lm2, view, cfg, 0.0)
    assert idx == 0


def test_select_best_alternative_registers_against_cap():
    rng = np.random.default_rng(19)
    old = [rand_feature(rng, inserted_at=0) for _ in range(6)]
    new = [rand_feature(rng, inserted_at=2) for _ in range(6)]
    lm = LocalMap(0, 0.0, block(old + new))
    cfg = StrategyConfig(kind="multiple", m=6)
    # view matches only the features outside the newest-m cap: must not count
    view = block([feature(f["x"], f["y"], f["d"]) for f in old])
    idx, reg = select_best(lm, view, cfg, 0.0)
    assert idx == 0 and reg.correct_count == 0


def test_select_best_alternative_caps_each_alternative():
    rng = np.random.default_rng(20)
    taught = [rand_feature(rng) for _ in range(4)]
    # old and new rows interleaved, so the newest m are not the first m
    rows = [rand_feature(rng, inserted_at=1 + i % 2) for i in range(12)]
    lm = LocalMap(0, 0.0, block(taught),
                  alternatives=[block(rows)])
    cfg = StrategyConfig(kind="multiple", m=6)
    view = block([feature(f["x"] + 2.0, f["y"], f["d"]) for f in rows])
    idx, reg = select_best(lm, view, cfg, 0.0)
    assert idx == 1 and len(reg.outcomes) == 6 and reg.correct_count == 6
    # the matched view rows are exactly the alternative's newest rows
    assert sorted(reg.pairs.view_idx.tolist()) == list(range(1, 12, 2))
