"""World generation, observation noise, teach pass, and loop dynamics."""

import numpy as np
import pytest
from numpy.random import default_rng

from longnav.errors import ConfigError, DatasetError, TeachError
from longnav.features import Descriptor, Feature
from longnav.simulator import (Frame, World, WorldConfig, generate_frames,
                               generate_world, replay_frames, run_closed_loop,
                               teach, teach_from_frames, teach_frames,
                               uniform_offset_schedule)
from longnav.strategies import StrategyConfig


def small_cfg(**kw):
    kw.setdefault("n_locations", 2)
    kw.setdefault("landmarks_per_location", 60)
    return WorldConfig(**kw)


def quiet_cfg(**kw):
    """No noise anywhere: visibility 1, no jitter/flips/clutter/turnover."""
    kw.setdefault("visibility_mean", (1.0, 1.0))
    kw.setdefault("visibility_amp", (0.0, 0.0))
    kw.setdefault("bit_flip_prob", 0.0)
    kw.setdefault("position_jitter", 0.0)
    kw.setdefault("clutter_count", 0)
    kw.setdefault("alias_prob", 0.0)
    kw.setdefault("turnover_prob", 0.0)
    kw.setdefault("odometry_noise", 0.0)
    return small_cfg(**kw)


def test_config_validation():
    with pytest.raises(ConfigError):
        WorldConfig(bit_flip_prob=1.5)
    with pytest.raises(ConfigError):
        WorldConfig(descriptor_width=101, n_locations=1)
    with pytest.raises(ConfigError):
        WorldConfig(steering_gain=0.0)
    with pytest.raises(ConfigError):
        WorldConfig(seed=-1)


def test_world_is_pure_function_of_seed():
    for seed in range(20):
        a = World(small_cfg(seed=seed))
        b = World(small_cfg(seed=seed))
        c = World(small_cfg(seed=seed + 100))
        for pa, pb in zip(a.pools, b.pools):
            np.testing.assert_array_equal(pa.x, pb.x)
            np.testing.assert_array_equal(pa.desc, pb.desc)
        assert any(not np.array_equal(pa.desc, pc.desc)
                   for pa, pc in zip(a.pools, c.pools))


def test_noise_free_observation_reproduces_pool():
    w = World(quiet_cfg(seed=3))
    pool = w.pools[1]
    frame = w.observe(1, 0.0, 0.0, default_rng(0))
    assert frame.gamma == 0.0
    assert len(frame.features) == 60
    np.testing.assert_allclose([f.x for f in frame.features], pool.x)
    got = sorted(f.descriptor.to_int() for f in frame.features)
    expect = sorted(Descriptor._wrap(row, 256).to_int() for row in pool.desc)
    assert got == expect


def test_offset_sets_gamma_and_shifts_positions():
    w = World(quiet_cfg(seed=4))
    frame = w.observe(0, 0.0, 0.05, default_rng(0))
    assert frame.gamma == pytest.approx(10.0)  # 200 px/m * 0.05 m
    pool = w.pools[0]
    kept = pool.x + 10.0
    kept = kept[(kept >= 0) & (kept < 640)]
    np.testing.assert_allclose(sorted(f.x for f in frame.features), sorted(kept))


def test_observe_location_bounds():
    w = World(small_cfg())
    with pytest.raises(ValueError):
        w.observe(2, 0.0, 0.0, default_rng(0))


def test_visibility_is_binomial():
    cfg = quiet_cfg(visibility_mean=(0.7, 0.7), landmarks_per_location=700)
    w = World(cfg)
    counts = [len(w.observe(0, 0.0, 0.0, default_rng(i)).features)
              for i in range(20)]
    total = sum(counts)
    expect = 20 * 700 * 0.7
    sigma = np.sqrt(20 * 700 * 0.7 * 0.3)
    assert abs(total - expect) <= 3 * sigma


def test_diurnal_visibility_law():
    cfg = quiet_cfg(visibility_mean=(0.5, 0.5), visibility_amp=(0.4, 0.4),
                    visibility_phases=(0.0,), landmarks_per_location=2000)
    w = World(cfg)
    noon = len(w.observe(0, 0.0, 0.0, default_rng(1)).features)
    night = len(w.observe(0, 43200.0, 0.0, default_rng(2)).features)
    sigma_hi = 3 * np.sqrt(2000 * 0.9 * 0.1)
    sigma_lo = 3 * np.sqrt(2000 * 0.1 * 0.9)
    assert abs(noon - 2000 * 0.9) <= sigma_hi
    assert abs(night - 2000 * 0.1) <= sigma_lo


def test_teach_builds_capped_path():
    cfg = quiet_cfg(n_locations=3, landmarks_per_location=80, spacing_m=2.0)
    path = teach(World(cfg), t=5.0, feature_cap=50)
    assert len(path.local_maps) == 3
    assert path.taught_at == 5.0
    for i, lm in enumerate(path.local_maps):
        assert lm.index == i and lm.odometry_distance == 2.0 * i
        assert len(lm.features) == 50
        assert all(f.inserted_at == 0 for f in lm.features)
    assert path.length_m == pytest.approx(4.0)


def test_teach_cap_drops_least_unique_first():
    rng = np.random.default_rng(5)
    feats = [Feature(float(i), 0.0,
                     Descriptor.from_int(int.from_bytes(rng.bytes(32), "little"), 256))
             for i in range(10)]
    feats.append(Feature(99.0, 0.0, feats[0].descriptor))  # exact duplicate
    frame = Frame(0, 0.0, feats, 0.0)
    path = teach_from_frames([frame], feature_cap=10)
    kept = [f.descriptor for f in path.local_maps[0].features]
    assert sum(d == feats[0].descriptor for d in kept) == 1
    assert len(kept) == 10


def test_teach_empty_frame_raises():
    with pytest.raises(TeachError):
        teach_from_frames([Frame(0, 0.0, [], 0.0)])


def test_turnover_survival_rate():
    cfg = small_cfg(n_locations=1, landmarks_per_location=2000,
                    turnover_prob=0.05, seed=6)
    w = World(cfg)
    before = w.pools[0].desc.copy()
    for tr in range(1, 11):
        w.advance_turnover(tr)
    survived = int((w.pools[0].desc == before).all(axis=1).sum())
    p = 0.95 ** 10
    sigma = np.sqrt(2000 * p * (1 - p))
    assert abs(survived - 2000 * p) <= 3 * sigma


def test_turnover_zero_is_identity():
    w = World(quiet_cfg(seed=7))
    before = [p.desc.copy() for p in w.pools]
    w.advance_turnover(1)
    for p, b in zip(w.pools, before):
        np.testing.assert_array_equal(p.desc, b)


def test_closed_loop_zero_offset_is_fixed_point():
    cfg = quiet_cfg(n_locations=4, landmarks_per_location=100)
    _, (logs,) = run_closed_loop(World(cfg), [StrategyConfig(kind="static")],
                                 3, 3600.0)
    for log in logs:
        for rec in log.records:
            assert rec.offset_m == 0.0
            assert rec.delta == pytest.approx(0.0, abs=1e-12)
            assert rec.gamma == 0.0


def test_closed_loop_contraction_matches_recurrence():
    cfg = quiet_cfg(n_locations=8, landmarks_per_location=150)
    _, (logs,) = run_closed_loop(World(cfg), [StrategyConfig(kind="static")],
                                 1, 3600.0, initial_offset_m=0.1)
    recs = logs[0].records
    offset = 0.1
    hit = None
    for k, rec in enumerate(recs):
        assert rec.offset_m == pytest.approx(offset, abs=1e-9)
        assert rec.delta == pytest.approx(200.0 * offset, abs=1e-9)
        offset = offset - 0.8 * (rec.delta / 200.0)
        if hit is None and abs(offset) < 0.005:
            hit = k
    assert hit is not None and hit < 5


def test_open_loop_gamma_follows_schedule():
    cfg = quiet_cfg(n_locations=4, landmarks_per_location=100)
    fn = uniform_offset_schedule(0.25, seed=9)
    assert fn(3, 1) == fn(3, 1)  # schedule is a pure function
    repeats = [(tr, f) for tr, f in generate_frames(World(cfg), 2, 3600.0,
                                                    offset_fn=fn) if tr > 0]
    assert len(repeats) == 2 * cfg.n_locations
    for tr, frame in repeats:
        offset = fn(tr, frame.location)
        assert abs(offset) <= 0.25
        assert frame.gamma == cfg.px_per_m * offset


def test_repeat_runs_are_reproducible():
    def run(run_seed):
        _, (logs,) = run_closed_loop(World(small_cfg(seed=11)),
                                     [StrategyConfig(kind="score")], 4, 3600.0,
                                     run_seed=run_seed, initial_offset_m=0.02)
        return logs
    assert run(0) == run(0)
    a, b = run(0), run(1)
    assert any(ra.records != rb.records for ra, rb in zip(a, b))


def test_replay_matches_live_open_loop():
    # replay teaches from the stream's traversal-0 frames the same path the
    # live teach pass builds from the world
    def world():
        return World(small_cfg(n_locations=3, landmarks_per_location=80, seed=12))

    (path_rep,), _ = replay_frames(generate_frames(world(), 0, 1000.0),
                                   [StrategyConfig(kind="score")])
    assert [lm.features for lm in path_rep.local_maps] \
        == [lm.features for lm in teach(world()).local_maps]


def test_replay_copies_a_supplied_path_per_strategy():
    w = World(small_cfg(seed=15))
    taught = teach(w, feature_cap=40)
    before = [list(lm.features) for lm in taught.local_maps]
    frames = list(generate_frames(w, 2, 1000.0))
    cfgs = [StrategyConfig(kind="latest"), StrategyConfig(kind="aggressive")]
    paths, logs = replay_frames(frames, cfgs, path=taught)
    assert [lm.features for lm in taught.local_maps] == before
    assert paths[0] is not paths[1] and all(p is not taught for p in paths)
    assert [lm.features for lm in paths[0].local_maps] \
        != [lm.features for lm in paths[1].local_maps]
    assert [[log.strategy for log in strategy_logs] for strategy_logs in logs] \
        == [["latest"] * 2, ["aggressive"] * 2]


def test_replay_rejects_out_of_order_and_missing_teach():
    w = World(small_cfg(seed=13))
    frames = list(generate_frames(w, 2, 1000.0))
    teach_part = [(tr, f) for tr, f in frames if tr == 0]
    tr1 = [(tr, f) for tr, f in frames if tr == 1]
    tr2 = [(tr, f) for tr, f in frames if tr == 2]
    with pytest.raises(DatasetError, match="out of traversal order"):
        replay_frames(teach_part + tr2 + tr1, [StrategyConfig(kind="static")])
    with pytest.raises(TeachError):
        replay_frames(tr1 + tr2, [StrategyConfig(kind="static")])


@pytest.mark.parametrize("location", [-1, 2, 10**6])
def test_replay_rejects_location_outside_path(location):
    w = World(small_cfg(seed=13))  # two locations
    frames = list(generate_frames(w, 1, 1000.0))
    tr, f = frames[-1]
    frames[-1] = (tr, Frame(location, f.time, f.features, f.gamma))
    with pytest.raises(DatasetError, match=f"location {location} is outside"):
        replay_frames(frames, [StrategyConfig(kind="static")])


def test_generate_world_helper():
    w = generate_world(small_cfg(seed=14))
    assert isinstance(w, World) and len(w.pools) == 2
