"""World generation, observation noise, teach pass, and loop dynamics."""

import gc
import math
import weakref

import numpy as np
import pytest
from numpy.random import default_rng

from longnav import kernels, simulator
from longnav.errors import ConfigError, DatasetError, TeachError
from longnav.evaluation import compare_strategies
from longnav.io import (read_dataset, read_map_snapshot, write_dataset,
                        write_map_snapshot)
from longnav.registration import RegistrationParams
from longnav.simulator import (Frame, World, WorldConfig, generate_frames,
                               generate_world, replay_frames, run_closed_loop,
                               teach, teach_from_frames, teach_frames,
                               uniform_offset_schedule)
from longnav.strategies import STRATEGY_KINDS, StrategyConfig

from blocks import Descriptor, block_from_descriptors


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


def rows(path):
    """Every local map's feature columns, to compare paths by value."""
    return [(f.x.tolist(), f.y.tolist(), f.words.tolist(), f.inserted_at.tolist(),
             f.score.tolist()) for f in (lm.features for lm in path.local_maps)]


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
    np.testing.assert_allclose(frame.features.x, pool.x)
    got = sorted(Descriptor(row, 256).to_int() for row in frame.features.words)
    expect = sorted(Descriptor(row, 256).to_int() for row in pool.desc)
    assert got == expect


def test_offset_sets_gamma_and_shifts_positions():
    w = World(quiet_cfg(seed=4))
    frame = w.observe(0, 0.0, 0.05, default_rng(0))
    assert frame.gamma == pytest.approx(10.0)  # 200 px/m * 0.05 m
    pool = w.pools[0]
    kept = pool.x + 10.0
    kept = kept[(kept >= 0) & (kept < 640)]
    np.testing.assert_allclose(sorted(frame.features.x), sorted(kept))


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
        assert (lm.features.inserted_at == 0).all()


def test_teach_cap_drops_least_unique_first():
    rng = np.random.default_rng(5)
    descs = [Descriptor.from_int(int.from_bytes(rng.bytes(32), "little"), 256)
             for i in range(10)]
    descs.append(descs[0])  # exact duplicate
    feats = block_from_descriptors([float(i) for i in range(10)] + [99.0],
                                          [0.0] * 11, descs)
    frame = Frame(0, 0.0, feats, 0.0)
    path = teach_from_frames([frame], feature_cap=10)
    kept = [Descriptor(w, 256) for w in path.local_maps[0].features.words]
    assert sum(d == descs[0] for d in kept) == 1
    assert len(kept) == 10


def test_teach_rejects_frames_out_of_location_order():
    frames = teach_frames(World(small_cfg(seed=2, n_locations=3)))
    f = frames[0]
    negative = Frame(-1, f.time, f.features, f.gamma)
    for bad, problem in ((frames[:2] + frames[1:], "location 1 repeats"),
                         (frames[1:], "location 0 is missing"),
                         ([negative] + frames, "location -1 is negative")):
        with pytest.raises(TeachError, match=problem):
            teach_from_frames(bad)


def test_runs_reject_no_strategies():
    with pytest.raises(ConfigError, match="no strategies"):
        run_closed_loop(World(small_cfg()), [], 1, 1000.0)
    with pytest.raises(ConfigError, match="no strategies"):
        replay_frames(generate_frames(World(small_cfg()), 1, 1000.0), [])


def test_100_bit_world_round_trips_and_replays(tmp_path):
    # 100 bits fill one word and 36 bits of the next: no draw, flip or
    # clutter descriptor may set the 28 bits above them
    w = World(small_cfg(seed=6, descriptor_width=100))
    assert not any((p.desc[:, 1] >> np.uint64(36)).any() for p in w.pools)
    frames = list(generate_frames(w, 3, 3600.0))
    for _, f in frames:
        assert f.features.width == 100 and f.features.words.shape[1] == 2
        assert not (f.features.words[:, 1] >> np.uint64(36)).any()
    path = tmp_path / "d.jsonl"
    write_dataset(frames, path)
    back = list(read_dataset(path))
    for (tr0, f0), (tr1, f1) in zip(frames, back, strict=True):
        assert tr0 == tr1 and f1.features.width == 100
        assert np.array_equal(f0.features.words, f1.features.words)
    _, logs = replay_frames(back, [StrategyConfig(kind=k)
                                   for k in STRATEGY_KINDS],
                            params=RegistrationParams(d_max=25))
    for log in logs:
        assert len(log) == 2 * 3
        assert all(rec.delta_px is not None for rec in log)


def test_teach_empty_frame_raises():
    with pytest.raises(TeachError):
        teach_from_frames([Frame(0, 0.0, block_from_descriptors([], [], []),
                                 0.0)])


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
    for rec in logs:
        assert rec.offset_m == 0.0
        assert rec.delta_px == pytest.approx(0.0, abs=1e-12)
        assert rec.gamma_px == 0.0


def test_closed_loop_contraction_matches_recurrence():
    cfg = quiet_cfg(n_locations=8, landmarks_per_location=150)
    _, (logs,) = run_closed_loop(World(cfg), [StrategyConfig(kind="static")],
                                 1, 3600.0, initial_offset_m=0.1)
    offset = 0.1
    hit = None
    for k, rec in enumerate(logs):
        assert rec.offset_m == pytest.approx(offset, abs=1e-9)
        assert rec.delta_px == pytest.approx(200.0 * offset, abs=1e-9)
        offset = offset - 0.8 * (rec.delta_px / 200.0)
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
    assert a != b


def test_replay_matches_live_open_loop():
    # replay teaches from the stream's traversal-0 frames the same path the
    # live teach pass builds from the world
    def world():
        return World(small_cfg(n_locations=3, landmarks_per_location=80, seed=12))

    (path_rep,), _ = replay_frames(generate_frames(world(), 0, 1000.0),
                                   [StrategyConfig(kind="score")])
    assert rows(path_rep) == rows(teach(world()))


def test_replay_copies_a_supplied_path_per_strategy():
    w = World(small_cfg(seed=15))
    taught = teach(w, feature_cap=40)
    before = rows(taught)
    frames = list(generate_frames(w, 2, 1000.0))
    cfgs = [StrategyConfig(kind="latest"), StrategyConfig(kind="aggressive")]
    paths, logs = replay_frames(frames, cfgs, path=taught)
    assert rows(taught) == before
    assert paths[0] is not paths[1] and all(p is not taught for p in paths)
    assert rows(paths[0]) != rows(paths[1])
    assert [[rec.strategy for rec in records] for records in logs] \
        == [["latest"] * 4, ["aggressive"] * 4]


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


def test_replay_rejects_a_location_repeated_in_one_traversal(tmp_path):
    # such a stream once replayed both frames, logging one frame key twice,
    # and a dataset file of it compared as if it held one more frame
    w = World(small_cfg(seed=13))  # two locations
    frames = list(generate_frames(w, 2, 1000.0))
    first = next(i for i, (tr, f) in enumerate(frames) if tr == 1)
    frames.insert(first + 1, frames[first])
    with pytest.raises(DatasetError, match="^traversal 1: location 0 appears "
                                           "twice$"):
        replay_frames(frames, [StrategyConfig(kind="static")])
    path = tmp_path / "dataset.jsonl"
    write_dataset(frames, path)
    with pytest.raises(DatasetError, match="location 0 appears twice"):
        compare_strategies(path, [StrategyConfig(kind="static"),
                                  StrategyConfig(kind="score")])
    # a location comes again in each later traversal
    del frames[first + 1]
    _, (logs,) = replay_frames(frames, [StrategyConfig(kind="static")])
    assert [(r.traversal, r.location) for r in logs] == [
        (1, 0), (1, 1), (2, 0), (2, 1)]


@pytest.mark.parametrize("at, location, message", [
    (-1, 2, "location 2 is outside the taught path of 2 locations"),
    (-1, 0, "location 0 appears twice"),
    (-2, 2, "location 2 is outside the taught path of 2 locations")])
def test_a_bad_last_frame_stops_its_traversal_before_it_registers(
        tmp_path, monkeypatch, at, location, message):
    # a traversal registers once all its frames are checked, so a bad frame
    # of the last traversal, its last (-1) or its first (-2), raises before
    # any frame of that traversal registers; the traversals before it have
    # registered
    w = World(small_cfg(seed=13))  # two locations
    frames = list(generate_frames(w, 3, 1000.0))
    tr, f = frames[at]
    frames[at] = (tr, Frame(location, f.time, f.features, f.gamma))
    registered = []
    step = simulator.process_frame

    def recording(local_map, frame, cfg, traversal, *args):
        registered.append((traversal, frame.location))
        return step(local_map, frame, cfg, traversal, *args)

    monkeypatch.setattr(simulator, "process_frame", recording)
    with pytest.raises(DatasetError, match=f"^traversal 3: {message}$"):
        replay_frames(frames, [StrategyConfig(kind="static")])
    assert registered == [(1, 0), (1, 1), (2, 0), (2, 1)]
    path = tmp_path / "dataset.jsonl"
    write_dataset(frames, path)
    with pytest.raises(DatasetError, match=f"^traversal 3: {message}$"):
        compare_strategies(path, [StrategyConfig(kind="static"),
                                  StrategyConfig(kind="score")])


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


def scarce_bimodal_stream(traversals=24, n_locations=2):
    """The C1 world's scarce day-or-night landmarks as one in-memory frame
    list."""
    cfg = small_cfg(seed=0, n_locations=n_locations,
                    landmarks_per_location=120,
                    visibility_mean=(0.45, 0.55), visibility_amp=(0.40, 0.50),
                    visibility_phases=(0.0, math.pi))
    return list(generate_frames(World(cfg), traversals, 90 * 86400.0 / 178,
                                offset_fn=uniform_offset_schedule(0.25, 0)))


def test_lockstep_replay_matches_each_strategy_alone(tmp_path):
    # one product per view, shared by all eight strategies, must give each
    # the logs and final map it gets from products of its own; m=60 leaves
    # summary's rows outside the active set for the insertion ranking
    frames = scarce_bimodal_stream()
    cfgs = [StrategyConfig(kind=k, m=60) for k in STRATEGY_KINDS]
    paths, logs = replay_frames(frames, cfgs)
    for cfg, path, log in zip(cfgs, paths, logs):
        (alone_path,), (alone_log,) = replay_frames(frames, [cfg])
        assert log == alone_log, cfg.kind
        write_map_snapshot(path, tmp_path / "together.json")
        write_map_snapshot(alone_path, tmp_path / "alone.json")
        assert ((tmp_path / "together.json").read_bytes()
                == (tmp_path / "alone.json").read_bytes()), cfg.kind
    kinds = [cfg.kind for cfg in cfgs]
    summary = paths[kinds.index("summary")]
    assert max(len(lm.features) for lm in summary.local_maps) > 60
    assert max(r.n_alternatives for r in logs[kinds.index("multiple")]) > 1


def test_replay_keeps_no_view_product_alive(monkeypatch):
    # reference counting alone frees each product once its traversal is
    # done, before the next is built: no reference cycle holds one for the
    # garbage collector, which stays off here
    products = []
    build = kernels.ViewProduct.__init__

    def recording(self, views, sets):
        assert all(ref() is None for ref in products)
        build(self, views, sets)
        products.append(weakref.ref(self._dot))

    monkeypatch.setattr(kernels.ViewProduct, "__init__", recording)
    frames = scarce_bimodal_stream(traversals=3)
    gc.disable()
    try:
        replay_frames(frames, [StrategyConfig(kind=k) for k in STRATEGY_KINDS])
    finally:
        gc.enable()
    assert len(products) == 3  # one per traversal
    assert all(ref() is None for ref in products)


def test_replay_split_and_resumed_from_written_maps_logs_as_one_replay(
        tmp_path):
    # traversals 1-20, each kind's map written and read back, then 21-40
    # from that map, log what one 40-traversal replay logs: the snapshot
    # carries every piece of state a strategy keeps. m=60 binds the cap
    frames = scarce_bimodal_stream(traversals=40, n_locations=3)
    cfgs = [StrategyConfig(kind=k, m=60) for k in STRATEGY_KINDS]
    paths, logs = replay_frames(frames, cfgs)
    halves, first_logs = replay_frames([f for f in frames if f[0] <= 20], cfgs)
    later = [f for f in frames if f[0] > 20]
    for cfg, half, first_log, log in zip(cfgs, halves, first_logs, logs):
        write_map_snapshot(half, tmp_path / f"{cfg.kind}.json")
        resumed = read_map_snapshot(tmp_path / f"{cfg.kind}.json")
        _, (later_log,) = replay_frames(later, [cfg], path=resumed)
        assert first_log + later_log == log, cfg.kind
    kinds = [cfg.kind for cfg in cfgs]
    summary = halves[kinds.index("summary")]
    assert max(len(lm.features) for lm in summary.local_maps) > 60
    multiple = first_logs[kinds.index("multiple")]
    assert max(r.n_alternatives for r in multiple) > 1
    assert len(logs[0]) == 3 * 40


def test_strategies_inserting_one_views_rows_share_their_ids():
    # latest inserts the whole view and aggressive some of its rows: both
    # maps hold those rows under the view's ids, so a product with the next
    # view multiplies each of them once
    frames = scarce_bimodal_stream(traversals=1)
    (_, view), = [f for f in frames if f[0] == 1 and f[1].location == 0]
    paths, _ = replay_frames(frames, [StrategyConfig(kind="latest"),
                                      StrategyConfig(kind="aggressive")])
    latest, aggressive = (p.local_maps[0].features for p in paths)
    assert np.array_equal(latest.ids, view.features.ids)
    inserted = aggressive.inserted_at == 1
    row_of = {i: r for r, i in enumerate(view.features.ids.tolist())}
    rows = [row_of[i] for i in aggressive.ids[inserted].tolist()]
    assert rows and np.array_equal(aggressive.words[inserted],
                                   view.features.words[rows])


def test_observe_gives_fresh_ids_and_one_draws_frames_share_them():
    # 0.3 m keeps other landmarks in the image: a draw of its own
    w = World(small_cfg(landmarks_per_location=300, seed=16))
    offsets = [0.0, 0.0, 0.3]
    rngs = [np.random.default_rng(3) for _ in offsets]
    same, also, moved = (f.features for f in
                         w.observe_offsets(1, 7200.0, offsets, rngs))
    assert np.array_equal(same.ids, also.ids) and len(moved)
    assert not np.intersect1d(same.ids, moved.ids).size
    again = w.observe(1, 7200.0, 0.0, np.random.default_rng(3)).features
    assert not np.intersect1d(same.ids, again.ids).size


def test_observe_offsets_matches_observe_per_offset():
    # 0.3 m shifts the view by 60 px, so the offsets keep different landmarks
    # in the image; 1e-9 m moves x without moving any landmark across an edge
    w = World(small_cfg(landmarks_per_location=300, seed=16))
    offsets = [0.0, 0.3, 1e-9, -0.4, 0.3, 0.0]
    rngs = [default_rng((5, 1, 1)) for _ in offsets]
    frames = w.observe_offsets(1, 7200.0, offsets, rngs)
    for offset, frame, rng in zip(offsets, frames, rngs):
        alone_rng = default_rng((5, 1, 1))
        alone = w.observe(1, 7200.0, offset, alone_rng)
        assert (frame.location, frame.time) == (alone.location, alone.time)
        assert frame.gamma == alone.gamma
        for col in ("x", "y", "words"):
            np.testing.assert_array_equal(getattr(frame.features, col),
                                          getattr(alone.features, col))
        assert rng.random() == alone_rng.random()
    shared = [id(f.features.words) for f in frames]
    assert shared[0] == shared[2] == shared[5] and shared[1] == shared[4]
    assert len(set(shared)) == 3
    assert not np.array_equal(frames[0].features.x, frames[2].features.x)


def test_closed_loop_lockstep_matches_each_strategy_alone(tmp_path,
                                                          monkeypatch):
    # latest rebuilds its map from every view, so its offsets part from
    # static's: some locations draw one frame set for both, others several
    cfg = small_cfg(n_locations=3, landmarks_per_location=700, seed=17)
    cfgs = [StrategyConfig(kind=k) for k in ("latest", "static", "score")]
    draws = []
    observe_offsets = World.observe_offsets

    def recording(self, location, t, offsets, rngs):
        frames = observe_offsets(self, location, t, offsets, rngs)
        if len(offsets) > 1:  # not the teach pass's or a lone strategy's
            draws.append(len({id(f.features.words) for f in frames}))
        return frames

    def run(strategies):
        return run_closed_loop(World(cfg), strategies, 8, 3600.0, run_seed=3,
                               initial_offset_m=0.1)

    monkeypatch.setattr(World, "observe_offsets", recording)
    paths, logs = run(cfgs)
    assert len(draws) == 3 * 8 and 1 in draws and max(draws) > 1
    for cfg_i, path, log in zip(cfgs, paths, logs):
        (alone_path,), (alone_log,) = run([cfg_i])
        assert log == alone_log, cfg_i.kind
        write_map_snapshot(path, tmp_path / "together.json")
        write_map_snapshot(alone_path, tmp_path / "alone.json")
        assert ((tmp_path / "together.json").read_bytes()
                == (tmp_path / "alone.json").read_bytes()), cfg_i.kind
