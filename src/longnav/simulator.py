"""Synthetic changing world plus the teach/repeat robot model.

Each location holds a pool of landmarks with fixed true positions, binary
descriptors, and a diurnal visibility law p_vis(t) = clamp(mu + a*cos(2*pi*t /
day_period + phi), 0, 1). Observations add lateral-offset shift, pixel jitter,
descriptor bit flips, and clutter features; landmark turnover gradually
replaces pool entries between traversals. Ground truth gamma = px_per_m *
lateral offset is carried on every frame.

Determinism: the world is a pure function of its seed; per-frame noise comes
from default_rng((run_seed, traversal, location)); turnover advances from
default_rng((world_seed, salt, traversal)) and observing leaves the pools
untouched, so strategies sharing one world see it evolve as they would alone.
In closed loop the strategies observe a location at their own offsets in one
call, which draws once per distinct set of in-image landmarks and leaves
every strategy's generator in the state it reaches alone (see
World.observe_offsets), so each frame, and the odometry noise drawn after
it, is the one that strategy would draw by itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.random import default_rng

from .errors import (ConfigError, DatasetError, TeachError, check_settings,
                     in_range, is_int)
from .features import FeatureBlock, LocalMap, PathMap, pack_features
from .kernels import self_nearest_distances
from .registration import RegistrationParams, register, view_product
from .strategies import (StrategyConfig, active_sets, init_strategy_state,
                         select_best_alternative, update_map)

_SALT_WORLD = 0x1A11D
_SALT_TEACH = 0x7EAC4
_SALT_TURNOVER = 0x70C4E
_SALT_OFFSET = 0x0FF5E
# the estimated size, in cells (view features times its maps' rows), up to
# which an open-loop traversal's views register through one product. Time
# did not depend on it in the benchmark's open-loop workloads beyond a
# product per traversal of small maps, but a product's float32 arrays grow
# with its cells, so it bounds their memory (the dot at most 4 MB). Measured
# (BENCH_traversal.json, "product_cells"): every sparse-replay traversal
# lies below it (0.49-0.71 M cells) and every open-dense view above it
# (1.97-2.35 M), which so registers a view at a time
_PRODUCT_CELLS = 1 << 20


@dataclass
class WorldConfig:
    n_locations: int = 32
    landmarks_per_location: int = 700
    image_width: int = 640
    image_height: int = 480
    descriptor_width: int = 256
    day_period: float = 86400.0
    visibility_mean: tuple = (0.55, 0.95)
    visibility_amp: tuple = (0.0, 0.45)
    visibility_phases: tuple | None = None  # None: uniform phase in [0, 2*pi)
    bit_flip_prob: float = 0.02
    position_jitter: float = 1.0
    turnover_prob: float = 0.002
    clutter_count: int = 30
    alias_prob: float = 0.05
    alias_flip_bits: int = 16
    px_per_m: float = 200.0
    steering_gain: float = 0.8
    odometry_noise: float = 0.005
    spacing_m: float = 1.0
    seed: int = 0

    def __post_init__(self):
        def pair(v):
            return (isinstance(v, (tuple, list)) and len(v) == 2
                    and all(in_range(u, -math.inf) for u in v) and v[0] <= v[1])

        phases = self.visibility_phases
        check_settings(self, [
            *((name, in_range(getattr(self, name), 0.0, 1.0), "in [0, 1]")
              for name in ("bit_flip_prob", "turnover_prob", "alias_prob")),
            *((name, is_int(getattr(self, name), 1), "a positive integer")
              for name in ("n_locations", "landmarks_per_location",
                           "image_width", "image_height")),
            ("descriptor_width", is_int(self.descriptor_width, 4)
             and self.descriptor_width % 4 == 0, "a positive multiple of 4"),
            *((name, in_range(getattr(self, name), 0.0)
               and getattr(self, name) > 0, "finite and > 0")
              for name in ("day_period", "px_per_m", "spacing_m")),
            *((name, pair(getattr(self, name)),
               "a [low, high] pair of finite numbers, low <= high")
              for name in ("visibility_mean", "visibility_amp")),
            ("visibility_phases", phases is None or (
                isinstance(phases, (tuple, list)) and len(phases) > 0
                and all(in_range(u, -math.inf) for u in phases)),
             "null or a non-empty list of finite numbers"),
            ("steering_gain", in_range(self.steering_gain, 0.0, 1.0)
             and self.steering_gain > 0, "in (0, 1]"),
            *((name, in_range(getattr(self, name), 0.0), "finite and >= 0")
              for name in ("position_jitter", "odometry_noise")),
            *((name, is_int(getattr(self, name), 0), "a non-negative integer")
              for name in ("clutter_count", "alias_flip_bits", "seed")),
        ])


@dataclass
class Frame:
    """One simulated camera view at a location."""

    location: int
    time: float
    features: FeatureBlock  # x, y, words and row ids only
    gamma: float  # ground-truth shift in pixels


@dataclass
class LocationRecord:
    """One strategy's result on one frame, and one row of a log file: the
    row's keys are these field names, in this order. A field's ``metadata``
    holds the range a log row's value must lie in: at least ``min``, and
    below the value of the field named ``below``."""

    traversal: int = field(metadata={"min": 1})  # repeats count from 1
    strategy: str
    time_s: float  # the frame's time
    location: int = field(metadata={"min": 0})
    delta_px: float | None  # None: registration failed
    gamma_px: float
    n_correct: int = field(metadata={"min": 0})
    n_incorrect: int = field(metadata={"min": 0})
    n_not_matched: int = field(metadata={"min": 0})
    map_size: int = field(metadata={"min": 0})
    n_alternatives: int = field(default=1, metadata={"min": 1})
    best_alternative: int = field(default=0, metadata={
        "min": 0, "below": "n_alternatives"})
    offset_m: float | None = None


@dataclass
class _Pool:
    x: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    amp: np.ndarray
    phase: np.ndarray
    desc: np.ndarray  # (n, n_words) uint64

    def visibility_at(self, t: float, day_period: float) -> np.ndarray:
        v = self.mu + self.amp * np.cos(2.0 * np.pi * t / day_period + self.phase)
        return np.clip(v, 0.0, 1.0)


def _random_words(rng, n: int, width: int) -> np.ndarray:
    nw = (width + 63) // 64
    w = rng.integers(0, np.iinfo(np.uint64).max, size=(n, nw),
                     dtype=np.uint64, endpoint=True)
    tail = width % 64
    if tail:
        w[:, -1] &= np.uint64((1 << tail) - 1)
    return w


def _bernoulli_words(rng, n: int, width: int, prob: float) -> np.ndarray:
    """Pack an (n, width) Bernoulli bit matrix into uint64 words."""
    nw = (width + 63) // 64
    bits = np.zeros((n, nw * 64), dtype=bool)
    bits[:, :width] = rng.random((n, width)) < prob
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(
        np.uint64, copy=False)


class World:
    """Mutable landmark pools; everything else derives from the config."""

    def __init__(self, config: WorldConfig):
        self.config = config
        rng = default_rng((config.seed, _SALT_WORLD))
        self.pools = [self._make_pool(rng) for _ in range(config.n_locations)]

    def _draw_landmarks(self, rng, n: int) -> _Pool:
        """n fresh landmarks, drawn as x, y, visibility law, descriptor."""
        cfg = self.config
        x = rng.uniform(0.0, cfg.image_width, n)
        y = rng.uniform(0.0, cfg.image_height, n)
        mu = rng.uniform(cfg.visibility_mean[0], cfg.visibility_mean[1], n)
        amp = rng.uniform(cfg.visibility_amp[0], cfg.visibility_amp[1], n)
        if cfg.visibility_phases is None:
            phase = rng.uniform(0.0, 2.0 * np.pi, n)
        else:
            phase = rng.choice(np.asarray(cfg.visibility_phases, dtype=np.float64), size=n)
        desc = _random_words(rng, n, cfg.descriptor_width)
        return _Pool(x, y, mu, amp, phase, desc)

    def _make_pool(self, rng) -> _Pool:
        cfg = self.config
        n = cfg.landmarks_per_location
        pool = self._draw_landmarks(rng, n)
        if cfg.alias_prob > 0:
            # plant near-duplicate descriptors so aliased (wrong-place) matches
            # are possible, as they are with real imagery
            twins = np.flatnonzero(rng.random(n) < cfg.alias_prob)
            if twins.size:
                base = rng.integers(0, n, size=twins.size)
                flips = _bernoulli_words(rng, twins.size, cfg.descriptor_width,
                                         cfg.alias_flip_bits / cfg.descriptor_width)
                pool.desc[twins] = pool.desc[base] ^ flips
        return pool

    def advance_turnover(self, traversal: int) -> None:
        """Replace each landmark with probability turnover_prob; seeded by
        (world seed, traversal) so all runs sharing the seed agree."""
        cfg = self.config
        if cfg.turnover_prob <= 0:
            return
        rng = default_rng((cfg.seed, _SALT_TURNOVER, traversal))
        for pool in self.pools:
            mask = rng.random(pool.x.shape[0]) < cfg.turnover_prob
            k = int(mask.sum())
            if k == 0:
                continue
            fresh = self._draw_landmarks(rng, k)
            for f in fields(_Pool):
                getattr(pool, f.name)[mask] = getattr(fresh, f.name)

    def observe(self, location: int, t: float, offset_m: float, rng) -> Frame:
        """Draw one frame at lateral offset offset_m (see observe_offsets)."""
        return self.observe_offsets(location, t, [offset_m], [rng])[0]

    def observe_offsets(self, location: int, t: float, offsets, rngs) -> list:
        """One frame per lateral offset, drawn as observe would draw it with
        that offset's generator. The generators must start in one state (for
        instance, be made from one seed); each ends in the state observe
        leaves it in.

        Draw order (fixed for reproducibility): visibility mask, position
        jitter, descriptor bit flips for in-image landmarks, then clutter
        positions and descriptors. The mask and jitter do not depend on the
        offset and are drawn once. Offsets that keep the same landmarks in
        the image draw their flips and clutter once: their frames differ
        only in x and share one descriptor array and its bit rows."""
        cfg = self.config
        if not 0 <= location < cfg.n_locations:
            raise ValueError(f"location {location} outside [0, {cfg.n_locations})")
        pool = self.pools[location]
        width = cfg.descriptor_width
        p = pool.visibility_at(t, cfg.day_period)
        idx = np.flatnonzero(rngs[0].random(pool.x.shape[0]) < p)
        jitter = None
        if cfg.position_jitter > 0 and idx.size:
            jitter = rngs[0].normal(0.0, cfg.position_jitter, idx.size)
        drawn = rngs[0].bit_generator.state
        base = pool.x[idx]
        xs, groups = [], {}  # in-image mask as bytes -> (mask, offset indices)
        for i, offset in enumerate(offsets):
            x = base + cfg.px_per_m * offset
            if jitter is not None:
                x = x + jitter
            keep = (x >= 0.0) & (x < cfg.image_width)
            xs.append(x[keep])
            groups.setdefault(keep.tobytes(), (keep, []))[1].append(i)
        frames = [None] * len(offsets)
        for keep, (first, *rest) in groups.values():
            rng = rngs[first]
            rng.bit_generator.state = drawn
            ys = pool.y[idx[keep]]
            words = pool.desc[idx[keep]]
            if cfg.bit_flip_prob > 0 and words.shape[0]:
                words = words ^ _bernoulli_words(rng, words.shape[0], width,
                                                 cfg.bit_flip_prob)
            clutter = ()
            if cfg.clutter_count > 0:
                cx = rng.uniform(0.0, cfg.image_width, cfg.clutter_count)
                cy = rng.uniform(0.0, cfg.image_height, cfg.clutter_count)
                cw = _random_words(rng, cfg.clutter_count, width)
                clutter = (cx,)
                ys = np.concatenate((ys, cy))
                words = np.concatenate((words, cw))
            block = FeatureBlock(np.concatenate((xs[first], *clutter)), ys,
                                 words, width)
            frames[first] = Frame(location, t, block, cfg.px_per_m * offsets[first])
            if rest:
                pack_features(block)  # unpacked once, shared through with_x
                state = rng.bit_generator.state
            for i in rest:
                rngs[i].bit_generator.state = state
                frames[i] = Frame(location, t, block.with_x(
                    np.concatenate((xs[i], *clutter))), cfg.px_per_m * offsets[i])
        return frames


def generate_world(config: WorldConfig) -> World:
    return World(config)


def teach_frames(world: World, t: float = 0.0) -> list:
    """Raw teaching observations, one frame per location, offset 0."""
    cfg = world.config
    return [world.observe(loc, t, 0.0, default_rng((cfg.seed, _SALT_TEACH, loc)))
            for loc in range(cfg.n_locations)]


def teach_from_frames(frames, feature_cap: int = 500, spacing_m: float = 1.0,
                      image_width: int = 640) -> PathMap:
    """Build the taught path from one frame per location, taught at the
    first frame's time with its descriptor width; TeachError when there are
    no frames, when their locations are not 0..n-1 in order, or when one has
    no features.

    When a frame holds more than feature_cap features, the most unique ones
    (largest Hamming distance to their nearest in-frame neighbour) are kept.
    """
    if not frames:
        raise TeachError("no teaching frames (traversal 0) to teach a path from")
    local_maps = []
    for i, frame in enumerate(frames):
        loc = frame.location  # frames 0..i-1 hold locations 0..i-1
        if loc != i:
            problem = (f"location {loc} repeats" if 0 <= loc < i else
                       f"location {i} is missing" if loc > i else
                       f"location {loc} is negative")
            raise TeachError("teaching frames (traversal 0) must hold "
                             f"locations 0, 1, ... once each, in order: {problem}")
        feats = frame.features
        n = len(feats)
        if not n:
            raise TeachError(f"teaching frame for location {loc} "
                             "yielded no features")
        if n > feature_cap:
            uniq = self_nearest_distances(pack_features(feats))
            order = np.argsort(-uniq, kind="stable")
            feats = feats.take(np.sort(order[:feature_cap]))
        local_maps.append(LocalMap(i, i * spacing_m, feats.as_map(0)))
    return PathMap(local_maps, image_width=image_width,
                   descriptor_width=frames[0].features.width,
                   taught_at=frames[0].time)


def teach(world: World, t: float = 0.0, feature_cap: int = 500) -> PathMap:
    """Teach pass: one local map per location at spacing_m intervals."""
    cfg = world.config
    return teach_from_frames(teach_frames(world, t), feature_cap=feature_cap,
                             spacing_m=cfg.spacing_m, image_width=cfg.image_width)


def uniform_offset_schedule(amplitude_m: float, seed: int = 0):
    """Open-loop schedule: offset drawn uniform in +-amplitude_m per frame,
    deterministic in (seed, traversal, location)."""
    def offset_fn(traversal: int, location: int) -> float:
        r = default_rng((seed, _SALT_OFFSET, traversal, location))
        return float(r.uniform(-amplitude_m, amplitude_m))
    return offset_fn


def process_frame(local_map: LocalMap, frame: Frame, cfg: StrategyConfig,
                  traversal: int, params: RegistrationParams, sets, shares,
                  offset_m: float | None = None):
    """Register one frame against its local map, update the map, and return
    (LocationRecord, RegistrationResult).

    sets are the map's active rows at the frame's time (see active_sets) and
    shares their parts of one product with the frame's view (see
    view_product), whose registration pass and reductions registration and
    the insertion ranking read."""
    t = frame.time
    view = frame.features
    if cfg.kind == "multiple":
        best_i, reg = select_best_alternative(view, sets, shares, params)
        idx = share = None
    else:
        best_i = 0
        (idx, active), = sets
        share, = shares
        reg = register(active, view, params, share)
    update_map(local_map, view, reg, cfg, t, traversal, active_indices=idx,
               image_width=params.image_width, share=share)
    n_inc = reg.incorrect_count
    rec = LocationRecord(
        traversal=traversal, strategy=cfg.kind, time_s=t,
        location=frame.location, delta_px=reg.delta, gamma_px=frame.gamma,
        n_correct=reg.correct_count, n_incorrect=n_inc,
        n_not_matched=len(reg.outcomes) - reg.correct_count - n_inc,
        map_size=len(local_map.features),
        n_alternatives=1 + len(local_map.alternatives),
        best_alternative=best_i, offset_m=offset_m)
    return rec, reg


def _strategy_paths(strategies, path: PathMap) -> list:
    """One copy of path per strategy, its strategy state attached. The
    copies share the feature rows and own their mutable state."""
    paths = [path.copy() for _ in strategies]
    for p, cfg in zip(paths, strategies):
        init_strategy_state(p, cfg)
    return paths


def traverse(world: World, paths, strategies, traversal: int, t: float,
             offsets: list, logs: list, run_seed: int,
             params: RegistrationParams) -> None:
    """One closed-loop pass over all locations at time t, appending each
    strategy's LocationRecords to its list in `logs`.

    Turnover advances once. At each location every strategy gets the frame
    it would draw alone at its own offset from default_rng((run_seed,
    traversal, location)); strategies whose offsets keep the same landmarks
    in the image share one draw (see World.observe_offsets), and every
    strategy's frame of the location goes to one frame step (see
    _replay_frame), which registers each draw through its own product (one
    product per location measured no faster on the benchmark's closed-loop
    workload, and pays for the bookkeeping of several views). Each offset,
    updated in place in `offsets`, then evolves as offset -
    gain*(delta/px_per_m) plus odometry noise from that strategy's rng; a
    failed registration leaves it uncorrected.
    """
    wc = world.config
    world.advance_turnover(traversal)
    for loc in range(wc.n_locations):
        rngs = [default_rng((run_seed, traversal, loc)) for _ in strategies]
        frames = world.observe_offsets(loc, t, offsets, rngs)
        _replay_frame(list(enumerate(frames)), traversal, strategies, paths,
                      logs, params, offsets, cells=0)
        for i, (rng, log) in enumerate(zip(rngs, logs)):
            delta = log[-1].delta_px
            if delta is not None:
                offsets[i] -= wc.steering_gain * (delta / wc.px_per_m)
            if wc.odometry_noise > 0:
                offsets[i] += float(rng.normal(0.0, wc.odometry_noise))


def run_closed_loop(world: World, strategies, traversals: int,
                    interval_s: float, feature_cap: int = 500,
                    run_seed: int = 0, initial_offset_m: float = 0.0,
                    params: RegistrationParams | None = None):
    """Closed-loop lockstep run of a sequence of StrategyConfigs through one
    world, every strategy steering its own frames.

    The path is taught once at time 0 and copied per strategy; `traversals`
    passes follow at fixed intervals. Returns (paths, logs) like
    replay_frames. ConfigError when params.image_width differs from the
    world's.
    """
    strategies = list(strategies)
    if not strategies:
        raise ConfigError("no strategies to run")
    params = params or RegistrationParams(image_width=world.config.image_width)
    if params.image_width != world.config.image_width:
        raise ConfigError(f"params.image_width {params.image_width} differs "
                          f"from world.image_width {world.config.image_width}")
    paths = _strategy_paths(strategies, teach(world, feature_cap=feature_cap))
    offsets = [initial_offset_m] * len(strategies)
    logs = [[] for _ in strategies]
    for tr in range(1, traversals + 1):
        traverse(world, paths, strategies, tr, tr * interval_s, offsets, logs,
                 run_seed, params)
    return paths, logs


def generate_frames(world: World, traversals: int, interval_s: float,
                    run_seed: int = 0, offset_fn=None):
    """Yield (traversal, Frame) pairs: the teach pass as traversal 0, then the
    repeat traversals. Advances the world's turnover state in place; consume
    once per world."""
    for frame in teach_frames(world):
        yield 0, frame
    for tr in range(1, traversals + 1):
        world.advance_turnover(tr)
        t = tr * interval_s
        for loc in range(world.config.n_locations):
            offset = offset_fn(tr, loc) if offset_fn is not None else 0.0
            rng = default_rng((run_seed, tr, loc))
            yield tr, world.observe(loc, t, offset, rng)


def _replay_frame(jobs, traversal: int, strategies, paths, logs,
                  params: RegistrationParams, offsets=None,
                  cells: int = _PRODUCT_CELLS):
    """The frame step of both loops: every job's process_frame, a job being
    (i, frame), strategy i's frame of one location, logged with offsets[i].
    Each strategy has at most one job per location, so no job's update
    changes a map that another job registers against.

    Frames that share their descriptors, as one frame does or the frames of
    one draw (see World.observe_offsets), are one view, each set registered
    against its own frame's x. The views register through one product with
    the active rows of their jobs (see registration.view_product), in one
    registration pass (see registration.register), unless that product
    would exceed `cells`; then through one product per run of views within
    it, a run holding one view at least (cells=0: one product per view). A
    view's cells are estimated as its feature count times the rows of its
    jobs' maps. Each product is freed once its jobs are done."""
    views = {}  # descriptor array id -> the jobs whose frames hold it
    for job in jobs:
        views.setdefault(id(job[1].features.words), []).append(job)
    run, size = [], 0
    for members in views.values():
        maps = [paths[i].local_maps[frame.location] for i, frame in members]
        n = len(members[0][1].features) * sum(
            len(lm.features) + sum(map(len, lm.alternatives)) for lm in maps)
        if run and size + n > cells:
            _register_run(run, traversal, strategies, paths, logs, params,
                          offsets)
            run, size = [], 0
        run += members
        size += n
    _register_run(run, traversal, strategies, paths, logs, params, offsets)


def _register_run(jobs, traversal: int, strategies, paths, logs,
                  params: RegistrationParams, offsets) -> None:
    """Every job's process_frame through one product (see _replay_frame)."""
    maps = [paths[i].local_maps[frame.location] for i, frame in jobs]
    sets = [active_sets(lm, strategies[i], frame.time)
            for (i, frame), lm in zip(jobs, maps)]
    shares = view_product(
        [frame.features for (_, frame), ss in zip(jobs, sets) for _ in ss],
        [active for ss in sets for _, active in ss])
    start = 0
    for (i, frame), lm, ss in zip(jobs, maps, sets):
        rec, _ = process_frame(lm, frame, strategies[i], traversal, params,
                               ss, shares[start:start + len(ss)],
                               None if offsets is None else offsets[i])
        start += len(ss)
        logs[i].append(rec)


def _check_in_image(traversal: int, frame: Frame, image_width: int) -> None:
    """DatasetError unless every feature of the frame has x in [0,
    image_width): a frame of a wider image, replayed at this width."""
    if not frame.features.in_image(image_width):
        raise DatasetError(f"traversal {traversal}, location {frame.location}:"
                           f" feature x outside [0, {image_width}), the "
                           "image width of this run")


def replay_frames(frames, strategies, path: PathMap | None = None,
                  feature_cap: int = 500,
                  params: RegistrationParams | None = None):
    """Open-loop lockstep replay of one (traversal, Frame) stream through a
    sequence of StrategyConfigs, reading the stream once.

    Every repeat frame is processed by each strategy, against that
    strategy's own copy of `path`, or else of the path taught from the
    traversal-0 frames. The frames of one traversal are checked as they
    arrive and registered together when a frame of another traversal
    arrives, before that frame is checked, or at the stream's end: each
    view is multiplied once with the distinct active rows of all
    strategies, and the traversal's views in one product unless it would
    grow large (see _replay_frame). So a bad frame stops its own traversal
    before any frame of it registers, and no other. Returns
    (paths, logs) with one PathMap and one list of LocationRecord per
    strategy.
    DatasetError unless frames arrive in non-decreasing traversal order,
    every frame's features lie inside [0, params.image_width), repeat frames
    name a taught location, at most once per traversal, and, unless
    featureless (see view_product), have the path's descriptor width, and a
    supplied path has params.image_width.
    """
    strategies = list(strategies)
    if not strategies:
        raise ConfigError("no strategies to replay")
    params = params or RegistrationParams()
    image_width = params.image_width
    if path is not None and path.image_width != image_width:
        raise DatasetError(f"the path was taught at image_width "
                           f"{path.image_width}; this run uses {image_width}")
    frames = iter(frames)
    teach_batch, repeats = [], []
    for tr, frame in frames:
        if tr != 0:
            repeats = [(tr, frame)]
            break
        _check_in_image(tr, frame, image_width)
        if path is None:  # a supplied path makes the teach frames redundant
            teach_batch.append(frame)
    if path is None:
        path = teach_from_frames(sorted(teach_batch, key=lambda f: f.location),
                                 feature_cap=feature_cap, image_width=image_width)
    paths = _strategy_paths(strategies, path)
    n_maps, width = len(path.local_maps), path.descriptor_width
    logs = [[] for _ in strategies]

    def register(tr, run):
        _replay_frame([(i, frame) for frame in run
                       for i in range(len(strategies))], tr, strategies,
                      paths, logs, params)

    # a traversal registers once all its frames are checked: when a frame
    # of another traversal arrives, before that frame is checked
    last_tr, run, replayed = 0, [], {}  # location -> its last traversal
    for tr, frame in itertools.chain(repeats, frames):
        if tr != last_tr and run:
            register(last_tr, run)
            run = []
        if tr < last_tr:
            raise DatasetError(f"traversal {tr} follows traversal "
                               f"{last_tr}: frames out of traversal order")
        if not 0 <= frame.location < n_maps:
            raise DatasetError(f"traversal {tr}: location {frame.location}"
                               f" is outside the taught path of {n_maps} "
                               "locations")
        if replayed.get(frame.location) == tr:
            raise DatasetError(f"traversal {tr}: location {frame.location} "
                               "appears twice")
        replayed[frame.location] = tr
        _check_in_image(tr, frame, image_width)
        if len(frame.features) and frame.features.width != width:
            raise DatasetError(f"traversal {tr}, location {frame.location}: "
                               f"descriptor width {frame.features.width} "
                               f"differs from the path's {width}")
        last_tr = tr
        run.append(frame)
    if run:
        register(last_tr, run)
    return paths, logs
