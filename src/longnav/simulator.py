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
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import ConfigError, DatasetError, TeachError
from .features import Descriptor, Feature, LocalMap, PathMap, pack_features
from .kernels import self_nearest_distances
from .registration import MatchOutcome, RegistrationParams, register
from .strategies import (StrategyConfig, init_strategy_state,
                         select_active_indices, select_best_alternative,
                         update_map)

_SALT_WORLD = 0x1A11D
_SALT_TEACH = 0x7EAC4
_SALT_TURNOVER = 0x70C4E
_SALT_OFFSET = 0x0FF5E


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
        for name in ("bit_flip_prob", "turnover_prob", "alias_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        for name in ("n_locations", "landmarks_per_location", "image_width",
                     "image_height"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.descriptor_width <= 0 or self.descriptor_width % 4:
            raise ConfigError("descriptor_width must be a positive multiple of 4")
        if self.day_period <= 0 or self.px_per_m <= 0 or self.spacing_m <= 0:
            raise ConfigError("day_period, px_per_m, spacing_m must be positive")
        if not 0.0 < self.steering_gain <= 1.0:
            raise ConfigError("steering_gain must be in (0, 1]")
        if self.position_jitter < 0 or self.odometry_noise < 0 or self.clutter_count < 0:
            raise ConfigError("noise magnitudes must be >= 0")
        if int(self.seed) < 0:
            raise ConfigError("seed must be a non-negative integer")


@dataclass
class Frame:
    """One simulated camera view at a location."""

    location: int
    time: float
    features: list
    gamma: float  # ground-truth shift in pixels


@dataclass
class LocationRecord:
    location: int
    delta: float | None
    gamma: float
    n_correct: int
    n_incorrect: int
    n_not_matched: int
    map_size: int
    n_alternatives: int = 1
    best_alternative: int = 0
    offset_m: float | None = None


@dataclass
class TraversalLog:
    traversal: int
    strategy: str
    time: float
    records: list


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

    def _draw_visibility(self, rng, n: int):
        cfg = self.config
        mu = rng.uniform(cfg.visibility_mean[0], cfg.visibility_mean[1], n)
        amp = rng.uniform(cfg.visibility_amp[0], cfg.visibility_amp[1], n)
        if cfg.visibility_phases is None:
            phase = rng.uniform(0.0, 2.0 * np.pi, n)
        else:
            phase = rng.choice(np.asarray(cfg.visibility_phases, dtype=np.float64), size=n)
        return mu, amp, phase

    def _make_pool(self, rng) -> _Pool:
        cfg = self.config
        n = cfg.landmarks_per_location
        x = rng.uniform(0.0, cfg.image_width, n)
        y = rng.uniform(0.0, cfg.image_height, n)
        mu, amp, phase = self._draw_visibility(rng, n)
        desc = _random_words(rng, n, cfg.descriptor_width)
        if cfg.alias_prob > 0:
            # plant near-duplicate descriptors so aliased (wrong-place) matches
            # are possible, as they are with real imagery
            twins = np.flatnonzero(rng.random(n) < cfg.alias_prob)
            if twins.size:
                base = rng.integers(0, n, size=twins.size)
                flips = _bernoulli_words(rng, twins.size, cfg.descriptor_width,
                                         cfg.alias_flip_bits / cfg.descriptor_width)
                desc[twins] = desc[base] ^ flips
        return _Pool(x, y, mu, amp, phase, desc)

    def advance_turnover(self, traversal: int) -> None:
        """Replace each landmark with probability turnover_prob; seeded by
        (world seed, traversal) so all runs sharing the seed agree."""
        cfg = self.config
        if cfg.turnover_prob <= 0:
            return
        rng = default_rng((cfg.seed, _SALT_TURNOVER, traversal))
        for pool in self.pools:
            n = pool.x.shape[0]
            mask = rng.random(n) < cfg.turnover_prob
            k = int(mask.sum())
            if k == 0:
                continue
            pool.x[mask] = rng.uniform(0.0, cfg.image_width, k)
            pool.y[mask] = rng.uniform(0.0, cfg.image_height, k)
            mu, amp, phase = self._draw_visibility(rng, k)
            pool.mu[mask] = mu
            pool.amp[mask] = amp
            pool.phase[mask] = phase
            pool.desc[mask] = _random_words(rng, k, cfg.descriptor_width)

    def observe(self, location: int, t: float, offset_m: float, rng) -> Frame:
        """Draw one frame. Draw order (fixed for reproducibility): visibility
        mask, position jitter, descriptor bit flips for in-image landmarks,
        then clutter positions and descriptors."""
        cfg = self.config
        if not 0 <= location < cfg.n_locations:
            raise ValueError(f"location {location} outside [0, {cfg.n_locations})")
        pool = self.pools[location]
        gamma = cfg.px_per_m * offset_m
        p = pool.visibility_at(t, cfg.day_period)
        idx = np.flatnonzero(rng.random(pool.x.shape[0]) < p)
        xs = pool.x[idx] + gamma
        if cfg.position_jitter > 0 and idx.size:
            xs = xs + rng.normal(0.0, cfg.position_jitter, idx.size)
        keep = (xs >= 0.0) & (xs < cfg.image_width)
        xs = xs[keep]
        ys = pool.y[idx[keep]]
        words = pool.desc[idx[keep]]
        if cfg.bit_flip_prob > 0 and xs.size:
            words = words ^ _bernoulli_words(rng, xs.size, cfg.descriptor_width,
                                             cfg.bit_flip_prob)
        width = cfg.descriptor_width
        features = [Feature(float(x), float(y), Descriptor._wrap(w, width))
                    for x, y, w in zip(xs, ys, words)]
        if cfg.clutter_count > 0:
            cx = rng.uniform(0.0, cfg.image_width, cfg.clutter_count)
            cy = rng.uniform(0.0, cfg.image_height, cfg.clutter_count)
            cw = _random_words(rng, cfg.clutter_count, width)
            features.extend(Feature(float(x), float(y), Descriptor._wrap(w, width))
                            for x, y, w in zip(cx, cy, cw))
        return Frame(location, t, features, gamma)


def generate_world(config: WorldConfig) -> World:
    return World(config)


def teach_frames(world: World, t: float = 0.0) -> list:
    """Raw teaching observations, one frame per location, offset 0."""
    cfg = world.config
    return [world.observe(loc, t, 0.0, default_rng((cfg.seed, _SALT_TEACH, loc)))
            for loc in range(cfg.n_locations)]


def teach_from_frames(frames, feature_cap: int = 500, spacing_m: float = 1.0,
                      image_width: int = 640, descriptor_width: int = 256,
                      taught_at: float = 0.0) -> PathMap:
    """Build the taught path from one frame per location (location order).

    When a frame holds more than feature_cap features, the most unique ones
    (largest Hamming distance to their nearest in-frame neighbour) are kept.
    """
    local_maps = []
    for i, frame in enumerate(frames):
        feats = frame.features
        if not feats:
            raise TeachError(f"teaching frame for location {frame.location} "
                             "yielded no features")
        keep = range(len(feats))
        if len(feats) > feature_cap:
            uniq = self_nearest_distances(pack_features(feats))
            order = sorted(keep, key=lambda j: (-uniq[j], j))
            keep = sorted(order[:feature_cap])
        taught = [Feature(feats[j].x, feats[j].y, feats[j].descriptor,
                          inserted_at=0) for j in keep]
        local_maps.append(LocalMap(i, i * spacing_m, taught))
    return PathMap(local_maps, image_width=image_width,
                   descriptor_width=descriptor_width, taught_at=taught_at)


def teach(world: World, t: float = 0.0, feature_cap: int = 500) -> PathMap:
    """Teach pass: one local map per location at spacing_m intervals."""
    cfg = world.config
    return teach_from_frames(teach_frames(world, t), feature_cap=feature_cap,
                             spacing_m=cfg.spacing_m, image_width=cfg.image_width,
                             descriptor_width=cfg.descriptor_width, taught_at=t)


def uniform_offset_schedule(amplitude_m: float, seed: int = 0):
    """Open-loop schedule: offset drawn uniform in +-amplitude_m per frame,
    deterministic in (seed, traversal, location)."""
    def offset_fn(traversal: int, location: int) -> float:
        r = default_rng((seed, _SALT_OFFSET, traversal, location))
        return float(r.uniform(-amplitude_m, amplitude_m))
    return offset_fn


def process_frame(local_map: LocalMap, frame: Frame, cfg: StrategyConfig,
                  traversal: int, params: RegistrationParams,
                  offset_m: float | None = None):
    """Register one frame against its local map, update the map, and return
    (LocationRecord, RegistrationResult)."""
    t = frame.time
    if cfg.kind == "multiple":
        best_i, reg = select_best_alternative(local_map, frame.features, cfg, params)
        idx = None
    else:
        best_i = 0
        idx = select_active_indices(local_map, cfg, t)
        active = [local_map.features[i] for i in idx]
        reg = register(active, frame.features, params)
    update_map(local_map, frame.features, reg, cfg, t, traversal,
               active_indices=idx)
    n_inc = sum(1 for o in reg.outcomes if o is MatchOutcome.MatchedIncorrectly)
    rec = LocationRecord(
        location=frame.location, delta=reg.delta, gamma=frame.gamma,
        n_correct=reg.correct_count, n_incorrect=n_inc,
        n_not_matched=len(reg.outcomes) - reg.correct_count - n_inc,
        map_size=len(local_map.features),
        n_alternatives=1 + len(local_map.alternatives),
        best_alternative=best_i, offset_m=offset_m)
    return rec, reg


def _strategy_paths(strategies, teach_batch, path: PathMap | None = None,
                    feature_cap: int = 500, spacing_m: float = 1.0,
                    image_width: int = 640) -> list:
    """One PathMap per strategy, its strategy state attached: a deep copy of
    `path` when one is supplied, else taught from the teach frames."""
    if path is not None:
        paths = [copy.deepcopy(path) for _ in strategies]
    else:
        if not teach_batch:
            raise TeachError("no traversal-0 frames and no path supplied")
        if any(not f.features for f in teach_batch):
            raise TeachError("a teaching frame has no features")
        frames = sorted(teach_batch, key=lambda f: f.location)
        width = frames[0].features[0].descriptor.width
        paths = [teach_from_frames(frames, feature_cap=feature_cap,
                                   spacing_m=spacing_m, image_width=image_width,
                                   descriptor_width=width,
                                   taught_at=frames[0].time)
                 for _ in strategies]
    for p, cfg in zip(paths, strategies):
        init_strategy_state(p, cfg)
    return paths


def traverse(world: World, paths, strategies, traversal: int, t: float,
             offsets: list, run_seed: int,
             params: RegistrationParams) -> list:
    """One closed-loop pass over all locations at time t; returns one
    TraversalLog per strategy.

    Turnover advances once. At each location every strategy in turn draws its
    own frame at its own offset from default_rng((run_seed, traversal,
    location)) and registers it against its own path. The offset, updated in
    place in `offsets`, then evolves as offset - gain*(delta/px_per_m) plus
    odometry noise from the same rng; a failed registration leaves it
    uncorrected.
    """
    wc = world.config
    world.advance_turnover(traversal)
    logs = [TraversalLog(traversal, cfg.kind, t, []) for cfg in strategies]
    for loc in range(wc.n_locations):
        for i, (cfg, path, log) in enumerate(zip(strategies, paths, logs)):
            rng = default_rng((run_seed, traversal, loc))
            frame = world.observe(loc, t, offsets[i], rng)
            rec, reg = process_frame(path.local_maps[loc], frame, cfg,
                                     traversal, params, offset_m=offsets[i])
            log.records.append(rec)
            if reg.delta is not None:
                offsets[i] -= wc.steering_gain * (reg.delta / wc.px_per_m)
            if wc.odometry_noise > 0:
                offsets[i] += float(rng.normal(0.0, wc.odometry_noise))
    return logs


def run_closed_loop(world: World, strategies, traversals: int,
                    interval_s: float, feature_cap: int = 500,
                    run_seed: int = 0, initial_offset_m: float = 0.0,
                    params: RegistrationParams | None = None):
    """Closed-loop lockstep run of a sequence of StrategyConfigs through one
    world, every strategy steering its own frames.

    The teach pass is drawn once at time 0 and taught per strategy; then
    `traversals` passes follow at fixed intervals. Returns (paths, logs) with
    one PathMap and one list of TraversalLog per strategy, like replay_frames.
    """
    strategies = list(strategies)
    if not strategies:
        raise ConfigError("no strategies to run")
    wc = world.config
    paths = _strategy_paths(strategies, teach_frames(world),
                            feature_cap=feature_cap, spacing_m=wc.spacing_m,
                            image_width=wc.image_width)
    params = params or RegistrationParams(image_width=wc.image_width)
    offsets = [initial_offset_m] * len(strategies)
    by_traversal = [traverse(world, paths, strategies, tr, tr * interval_s,
                             offsets, run_seed, params)
                    for tr in range(1, traversals + 1)]
    return paths, [[logs[i] for logs in by_traversal]
                   for i in range(len(strategies))]


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


def replay_frames(frames, strategies, path: PathMap | None = None,
                  feature_cap: int = 500, image_width: int = 640,
                  params: RegistrationParams | None = None):
    """Open-loop lockstep replay of one (traversal, Frame) stream through a
    sequence of StrategyConfigs, reading the stream once.

    Every repeat frame is processed by each strategy in turn, against that
    strategy's own PathMap: a deep copy of `path` when one is supplied, else
    one taught from the traversal-0 frames. Returns (paths, logs) with one
    PathMap and one list of TraversalLog per strategy. Frames must arrive in
    non-decreasing traversal order and repeat frames must name a taught
    location; DatasetError otherwise.
    """
    strategies = list(strategies)
    if not strategies:
        raise ConfigError("no strategies to replay")
    params = params or RegistrationParams(
        image_width=path.image_width if path is not None else image_width)
    teach_batch = []
    paths = None
    logs = [[] for _ in strategies]
    last_tr = 0
    for tr, frame in frames:
        if tr < last_tr:
            raise DatasetError(f"traversal {tr} follows traversal {last_tr}: "
                               "frames out of traversal order")
        if tr == 0:
            if path is None:  # a supplied path makes the teach frames redundant
                teach_batch.append(frame)
            continue
        if paths is None:
            paths = _strategy_paths(strategies, teach_batch, path, feature_cap,
                                    image_width=image_width)
        n_maps = len(paths[0].local_maps)
        if not 0 <= frame.location < n_maps:
            raise DatasetError(f"traversal {tr}: location {frame.location} is "
                               f"outside the taught path of {n_maps} locations")
        if tr != last_tr:
            for cfg, strategy_logs in zip(strategies, logs):
                strategy_logs.append(TraversalLog(tr, cfg.kind, frame.time, []))
        last_tr = tr
        for cfg, p, strategy_logs in zip(strategies, paths, logs):
            rec, _ = process_frame(p.local_maps[frame.location], frame, cfg,
                                   tr, params)
            strategy_logs[-1].records.append(rec)
    if paths is None:
        paths = _strategy_paths(strategies, teach_batch, path, feature_cap,
                                image_width=image_width)
    return paths, logs
