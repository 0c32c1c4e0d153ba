"""End-to-end behavior gate.

Each test prints one PASS/FAIL line with its measured margins, so a -v run
doubles as a readable acceptance report. The worlds used here are frozen:
changing a seed or a knob invalidates the recorded margins, so treat any
edit as a re-tuning exercise, not a cleanup.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.stats
from numpy.random import default_rng

from longnav.evaluation import (ErrorSequence, compare_strategies, error_cdf,
                                paired_t_test)
from longnav.features import LocalMap
from longnav.fremen import FremenModel, predict_many
from longnav.registration import (MatchOutcome, Pairs, RegistrationResult,
                                  register)
from longnav.simulator import (World, WorldConfig, run_closed_loop, teach,
                               uniform_offset_schedule)
from longnav.strategies import (DEFAULT_PERIODS, STRATEGY_KINDS,
                                StrategyConfig, init_strategy_state,
                                select_active_indices, update_map)

from blocks import Descriptor, block_from_descriptors

SPAN_S = 90 * 86400.0
TRAVERSALS = 178
PENALTY = 320.0

# the slow end-to-end checks; `pytest -m "not acceptance"` runs the rest
pytestmark = pytest.mark.acceptance


def _report(capsys, name, ok, detail=""):
    tail = f"  {detail}" if detail else ""
    with capsys.disabled():
        print(f"\n[{name}] {'PASS' if ok else 'FAIL'}{tail}")


def test_c1_strategy_ordering(capsys):
    # Scarce bimodal world: a never-updated map starves at night, so the
    # adaptive strategies separate cleanly on mean error.
    world = WorldConfig(seed=0, landmarks_per_location=120,
                        visibility_mean=(0.45, 0.55),
                        visibility_amp=(0.40, 0.50),
                        visibility_phases=(0.0, math.pi))
    cfgs = [StrategyConfig(kind=k) for k in ("static", "score", "fremen")]
    t0 = time.perf_counter()
    rep = compare_strategies(world, cfgs, (TRAVERSALS, SPAN_S / TRAVERSALS),
                             mode="open", run_seed=0,
                             offset_fn=uniform_offset_schedule(0.25, seed=0))
    wall = time.perf_counter() - t0
    m = rep.mean_errors
    ordered = m["fremen"] < m["score"] < m["static"]
    pvals = [rep.ttests[a][b].p_value for a, b in
             (("fremen", "score"), ("score", "static"), ("fremen", "static"))]
    ok = ordered and max(pvals) < 0.01 and wall < 120.0
    _report(capsys, "C1 strategy ordering", ok,
            f"fremen={m['fremen']:.3f} < score={m['score']:.3f} "
            f"< static={m['static']:.3f}, max p={max(pvals):.2e}, {wall:.0f}s")
    assert ordered, m
    assert max(pvals) < 0.01, pvals
    assert wall < 120.0


def test_c2_latest_map_drift(capsys):
    # Rebuilding the map from each registered view random-walks its position;
    # odometry wander keeps the walk off the histogram-bin lattice so the
    # late/early error ratio reflects pure accumulation. The three strategies
    # run in lockstep, each logging what it logs alone.
    kinds = ("latest", "static", "score")

    def drift_ratios(seed):
        cfg = WorldConfig(seed=seed, n_locations=8, landmarks_per_location=250,
                          position_jitter=2.0, visibility_mean=(0.85, 0.95),
                          visibility_amp=(0.0, 0.05), clutter_count=20,
                          alias_prob=0.02, bit_flip_prob=0.01,
                          turnover_prob=0.0, odometry_noise=0.02)
        _, logs = run_closed_loop(World(cfg),
                                  [StrategyConfig(kind=k) for k in kinds],
                                  TRAVERSALS, SPAN_S / TRAVERSALS,
                                  run_seed=seed)

        def window(log, lo, hi):
            vals = [abs(r.delta_px - r.gamma_px) if r.delta_px is not None
                    else PENALTY for r in log if lo <= r.traversal <= hi]
            return float(np.mean(vals))

        return [window(log, 150, 178) / window(log, 1, 29) for log in logs]

    per_seed = [drift_ratios(s) for s in range(5)]
    ratios = {k: [r[i] for r in per_seed] for i, k in enumerate(kinds)}
    ok = (min(ratios["latest"]) >= 2.0
          and max(ratios["static"]) < 1.5
          and max(ratios["score"]) < 1.5)
    _report(capsys, "C2 latest-map drift", ok,
            f"latest min={min(ratios['latest']):.2f} (need >=2), "
            f"static max={max(ratios['static']):.2f}, "
            f"score max={max(ratios['score']):.2f} (need <1.5), 5 seeds")
    assert min(ratios["latest"]) >= 2.0, ratios["latest"]
    assert max(ratios["static"]) < 1.5, ratios["static"]
    assert max(ratios["score"]) < 1.5, ratios["score"]


def test_c3_day_night_robustness(capsys):
    # Deep diurnal visibility (amplitude 0.5): day-taught features mostly
    # vanish at night, so a frozen map loses its matches while the temporal
    # strategy rotates night features in.
    world = World(WorldConfig(seed=0, n_locations=8,
                              landmarks_per_location=150,
                              visibility_mean=(0.50, 0.60),
                              visibility_amp=(0.5, 0.5),
                              visibility_phases=(0.0, math.pi),
                              clutter_count=30))
    interval = 39600.0  # 11 h steps sweep the full clock across traversals

    def night_day_ratio(kind):
        _, (logs,) = run_closed_loop(World(world.config),
                                     [StrategyConfig(kind=kind)], TRAVERSALS,
                                     interval, run_seed=0)
        day, night = [], []
        for r in logs:
            if r.traversal <= TRAVERSALS - 30:
                continue
            phase = math.cos(2 * math.pi * r.time_s / 86400.0)
            if phase >= 0.85:
                day.append(r.n_correct)
            elif phase <= -0.85:
                night.append(r.n_correct)
        return float(np.mean(night)) / float(np.mean(day))

    r_static = night_day_ratio("static")
    r_fremen = night_day_ratio("fremen")
    ok = r_static < 0.25 and r_fremen > 0.60
    _report(capsys, "C3 day/night robustness", ok,
            f"static night/day={r_static:.3f} (need <0.25), "
            f"fremen={r_fremen:.3f} (need >0.60)")
    assert r_static < 0.25, r_static
    assert r_fremen > 0.60, r_fremen


def test_c4_registration_accuracy(capsys):
    def recovery_rate(n_frames, bit_flip, jitter, clutter):
        cfg = WorldConfig(n_locations=8, landmarks_per_location=700, seed=0,
                          bit_flip_prob=bit_flip, position_jitter=jitter,
                          clutter_count=clutter, turnover_prob=0.0)
        w = World(cfg)
        path = teach(w)
        rng = default_rng(1234)
        ok = 0
        per_loc = n_frames // cfg.n_locations
        for loc in range(cfg.n_locations):
            lm = path.local_maps[loc]
            for k in range(per_loc):
                offset = float(rng.uniform(-0.5, 0.5))  # +-100 px at 200 px/m
                frame = w.observe(loc, 0.0, offset, default_rng((7, loc, k)))
                res = register(lm.features, frame.features)
                if res.delta is not None and abs(res.delta - frame.gamma) <= 10.0:
                    ok += 1
        return ok / (per_loc * cfg.n_locations)

    noisy = recovery_rate(10_000, 0.02, 1.0, 30)
    clean = recovery_rate(2_000, 0.0, 0.0, 0)
    ok = noisy >= 0.99 and clean == 1.0
    _report(capsys, "C4 registration accuracy", ok,
            f"noisy rate={noisy:.4f} over 10k frames (need >=0.99), "
            f"clean rate={clean:.4f} (need 1.0)")
    assert noisy >= 0.99, noisy
    assert clean == 1.0, clean


def test_c5_closed_loop_convergence(capsys):
    # Noise-free world: per-location offset must contract geometrically with
    # factor (1 - gain) and match the analytic recurrence to float precision.
    cfg = WorldConfig(n_locations=8, landmarks_per_location=120, seed=5,
                      visibility_mean=(1.0, 1.0), visibility_amp=(0.0, 0.0),
                      bit_flip_prob=0.0, position_jitter=0.0, clutter_count=0,
                      alias_prob=0.0, turnover_prob=0.0, odometry_noise=0.0)
    _, (logs,) = run_closed_loop(World(cfg), [StrategyConfig(kind="static")],
                                 1, 3600.0, run_seed=0, initial_offset_m=0.1)
    offsets = [r.offset_m for r in logs]
    analytic = [0.1 * (1.0 - cfg.steering_gain) ** k for k in range(len(offsets))]
    max_dev = max(abs(o - a) for o, a in zip(offsets, analytic))
    hit = next((i for i, o in enumerate(offsets) if abs(o) < 0.005), None)
    ok = hit is not None and hit < 5 and max_dev <= 1e-9
    _report(capsys, "C5 closed-loop convergence", ok,
            f"|offset|<0.005 m at location {hit} (need <5), "
            f"recurrence dev={max_dev:.1e} (need <=1e-9)")
    assert hit is not None and hit < 5, offsets
    assert max_dev <= 1e-9, max_dev


def test_c6_spectral_recovery(capsys):
    day, half = 86400.0, 43200.0
    a1, a2, mu = 0.4, 0.2, 0.3
    times = np.arange(0.0, 14 * day, 3600.0)
    vals = (mu + a1 * np.cos(2 * np.pi * times / day)
            + a2 * np.cos(2 * np.pi * times / half))
    model = FremenModel(DEFAULT_PERIODS, 1)
    for t, v in zip(times, vals):
        model.add_observation(float(v), float(t))

    comps, = model.dominant_components(2)
    periods = [c[0] for c in comps]
    amps = [c[1] for c in comps]
    period_ok = periods == [day, half]
    amp_ok = (abs(amps[0] - a1) <= 0.10 * a1
              and abs(amps[1] - a2) <= 0.10 * a2)

    # independent oracle: least-squares cosine fit on the same two harmonics
    def basis(ts):
        return np.column_stack([np.ones_like(ts),
                                np.cos(2 * np.pi * ts / day),
                                np.sin(2 * np.pi * ts / day),
                                np.cos(2 * np.pi * ts / half),
                                np.sin(2 * np.pi * ts / half)])

    coef, *_ = np.linalg.lstsq(basis(times), vals, rcond=None)
    held_out = default_rng(99).uniform(0.0, 14 * day, 100)
    ref = np.clip(basis(held_out) @ coef, -1.0, 1.0)
    pred = np.array([predict_many(model, float(t), 2)[0] for t in held_out])
    rms = float(np.sqrt(np.mean((pred - ref) ** 2)))

    ok = period_ok and amp_ok and rms <= 0.05
    _report(capsys, "C6 spectral recovery", ok,
            f"periods={[int(p) for p in periods]}, amps=({amps[0]:.3f}, "
            f"{amps[1]:.3f}) vs ({a1}, {a2}), holdout RMS={rms:.4f}")
    assert period_ok, comps
    assert amp_ok, amps
    assert rms <= 0.05, rms


def test_c7_statistics_oracles(capsys):
    def seq(vals):
        arr = np.asarray(vals, dtype=float)
        return ErrorSequence("x", arr, np.zeros(len(arr), bool), [])

    hand = paired_t_test(seq([1.0, 2.0, 3.0]), seq([2.0, 4.0, 6.0]))
    hand_ok = abs(hand.t - (-2.0 * math.sqrt(3.0))) <= 1e-6 and hand.df == 2

    rng = default_rng(77)
    max_t_dev = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 60))
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3.0), n)
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3.0), n)
        ours = paired_t_test(seq(a), seq(b))
        ref = scipy.stats.ttest_rel(a, b)
        max_t_dev = max(max_t_dev, abs(ours.t - float(ref.statistic)))
    ref_ok = max_t_dev <= 1e-6

    vals = default_rng(5).exponential(8.0, 1000)
    thresholds = np.linspace(0.0, 40.0, 21)
    cdf = error_cdf(seq(vals), thresholds)
    oracle = [(float(t), float(np.sum(vals <= t)) / len(vals))
              for t in thresholds]
    cdf_ok = all(got == want for got, want in zip(cdf, oracle))

    ok = hand_ok and ref_ok and cdf_ok
    _report(capsys, "C7 statistics oracles", ok,
            f"hand t={hand.t:.6f} (want {-2 * math.sqrt(3):.6f}), "
            f"max |t - reference|={max_t_dev:.1e}, cdf exact={cdf_ok}")
    assert hand_ok, hand
    assert ref_ok, max_t_dev
    assert cdf_ok


def _random_feature(rng, width=256):
    words = rng.integers(0, 2**64, size=4, dtype=np.uint64)
    return (float(rng.uniform(0.0, 640.0)), float(rng.uniform(0.0, 480.0)),
            Descriptor(words, width))


def _random_block(rng, n):
    rows = [_random_feature(rng) for _ in range(n)]
    return block_from_descriptors([r[0] for r in rows],
                                         [r[1] for r in rows],
                                         [r[2] for r in rows])


def _synth_registration(map_size, view, success, rng):
    # pairs stay below half the view so insertion candidates are always
    # abundant; on failure every outcome degrades to NotMatched, matching
    # what a no-consensus registration reports
    k = int(rng.integers(0, min(map_size, len(view) // 2) + 1))
    map_idx = rng.choice(map_size, size=k, replace=False) if k else []
    view_idx = rng.choice(len(view), size=k, replace=False) if k else []
    drawn = [(int(mi), int(vi), float(rng.uniform(-50, 50)),
              int(rng.integers(0, 65)))
             for mi, vi in zip(map_idx, view_idx)]
    pairs = Pairs(*(np.array([p[c] for p in drawn], dtype=t) for c, t in
                    enumerate((np.int64, np.int64, np.float64, np.int64))))
    outcomes = np.full(map_size, MatchOutcome.NotMatched, dtype=np.int8)
    correct = 0
    if success:
        for mi in pairs.map_idx:
            if rng.random() < 0.7:
                outcomes[mi] = MatchOutcome.MatchedCorrectly
                correct += 1
            else:
                outcomes[mi] = MatchOutcome.MatchedIncorrectly
    delta = float(rng.uniform(-50.0, 50.0)) if success else None
    return RegistrationResult(delta, pairs, outcomes, correct)


def test_c8_map_size_laws(capsys):
    violations = []
    for kind in sorted(STRATEGY_KINDS):
        rng = default_rng(len(kind) * 1000 + 17)
        cfg = StrategyConfig(kind=kind)
        lm = LocalMap(0, 0.0, _random_block(rng, 60).as_map(0))
        init_strategy_state(lm, cfg)
        teach_size = len(lm.features)
        for step in range(1000):
            t = step * 3600.0
            view = _random_block(rng, int(rng.integers(30, 51)))
            success = rng.random() < 0.85
            # outcomes align with the active subset, exactly as a real
            # registration pass would produce them
            active = select_active_indices(lm.features, cfg, t)
            reg = _synth_registration(len(active), view, success, rng)
            before = len(lm.features)
            n_incorrect = int(np.count_nonzero(
                reg.outcomes == MatchOutcome.MatchedIncorrectly))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                update_map(lm, view, reg, cfg, t=t, traversal=step + 1,
                           active_indices=active)
            after = len(lm.features)
            if not success:
                want = before
            elif kind in ("static", "strict", "score", "fremen", "multiple"):
                want = before
            elif kind == "latest":
                want = len(view)
            elif kind == "summary":
                want = before - n_incorrect + math.ceil(0.10 * len(view))
            else:  # aggressive shrinks or holds, never exceeds the teach size
                want = None
            if want is not None and after != want:
                violations.append((kind, step, before, after, want))
            if kind == "aggressive" and after > teach_size:
                violations.append((kind, step, before, after, "<=teach"))
            if kind == "multiple" and len(lm.alternatives) > cfg.multiple_max_alternatives:
                violations.append((kind, step, "alternatives",
                                   len(lm.alternatives)))
    ok = not violations
    _report(capsys, "C8 map-size laws", ok,
            f"8 strategies x 1000 randomized steps, "
            f"{len(violations)} violations")
    assert not violations, violations[:5]
