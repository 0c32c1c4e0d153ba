"""Error statistics, t-test oracles, and cross-strategy comparison plumbing."""

import json
import math
import sys

import numpy as np
import pytest
import scipy.special
import scipy.stats

from longnav.errors import ConfigError, LongNavError
from longnav.evaluation import (ComparisonReport, ErrorSequence, _betainc,
                                build_report, compare_strategies, error_cdf,
                                paired_t_test, registration_errors,
                                unique_labels, write_report)
from longnav.registration import RegistrationParams
from longnav.simulator import (LocationRecord, WorldConfig, World,
                               generate_frames, run_closed_loop,
                               uniform_offset_schedule)
from longnav.strategies import STRATEGY_KINDS, StrategyConfig


def rec(loc, delta, gamma, traversal=1):
    return LocationRecord(traversal=traversal, strategy="s", time_s=0.0,
                          location=loc, delta_px=delta, gamma_px=gamma,
                          n_correct=0, n_incorrect=0, n_not_matched=0,
                          map_size=1)


def seq(values, name="x", keys=None, failed=None):
    values = np.asarray(values, dtype=float)
    if failed is None:
        failed = np.zeros(len(values), dtype=bool)
    if keys is None:
        keys = [(1, i) for i in range(len(values))]
    return ErrorSequence(name, values, failed, keys)


def test_registration_errors_arithmetic():
    es = registration_errors([rec(0, 5.0, 0.0), rec(1, -3.0, 0.0),
                              rec(0, 2.0, 2.0, traversal=2)], 320.0)
    assert es.strategy == "s"
    np.testing.assert_allclose(es.values, [5.0, 3.0, 0.0])
    assert not es.failed.any()
    assert es.keys == [(1, 0), (1, 1), (2, 0)]


def test_registration_errors_penalty_and_recount():
    rng = np.random.default_rng(0)
    records = []
    n_fail = 0
    for loc in range(50):
        if rng.random() < 0.3:
            records.append(rec(loc, None, 1.0))
            n_fail += 1
        else:
            records.append(rec(loc, float(rng.normal()), 1.0))
    es = registration_errors(records, failure_penalty=320.0)
    assert int(es.failed.sum()) == n_fail
    assert (es.values[es.failed] == 320.0).all()
    assert (es.values >= 0).all()

    es2 = registration_errors(records, failure_penalty=99.0, strategy="other")
    assert es2.strategy == "other"
    assert (es2.values[es2.failed] == 99.0).all()


def test_error_cdf_examples():
    es = seq([0, 1, 2, 3])
    assert error_cdf(es, [1.5]) == [(1.5, 0.5)]
    assert error_cdf(es, [3.0]) == [(3.0, 1.0)]
    assert error_cdf(es, [0.0]) == [(0.0, 0.25)]  # threshold is inclusive


def test_error_cdf_matches_sort_oracle():
    rng = np.random.default_rng(1)
    es = seq(rng.exponential(30.0, size=1000))
    thresholds = sorted(rng.uniform(0, 150, size=20))
    got = error_cdf(es, thresholds)
    probs = [p for _, p in got]
    for (thr, p) in got:
        assert p == sum(v <= thr for v in es.values) / 1000  # exact, no approx
    assert all(b >= a for a, b in zip(probs, probs[1:]))
    assert error_cdf(es, [float(es.values.max())])[0][1] == 1.0


def test_error_cdf_empty_raises():
    with pytest.raises(ValueError):
        error_cdf(seq([]), [1.0])


def test_t_test_identical_sequences():
    r = paired_t_test(seq([1, 2, 3]), seq([1, 2, 3]))
    assert (r.t, r.p_value, r.significant) == (0.0, 1.0, False)
    assert r.df == 2


def test_t_test_hand_example():
    r = paired_t_test(seq([1, 2, 3]), seq([2, 4, 6]))
    assert r.t == pytest.approx(-2.0 * math.sqrt(3.0), abs=1e-6)
    assert r.df == 2
    ref = scipy.stats.ttest_rel([1, 2, 3], [2, 4, 6])
    assert r.p_value == pytest.approx(float(ref.pvalue), abs=1e-9)


def test_t_test_zero_variance_nonzero_mean():
    r = paired_t_test(seq([2, 3, 4]), seq([1, 2, 3]))
    assert r.t == math.inf and r.p_value == 0.0 and r.significant
    r = paired_t_test(seq([0, 1, 2]), seq([1, 2, 3]))
    assert r.t == -math.inf and r.p_value == 0.0


def test_t_test_agrees_with_reference_on_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        a = rng.normal(10, 4, size=n)
        b = a + rng.normal(0, 2, size=n)
        keys = [(1, i) for i in range(n)]
        r = paired_t_test(seq(a, keys=keys), seq(b, keys=keys))
        ref = scipy.stats.ttest_rel(a, b)
        assert r.t == pytest.approx(float(ref.statistic), abs=1e-6)
        assert r.p_value == pytest.approx(float(ref.pvalue), abs=1e-6)
        assert r.df == n - 1


# t from 0 past every underflow, densest where p is a normal float; above
# 1.3e154, t * t overflows and x = 0
T_GRID = [0.0, *np.geomspace(1e-4, 1e4, 100, endpoint=False).tolist(),
          *np.geomspace(1e4, 1e160, 30).tolist()]


def test_p_value_matches_scipy_betainc_on_a_grid():
    # p = I_x(df/2, 1/2) at x = df / (df + t^2), as scipy.stats.ttest_rel
    # computes it; 1e-11 relative holds while p is a normal float
    worst = 0.0
    for df in [*range(1, 201), *range(203, 2050, 8)]:
        for t in T_GRID:
            x = df / (df + t * t)
            ref = float(scipy.special.betainc(df / 2.0, 0.5, x))
            got = _betainc(df / 2.0, 0.5, x)
            if ref < sys.float_info.min:
                assert got < 1e-300, (df, t, got, ref)
            else:
                worst = max(worst, abs(got - ref) / ref)
    assert worst <= 1e-11, worst


def test_t_test_p_value_matches_ttest_rel():
    rng = np.random.default_rng(12)
    for n in (2, 3, 5, 40, 300, 2000):
        for shift in (0.0, 0.05, 0.3, 2.0):
            a = rng.normal(10, 4, size=n)
            b = a + shift + rng.normal(0, 1, size=n)
            r = paired_t_test(seq(a), seq(b))
            ref = scipy.stats.ttest_rel(a, b)
            assert r.p_value == pytest.approx(float(ref.pvalue), rel=1e-11)


def test_betainc_edges():
    assert _betainc(1.5, 0.5, 0.0) == 0.0
    assert _betainc(1.5, 0.5, 1.0) == 1.0
    # symmetric: I_{1/2}(a, a) = 1/2, on both sides of the switch point
    for a in (0.5, 3.0, 400.0):
        assert _betainc(a, a, 0.5) == pytest.approx(0.5, rel=1e-14)
    # I_x(1, 1) = x and I_x(1/2, 1/2) = 2 atan(sqrt(x / (1 - x))) / pi
    for x in (1e-300, 1e-9, 0.3, 0.9, 1 - 1e-12):
        assert _betainc(1.0, 1.0, x) == pytest.approx(x, rel=1e-14)
        assert _betainc(0.5, 0.5, x) == pytest.approx(
            2 * math.atan(math.sqrt(x / (1 - x))) / math.pi, rel=1e-14)


def test_t_test_zero_t_gives_p_one():
    # the differences cancel exactly: t = 0, x = 1
    r = paired_t_test(seq([1, 2, 3, 4]), seq([2, 1, 4, 3]))
    assert r.t == 0.0 and r.p_value == 1.0 and not r.significant


def test_t_test_antisymmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        a, b = rng.normal(size=n), rng.normal(size=n)
        keys = [(1, i) for i in range(n)]
        r1 = paired_t_test(seq(a, keys=keys), seq(b, keys=keys))
        r2 = paired_t_test(seq(b, keys=keys), seq(a, keys=keys))
        assert r1.t == -r2.t
        assert r1.p_value == r2.p_value


def test_t_test_p_monotone_in_t():
    ts, ps = [], []
    for shift in (0.5, 1.0, 2.0, 4.0):
        base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        noise = np.array([0.3, -0.2, 0.4, -0.1, 0.2])
        r = paired_t_test(seq(base + shift + noise), seq(base))
        ts.append(abs(r.t))
        ps.append(r.p_value)
    assert ts == sorted(ts)
    assert ps == sorted(ps, reverse=True)


def test_t_test_input_validation():
    with pytest.raises(ValueError):
        paired_t_test(seq([1, 2]), seq([1, 2, 3]))
    with pytest.raises(ValueError):
        paired_t_test(seq([1.0]), seq([2.0]))
    a = seq([1, 2], keys=[(1, 0), (1, 1)])
    b = seq([1, 2], keys=[(2, 0), (2, 1)])
    with pytest.raises(ValueError):
        paired_t_test(a, b)


def test_unique_labels():
    assert unique_labels(["static", "static", "score", "static"]) \
        == ["static", "static.2", "score", "static.3"]


def world_cfg(**kw):
    kw.setdefault("n_locations", 3)
    kw.setdefault("landmarks_per_location", 60)
    kw.setdefault("seed", 7)
    return WorldConfig(**kw)


def test_compare_single_strategy():
    rep = compare_strategies(world_cfg(), [StrategyConfig(kind="static")],
                             schedule=(2, 3600.0))
    assert rep.labels == ["static"]
    assert rep.ttests == {"static": {}}
    assert rep.ranking == ["static"]
    assert rep.n_frames == 6
    assert len(rep.cdf["static"]) == len(rep.thresholds)


def test_compare_static_vs_static_is_deterministic():
    cfgs = [StrategyConfig(kind="static"), StrategyConfig(kind="static")]
    rep = compare_strategies(world_cfg(), cfgs, schedule=(2, 3600.0),
                             offset_fn=uniform_offset_schedule(0.1, seed=1))
    assert rep.labels == ["static", "static.2"]
    np.testing.assert_array_equal(rep.sequences["static"].values,
                                  rep.sequences["static.2"].values)
    r = rep.ttests["static"]["static.2"]
    assert r.t == 0.0 and r.p_value == 1.0
    assert len(set(rep.stream_hashes.values())) == 1
    assert rep.dropped_frames == 0


def test_compare_open_loop_hashes_and_ranking():
    cfgs = [StrategyConfig(kind="score"), StrategyConfig(kind="latest")]
    rep = compare_strategies(world_cfg(), cfgs, schedule=(3, 3600.0),
                             offset_fn=uniform_offset_schedule(0.2, seed=3))
    assert set(rep.ranking) == {"score", "latest"}
    assert rep.mean_errors[rep.ranking[0]] <= rep.mean_errors[rep.ranking[1]]
    hashes = set(rep.stream_hashes.values())
    assert len(hashes) == 1 and None not in hashes


@pytest.mark.parametrize("run", [
    lambda world, params: compare_strategies(world, [StrategyConfig()],
                                             (1, 3600.0), params=params),
    lambda world, params: compare_strategies(world, [StrategyConfig()],
                                             (1, 3600.0), mode="closed",
                                             params=params),
    lambda world, params: run_closed_loop(World(world), [StrategyConfig()], 1,
                                          3600.0, params=params),
], ids=["compare-open", "compare-closed", "run_closed_loop"])
def test_world_runs_reject_params_of_another_image_width(run):
    # an 800-px world once ran at the default params' 640 px
    world = WorldConfig(n_locations=1, landmarks_per_location=20,
                        image_width=800)
    with pytest.raises(ConfigError, match="params.image_width 640 differs "
                                          "from world.image_width 800"):
        run(world, RegistrationParams())


def test_compare_list_source_matches_world_source():
    fn = uniform_offset_schedule(0.1, seed=4)
    cfgs = [StrategyConfig(kind="score")]
    rep_world = compare_strategies(world_cfg(), cfgs, schedule=(2, 3600.0),
                                   offset_fn=fn)
    frames = list(generate_frames(World(world_cfg()), 2, 3600.0, offset_fn=fn))
    rep_list = compare_strategies(frames, cfgs)
    rep_iter = compare_strategies(iter(frames), cfgs)
    for rep in (rep_list, rep_iter):
        np.testing.assert_array_equal(rep_world.sequences["score"].values,
                                      rep.sequences["score"].values)
        assert rep_world.stream_hashes["score"] == rep.stream_hashes["score"]


def test_compare_closed_loop_runs():
    cfgs = [StrategyConfig(kind="static"), StrategyConfig(kind="score")]
    rep = compare_strategies(world_cfg(), cfgs, schedule=(2, 3600.0),
                             mode="closed", initial_offset_m=0.05)
    assert rep.mode == "closed"
    assert rep.n_frames == 6
    assert all(d is None for d in rep.stream_hashes.values())


def test_compare_lockstep_matches_each_strategy_alone():
    # strategies share the stream's Frame objects; any aliasing between them
    # would make a strategy's errors depend on the company it runs in
    cfgs = [StrategyConfig(kind=k) for k in STRATEGY_KINDS]
    kw = dict(schedule=(3, 3600.0),
              offset_fn=uniform_offset_schedule(0.1, seed=5))
    together = compare_strategies(world_cfg(), cfgs, **kw)
    for cfg in cfgs:
        alone = compare_strategies(world_cfg(), [cfg], **kw)
        np.testing.assert_array_equal(together.sequences[cfg.kind].values,
                                      alone.sequences[cfg.kind].values)
        assert together.stream_hashes[cfg.kind] == alone.stream_hashes[cfg.kind]


def test_open_compare_observes_each_frame_once(monkeypatch):
    calls = []
    observe = World.observe

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return observe(self, *args, **kwargs)

    monkeypatch.setattr(World, "observe", counting)
    cfgs = [StrategyConfig(kind=k) for k in ("static", "score", "fremen")]
    compare_strategies(world_cfg(), cfgs, schedule=(2, 3600.0))
    assert len(calls) == world_cfg().n_locations * (2 + 1)


def test_closed_compare_matches_each_strategy_alone():
    # every strategy steers its own frames through one shared world; any
    # coupling between them would make a strategy's errors depend on the
    # company it runs in
    cfgs = [StrategyConfig(kind=k) for k in STRATEGY_KINDS]
    kw = dict(schedule=(3, 3600.0), mode="closed", initial_offset_m=0.05)
    together = compare_strategies(world_cfg(turnover_prob=0.05), cfgs, **kw)
    for cfg in cfgs:
        alone = compare_strategies(world_cfg(turnover_prob=0.05), [cfg], **kw)
        np.testing.assert_array_equal(together.sequences[cfg.kind].values,
                                      alone.sequences[cfg.kind].values)


def test_closed_compare_turns_one_world_over_once(monkeypatch):
    calls = []
    advance = World.advance_turnover

    def counting(self, traversal):
        calls.append(traversal)
        return advance(self, traversal)

    monkeypatch.setattr(World, "advance_turnover", counting)
    cfgs = [StrategyConfig(kind=k) for k in ("static", "score", "fremen")]
    compare_strategies(world_cfg(), cfgs, schedule=(2, 3600.0), mode="closed")
    assert calls == [1, 2]


def test_compare_input_validation():
    with pytest.raises(ConfigError):
        compare_strategies(world_cfg(), [], schedule=(2, 1.0))
    with pytest.raises(ConfigError):
        compare_strategies(world_cfg(), [StrategyConfig()], schedule=(2, 1.0),
                           mode="sideways")
    with pytest.raises(ConfigError):
        compare_strategies(world_cfg(), [StrategyConfig()], schedule=(0, 1.0))
    for schedule in ((2,), (2, 1.0, 3), 5):
        with pytest.raises(ConfigError, match="schedule must be"):
            compare_strategies(world_cfg(), [StrategyConfig()],
                               schedule=schedule)
    for interval_s in (0.0, -1.0, math.nan, math.inf, "3600", True):
        with pytest.raises(ConfigError, match="interval"):
            compare_strategies(world_cfg(), [StrategyConfig()],
                               schedule=(2, interval_s))
    # a fraction, a string or a bool once ran int(traversals) traversals
    for traversals in (2.7, "3", True, 0):
        with pytest.raises(ConfigError, match="traversals"):
            compare_strategies(world_cfg(), [StrategyConfig()],
                               schedule=(traversals, 3600))
    with pytest.raises(ConfigError):
        compare_strategies([(1, None)], [StrategyConfig()], mode="closed")
    with pytest.raises(LongNavError):
        compare_strategies(iter([]), [StrategyConfig()])


def test_build_report_aligns_and_counts_drops():
    a = seq([1, 2, 3], name="a", keys=[(1, 0), (1, 1), (1, 2)])
    b = seq([4, 5], name="b", keys=[(1, 0), (1, 2)])
    rep = build_report([a, b])
    assert rep.n_frames == 2
    assert rep.dropped_frames == 1
    assert rep.sequences["a"].keys == rep.sequences["b"].keys == [(1, 0), (1, 2)]
    np.testing.assert_array_equal(rep.sequences["a"].values, [1, 3])

    with pytest.raises(ConfigError):
        build_report([a, ErrorSequence("a", a.values, a.failed, a.keys)])
    with pytest.raises(ConfigError):
        build_report([])
    c = seq([4, 5], name="c", keys=[(1, 0), (1, 7)])
    with pytest.raises(ConfigError, match="share 1 frame"):
        build_report([a, c])


def test_build_report_tests_each_pair_once_and_mirrors_it(monkeypatch):
    calls = []
    test = paired_t_test

    def counting(a, b, alpha):
        calls.append((a.strategy, b.strategy))
        return test(a, b, alpha)

    monkeypatch.setattr("longnav.evaluation.paired_t_test", counting)
    base = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])  # "b" - "a" sums to 0
    seqs = [seq(base, "a"), seq(base[::-1], "b"), seq(base + 1, "c"),
            seq(np.random.default_rng(4).normal(5, 1, size=6), "d")]
    rep = build_report(seqs)
    assert sorted(calls) == [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                             ("b", "d"), ("c", "d")]
    for la in rep.labels:
        assert list(rep.ttests[la]) == [lb for lb in rep.labels if lb != la]
        for lb, r in rep.ttests[la].items():
            want = test(rep.sequences[la], rep.sequences[lb])
            # a zero t keeps its sign bit clear in both directions
            assert (math.copysign(1.0, r.t), r) == (math.copysign(1.0, want.t),
                                                    want)
    assert rep.ttests["a"]["b"].t == 0.0


def test_write_report_files(tmp_path):
    a = seq([1.0, 2.0, 3.0], name="alpha")
    b = seq([2.0, 2.0, 2.0], name="beta")
    rep = build_report([a, b], thresholds=(0.0, 2.0, 10.0))
    summary_path, cdf_path = write_report(rep, tmp_path / "out")

    data = json.loads(summary_path.read_text())
    assert data["ranking"] == rep.ranking
    assert data["mean_error_px"]["alpha"] == pytest.approx(2.0)
    assert data["n_frames"] == 3

    lines = cdf_path.read_text().strip().splitlines()
    assert lines[0] == "threshold_px,alpha,beta"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


def test_write_report_serializes_infinite_t(tmp_path):
    a = seq([2.0, 3.0, 4.0], name="a")
    b = seq([1.0, 2.0, 3.0], name="b")
    rep = build_report([a, b])
    summary_path, _ = write_report(rep, tmp_path)
    data = json.loads(summary_path.read_text())
    assert data["t_tests"]["a"]["b"]["t"] == "inf"
    assert data["t_tests"]["b"]["a"]["t"] == "-inf"
