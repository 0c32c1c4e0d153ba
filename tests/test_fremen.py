"""Spectral visibility model: accumulator oracles, least-squares cross-check."""

import json
import math

import numpy as np
import pytest

from longnav.features import FeatureBlock, LocalMap, PathMap
from longnav.fremen import FremenModel, predict_many
from longnav.io import read_map_snapshot, write_map_snapshot
from longnav.strategies import DEFAULT_PERIODS

from blocks import stack_models

DAY = 86400.0


def one_row(periods=DEFAULT_PERIODS):
    """A single model: a block of one row."""
    return FremenModel(periods, 1)


def predict(m, t, order=2):
    """A one-row model's prediction at t."""
    return float(predict_many(m, t, order)[0])


def test_single_observation():
    m = one_row()
    m.add_observation(1.0, 0.0)
    assert m.n_obs.tolist() == [1]
    assert m.mu[0] == pytest.approx(1.0)
    # at t=0 every component sees cos=1, sin=0
    assert predict(m, 0.0, order=2) == pytest.approx(1.0)
    assert predict(m, 0.0, order=0) == pytest.approx(1.0)


def test_mean_is_running_average():
    m = one_row()
    m.add_observation(1.0, 0.0)
    m.add_observation(-1.0, 3600.0)
    assert m.mu[0] == pytest.approx(0.0, abs=1e-15)

    rng = np.random.default_rng(0)
    vals = rng.uniform(-1, 1, size=200)
    m2 = one_row()
    for i, v in enumerate(vals):
        m2.add_observation(float(v), i * 3600.0)
    assert m2.mu[0] == pytest.approx(vals.mean(), abs=1e-12)


def test_empty_model_predicts_zero():
    m = one_row()
    assert predict(m, 12345.0) == 0.0
    assert m.dominant_components(2) == [[]]


def test_invalid_periods_orders_and_component_counts():
    with pytest.raises(ValueError, match="periods must be positive"):
        FremenModel((DAY, 0.0), 1)
    with pytest.raises(ValueError, match="periods must be positive"):
        FremenModel((-DAY,), 1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        predict_many(one_row(), 0.0, -1)
    with pytest.raises(ValueError, match="k=14 exceeds 13 candidate periods"):
        one_row().dominant_components(14)


def test_observation_validation():
    m = one_row()
    with pytest.raises(ValueError):
        m.add_observation(1.5, 0.0)
    with pytest.raises(ValueError):
        m.add_observation(-1.1, 0.0)
    with pytest.raises(ValueError):
        m.add_observation(0.5, float("nan"))


def planted_cosine(periods, amps, phases, times, mean=0.0):
    v = np.full(len(times), mean)
    for p, a, ph in zip(periods, amps, phases):
        v = v + a * np.cos(2 * np.pi * np.asarray(times) / p + ph)
    return np.clip(v, -1.0, 1.0)


def feed(values, times, periods=DEFAULT_PERIODS):
    m = one_row(periods)
    for v, t in zip(values, times):
        m.add_observation(float(v), float(t))
    return m


def test_accumulators_match_direct_complex_mean():
    # oracle: gamma_j must equal mean(v * exp(-i w t)) computed by numpy
    times = np.arange(0, 14 * DAY, 3600.0)
    vals = planted_cosine([DAY], [0.5], [0.0], times, mean=0.3)
    m = feed(vals, times)
    for j, p in enumerate(m.periods):
        w = 2 * np.pi / p
        g = np.mean(vals * np.exp(-1j * w * times))
        assert m.re[0, j] == pytest.approx(g.real, abs=1e-12)
        assert m.im[0, j] == pytest.approx(g.imag, abs=1e-12)
    # the day component carries half the cosine amplitude, the rest noise floor
    day = np.argmin(np.abs(np.asarray(m.periods) - DAY))
    assert np.hypot(m.re[0, day], m.im[0, day]) == pytest.approx(0.25, abs=0.02)
    for j in range(len(m.periods)):
        if j != day:
            assert np.hypot(m.re[0, j], m.im[0, j]) <= 0.1


def test_dominant_components_planted_pair():
    times = np.arange(0, 14 * DAY, 3600.0)
    vals = planted_cosine([DAY, DAY / 2], [0.4, 0.2], [0.3, -0.7], times)
    m = feed(vals, times)
    comps, = m.dominant_components(2)
    # one list per row: a block answers for each of its rows
    assert stack_models([one_row(), m]).dominant_components(2) \
        == [[], comps]
    assert comps[0][0] == pytest.approx(DAY)
    assert comps[1][0] == pytest.approx(DAY / 2)
    assert comps[0][1] == pytest.approx(0.4, rel=0.10)
    assert comps[1][1] == pytest.approx(0.2, rel=0.10)


def test_predict_against_least_squares_oracle():
    times = np.arange(0, 14 * DAY, 3600.0)
    vals = planted_cosine([DAY], [0.45], [0.5], times, mean=0.2)
    m = feed(vals, times)

    # oracle: direct lstsq fit of mean + one cosine at the known period
    w = 2 * np.pi / DAY
    A = np.column_stack([np.ones_like(times), np.cos(w * times), np.sin(w * times)])
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)

    rng = np.random.default_rng(1)
    held = rng.uniform(0, 20 * DAY, size=100)
    ref = coef[0] + coef[1] * np.cos(w * held) + coef[2] * np.sin(w * held)
    got = np.array([predict(m, float(t), order=1) for t in held])
    rms = np.sqrt(np.mean((got - np.clip(ref, -1, 1)) ** 2))
    assert rms <= 0.05


def test_order_zero_is_mean():
    rng = np.random.default_rng(2)
    times = np.sort(rng.uniform(0, 30 * DAY, size=50))
    vals = rng.uniform(-1, 1, size=50)
    m = feed(vals, times)
    assert predict(m, 5 * DAY, order=0) == pytest.approx(
        np.clip(vals.mean(), -1, 1), abs=1e-12)


def test_observation_order_invariance():
    rng = np.random.default_rng(3)
    times = rng.uniform(0, 30 * DAY, size=120)
    vals = rng.uniform(-1, 1, size=120)
    m1 = feed(vals, times)
    perm = rng.permutation(120)
    m2 = feed(vals[perm], times[perm])
    assert m1.mu[0] == pytest.approx(m2.mu[0], abs=1e-9)
    np.testing.assert_allclose(m1.re, m2.re, atol=1e-9)
    np.testing.assert_allclose(m1.im, m2.im, atol=1e-9)


def test_predict_bounded():
    rng = np.random.default_rng(4)
    times = rng.uniform(0, 60 * DAY, size=40)
    m = feed(np.where(rng.random(40) < 0.5, -1.0, 1.0), times)
    for t in rng.uniform(-10 * DAY, 90 * DAY, size=200):
        assert -1.0 <= predict(m, float(t), order=5) <= 1.0


def test_training_mse_non_increasing_in_order():
    times = np.arange(0, 14 * DAY, 3600.0)
    vals = planted_cosine([DAY, DAY / 3], [0.4, 0.25], [0.0, 1.1], times)
    m = feed(vals, times)
    errs = []
    for k in range(4):
        pred = np.array([predict(m, float(t), order=k) for t in times])
        errs.append(np.mean((pred - vals) ** 2))
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-9


def scalar_prediction(m, t, order):
    """A one-row model's clamped DC term plus its `order` strongest
    components, summed in plain Python from mu, re, im and the periods."""
    if int(m.n_obs[0]) == 0:
        return 0.0
    re, im = m.re[0].tolist(), m.im[0].tolist()
    amp2 = [r * r + i * i for r, i in zip(re, im)]
    top = sorted(range(len(re)), key=lambda j: -amp2[j])[:order]
    val = float(m.mu[0])
    for j in top:
        wt = 2.0 * math.pi / m.periods[j] * t
        val += 2.0 * (re[j] * math.cos(wt) - im[j] * math.sin(wt))
    return min(1.0, max(-1.0, val))


def test_predict_many_matches_scalar_path():
    rng = np.random.default_rng(5)
    models = []
    for _ in range(8):
        n = int(rng.integers(0, 30))
        models.append(feed(rng.uniform(-1, 1, size=n),
                           rng.uniform(0, 30 * DAY, size=n)))
    for t in (0.0, 3.7 * DAY, 55 * DAY):
        batch = predict_many(stack_models(models), t, order=2)
        single = np.array([scalar_prediction(m, t, 2) for m in models])
        np.testing.assert_allclose(batch, single, atol=1e-12)


def test_take_copies_rows_once():
    # a slice or ... indexes views, so take copies them; a mask or an index
    # array already gives copies
    rng = np.random.default_rng(7)
    m = FremenModel(DEFAULT_PERIODS, 6)
    for _ in range(3):
        m.add_observation(rng.uniform(-1, 1, size=6), rng.uniform(0, DAY))
    names = ("n_obs", "mu", "re", "im")
    mask = np.array([True, False, True, True, False, True])
    for idx, rows in ((slice(1, 4), slice(1, 4)), (..., ...),
                      (mask, mask), ([4, 0, 4], [4, 0, 4])):
        got = m.take(idx)
        for name in names:
            assert np.array_equal(getattr(got, name), getattr(m, name)[rows])
            assert not np.shares_memory(getattr(got, name), getattr(m, name))
    copy = m.copy()
    assert not any(np.shares_memory(getattr(copy, n), getattr(m, n))
                   for n in names)
    copy.add_observation(np.zeros(6), 0.0)  # the source stays as it was
    assert m.n_obs.tolist() == [3] * 6


def test_exchange_keeps_rows_and_adds_unobserved_ones():
    m = feed([0.5, -0.25], [60.0, 3600.0])
    both = stack_models([m, one_row()])
    out = both.exchange(np.array([1, 0]), 2)
    assert out.periods == both.periods and out._omega is both._omega
    assert out.n_obs.tolist() == [0, 2, 0, 0]
    assert out.mu.tolist() == [0.0, m.mu[0], 0.0, 0.0]
    assert np.array_equal(out.re[1], m.re[0]) and not out.re[[0, 2, 3]].any()
    assert np.array_equal(out.im[1], m.im[0]) and not out.im[[0, 2, 3]].any()


def test_serialization_round_trip(tmp_path):
    # a model's stored form is its map snapshot set's temporal columns: its
    # own arrays, re and im row after row
    rng = np.random.default_rng(6)
    m = stack_models([feed(rng.uniform(-1, 1, size=k),
                           rng.uniform(0, 40 * DAY, size=k)) for k in (37, 0, 5)])
    rows = FeatureBlock(np.zeros(3), np.zeros(3), np.zeros((3, 4), np.uint64))
    path = PathMap([LocalMap(0, 0.0, rows.as_map(0, m))])
    write_map_snapshot(path, tmp_path / "map.json")
    stored = json.loads((tmp_path / "map.json").read_text())
    assert stored["local_maps"][0]["features"]["temporal"] == {
        "periods": list(m.periods), "n_obs": [37, 0, 5], "mu": m.mu.tolist(),
        "re": m.re.ravel().tolist(), "im": m.im.ravel().tolist()}
    m2 = read_map_snapshot(tmp_path / "map.json").local_maps[0] \
        .features.temporal
    assert m2.n_obs.tolist() == m.n_obs.tolist()
    assert m2.mu.tolist() == m.mu.tolist()
    assert m2.periods == m.periods
    np.testing.assert_array_equal(m2.re, m.re)
    np.testing.assert_array_equal(m2.im, m.im)
    for t in rng.uniform(0, 60 * DAY, size=20):
        np.testing.assert_array_equal(predict_many(m2, float(t), 2),
                                      predict_many(m, float(t), 2))
