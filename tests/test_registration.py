"""Matching, histogram voting, and outcome classification with brute-force oracles."""

import numpy as np
import pytest

from longnav.errors import ConfigError, NoConsensusError
from longnav.features import Descriptor, Feature, hamming_distance
from longnav.registration import (MatchOutcome, MatchPair, RegistrationParams,
                                  classify_outcomes, histogram_vote,
                                  match_features, register)


def rand_feature(rng, width=256, x=None):
    v = int.from_bytes(rng.bytes(width // 8), "little")
    return Feature(float(rng.uniform(0, 640)) if x is None else float(x),
                   float(rng.uniform(0, 480)), Descriptor.from_int(v, width))


def flip_bits(desc, bits, rng):
    v = desc.to_int()
    for b in rng.choice(desc.width, size=bits, replace=False):
        v ^= 1 << int(b)
    return Descriptor.from_int(v, desc.width)


def test_match_identity():
    rng = np.random.default_rng(0)
    feats = [rand_feature(rng) for _ in range(10)]
    pairs = match_features(feats, feats, 64)
    assert len(pairs) == 10
    assert all(p.map_index == p.view_index and p.distance == 0 for p in pairs)


def test_match_threshold_excludes_far_descriptors():
    rng = np.random.default_rng(1)
    f = rand_feature(rng)
    far = Feature(f.x, f.y, flip_bits(f.descriptor, 80, rng))
    assert match_features([f], [far], 64) == []


def test_match_planted_pairs_against_brute_force():
    rng = np.random.default_rng(2)
    map_feats = [rand_feature(rng) for _ in range(5)]
    view_feats = [Feature(m.x + 3.0, m.y, flip_bits(m.descriptor, 5, rng))
                  for m in map_feats]
    view_feats += [rand_feature(rng) for _ in range(2)]
    pairs = match_features(map_feats, view_feats, 64)

    # oracle: exhaustive all-pairs distances, mutual argmin, threshold
    dm = np.array([[hamming_distance(m.descriptor, v.descriptor)
                    for v in view_feats] for m in map_feats])
    expect = []
    for i in range(5):
        j = int(dm[i].argmin())
        if int(dm[:, j].argmin()) == i and dm[i, j] <= 64:
            expect.append((i, j, int(dm[i, j])))
    assert [(p.map_index, p.view_index, p.distance) for p in pairs] == expect
    assert len(pairs) == 5


def test_match_empty_and_width_mismatch():
    rng = np.random.default_rng(3)
    f = rand_feature(rng)
    assert match_features([], [f]) == []
    assert match_features([f], []) == []
    with pytest.raises(ValueError):
        match_features([f], [rand_feature(rng, width=128)])


def _pairs(diffs):
    return [MatchPair(i, i, float(d), 0) for i, d in enumerate(diffs)]


def test_histogram_vote_degenerate():
    delta, hist = histogram_vote(_pairs([7.0] * 5), 10.0)
    assert delta == pytest.approx(7.0)
    assert sum(c for _, c in hist) == 5


def test_histogram_vote_hand_example():
    delta, hist = histogram_vote(_pairs([12, 13, 11, 55, 12, -40]), 10.0)
    # winning bin [10, 20): mean of 12, 13, 11, 12
    assert delta == pytest.approx((12 + 13 + 11 + 12) / 4)
    by_center = dict(hist)
    assert by_center[15.0] == 4
    assert by_center[55.0] == 1
    assert by_center[-35.0] == 1


def test_histogram_vote_empty_and_min_votes():
    with pytest.raises(NoConsensusError):
        histogram_vote([], 10.0)
    with pytest.raises(NoConsensusError):
        histogram_vote(_pairs([1.0, 2.0]), 10.0, min_votes=3)


def test_histogram_vote_tie_prefers_small_shift():
    # two bins with two votes each; the one nearer zero must win
    delta, _ = histogram_vote(_pairs([52.0, 55.0, 2.0, 5.0]), 10.0)
    assert delta == pytest.approx(3.5)
    delta, _ = histogram_vote(_pairs([-52.0, -55.0, -2.0, -5.0]), 10.0)
    assert delta == pytest.approx(-3.5)


def test_histogram_vote_matches_hand_binning_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        diffs = rng.uniform(-640, 640, size=rng.integers(1, 40)).tolist()
        bw = float(rng.choice([5.0, 10.0, 20.0]))
        try:
            delta, hist = histogram_vote(_pairs(diffs), bw)
        except NoConsensusError:
            continue
        # oracle: enumerate bins by hand
        bins = {}
        for d in diffs:
            idx = min(int((d + 640) // bw), int(np.ceil(1280 / bw)) - 1)
            bins.setdefault(idx, []).append(d)
        top = max(len(v) for v in bins.values())
        cands = [i for i, v in bins.items() if len(v) == top]
        centers = {i: -640 + (i + 0.5) * bw for i in cands}
        win = min(cands, key=lambda i: (abs(centers[i]), centers[i]))
        assert delta == pytest.approx(np.mean(bins[win]), abs=1e-12)


def test_classify_outcomes_examples():
    pairs = _pairs([10.0, 10.0, 10.0])
    out = classify_outcomes(3, pairs, 10.0, tolerance=10.0)
    assert out == [MatchOutcome.MatchedCorrectly] * 3

    out = classify_outcomes(1, _pairs([35.0]), 10.0, tolerance=10.0)
    assert out == [MatchOutcome.MatchedIncorrectly]

    pairs = [MatchPair(0, 0, 10.0, 0), MatchPair(1, 1, 12.0, 0),
             MatchPair(2, 2, 9.0, 0), MatchPair(4, 4, 60.0, 0)]
    out = classify_outcomes(6, pairs, 10.0, tolerance=10.0)
    # oracle: per-feature loop
    expect = []
    by_map = {p.map_index: p for p in pairs}
    for i in range(6):
        if i not in by_map:
            expect.append(MatchOutcome.NotMatched)
        elif abs(by_map[i].difference - 10.0) <= 10.0:
            expect.append(MatchOutcome.MatchedCorrectly)
        else:
            expect.append(MatchOutcome.MatchedIncorrectly)
    assert out == expect
    assert out.count(MatchOutcome.MatchedCorrectly) == 3
    assert out.count(MatchOutcome.MatchedIncorrectly) == 1
    assert out.count(MatchOutcome.NotMatched) == 2


def test_classify_failed_registration_all_not_matched():
    out = classify_outcomes(4, _pairs([1.0]), None)
    assert out == [MatchOutcome.NotMatched] * 4


def test_outcome_partition_sums_to_map_size():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n_map = int(rng.integers(1, 30))
        pairs = [MatchPair(i, i, float(rng.uniform(-100, 100)), 0)
                 for i in rng.choice(n_map, size=rng.integers(0, n_map + 1),
                                     replace=False)]
        out = classify_outcomes(n_map, pairs, 5.0, tolerance=10.0)
        assert len(out) == n_map


def shifted_view(map_feats, shift, rng, flip=3):
    return [Feature(m.x + shift, m.y, flip_bits(m.descriptor, flip, rng))
            for m in map_feats]


def test_shift_equivariance():
    rng = np.random.default_rng(6)
    map_feats = [rand_feature(rng, x=rng.uniform(100, 500)) for _ in range(40)]
    view = shifted_view(map_feats, 7.0, rng)
    base = register(map_feats, view)
    for s in (-30.0, 13.0, 60.0):
        moved = [Feature(v.x + s, v.y, v.descriptor) for v in view]
        res = register(map_feats, moved)
        assert abs((res.delta - base.delta) - s) <= 10.0
        assert res.outcomes == base.outcomes


def test_injected_shift_recovery():
    rng = np.random.default_rng(7)
    map_feats = [rand_feature(rng, x=rng.uniform(50, 400)) for _ in range(60)]
    for gamma in (-80.0, -5.0, 0.0, 33.0, 120.0):
        view = [Feature(m.x + gamma, m.y, m.descriptor) for m in map_feats]
        res = register(map_feats, view)
        assert res.delta is not None
        assert abs(res.delta - gamma) <= 10.0
        assert res.correct_count == len(map_feats)


def test_register_failure_as_value():
    rng = np.random.default_rng(8)
    map_feats = [rand_feature(rng) for _ in range(5)]
    res = register(map_feats, [], RegistrationParams())
    assert res.failed and res.delta is None
    assert res.outcomes == [MatchOutcome.NotMatched] * 5
    assert res.correct_count == 0

    # two coincident pairs under min_votes=3 must fail, not guess
    view = [Feature(m.x + 4.0, m.y, m.descriptor) for m in map_feats[:2]]
    res = register(map_feats[:2], view, RegistrationParams(min_votes=3))
    assert res.failed
    res = register(map_feats[:2], view, RegistrationParams(min_votes=2))
    assert not res.failed and res.delta == pytest.approx(4.0)


@pytest.mark.parametrize("kwargs", [
    {"d_max": -1}, {"d_max": float("nan")},
    {"bin_width": 0.0}, {"bin_width": -5.0}, {"bin_width": float("inf")},
    {"bin_width": float("nan")},
    {"image_width": 0},
    {"min_votes": 0},
    {"tolerance": -1.0}, {"tolerance": float("nan")},
    {"tolerance": float("inf")},
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_registration_params_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        RegistrationParams(**kwargs)


def test_registration_params_accepts_edges():
    p = RegistrationParams(d_max=0, bin_width=0.5, image_width=1, min_votes=1,
                           tolerance=0.0)
    assert p.effective_tolerance() == 0.0
    assert RegistrationParams().effective_tolerance() == 10.0
