"""Matching, histogram voting, and outcome classification with brute-force oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longnav.errors import ConfigError
from longnav.features import FeatureBlock
from longnav.registration import (MatchOutcome, Pairs, RegistrationParams,
                                  classify_outcomes, histogram_vote,
                                  match_features, register, view_product)

from blocks import ROW, Descriptor, block_from_descriptors, hamming_distance


def rand_feature(rng, width=256, x=None):
    """One (x, y, descriptor) row."""
    v = int.from_bytes(rng.bytes(width // 8), "little")
    return (float(rng.uniform(0, 640)) if x is None else float(x),
            float(rng.uniform(0, 480)), Descriptor.from_int(v, width))


def block(rows):
    """A FeatureBlock from (x, y, descriptor) rows."""
    return block_from_descriptors([r[0] for r in rows],
                                         [r[1] for r in rows],
                                         [r[2] for r in rows])


def flip_bits(desc, bits, rng):
    v = desc.to_int()
    for b in rng.choice(desc.width, size=bits, replace=False):
        v ^= 1 << int(b)
    return Descriptor.from_int(v, desc.width)


def test_match_identity():
    rng = np.random.default_rng(0)
    feats = block([rand_feature(rng) for _ in range(10)])
    share, = view_product([feats], [feats])
    pairs = match_features([feats], [feats], 64, share.product)
    assert len(pairs) == 10 and pairs.cut == [0, 10]
    assert (pairs.map_idx == pairs.view_idx).all() and (pairs.dist == 0).all()


def test_match_threshold_excludes_far_descriptors():
    rng = np.random.default_rng(1)
    f = rand_feature(rng)
    far = (f[0], f[1], flip_bits(f[2], 80, rng))
    m, v = block([f]), block([far])
    share, = view_product([v], [m])
    assert len(match_features([m], [v], 64, share.product)) == 0


def brute_force_pairs(map_feats, view_feats, d_max=64):
    """(map index, view index, distance, x difference) of every accepted
    pair: exhaustive all-pairs distances, mutual argmin, threshold."""
    if not map_feats or not view_feats:
        return []
    dm = np.array([[hamming_distance(m[2], v[2])
                    for v in view_feats] for m in map_feats])
    expect = []
    for i in range(len(map_feats)):
        j = int(dm[i].argmin())
        if int(dm[:, j].argmin()) == i and dm[i, j] <= d_max:
            expect.append((i, j, int(dm[i, j]),
                           view_feats[j][0] - map_feats[i][0]))
    return expect


def test_match_planted_pairs_against_brute_force():
    rng = np.random.default_rng(2)
    map_feats = [rand_feature(rng) for _ in range(5)]
    view_feats = [(x + 3.0, y, flip_bits(d, 5, rng)) for x, y, d in map_feats]
    view_feats += [rand_feature(rng) for _ in range(2)]
    m, v = block(map_feats), block(view_feats)
    share, = view_product([v], [m])
    pairs = match_features([m], [v], 64, share.product)
    assert list(zip(pairs.map_idx.tolist(), pairs.view_idx.tolist(),
                    pairs.dist.tolist(), pairs.diff.tolist())) == (
        brute_force_pairs(map_feats, view_feats))
    assert len(pairs) == 5

    # several sets at once, against two frames of one draw: every set's
    # part of the pairs (set k's cut[k]:cut[k + 1]) is the brute-force
    # oracle's for that set and its own frame's x
    moved_feats = [(x - 20.0, y, d) for x, y, d in view_feats]
    moved = v.with_x(v.x - 20.0)
    for _ in range(10):
        rows = [[map_feats[i] for i in rng.permutation(5)[:rng.integers(1, 6)]]
                + [rand_feature(rng) for _ in range(rng.integers(0, 4))]
                for _ in range(4)]
        rows += [[], [rand_feature(rng) for _ in range(3)]]  # no pairs
        sets = [rows[i] for i in rng.permutation(len(rows))]
        on_moved = rng.random(len(sets)) < 0.5
        views = [moved if o else v for o in on_moved]
        blocks = [block(r) for r in sets]
        product = view_product(views, blocks)[0].product
        pairs = match_features(blocks, views, 64, product)
        cut = pairs.cut
        assert cut[0] == 0 and cut[-1] == len(pairs) and len(cut) == 7
        for k, (r, o) in enumerate(zip(sets, on_moved)):
            part = slice(cut[k], cut[k + 1])
            assert list(zip(pairs.map_idx[part].tolist(),
                            pairs.view_idx[part].tolist(),
                            pairs.dist[part].tolist(),
                            pairs.diff[part].tolist())) == brute_force_pairs(
                r, moved_feats if o else view_feats)


def test_match_empty_and_width_mismatch():
    rng = np.random.default_rng(3)
    f = block([rand_feature(rng)])
    for m, v in ((block([]), f), (f, block([]))):
        share, = view_product([v], [m])
        assert len(match_features([m], [v], 64, share.product)) == 0
    with pytest.raises(ValueError):
        view_product([block([rand_feature(rng, width=128)])], [f])
    with pytest.raises(ValueError, match="descriptor widths differ"):
        view_product([f, f], [f, block([rand_feature(rng, width=128)])])


def _pairs(diffs):
    """One set's pairs, with those differences."""
    idx = np.arange(len(diffs))
    return Pairs(idx, idx, np.asarray(diffs, dtype=np.float64),
                 np.zeros(len(diffs), dtype=np.int64), [0, len(diffs)])


# one vote is consensus here, unlike a run's default of 3
ONE_VOTE = RegistrationParams(min_votes=1)


def test_histogram_vote_degenerate():
    pairs = _pairs([7.0] * 5)
    delta, = histogram_vote(pairs.diff, ONE_VOTE, pairs.cut)
    assert delta == pytest.approx(7.0)


def test_histogram_vote_hand_example():
    pairs = _pairs([12, 13, 11, 55, 12, -40])
    delta, = histogram_vote(pairs.diff, ONE_VOTE, pairs.cut)
    # winning bin [10, 20): mean of 12, 13, 11, 12
    assert delta == pytest.approx((12 + 13 + 11 + 12) / 4)


def test_histogram_vote_empty_and_min_votes():
    got = histogram_vote(np.empty(0), ONE_VOTE, [0, 0])
    assert got.dtype == np.float64 and got.shape == (1,)
    assert math.isnan(got[0])
    pairs = _pairs([1.0, 2.0])
    assert math.isnan(histogram_vote(pairs.diff,
                                     RegistrationParams(min_votes=3),
                                     pairs.cut)[0])
    assert histogram_vote(pairs.diff, RegistrationParams(min_votes=2),
                          pairs.cut)[0] == pytest.approx(1.5)


def test_histogram_vote_tie_prefers_small_shift():
    # two bins with two votes each; the one nearer zero must win
    for diffs, want in (([52.0, 55.0, 2.0, 5.0], 3.5),
                        ([-52.0, -55.0, -2.0, -5.0], -3.5)):
        pairs = _pairs(diffs)
        delta, = histogram_vote(pairs.diff, ONE_VOTE, pairs.cut)
        assert delta == pytest.approx(want)


def test_histogram_vote_symmetric_tie_prefers_lower_center():
    # bins centered at -5 and +5 tie in votes and in distance from zero:
    # the lower center wins
    for diffs in ([-2.0, -4.0, 6.0, 8.0], [8.0, -4.0, 6.0, -2.0]):
        pairs = _pairs(diffs)
        assert histogram_vote(pairs.diff, ONE_VOTE, pairs.cut)[0] == -3.0


def test_histogram_vote_over_sets_votes_each_set_alone():
    rng = np.random.default_rng(11)
    sets = [rng.uniform(-640, 640, size=n) for n in (0, 1, 7, 30, 2)]
    sets[3][:10] = 33.0 + rng.uniform(0, 5, 10)
    cut = np.cumsum([0, *map(len, sets)]).tolist()
    for min_votes in (1, 2, 3):
        p = RegistrationParams(min_votes=min_votes)
        got = histogram_vote(np.concatenate(sets), p, cut)
        want = [histogram_vote(d, p, [0, len(d)])[0] for d in sets]
        assert np.array_equal(got, want, equal_nan=True)


def hand_vote(diffs, bin_width, min_votes):
    """Oracle: the bins enumerated by hand; NaN without pairs or when the
    winning bin holds fewer than min_votes."""
    bins = {}
    for d in diffs:
        idx = min(int((d + 640) // bin_width), int(np.ceil(1280 / bin_width)) - 1)
        bins.setdefault(idx, []).append(d)
    top = max((len(v) for v in bins.values()), default=0)
    if top < min_votes:
        return math.nan
    cands = [i for i, v in bins.items() if len(v) == top]
    centers = {i: -640 + (i + 0.5) * bin_width for i in cands}
    win = min(cands, key=lambda i: (abs(centers[i]), centers[i]))
    return float(np.mean(bins[win]))


def test_histogram_vote_matches_hand_binning_oracle():
    # several sets voted on at once, at random cuts; an empty set and a set
    # whose two votes fall in two bins are among them
    rng = np.random.default_rng(4)
    failed = 0
    for _ in range(50):
        sets = [rng.uniform(-640, 640, size=rng.integers(1, 40)).tolist()
                for _ in range(rng.integers(1, 5))] + [[], [-300.0, 300.0]]
        sets = [sets[i] for i in rng.permutation(len(sets))]
        cut = np.cumsum([0, *map(len, sets)]).tolist()
        bw = float(rng.choice([5.0, 10.0, 20.0]))
        min_votes = int(rng.integers(1, 4))
        got = histogram_vote(np.concatenate(sets), RegistrationParams(
            bin_width=bw, min_votes=min_votes), cut)
        assert got.dtype == np.float64 and got.shape == (len(sets),)
        for delta, diffs in zip(got.tolist(), sets):
            want = hand_vote(diffs, bw, min_votes)
            if math.isnan(want):
                assert math.isnan(delta)
                failed += len(diffs) > 0
            else:
                assert delta == pytest.approx(want, abs=1e-12)
    assert failed  # votes with pairs failed too


def per_feature_outcomes(n_map, map_idx, diffs, delta, bin_width=10.0):
    """Oracle: one set's outcomes by a loop over its map features."""
    by_map = dict(zip(map_idx, diffs))
    expect = []
    for i in range(n_map):
        if i not in by_map or math.isnan(delta):
            expect.append(MatchOutcome.NotMatched)
        elif abs(by_map[i] - delta) <= bin_width:
            expect.append(MatchOutcome.MatchedCorrectly)
        else:
            expect.append(MatchOutcome.MatchedIncorrectly)
    return expect


def test_classify_outcomes_examples():
    pairs = _pairs([10.0, 10.0, 10.0])
    out = classify_outcomes([3], pairs, [10.0], RegistrationParams()).tolist()
    assert out == [MatchOutcome.MatchedCorrectly] * 3

    out = classify_outcomes([1], _pairs([35.0]), [10.0],
                            RegistrationParams()).tolist()
    assert out == [MatchOutcome.MatchedIncorrectly]

    idx = np.array([0, 1, 2, 4])
    pairs = Pairs(idx, idx, np.array([10.0, 12.0, 9.0, 60.0]),
                  np.zeros(4, dtype=np.int64), [0, 4])
    out = classify_outcomes([6], pairs, [10.0], RegistrationParams()).tolist()
    expect = per_feature_outcomes(6, pairs.map_idx.tolist(),
                                  pairs.diff.tolist(), 10.0)
    assert out == expect
    assert out.count(MatchOutcome.MatchedCorrectly) == 3
    assert out.count(MatchOutcome.MatchedIncorrectly) == 1
    assert out.count(MatchOutcome.NotMatched) == 2

    # several sets at once, at random cuts: an empty set, a set without
    # pairs and a failed set (delta NaN) among them
    rng = np.random.default_rng(9)
    for _ in range(20):
        specs = [(int(n), int(rng.integers(0, n + 1)),
                  float(rng.uniform(-50, 50)))
                 for n in rng.integers(1, 30, size=rng.integers(1, 5))]
        specs += [(0, 0, 3.0), (5, 0, 3.0), (7, 4, math.nan)]
        specs = [specs[i] for i in rng.permutation(len(specs))]
        sizes, deltas = [n for n, _, _ in specs], [d for _, _, d in specs]
        idx = [np.sort(rng.choice(n, size=k, replace=False))
               for n, k, _ in specs]
        diffs = [np.nan_to_num(d, nan=0.0) + rng.uniform(-20, 20, size=len(i))
                 for i, (_, _, d) in zip(idx, specs)]
        cut = np.cumsum([0, *map(len, idx)]).tolist()
        pairs = Pairs(np.concatenate(idx), np.concatenate(idx),
                      np.concatenate(diffs), np.zeros(cut[-1], dtype=np.int64),
                      cut)
        out = classify_outcomes(sizes, pairs, np.array(deltas),
                                RegistrationParams()).tolist()
        assert out == [o for n, i, d, delta in zip(sizes, idx, diffs, deltas)
                       for o in per_feature_outcomes(n, i.tolist(), d.tolist(),
                                                     delta)]


def test_classify_failed_registration_all_not_matched():
    out = classify_outcomes([4], _pairs([1.0]), [math.nan],
                            RegistrationParams())
    assert out.tolist() == [MatchOutcome.NotMatched] * 4


def test_outcome_partition_sums_to_map_size():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n_map = int(rng.integers(1, 30))
        idx = rng.choice(n_map, size=rng.integers(0, n_map + 1), replace=False)
        pairs = Pairs(idx, idx,
                      np.array([float(rng.uniform(-100, 100)) for _ in idx]),
                      np.zeros(idx.size, dtype=np.int64), [0, idx.size])
        out = classify_outcomes([n_map], pairs, [5.0], RegistrationParams())
        assert len(out) == n_map


def shifted_view(map_feats, shift, rng, flip=3):
    return [(x + shift, y, flip_bits(d, flip, rng)) for x, y, d in map_feats]


def test_shift_equivariance():
    rng = np.random.default_rng(6)
    map_feats = [rand_feature(rng, x=rng.uniform(100, 500)) for _ in range(40)]
    view = shifted_view(map_feats, 7.0, rng)
    base = register(block(map_feats), block(view))
    for s in (-30.0, 13.0, 60.0):
        moved = [(x + s, y, d) for x, y, d in view]
        res = register(block(map_feats), block(moved))
        assert abs((res.delta - base.delta) - s) <= 10.0
        assert np.array_equal(res.outcomes, base.outcomes)


def test_injected_shift_recovery():
    rng = np.random.default_rng(7)
    map_feats = [rand_feature(rng, x=rng.uniform(50, 400)) for _ in range(60)]
    for gamma in (-80.0, -5.0, 0.0, 33.0, 120.0):
        view = [(x + gamma, y, d) for x, y, d in map_feats]
        res = register(block(map_feats), block(view))
        assert res.delta is not None
        assert abs(res.delta - gamma) <= 10.0
        assert res.correct_count == len(map_feats)


def test_register_failure_as_value():
    rng = np.random.default_rng(8)
    map_feats = [rand_feature(rng) for _ in range(5)]
    res = register(block(map_feats), block([]), RegistrationParams())
    assert res.delta is None
    assert res.outcomes.tolist() == [MatchOutcome.NotMatched] * 5
    assert res.correct_count == 0

    # two coincident pairs under min_votes=3 must fail, not guess
    view = block([(x + 4.0, y, d) for x, y, d in map_feats[:2]])
    res = register(block(map_feats[:2]), view, RegistrationParams(min_votes=3))
    assert res.delta is None and res.correct_count == 0
    assert res.outcomes.tolist() == [MatchOutcome.NotMatched] * 2
    res = register(block(map_feats[:2]), view, RegistrationParams(min_votes=2))
    assert res.delta == pytest.approx(4.0)


@pytest.mark.parametrize("kwargs", [
    {"d_max": -1}, {"d_max": float("nan")}, {"d_max": 40.5},
    {"d_max": True},
    {"bin_width": 0.0}, {"bin_width": -5.0}, {"bin_width": float("inf")},
    {"bin_width": float("nan")},
    {"image_width": 0}, {"image_width": 640.5}, {"image_width": True},
    {"min_votes": 0}, {"min_votes": 2.5}, {"min_votes": True},
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_registration_params_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        RegistrationParams(**kwargs)


def test_registration_params_accepts_edges():
    p = RegistrationParams(d_max=0, bin_width=0.5, image_width=1, min_votes=1)
    assert (p.d_max, p.bin_width, p.image_width, p.min_votes) == (0, 0.5, 1, 1)


def test_registration_params_are_one_frozen_value():
    p = RegistrationParams()
    assert [f.name for f in dataclasses.fields(p)] == [
        "d_max", "bin_width", "image_width", "min_votes"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.min_votes = 1
    assert p == RegistrationParams() and hash(p) == hash(RegistrationParams())
    assert p != RegistrationParams(min_votes=2)


def test_product_registers_once_per_settings_value():
    # one product's shares registered under two settings values give each
    # value the results of separate one-set registrations, and equal values
    # built apart read one cached result
    rng = np.random.default_rng(15)
    taught = [rand_feature(rng, x=rng.uniform(100, 500)) for _ in range(60)]
    view = block([(x + 12.0, y, flip_bits(d, int(rng.integers(0, 40)), rng))
                  for x, y, d in taught])
    sets = [block(taught), block(taught[:30]), block(taught[5:50])]
    shares = view_product([view] * len(sets), sets)
    loose = RegistrationParams(d_max=64, min_votes=3)
    tight = RegistrationParams(d_max=16, min_votes=40)
    got = {p: [register(m, view, p, s) for m, s in zip(sets, shares)]
           for p in (loose, tight)}
    for p, results in got.items():
        for m, res in zip(sets, results):
            want = register(m, view, p)
            assert res.delta == want.delta
            assert np.array_equal(res.pairs.map_idx, want.pairs.map_idx)
            assert np.array_equal(res.outcomes, want.outcomes)
    assert all(r.delta is not None for r in got[loose])
    assert all(r.delta is None for r in got[tight])
    assert len(got[tight][0].pairs) < len(got[loose][0].pairs)
    for k, (m, s) in enumerate(zip(sets, shares)):
        assert register(m, view, RegistrationParams(d_max=64, min_votes=3),
                        s) is got[loose][k]
        assert register(m, view, RegistrationParams(d_max=16, min_votes=40),
                        s) is got[tight][k]


def test_one_pass_over_a_product_registers_each_set_as_alone():
    # every set's result read from the product's one registration pass
    # equals the result of registering that set with a product of its own
    rng = np.random.default_rng(12)
    taught = [rand_feature(rng, x=rng.uniform(100, 500)) for _ in range(40)]
    view_rows = shifted_view(taught, 12.0, rng) + [rand_feature(rng)
                                                   for _ in range(10)]
    view = block(view_rows)
    # a frame sharing the view's descriptors at other x, as the frames of
    # one closed-loop draw do
    moved = view.with_x(view.x - 25.0)
    sets = [
        block(taught),
        block(taught[:25] + [rand_feature(rng) for _ in range(5)]),
        block([rand_feature(rng) for _ in range(6)]),  # no pairs
        block(taught[:2]),  # pairs below min_votes
        block(taught[:12] + taught[3:4]),  # a repeated row
        block([]),
        block(taught[10:]),  # registered against the moved frame
        block(taught[10:]),
    ]
    views = [view] * 6 + [moved, view]
    params = RegistrationParams(min_votes=3)
    shares = view_product(views, sets)
    results = [register(m, v, params, share)
               for m, v, share in zip(sets, views, shares)]
    for m, v, got in zip(sets, views, results):
        want = register(m, v, params)
        assert got.delta == want.delta
        for field in ("map_idx", "view_idx", "diff", "dist"):
            assert np.array_equal(getattr(got.pairs, field),
                                  getattr(want.pairs, field))
        assert np.array_equal(got.outcomes, want.outcomes)
        assert got.outcomes.dtype == np.int8
        assert (got.correct_count, got.incorrect_count) == (
            want.correct_count, want.incorrect_count) == tuple(
            int(np.count_nonzero(got.outcomes == o))
            for o in (MatchOutcome.MatchedCorrectly,
                      MatchOutcome.MatchedIncorrectly))
    deltas = [r.delta for r in results]
    assert deltas[0] is not None and deltas[2] is None and deltas[3] is None
    assert len(results[3].pairs) == 2 and len(results[2].pairs) == 0
    assert results[6].delta == pytest.approx(results[7].delta - 25.0)
    assert register(sets[0], view, params, shares[0]) is results[0]


def test_identical_sets_share_one_read_only_result():
    # sets holding the same rows (ids) at the same x, registered against one
    # view, are one set of the product: one share and one result, whose
    # arrays cannot be written through
    rng = np.random.default_rng(13)
    taught_rows = [rand_feature(rng, x=rng.uniform(100, 500)) for _ in range(30)]
    taught = block(taught_rows)
    view = block(shifted_view(taught_rows, 12.0, rng))
    sets = [taught, taught.copy_state(), taught.take(np.arange(30)),
            taught.with_x(taught.x + 1.0), taught]
    views = [view] * 4 + [view.with_x(view.x)]  # another frame, same rows
    params = RegistrationParams()
    shares = view_product(views, sets)
    assert shares[0] is shares[1] is shares[2]
    assert len({id(s) for s in shares}) == 3
    results = [register(m, v, params, s) for m, v, s in zip(sets, views, shares)]
    assert results[0] is results[1] is results[2]
    assert results[3] is not results[0] and results[4] is not results[0]
    for m, v, got in zip(sets, views, results):
        want = register(m, v, params)
        assert got.delta == want.delta is not None
        assert np.array_equal(got.outcomes, want.outcomes)
    shared = results[0]
    for a in (shared.outcomes, shared.pairs.map_idx, shared.pairs.view_idx,
              shared.pairs.diff, shared.pairs.dist):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_equal_rows_under_other_ids_pair_only_the_lower_row():
    # rows with one descriptor under their own ids (as two reads of one
    # dataset give them) are two product rows; a set holding both pairs only
    # the lower one, as a product of its own does
    rng = np.random.default_rng(14)
    rows = [rand_feature(rng, x=rng.uniform(100, 500)) for _ in range(20)]
    base, twin = block(rows), block(rows)
    assert not np.intersect1d(base.ids, twin.ids).size
    both = FeatureBlock(*(np.concatenate((getattr(base, a), getattr(twin, a)))
                          for a in ("x", "y", "words")), base.width,
                        ids=np.concatenate((base.ids, twin.ids)))
    view = block(shifted_view(rows, 12.0, rng))
    params = RegistrationParams()
    sets = [both, twin, base]
    shares = view_product([view] * len(sets), sets)
    assert len({id(s) for s in shares}) == 3
    for m, share in zip(sets, shares):
        got, want = register(m, view, params, share), register(m, view, params)
        assert np.array_equal(got.pairs.map_idx, want.pairs.map_idx)
        assert np.array_equal(got.outcomes, want.outcomes)
    pairs = register(both, view, params, shares[0]).pairs
    assert len(pairs) and (pairs.map_idx < 20).all()


@st.composite
def several_views(draw):
    """(pool, views, sets, view_of, params): views and row sets drawn from
    a small pool of 128-bit rows, so that rows repeat and distances tie,
    each as (pool indices, x shift); set k registers against view
    view_of[k], in any order. The last view has no features and set 0
    holds a row twice; a crowded draw puts 65 sets with rows on view 0, at
    their own x so that they stay 65 sets of the product, and their
    membership takes two words. Every set also holds the rows common, one
    class of many rows. d_max runs up to every entry of a product lying
    within the radius, where only class maxima are counted."""
    pool = draw(st.lists(ROW, min_size=1, max_size=6)) + [(5, 1), (5, 2)]
    pick = st.lists(st.integers(0, len(pool) - 1), max_size=8)
    common = draw(pick)
    shifted = st.tuples(pick, st.integers(-30, 30))
    views = draw(st.lists(shifted, min_size=1, max_size=3)) + [([], 0)]
    others = st.integers(0, len(views) - 1)
    if draw(st.booleans()):
        view_of = draw(st.permutations(
            [0] * 65 + draw(st.lists(others, min_size=1, max_size=3))))
        rows = st.lists(st.integers(0, len(pool) - 1), min_size=1,
                        max_size=8)
        sets = [(draw(rows), k / 8) for k in range(len(view_of))]
    else:
        view_of = draw(st.lists(others, min_size=2, max_size=8))
        sets = [draw(shifted) for _ in view_of]
    rows, shift = sets[0]
    sets[0] = (rows[:1] * 2 + rows if rows else [0, 0], shift)
    sets = [(common + rows, shift) for rows, shift in sets]
    params = RegistrationParams(d_max=draw(st.sampled_from([0, 8, 24, 64,
                                                             128])),
                                min_votes=draw(st.integers(1, 3)))
    return np.array(pool, dtype=np.uint64), views, sets, view_of, params


def pool_block(pool, rows, shift, ids=True):
    """The pool's rows as a block: x 40 pixels apart by pool index, shifted;
    a row's id is its pool index, or a fresh one when ids is False."""
    idx = np.array(rows, dtype=np.intp)
    return FeatureBlock(np.clip(40.0 * idx + 17.0 + shift, 0.0, 639.0),
                        np.zeros(len(idx)), pool[idx].reshape(-1, 2), 128,
                        ids=idx.astype(np.int64) if ids else None)


def share_pairs(share, d_max):
    """A share's part of its product's pairs, as lists, with dtypes."""
    cut, *found = share.product.pairs(d_max)
    part = slice(cut[share.k], cut[share.k + 1])
    return [(a.dtype, a[part].tolist()) for a in found]


@given(several_views())
@settings(max_examples=40, deadline=None)
def test_a_product_over_several_views_equals_one_product_per_view(data):
    # one product over every view gives each set the pairs, column maxima
    # and result that a product over its own view's sets alone gives
    pool, views, sets, view_of, params = data
    frames = [pool_block(pool, *v, ids=False) for v in views]
    blocks = [pool_block(pool, *s) for s in sets]
    shares = view_product([frames[v] for v in view_of], blocks)
    results = [register(b, frames[v], params, share)
               for b, v, share in zip(blocks, view_of, shares)]
    for v, frame in enumerate(frames):
        ks = [k for k, u in enumerate(view_of) if u == v]
        if not ks:
            continue
        own = view_product([frame] * len(ks), [blocks[k] for k in ks])
        cols = np.arange(len(frame))
        for k, want in zip(ks, own):
            for at in (cols, cols % 2 == 0):  # indices, and a mask
                assert np.array_equal(shares[k].top(at), want.top(at))
            assert (share_pairs(shares[k], params.d_max)
                    == share_pairs(want, params.d_max))
            got, alone = results[k], register(blocks[k], frame, params, want)
            assert (got.delta, got.correct_count) == (alone.delta,
                                                      alone.correct_count)
            assert np.array_equal(got.outcomes, alone.outcomes)
            for name in ("map_idx", "view_idx", "diff", "dist"):
                assert np.array_equal(getattr(got.pairs, name),
                                      getattr(alone.pairs, name))
