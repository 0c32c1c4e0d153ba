"""Distance kernels against a naive per-bit oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longnav import kernels

from blocks import (ROW, Descriptor, hamming_matrix, popcount_words,
                    shared_sets)


def bit_loop_distance(a_words, b_words, width):
    """Independent oracle: compare bit by bit."""
    d = 0
    for i in range(width):
        wa = (int(a_words[i // 64]) >> (i % 64)) & 1
        wb = (int(b_words[i // 64]) >> (i % 64)) & 1
        d += wa != wb
    return d


def random_words(rng, n, width):
    nw = (width + 63) // 64
    w = rng.integers(0, np.iinfo(np.uint64).max, size=(n, nw),
                     dtype=np.uint64, endpoint=True)
    tail = width % 64
    if tail:
        w[:, -1] &= np.uint64((1 << tail) - 1)
    return w


def test_popcount_words_matches_python():
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = random_words(rng, 1, 256)[0]
        assert popcount_words(w) == sum(bin(int(x)).count("1") for x in w)


def test_hamming_exhaustive_width4():
    for a in range(16):
        for b in range(16):
            da = Descriptor.from_int(a, 4).words
            db = Descriptor.from_int(b, 4).words
            m = hamming_matrix(da[None, :], db[None, :])
            assert m[0, 0] == bit_loop_distance(da, db, 4) == bin(a ^ b).count("1")


def test_hamming_randomized_width256_against_bit_loop():
    rng = np.random.default_rng(1)
    a = random_words(rng, 100, 256)
    b = random_words(rng, 100, 256)
    m = hamming_matrix(a, b)
    # 10^4 pairs, each checked against the per-bit loop
    for i in range(100):
        for j in range(100):
            assert m[i, j] == bit_loop_distance(a[i], b[j], 256)


@pytest.mark.parametrize("width", [4, 64, 68, 128, 256, 512])
def test_hamming_matrix_matches_bit_loop_across_widths(width):
    # single and multi-word rows, with and without padding bits in the last word
    rng = np.random.default_rng(width)
    a = random_words(rng, 9, width)
    b = random_words(rng, 11, width)
    b[0] = a[0]  # distance 0
    b[1] = ~a[1]  # distance width, once the padding is masked off again
    if width % 64:
        b[1, -1] &= np.uint64((1 << (width % 64)) - 1)
    m = hamming_matrix(a, b)
    assert m.dtype == np.int64
    for i in range(len(a)):
        for j in range(len(b)):
            assert m[i, j] == bit_loop_distance(a[i], b[j], width)
    assert m[0, 0] == 0 and m[1, 1] == width


_rows = st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=4)


@given(st.lists(_rows, min_size=1, max_size=8),
       st.lists(_rows, min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_hamming_matrix_matches_oracle_property(aw, bw):
    a = np.array(aw, dtype=np.uint64)
    b = np.array(bw, dtype=np.uint64)
    m = hamming_matrix(a, b)
    for i in range(len(aw)):
        for j in range(len(bw)):
            assert m[i, j] == bit_loop_distance(a[i], b[j], 256)


@pytest.mark.parametrize("na,nb", [(0, 5), (5, 0), (0, 0), (1, 1), (7, 3)])
def test_hamming_matrix_shapes(na, nb):
    rng = np.random.default_rng(2)
    a = random_words(rng, na, 256)
    b = random_words(rng, nb, 256)
    assert hamming_matrix(a, b).shape == (na, nb)


@pytest.mark.parametrize("na,nb", [(0, 5), (5, 0), (0, 0)])
def test_mutual_nearest_pairs_empty(na, nb):
    rng = np.random.default_rng(2)
    pairs = kernels.mutual_nearest_pairs(random_words(rng, na, 256),
                                         random_words(rng, nb, 256), 64)
    assert [(p.shape, p.dtype) for p in pairs] == [((0,), np.int64)] * 3


@pytest.mark.parametrize("width", [4, 68, 256])
def test_nearest_distances_are_row_minima(width):
    rng = np.random.default_rng(3)
    a = random_words(rng, 30, width)
    b = random_words(rng, 17, width)
    b[:5] = a[:5]
    d = kernels.nearest_distances(a, b)
    assert d.dtype == np.int64
    assert np.array_equal(d, hamming_matrix(a, b).min(axis=1))


@pytest.mark.parametrize("width", [4, 68, 256])
def test_self_nearest_distances_are_row_minima_off_diagonal(width):
    rng = np.random.default_rng(6)
    a = random_words(rng, 25, width)
    a[10] = a[2]
    m = hamming_matrix(a, a)
    np.fill_diagonal(m, np.iinfo(np.int64).max)
    d = kernels.self_nearest_distances(a)
    assert d.dtype == np.int64
    assert np.array_equal(d, m.min(axis=1))


def test_mutual_nearest_pairs_is_one_to_one_and_thresholded():
    rng = np.random.default_rng(4)
    a = random_words(rng, 40, 256)
    b = random_words(rng, 50, 256)
    b[:25] = a[:25]  # exact copies must match at distance 0
    ai, bi, dd = kernels.mutual_nearest_pairs(a, b, 64)
    assert len(set(ai.tolist())) == len(ai)
    assert len(set(bi.tolist())) == len(bi)
    assert (dd <= 64).all()
    matched = dict(zip(ai.tolist(), bi.tolist()))
    for i in range(25):
        assert matched.get(i) == i


def few_bit_rows(rng, n, width):
    """n random rows of ``width`` bits, values repeating when width is small:
    ``(words, bits)``, the rows packed in 4 words (the last 3 zero) and as
    width ±1 bits."""
    words = np.zeros((n, 4), dtype=np.uint64)
    words[:, 0] = rng.integers(0, 2**width - 1, size=n, dtype=np.uint64,
                               endpoint=True)
    return words, np.ascontiguousarray(kernels.bit_rows(words)[:, :width])


def argmin_pairs(m, d_max):
    """Mutual nearest pairs of distance matrix m by the argmin definition,
    ties going to the lower index on both sides."""
    best_b = m.argmin(axis=1)
    best_a = m.argmin(axis=0)
    return [(i, int(j), int(m[i, j])) for i, j in enumerate(best_b)
            if best_a[j] == i and m[i, j] <= d_max]


def assert_pairs_match_argmin(view, sets, d_maxes):
    """For each d_max, ``mutual_nearest_pairs`` of every set with the view
    gives the argmin definition's pairs and int64 arrays, whether handed ±1
    bit rows, packed words or the set's rows of a ``ViewProduct``. The view
    and each set are ``(words, bits)`` pairs."""
    view_words, view_bits = view
    product = kernels.ViewProduct(view_bits, sets)
    for k, (words, bits) in enumerate(sets):
        m = hamming_matrix(bits, view_bits)
        for d_max in d_maxes:
            want = argmin_pairs(m, d_max)
            for got in (kernels.mutual_nearest_pairs(bits, view_bits, d_max),
                        kernels.mutual_nearest_pairs(words, view_words, d_max),
                        kernels.mutual_nearest_pairs(bits, view_bits, d_max,
                                                     product.dot(k))):
                assert [p.dtype for p in got] == [np.int64] * 3
                assert list(zip(*(p.tolist() for p in got))) == want


def test_mutual_nearest_pairs_match_argmin_definition():
    # few-bit rows tie often, so the tie rule is exercised; d_max runs over
    # 0..n_bits, past n_bits/2 where every entry is within the radius
    rng = np.random.default_rng(7)
    for width in [1, 3, 6, 64] * 15:
        view = few_bit_rows(rng, int(rng.integers(1, 30)), width)
        sets = [few_bit_rows(rng, int(rng.integers(1, 30)), width)
                for _ in range(int(rng.integers(1, 4)))]
        assert_pairs_match_argmin(view, sets, range(width + 1))
    # the low 3 bits of each of the 4 words vary, so tied distances are
    # sums over words; they are at most 12
    for _ in range(20):
        view, *sets = [
            (w, kernels.bit_rows(w)) for w in
            (random_words(rng, int(rng.integers(1, 30)), 256) & np.uint64(7)
             for _ in range(int(rng.integers(2, 5))))]
        assert_pairs_match_argmin(view, sets, [*range(13), 128, 256])


@pytest.mark.parametrize("rows, view", [
    # map row 0 is strictly closer to view row 0
    ([0b0001, 0b0111], [0b0001, 0b0011]),
    # map row 0 is as close to view row 0 as to view row 1
    ([0b0000, 0b0110], [0b0001, 0b0010]),
])
def test_mutual_nearest_column_tie_goes_to_lower_row(rows, view):
    # map rows 0 and 1 are equally near view row 1, map row 1's nearest;
    # view row 1's nearest is map row 0 by the tie rule, so map row 1 has
    # no pair, although its distance equals view row 1's minimum
    a = np.array(rows, dtype=np.uint64)[:, None]
    b = np.array(view, dtype=np.uint64)[:, None]
    m = hamming_matrix(a, b)
    assert m[0, 1] == m[1, 1] == m[1].min()
    assert m[0].argmin() == 0 and m[1].argmin() == 1
    for a_, b_ in ((a, b), (b, a)):  # and the same with the roles swapped
        got = kernels.mutual_nearest_pairs(a_, b_, 64)
        assert [p.tolist() for p in got] == [[0], [0], [m[0, 0]]]


def test_mutual_nearest_ties_keep_first_index():
    # two identical map rows competing for one view row: index 0 must win
    a = np.zeros((2, 4), dtype=np.uint64)
    b = np.zeros((1, 4), dtype=np.uint64)
    ai, bi, dd = kernels.mutual_nearest_pairs(a, b, 64)
    assert ai.tolist() == [0]
    assert bi.tolist() == [0]
    assert dd.tolist() == [0]


def test_mutual_nearest_ties_keep_first_view_index():
    # two identical view rows competing for one map row: index 0 must win
    a = np.zeros((1, 4), dtype=np.uint64)
    b = np.zeros((2, 4), dtype=np.uint64)
    ai, bi, dd = kernels.mutual_nearest_pairs(a, b, 64)
    assert ai.tolist() == [0]
    assert bi.tolist() == [0]
    assert dd.tolist() == [0]


def test_self_nearest_excludes_self():
    rng = np.random.default_rng(5)
    a = random_words(rng, 12, 256)
    d = kernels.self_nearest_distances(a)
    assert (d > 0).all()  # random 256-bit rows never collide here
    a2 = a.copy()
    a2[7] = a2[3]
    d2 = kernels.self_nearest_distances(a2)
    assert d2[3] == 0 and d2[7] == 0


@given(st.lists(ROW, max_size=30))
@settings(max_examples=60, deadline=None)
def test_distinct_rows_numbers_equal_rows_alike(rows):
    words = np.array(rows, dtype=np.uint64).reshape(len(rows), 2)
    first, inverse = kernels.distinct_rows(words)
    assert np.array_equal(words[first[inverse]], words)
    same_row = (words[:, None] == words[None]).all(axis=2)
    assert np.array_equal(inverse[:, None] == inverse[None], same_row)
    assert len(first) == len(set(rows))


def test_distinct_rows_tells_apart_rows_sharing_a_sort_key():
    # w0*M0 + w1*M1 (mod 2**64) is unchanged by w0 += M1, w1 -= M0
    m0, m1 = (int(v) for v in kernels._ROW_MIX[:2])
    a = (12345, 678)
    b = ((a[0] + m1) % 2**64, (a[1] - m0) % 2**64)
    assert (a[0] * m0 + a[1] * m1) % 2**64 == (b[0] * m0 + b[1] * m1) % 2**64
    first, inverse = kernels.distinct_rows(np.array([a, b, a, b],
                                                    dtype=np.uint64))
    assert len(first) == 2
    assert inverse[0] == inverse[2] != inverse[1] == inverse[3]


@given(shared_sets())
@settings(max_examples=80, deadline=None)
def test_view_product_equals_each_sets_own_product(data):
    pool, sets, view, active = data
    vw = pool[view]
    set_words = [pool[s][np.array(a, dtype=bool)] for s, a in zip(sets, active)]
    product = kernels.ViewProduct(kernels.bit_rows(vw),
                                  [(w, kernels.bit_rows(w)) for w in set_words])
    for k, w in enumerate(set_words):
        own = kernels._dot(w, vw)[0]
        assert np.array_equal(product.dot(k), own)
        shared = kernels.mutual_nearest_pairs(w, vw, 64, product.dot(k))
        for got, want in zip(shared, kernels.mutual_nearest_pairs(w, vw, 64)):
            assert np.array_equal(got, want) and got.dtype == want.dtype
    part = product.part(len(sets) - 1, len(sets))
    assert np.array_equal(part.dot(0), product.dot(len(sets) - 1))


@pytest.mark.parametrize("n_rows", [0, 7, 17])
def test_nearest_distances_multiplies_only_rows_not_handed_in(n_rows):
    rng = np.random.default_rng(8)
    a = random_words(rng, 30, 256)
    b = random_words(rng, 17, 256)
    b[:5] = a[:5]
    rows = np.sort(rng.choice(17, n_rows, replace=False))
    dot = kernels._dot(a, b[rows])[0]
    assert np.array_equal(kernels.nearest_distances(a, b, dot, rows),
                          kernels.nearest_distances(a, b))
