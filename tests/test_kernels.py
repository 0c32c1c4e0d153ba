"""Distance kernels against a naive per-bit oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longnav import kernels
from longnav.features import Descriptor


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
        assert kernels.popcount_words(w) == sum(bin(int(x)).count("1") for x in w)


def test_hamming_exhaustive_width4():
    for a in range(16):
        for b in range(16):
            da = Descriptor.from_int(a, 4).words
            db = Descriptor.from_int(b, 4).words
            m = kernels.hamming_matrix(da[None, :], db[None, :])
            assert m[0, 0] == bit_loop_distance(da, db, 4) == bin(a ^ b).count("1")


def test_hamming_randomized_width256_against_bit_loop():
    rng = np.random.default_rng(1)
    a = random_words(rng, 100, 256)
    b = random_words(rng, 100, 256)
    m = kernels.hamming_matrix(a, b)
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
    m = kernels.hamming_matrix(a, b)
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
    m = kernels.hamming_matrix(a, b)
    for i in range(len(aw)):
        for j in range(len(bw)):
            assert m[i, j] == bit_loop_distance(a[i], b[j], 256)


@pytest.mark.parametrize("na,nb", [(0, 5), (5, 0), (0, 0), (1, 1), (7, 3)])
def test_hamming_matrix_shapes(na, nb):
    rng = np.random.default_rng(2)
    a = random_words(rng, na, 256)
    b = random_words(rng, nb, 256)
    assert kernels.hamming_matrix(a, b).shape == (na, nb)


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
    assert np.array_equal(d, kernels.hamming_matrix(a, b).min(axis=1))


@pytest.mark.parametrize("width", [4, 68, 256])
def test_self_nearest_distances_are_row_minima_off_diagonal(width):
    rng = np.random.default_rng(6)
    a = random_words(rng, 25, width)
    a[10] = a[2]
    m = kernels.hamming_matrix(a, a)
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


def test_mutual_nearest_pairs_match_argmin_definition():
    # 3-bit rows in 4 words: many equal distances, so the tie rule is exercised
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_words(rng, int(rng.integers(1, 30)), 256) & np.uint64(7)
        b = random_words(rng, int(rng.integers(1, 30)), 256) & np.uint64(7)
        m = kernels.hamming_matrix(a, b)
        best_b = m.argmin(axis=1)
        best_a = m.argmin(axis=0)
        want = [(i, int(j), int(m[i, j])) for i, j in enumerate(best_b)
                if best_a[j] == i and m[i, j] <= 2]
        ai, bi, dd = kernels.mutual_nearest_pairs(a, b, 2)
        assert list(zip(ai.tolist(), bi.tolist(), dd.tolist())) == want


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
