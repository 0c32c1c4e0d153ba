"""Distance kernels against a naive per-bit oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longnav import kernels

from blocks import Descriptor, hamming_matrix, popcount_words, shared_sets


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
    cut, *pairs = kernels.mutual_nearest_pairs(random_words(rng, na, 256),
                                               random_words(rng, nb, 256), 64)
    assert cut == [0, 0]
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
    cut, ai, bi, dd = kernels.mutual_nearest_pairs(a, b, 64)
    assert cut == [0, len(ai)]
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


def value_ids(sets):
    """Row ids for each of the sets (packed rows): equal rows share an id,
    across sets too, as rows copied from one block into others do."""
    rows = np.concatenate(sets)
    ids = np.unique(rows, axis=0, return_inverse=True)[1].reshape(len(rows))
    return np.split(ids, np.cumsum([len(w) for w in sets])[:-1])


def fresh_ids(sets):
    """Row ids for each of the sets: every row its own, equal or not."""
    return np.split(np.arange(sum(map(len, sets))),
                    np.cumsum([len(w) for w in sets])[:-1])


def split_by_set(found):
    """``mutual_nearest_pairs``' ``(cut, a_idx, b_idx, dist)`` as one
    ``(a_idx, b_idx, dist)`` per set."""
    cut, *arrays = found
    return [tuple(a[cut[k]:cut[k + 1]] for a in arrays)
            for k in range(len(cut) - 1)]


def assert_pairs_match_argmin(view, sets, d_maxes):
    """For each d_max, ``mutual_nearest_pairs`` of every set with the view
    gives the argmin definition's pairs and int64 arrays, whether handed ±1
    bit rows, packed words or a ``ViewProduct`` over all the sets, whose
    pairs come one set after another. The view and each set are ``(words,
    bits)`` pairs."""
    view_words, view_bits = view
    ids = value_ids([w for w, _ in sets])
    product = kernels.ViewProduct(
        view_bits, [(i, bits) for i, (_, bits) in zip(ids, sets)])
    for d_max in d_maxes:
        shared = split_by_set(kernels.mutual_nearest_pairs(
            product.ids, product.view, d_max, product))
        for (words, bits), from_product in zip(sets, shared):
            want = argmin_pairs(hamming_matrix(bits, view_bits), d_max)
            alone = [kernels.mutual_nearest_pairs(bits, view_bits, d_max),
                     kernels.mutual_nearest_pairs(words, view_words, d_max)]
            assert [found[0] for found in alone] == [[0, len(want)]] * 2
            for got in (*(found[1:] for found in alone), from_product):
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
        assert [p.tolist() for p in got[1:]] == [[0], [0], [m[0, 0]]]
        assert got[0] == [0, 1]


def test_mutual_nearest_ties_keep_first_index():
    # two identical map rows competing for one view row: index 0 must win
    a = np.zeros((2, 4), dtype=np.uint64)
    b = np.zeros((1, 4), dtype=np.uint64)
    _, ai, bi, dd = kernels.mutual_nearest_pairs(a, b, 64)
    assert ai.tolist() == [0]
    assert bi.tolist() == [0]
    assert dd.tolist() == [0]


def test_mutual_nearest_ties_keep_first_view_index():
    # two identical view rows competing for one map row: index 0 must win
    a = np.zeros((1, 4), dtype=np.uint64)
    b = np.zeros((2, 4), dtype=np.uint64)
    _, ai, bi, dd = kernels.mutual_nearest_pairs(a, b, 64)
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


def assert_product_reduces_each_set_as_its_own(view_words, set_words):
    """A ``ViewProduct`` over all the sets gives each set the column max,
    the insertion ranking's maxima and the pairs, at every radius, that the
    set's own product gives, whether equal rows share an id or not."""
    view = kernels.bit_rows(view_words)
    cols = np.arange(len(view_words))
    for ids in (value_ids(set_words), fresh_ids(set_words)):
        product = kernels.ViewProduct(
            view, [(i, kernels.bit_rows(w)) for i, w in zip(ids, set_words)])
        for k, (w, share) in enumerate(zip(set_words, product.shares())):
            own = kernels._dot(w, view_words)[0]
            top = own.max(axis=0, initial=-np.inf)
            assert np.array_equal(product.tops[k], top)
            assert np.array_equal(share.top(cols[::-1]), top[::-1])
        for d_max in (0, 16, 32, 64, 128):
            shared = split_by_set(kernels.mutual_nearest_pairs(
                product.ids, product.view, d_max, product))
            for w, from_product in zip(set_words, shared):
                alone = kernels.mutual_nearest_pairs(w, view_words, d_max)[1:]
                for got, want in zip(from_product, alone):
                    assert np.array_equal(got, want) and got.dtype == want.dtype


@given(shared_sets())
@settings(max_examples=80, deadline=None)
def test_view_product_equals_each_sets_own_product(data):
    pool, sets, view, active = data
    assert_product_reduces_each_set_as_its_own(
        pool[view],
        [pool[s][np.array(a, dtype=bool)] for s, a in zip(sets, active)])


def rows_of(*values):
    """Single-word rows (64-bit descriptors) with the given values."""
    return np.array(values, dtype=np.uint64)[:, None]


def product_of(view, sets, ids=value_ids):
    """The ``ViewProduct`` of view with sets (packed rows), rows given ids
    by ``ids``."""
    return kernels.ViewProduct(view, list(zip(ids(sets), sets)))


def test_a_row_held_twice_by_a_set_counts_twice():
    # set 0 holds row 0b0011 twice (its rows 1 and 3), set 1 once: at view
    # column 0 two of set 0's rows reach the max, so only the lower pairs
    view = rows_of(0b0011, 0b1111_0000)
    sets = [rows_of(0b1000_0000_0000, 0b0011, 0b0111_0000, 0b0011),
            rows_of(0b0011, 0b1111_0001)]
    for ids in (value_ids, fresh_ids):
        product = product_of(view, sets, ids)
        assert product.tops[:, 0].tolist() == [64, 64]
        pairs = split_by_set(kernels.mutual_nearest_pairs(
            product.ids, product.view, 64, product))
        assert [[p.tolist() for p in got] for got in pairs] == [
            [[1, 2], [0, 1], [0, 1]], [[0, 1], [0, 1], [0, 1]]]
    assert_product_reduces_each_set_as_its_own(view, sets)


def test_two_classes_tied_at_a_columns_max():
    # set 0's rows 0 and 1 lie in different classes (set 1 also holds row
    # 0b0101) and are equally near view column 0: set 0's max there is
    # reached by one row of each class, and the lower row pairs
    view = rows_of(0b0111)
    sets = [rows_of(0b0101, 0b0011), rows_of(0b1000, 0b0101)]
    product = product_of(view, sets)
    assert product.tops[:, 0].tolist() == [62, 62]
    got = split_by_set(kernels.mutual_nearest_pairs(
        product.ids, product.view, 64, product))
    assert [[p.tolist() for p in pairs] for pairs in got] == [
        [[0], [0], [1]], [[1], [0], [1]]]
    assert_product_reduces_each_set_as_its_own(view, sets)


def test_a_product_over_more_than_64_sets():
    # membership keys hold a bit per set, 64 sets to a word
    rng = np.random.default_rng(9)
    pool = random_words(rng, 12, 256)
    view = pool[rng.integers(0, 12, 20)] ^ np.uint64(1)
    sets = [pool[rng.choice(12, int(rng.integers(0, 9)))] for _ in range(70)]
    assert_product_reduces_each_set_as_its_own(view, sets)


def test_a_view_without_features_pairs_nothing():
    # no row of an empty product has a nearest column, so none is near at
    # any radius, and no argmax runs
    rng = np.random.default_rng(10)
    sets = [random_words(rng, n, 256) for n in (5, 0, 3)]
    view = random_words(rng, 0, 256)
    product = product_of(view, sets)
    assert product.tops.shape == (3, 0)
    assert [len(p) for p in product.pairs(10**6)[1:]] == [0, 0, 0]
    for got in split_by_set(kernels.mutual_nearest_pairs(
            product.ids, product.view, 256, product)):
        assert [p.tolist() for p in got] == [[], [], []]
    assert_product_reduces_each_set_as_its_own(view, sets)
    assert_product_reduces_each_set_as_its_own(random_words(rng, 4, 256), sets)


def test_a_one_set_product_keeps_its_repeated_rows():
    # one set is multiplied as it is, its repeated rows counted one by one
    view = rows_of(0b0110, 0b1001)
    rows = rows_of(0b0110, 0b1000, 0b0110)
    product = product_of(view, [rows])
    assert product.tops[0].tolist() == [64, 62]
    cut, *got = kernels.mutual_nearest_pairs(product.ids, product.view, 64,
                                             product)
    assert cut == [0, 2]
    assert [p.tolist() for p in got] == [[0, 1], [0, 1], [0, 1]]
    assert_product_reduces_each_set_as_its_own(view, [rows])


@pytest.mark.parametrize("n_rows", [0, 7, 17])
def test_nearest_distances_multiplies_only_rows_not_handed_in(n_rows):
    rng = np.random.default_rng(8)
    a = random_words(rng, 30, 256)
    b = random_words(rng, 17, 256)
    b[:5] = a[:5]
    rows = np.sort(rng.choice(17, n_rows, replace=False))
    top = kernels._dot(a, b[rows])[0].max(axis=1, initial=-np.inf)
    assert np.array_equal(kernels.nearest_distances(a, b, top, rows),
                          kernels.nearest_distances(a, b))


def test_equal_rows_under_different_ids_pair_only_the_lowest_row():
    # set 0's rows 1 and 2 are equal but carry their own ids, so they are
    # two product rows; both reach view column 0's max, and only the lower
    # pairs. Set 1 holds row 2's id
    view = rows_of(0b0011, 0b1100)
    sets = [rows_of(0b0111, 0b0011, 0b0011), rows_of(0b0011)]
    product = kernels.ViewProduct(
        view, [(np.array([5, 7, 9]), sets[0]), (np.array([9]), sets[1])])
    got = [[p.tolist() for p in pairs] for pairs in split_by_set(
        kernels.mutual_nearest_pairs(product.ids, product.view, 64, product))]
    assert got == [[[1], [0], [0]], [[0], [0], [0]]]
    assert_product_reduces_each_set_as_its_own(view, sets)


def test_a_tie_across_classes_at_a_wide_radius():
    # at d_max 64 every entry of these 64-bit rows lies within the radius,
    # so only class maxima are counted. Set 0's rows 0 and 1 tie at view
    # column 0 from different classes (set 1 also holds row 1): only row 0
    # pairs there
    view = rows_of(0b1111, 0b1111_0000_0000)
    sets = [rows_of(0b0111, 0b1110, 0b1111_0000_0001, 0b1111_0000_0011),
            rows_of(0b1110)]
    product = product_of(view, sets)
    got = [[p.tolist() for p in pairs] for pairs in split_by_set(
        kernels.mutual_nearest_pairs(product.ids, product.view, 64, product))]
    assert got == [[[0, 2], [0, 1], [1, 1]], [[0], [0], [1]]]
    assert_product_reduces_each_set_as_its_own(view, sets)


def test_wide_radius_products_match_each_sets_own():
    # 128-bit rows, as the CLI writes them: at d_max 64 about half of all
    # entries lie within the radius, and at 128 every one does
    rng = np.random.default_rng(11)
    pool = random_words(rng, 40, 128)
    sparse_bits = (random_words(rng, 25, 128) & random_words(rng, 25, 128)
                   & random_words(rng, 25, 128))
    view = np.vstack([pool[rng.choice(40, 25)] ^ sparse_bits,
                      random_words(rng, 10, 128)])
    sets = [pool[rng.choice(40, n)] for n in (30, 12, 30, 0, 25, 1)]
    assert_product_reduces_each_set_as_its_own(view, sets)
    for d_max in (32, 64, 128):  # rows far apart still pair at 128
        assert len(product_of(view, sets).pairs(d_max)[1]) > 0
    # 8 varying bits per row: every entry lies within the radius and
    # distances tie often, within a class and across classes
    pool &= np.uint64(0xF)
    view = pool[rng.choice(40, 30)]
    assert_product_reduces_each_set_as_its_own(
        view, [pool[rng.choice(40, n)] for n in (30, 12, 30, 0, 25, 1)])
