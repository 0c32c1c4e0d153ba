"""Descriptor packing, Hamming distance, feature blocks and path maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longnav.errors import ConfigError
from longnav.features import LocalMap, PathMap, exchange, pack_features
from longnav.fremen import FremenModel
from longnav.kernels import bit_rows
from longnav.strategies import DEFAULT_PERIODS

from blocks import Descriptor, block_from_descriptors, hamming_distance


def test_descriptor_int_hex_roundtrip():
    rng = np.random.default_rng(0)
    for width in (4, 8, 64, 128, 256):
        for _ in range(50):
            v = int(rng.integers(0, 1 << min(width, 62)))
            d = Descriptor.from_int(v, width)
            assert d.to_int() == v
            assert len(d.to_hex()) == width // 4
            assert Descriptor.from_hex(d.to_hex(), width) == d
    big = (1 << 256) - 1
    d = Descriptor.from_int(big, 256)
    assert d.to_int() == big
    assert d.to_hex() == "f" * 64


@st.composite
def _width_and_value(draw):
    width = draw(st.integers(1, 80)) * 4
    return width, draw(st.integers(0, (1 << width) - 1))


@given(_width_and_value())
@settings(max_examples=60, deadline=None)
def test_descriptor_roundtrip_property(wv):
    width, v = wv
    d = Descriptor.from_int(v, width)
    assert d.to_int() == v
    assert Descriptor.from_hex(d.to_hex(), width) == d
    assert hamming_distance(d, Descriptor.from_int(0, width)) == bin(v).count("1")


def test_descriptor_hex_is_lowercase_and_padded():
    d = Descriptor.from_int(0xAB, 256)
    h = d.to_hex()
    assert h == h.lower()
    assert len(h) == 64
    assert h.endswith("ab")


def test_descriptor_width_validation():
    with pytest.raises(ConfigError):
        Descriptor.from_int(0, 5)
    with pytest.raises(ConfigError):
        Descriptor.from_int(0, 0)
    with pytest.raises(ConfigError):
        Descriptor.from_int(1 << 8, 8)  # does not fit
    with pytest.raises(ConfigError):
        Descriptor(np.zeros(3, dtype=np.uint64), 256)  # wrong word count


def test_descriptor_padding_bits_masked():
    # width 8 descriptor built from a word with high garbage bits
    w = np.array([0xFFFF_FFFF_FFFF_FFAB], dtype=np.uint64)
    d = Descriptor(w, 8)
    assert d.to_int() == 0xAB


def test_hamming_identity_and_complement():
    rng = np.random.default_rng(1)
    v = int(rng.integers(0, 1 << 62))
    a = Descriptor.from_int(v, 256)
    assert hamming_distance(a, a) == 0
    comp = Descriptor.from_int(a.to_int() ^ ((1 << 256) - 1), 256)
    assert hamming_distance(a, comp) == 256


def test_hamming_small_example():
    a = Descriptor.from_int(0b1010, 4)
    b = Descriptor.from_int(0b0110, 4)
    assert hamming_distance(a, b) == 2


def test_hamming_symmetric_and_bounded():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = Descriptor.from_int(int(rng.integers(0, 1 << 62)), 256)
        b = Descriptor.from_int(int(rng.integers(0, 1 << 62)), 256)
        d = hamming_distance(a, b)
        assert d == hamming_distance(b, a)
        assert 0 <= d <= 256
        assert (d == 0) == (a == b)


def test_hamming_width_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(Descriptor.from_int(0, 4), Descriptor.from_int(0, 8))


def _path(distances):
    maps = [LocalMap(i, d, block_from_descriptors(
                [0.0], [0.0], [Descriptor.from_int(i, 8)]))
            for i, d in enumerate(distances)]
    return PathMap(maps)


def test_pathmap_requires_increasing_distances():
    with pytest.raises(ConfigError):
        _path([0.0, 2.0, 2.0])
    with pytest.raises(ConfigError):
        _path([0.0, 2.0, 1.0])


def test_pack_features_stacks_words():
    rng = np.random.default_rng(4)
    descs = [Descriptor.from_int(int(rng.integers(0, 1 << 62)), 256)
             for _ in range(7)]
    feats = block_from_descriptors(np.zeros(7), np.zeros(7), descs)
    m = pack_features(feats)
    assert m.shape == (7, 256) and m.dtype == np.int8
    for i, d in enumerate(descs):
        assert np.array_equal(m[i], bit_rows(d.words[None])[0])
    assert pack_features(feats) is m  # unpacked once, then cached
    assert np.array_equal(pack_features(feats.take([3, 1])), m[[3, 1]])
    assert pack_features(block_from_descriptors([], [], [])).shape == (0, 256)


def _rows(n, start, **state):
    descs = [Descriptor.from_int(start + i, 64) for i in range(n)]
    return block_from_descriptors(np.arange(n, dtype=float), np.zeros(n), descs,
                                  inserted_at=np.zeros(n, dtype=np.int64),
                                  score=np.zeros(n), **state)


def test_exchange_gives_new_rows_fresh_state_over_the_maps_periods():
    # kept rows keep their models; new rows get unobserved ones over the
    # map's own periods, and no models when the map has none
    m = FremenModel(DEFAULT_PERIODS, 2).add_observation(np.array([0.5, -0.5]),
                                                        60.0)
    with_models, view = _rows(2, 0, temporal=m), _rows(3, 10)
    with_models.inserted_at[:] = 4
    with_models.score[:] = [1.5, -2.0]
    both = exchange(with_models, np.array([1, 0]), view, np.array([2]),
                    np.array([7.0]), 9)
    assert both.temporal.periods == DEFAULT_PERIODS
    assert both.temporal.mu.tolist() == [-0.5, 0.5, 0.0]
    assert both.temporal.n_obs.tolist() == [1, 1, 0]
    assert both.inserted_at.tolist() == [4, 4, 9]
    assert both.score.tolist() == [-2.0, 1.5, 0.0]
    assert both.x.tolist() == [1.0, 0.0, 7.0]
    assert both.words.tolist() == [*with_models.words[[1, 0]].tolist(),
                                   view.words[2].tolist()]
    without = exchange(_rows(2, 20), np.array([0]), view, np.array([0]),
                       np.array([3.0]), 1)
    assert without.temporal is None and len(without) == 2


def test_exchange_rejects_other_descriptor_width():
    wide = block_from_descriptors([0.0], [0.0], [Descriptor.from_int(5, 128)])
    with pytest.raises(ValueError, match="width mismatch: 64 vs 128"):
        exchange(_rows(2, 0), np.array([0]), wide, np.array([0]),
                 np.array([0.0]), 1)
    # a side that gives no rows has no width to disagree with
    assert exchange(_rows(2, 0), np.array([0, 1]), wide, np.array([], int),
                    np.array([]), 1).width == 64
    assert exchange(_rows(2, 0), np.array([], int), wide, None,
                    wide.x, 1).width == 128


def test_row_ids_travel_with_their_rows():
    # a new block gets ids no other row has; every block operation carries
    # each row's id along with its descriptor
    a, b = _rows(4, 0), _rows(3, 10)
    assert a.ids.dtype == np.int64
    assert len({*a.ids.tolist(), *b.ids.tolist()}) == 7
    for idx in ([2, 0, 2], np.array([True, False, True, True]), slice(1, 3)):
        assert np.array_equal(a.take(idx).ids, a.ids[idx])
    assert exchange(a, np.arange(4), b, None, b.x, 1).ids.tolist() == [
        *a.ids.tolist(), *b.ids.tolist()]
    assert exchange(a, np.array([3, 1]), b, np.array([2]), b.x[:1],
                    1).ids.tolist() == [a.ids[3], a.ids[1], b.ids[2]]
    assert exchange(a, np.arange(0), b, None, b.x, 1).ids is b.ids
    for same in (a.with_x(a.x + 1.0), a.as_map(3), a.copy_state()):
        assert np.array_equal(same.ids, a.ids)
    path = PathMap([LocalMap(0, 0.0, a, [b.as_map(2)])])
    copy = path.copy().local_maps[0]
    assert np.array_equal(copy.features.ids, a.ids)
    assert np.array_equal(copy.alternatives[0].ids, b.ids)
