"""Descriptor packing, Hamming distance, feature blocks and path maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longnav.errors import ConfigError
from longnav.features import LocalMap, PathMap, concat, pack_features
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


def test_concat_rejects_models_on_one_side():
    m = FremenModel(DEFAULT_PERIODS, 2).add_observation(np.array([0.5, -0.5]),
                                                        60.0)
    with_models, without = _rows(2, 0, temporal=m), _rows(3, 10)
    for a, b in ((with_models, without), (without, with_models)):
        with pytest.raises(ValueError, match="rows without"):
            concat(a, b)
    both = concat(with_models,
                  _rows(1, 20, temporal=FremenModel(DEFAULT_PERIODS, 1)))
    assert both.temporal.mu.tolist() == [0.5, -0.5, 0.0]
    assert both.temporal.n_obs.tolist() == [1, 1, 0]
    assert concat(without, _rows(1, 20)).temporal is None


def test_concat_rejects_other_descriptor_width():
    wide = block_from_descriptors([0.0], [0.0], [Descriptor.from_int(5, 128)])
    with pytest.raises(ValueError, match="width mismatch: 64 vs 128"):
        concat(_rows(2, 0), wide)


def test_concat_rejects_models_with_different_periods():
    a = _rows(1, 0, temporal=FremenModel(DEFAULT_PERIODS, 1))
    b = _rows(1, 5, temporal=FremenModel((3600.0,), 1))
    with pytest.raises(ValueError, match="different periods"):
        concat(a, b)
