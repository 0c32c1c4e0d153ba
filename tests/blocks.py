"""Test helpers and oracles: Descriptor objects, per-pair Hamming distances,
feature blocks built from descriptors, fremen models stacked from rows, and
row sets that share rows."""

import numpy as np
from hypothesis import strategies as st

from longnav.errors import ConfigError
from longnav.features import DEFAULT_DESCRIPTOR_WIDTH, FeatureBlock
from longnav.fremen import FremenModel
from longnav.io import hex_digits, words_from_hex
from longnav.kernels import _distance, _dot


class Descriptor:
    """Fixed-width binary descriptor packed into uint64 words.

    Bit ``i`` lives at bit ``i % 64`` of word ``i // 64``; words are
    little-endian with respect to the integer value, so ``from_int`` /
    ``to_int`` round-trip. Width must be a multiple of 4 (hex contract).
    """

    __slots__ = ("words", "width")

    def __init__(self, words: np.ndarray, width: int = DEFAULT_DESCRIPTOR_WIDTH):
        if width <= 0 or width % 4 != 0:
            raise ConfigError(f"descriptor width must be a positive multiple of 4, got {width}")
        n_words = (width + 63) // 64
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.shape != (n_words,):
            raise ConfigError(f"expected {n_words} words for width {width}, got shape {words.shape}")
        # zero any padding bits beyond the declared width
        tail = width % 64
        if tail:
            words = words.copy()
            words[-1] &= np.uint64((1 << tail) - 1)
        self.words = words
        self.width = width

    @classmethod
    def from_int(cls, value: int, width: int = DEFAULT_DESCRIPTOR_WIDTH) -> "Descriptor":
        if value < 0 or value >> width:
            raise ConfigError(f"value does not fit in {width} bits")
        n_words = (width + 63) // 64
        raw = value.to_bytes(n_words * 8, "little")
        return cls(np.frombuffer(raw, dtype="<u8").astype(np.uint64), width)

    @classmethod
    def from_hex(cls, s: str, width: int | None = None) -> "Descriptor":
        if width is None:
            width = 4 * len(s)
        if 4 * len(s) != width:
            raise ConfigError(f"hex descriptor {s!r} is not {width} bits wide")
        try:
            words = words_from_hex(s, 1, width)[0]
        except ValueError as e:
            raise ConfigError(f"bad hex descriptor {s!r}: {e}") from e
        return cls(words, width)

    def to_int(self) -> int:
        return int.from_bytes(self.words.astype("<u8").tobytes(), "little")

    def to_hex(self) -> str:
        return hex_digits(self.words[None], self.width)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Descriptor):
            return NotImplemented
        return self.width == other.width and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return hash((self.width, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"Descriptor(0x{self.to_hex()}, width={self.width})"


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits in a packed word array."""
    return int(np.unpackbits(np.ascontiguousarray(words).view(np.uint8)).sum())


def hamming_distance(a: Descriptor, b: Descriptor) -> int:
    """Number of differing bits between two equal-width descriptors."""
    if a.width != b.width:
        raise ValueError(f"descriptor width mismatch: {a.width} vs {b.width}")
    return popcount_words(np.bitwise_xor(a.words, b.words))


def hamming_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances, shape ``(len(a), len(b))``, int64, from
    the kernels' own product."""
    return _distance(*_dot(a, b))


def block_from_descriptors(x, y, descriptors, **state) -> FeatureBlock:
    """A block of len(descriptors) rows; all descriptors share one width."""
    width = descriptors[0].width if descriptors else DEFAULT_DESCRIPTOR_WIDTH
    if any(d.width != width for d in descriptors):
        raise ValueError("descriptor width mismatch within block")
    words = np.array([d.words for d in descriptors], dtype=np.uint64)
    return FeatureBlock(np.asarray(x, dtype=np.float64),
                        np.asarray(y, dtype=np.float64),
                        words.reshape(len(descriptors), (width + 63) // 64),
                        width, **state)


def stack_models(models) -> FremenModel:
    """One model holding the rows of models, in order; all share the first
    one's periods."""
    m = FremenModel(models[0].periods, 0)
    for name in ("n_obs", "mu", "re", "im"):
        setattr(m, name, np.concatenate([getattr(p, name) for p in models]))
    return m


# rows of two words from a small alphabet, so that rows repeat, distances
# tie, and rows share their first word while differing in the second
WORD = st.sampled_from([0, 1, 3, 0xF0, 2**63, 2**64 - 1])
ROW = st.tuples(WORD, WORD)


@st.composite
def shared_sets(draw):
    """(rows, sets, view, active): a pool of rows, several row sets and a
    view drawn from it (repeats within and across them), and a mask of
    each set's active rows."""
    pool = draw(st.lists(ROW, min_size=1, max_size=8)) + [(5, 1), (5, 2)]
    pick = st.lists(st.integers(0, len(pool) - 1), max_size=12)
    sets = draw(st.lists(pick, min_size=1, max_size=4))
    view = draw(pick)
    active = [draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s)))
              for s in sets]
    return np.array(pool, dtype=np.uint64), sets, view, active
