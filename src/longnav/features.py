"""Core domain types: binary descriptors, feature blocks, local maps, paths."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fremen import FremenModel
from .kernels import bit_rows, popcount_words

DEFAULT_DESCRIPTOR_WIDTH = 256


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
        n_words = (width + 63) // 64
        try:
            words = words_from_hex([s], n_words)[0]
        except ValueError as e:
            raise ConfigError(f"bad hex descriptor {s!r}: {e}") from e
        d = cls(words, width)
        if not np.array_equal(d.words, words):
            raise ConfigError(f"value does not fit in {width} bits")
        return d

    def to_int(self) -> int:
        return int.from_bytes(self.words.astype("<u8").tobytes(), "little")

    def to_hex(self) -> str:
        return hex_rows(self.words[None], self.width)[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Descriptor):
            return NotImplemented
        return self.width == other.width and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return hash((self.width, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"Descriptor(0x{self.to_hex()}, width={self.width})"


def hamming_distance(a: Descriptor, b: Descriptor) -> int:
    """Number of differing bits between two equal-width descriptors."""
    if a.width != b.width:
        raise ValueError(f"descriptor width mismatch: {a.width} vs {b.width}")
    return popcount_words(np.bitwise_xor(a.words, b.words))


def hex_rows(words: np.ndarray, width: int) -> list:
    """Lowercase hex of each packed descriptor row, width/4 digits each."""
    n, n_words = words.shape
    if not n:
        return []
    # most significant word first, each word big-endian: the integer's digits
    digits = words[:, ::-1].astype(">u8").tobytes().hex()
    step = 16 * n_words
    skip = step - width // 4
    return [digits[i + skip:i + step] for i in range(0, n * step, step)]


def words_from_hex(strings, n_words: int) -> np.ndarray:
    """Packed ``(n, n_words)`` rows from hex descriptors of one length;
    ValueError when a string is not hex or does not fit."""
    strings = list(strings)
    if not strings:
        return np.zeros((0, n_words), dtype=np.uint64)
    n_hex = len(strings[0])
    if not n_hex:
        raise ValueError("empty hex descriptor")
    if n_hex % 2:
        strings = ["0" + s for s in strings]
        n_hex += 1
    n_bytes = n_hex // 2
    if n_bytes > 8 * n_words:
        raise ValueError(f"descriptor of {4 * n_hex} bits exceeds {64 * n_words}")
    raw = bytes.fromhex("".join(strings))
    if len(raw) != n_bytes * len(strings):
        raise ValueError("malformed hex descriptor")
    octets = np.zeros((len(strings), 8 * n_words), dtype=np.uint8)
    octets[:, :n_bytes] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, n_bytes)[:, ::-1]
    return octets.view("<u8").astype(np.uint64, copy=False)


def _rows(a, idx):
    return None if a is None else a[idx]


class FeatureBlock:
    """Image features as a struct of arrays, one row per feature.

    Every block has sub-pixel positions ``x``, ``y`` (float64) and packed
    descriptors ``words`` (``(n, n_words)`` uint64) of ``width`` bits. A map
    block also carries per-row strategy state: ``inserted_at`` (int64, the
    traversal that inserted the row), ``score`` (float64) and, when rows carry
    temporal models, one batched ``temporal`` FremenModel. These are None on
    the blocks of camera frames. ``has_temporal`` marks the rows of
    ``temporal`` that stand for a real model when only some rows have one
    (the others hold empty rows); it is None when every row has one.

    Rows never change in place except for ``score`` and ``temporal``; a map
    update builds a new block with ``take`` and ``concat``. The ±1 bit rows
    of the descriptors (see ``pack_features``) are computed once and travel
    with the rows, so rows kept or moved between blocks are never unpacked
    again.
    """

    __slots__ = ("x", "y", "words", "width", "inserted_at", "score",
                 "temporal", "has_temporal", "_bits")

    def __init__(self, x, y, words, width: int = DEFAULT_DESCRIPTOR_WIDTH, *,
                 inserted_at=None, score=None, temporal=None, has_temporal=None,
                 bits=None):
        self.x = x
        self.y = y
        self.words = words
        self.width = width
        self.inserted_at = inserted_at
        self.score = score
        self.temporal = temporal
        self.has_temporal = has_temporal
        self._bits = bits

    def __len__(self) -> int:
        return self.x.shape[0]

    def __repr__(self) -> str:
        return f"FeatureBlock({len(self)} rows, width={self.width})"

    def take(self, idx) -> "FeatureBlock":
        """The rows idx (index array, boolean mask or slice), in that order.
        A slice gives views that share memory with this block."""
        return FeatureBlock(self.x[idx], self.y[idx], self.words[idx], self.width,
                            inserted_at=_rows(self.inserted_at, idx),
                            score=_rows(self.score, idx),
                            temporal=None if self.temporal is None
                            else self.temporal.take(idx),
                            has_temporal=_rows(self.has_temporal, idx),
                            bits=_rows(self._bits, idx))

    def with_x(self, x) -> "FeatureBlock":
        """The same rows at new x positions. Positions, descriptors and bit
        rows are shared; the result owns copies of the mutable state."""
        return FeatureBlock(x, self.y, self.words, self.width,
                            inserted_at=self.inserted_at,
                            **self._state_copy(), bits=self._bits)

    def as_map(self, inserted_at: int, temporal=None) -> "FeatureBlock":
        """The same rows as a fresh map block: inserted at one traversal,
        score 0, the given temporal model for every row."""
        n = len(self)
        return FeatureBlock(self.x, self.y, self.words, self.width,
                            inserted_at=np.full(n, inserted_at, dtype=np.int64),
                            score=np.zeros(n), temporal=temporal, bits=self._bits)

    def copy_state(self) -> "FeatureBlock":
        """A block sharing this one's rows and bit rows but owning copies of
        the mutable state (score and temporal model)."""
        return FeatureBlock(self.x, self.y, self.words, self.width,
                            inserted_at=self.inserted_at,
                            **self._state_copy(), bits=pack_features(self))

    def _state_copy(self) -> dict:
        return {"score": None if self.score is None else self.score.copy(),
                "temporal": None if self.temporal is None
                else self.temporal.copy(),
                "has_temporal": self.has_temporal}

    def temporal_rows(self) -> np.ndarray:
        """Boolean per row: does the row carry a temporal model."""
        if self.has_temporal is not None:
            return self.has_temporal
        return np.full(len(self), self.temporal is not None)


def _temporal_of(block: FeatureBlock, periods) -> FremenModel:
    """The block's temporal rows, or empty rows of the given periods."""
    if block.temporal is not None:
        return block.temporal
    return FremenModel(periods, len(block))


def concat(a: FeatureBlock, b: FeatureBlock | None) -> FeatureBlock:
    """Rows of a followed by rows of b; a itself when b is None or empty.

    When only one side carries temporal models the other side's rows get
    empty ones, marked absent in ``has_temporal``; ValueError when the two
    sides' models use different period sets."""
    if b is None or not len(b):
        return a
    if not len(a):
        return b
    if a.width != b.width:
        raise ValueError(f"descriptor width mismatch: {a.width} vs {b.width}")

    def cat(u, v):
        return None if u is None or v is None else np.concatenate((u, v))

    temporal = has_temporal = None
    if a.temporal is not None or b.temporal is not None:
        periods = (b.temporal if a.temporal is None else a.temporal).periods
        temporal = FremenModel.concat([_temporal_of(a, periods),
                                       _temporal_of(b, periods)])
        has_temporal = np.concatenate((a.temporal_rows(), b.temporal_rows()))
        if has_temporal.all():
            has_temporal = None
    return FeatureBlock(cat(a.x, b.x), cat(a.y, b.y), cat(a.words, b.words),
                        a.width, inserted_at=cat(a.inserted_at, b.inserted_at),
                        score=cat(a.score, b.score), temporal=temporal,
                        has_temporal=has_temporal, bits=cat(a._bits, b._bits))


def pack_features(block: FeatureBlock) -> np.ndarray:
    """The block's descriptors as ±1 int8 bit rows, ``(n, 64 * n_words)``
    (see ``kernels.bit_rows``): unpacked on first use, then cached on the
    block."""
    if block._bits is None:
        block._bits = bit_rows(block.words)
    return block._bits


@dataclass
class MapAlternative:
    """One alternative feature set for the multiple-map strategy."""

    features: FeatureBlock
    created_at: int


@dataclass
class LocalMap:
    """Features taught at one odometry distance along the path.

    ``alternatives`` holds extra feature sets appended by the multiple-map
    strategy; the taught set in ``features`` always acts as alternative 0.
    """

    index: int
    odometry_distance: float
    features: FeatureBlock
    alternatives: list = field(default_factory=list)


@dataclass
class PathMap:
    """Ordered local maps indexed by odometry distance."""

    local_maps: list
    image_width: int = 640
    descriptor_width: int = DEFAULT_DESCRIPTOR_WIDTH
    taught_at: float = 0.0

    def __post_init__(self):
        dists = [m.odometry_distance for m in self.local_maps]
        if any(b <= a for a, b in zip(dists, dists[1:])):
            raise ConfigError("local map odometry distances must be strictly increasing")
        self._distances = dists

    @property
    def length_m(self) -> float:
        return self._distances[-1] if self._distances else 0.0

    def copy(self) -> "PathMap":
        """A path one strategy can update without touching this one."""
        maps = [LocalMap(lm.index, lm.odometry_distance, lm.features.copy_state(),
                         [MapAlternative(a.features.copy_state(), a.created_at)
                          for a in lm.alternatives])
                for lm in self.local_maps]
        return PathMap(maps, self.image_width, self.descriptor_width,
                       self.taught_at)
