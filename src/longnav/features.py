"""Core domain types: feature blocks of binary descriptors, local maps, paths."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fremen import FremenModel
from .kernels import bit_rows

DEFAULT_DESCRIPTOR_WIDTH = 256


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
    traversal that inserted the row), ``score`` (float64) and, under fremen,
    one batched ``temporal`` FremenModel with a model for every row (see
    ``strategies.init_strategy_state``). These are None on the blocks of
    camera frames.

    Rows never change in place except for ``score`` and ``temporal``; a map
    update builds a new block with ``take`` and ``concat``. The ±1 bit rows
    of the descriptors (see ``pack_features``) are computed once and travel
    with the rows, so rows kept or moved between blocks are never unpacked
    again.
    """

    __slots__ = ("x", "y", "words", "width", "inserted_at", "score",
                 "temporal", "_bits")

    def __init__(self, x, y, words, width: int = DEFAULT_DESCRIPTOR_WIDTH, *,
                 inserted_at=None, score=None, temporal=None, bits=None):
        self.x = x
        self.y = y
        self.words = words
        self.width = width
        self.inserted_at = inserted_at
        self.score = score
        self.temporal = temporal
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
                            bits=_rows(self._bits, idx))

    def with_x(self, x) -> "FeatureBlock":
        """The same rows at new x positions, without strategy state; y,
        descriptors and bit rows are shared."""
        return FeatureBlock(x, self.y, self.words, self.width, bits=self._bits)

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
                            score=None if self.score is None
                            else self.score.copy(),
                            temporal=None if self.temporal is None
                            else self.temporal.copy(),
                            bits=pack_features(self))


def concat(a: FeatureBlock, b: FeatureBlock | None) -> FeatureBlock:
    """Rows of a followed by rows of b; a itself when b is None or empty.

    ValueError unless both sides carry temporal models or neither does, and
    when the two sides' models use different period sets."""
    if b is None or not len(b):
        return a
    if not len(a):
        return b
    if a.width != b.width:
        raise ValueError(f"descriptor width mismatch: {a.width} vs {b.width}")
    if (a.temporal is None) != (b.temporal is None):
        raise ValueError("cannot concatenate rows with temporal models and "
                         "rows without")

    def cat(u, v):
        return None if u is None or v is None else np.concatenate((u, v))

    temporal = (None if a.temporal is None
                else FremenModel.concat([a.temporal, b.temporal]))
    return FeatureBlock(cat(a.x, b.x), cat(a.y, b.y), cat(a.words, b.words),
                        a.width, inserted_at=cat(a.inserted_at, b.inserted_at),
                        score=cat(a.score, b.score), temporal=temporal,
                        bits=cat(a._bits, b._bits))


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

    def copy(self) -> "PathMap":
        """A path one strategy can update without touching this one."""
        maps = [LocalMap(lm.index, lm.odometry_distance, lm.features.copy_state(),
                         [MapAlternative(a.features.copy_state(), a.created_at)
                          for a in lm.alternatives])
                for lm in self.local_maps]
        return PathMap(maps, self.image_width, self.descriptor_width,
                       self.taught_at)
