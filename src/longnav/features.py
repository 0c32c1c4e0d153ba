"""Core domain types: feature blocks of binary descriptors, local maps, paths."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fremen import FremenModel
from .kernels import bit_rows

DEFAULT_DESCRIPTOR_WIDTH = 256


def _rows(a, idx):
    return None if a is None else a[idx]


_next_id = 0  # rows of any two blocks may meet in one product


def _fresh_ids(n: int) -> np.ndarray:
    """n int64 row ids that no row has had before in this process."""
    global _next_id
    start, _next_id = _next_id, _next_id + n
    return np.arange(start, _next_id, dtype=np.int64)


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
    again. So does each row's ``ids`` entry (int64): a new block gets fresh
    ids (see ``_fresh_ids``), and rows that share an id share their
    descriptor, so a product with a view multiplies them once (see
    ``kernels.ViewProduct``). Ids live in memory only; no file holds them.
    """

    __slots__ = ("x", "y", "words", "width", "inserted_at", "score",
                 "temporal", "ids", "_bits")

    def __init__(self, x, y, words, width: int = DEFAULT_DESCRIPTOR_WIDTH, *,
                 inserted_at=None, score=None, temporal=None, ids=None,
                 bits=None):
        self.x = x
        self.y = y
        self.words = words
        self.width = width
        self.inserted_at = inserted_at
        self.score = score
        self.temporal = temporal
        self.ids = _fresh_ids(x.shape[0]) if ids is None else ids
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
                            ids=self.ids[idx], bits=_rows(self._bits, idx))

    def with_x(self, x) -> "FeatureBlock":
        """The same rows at new x positions, without strategy state; y,
        descriptors, ids and bit rows are shared."""
        return FeatureBlock(x, self.y, self.words, self.width, ids=self.ids,
                            bits=self._bits)

    def in_image(self, image_width: int) -> bool:
        """Every row's x lies in [0, image_width), the range registration's
        histogram spans."""
        x = self.x
        return not len(x) or bool(x.min() >= 0.0 and x.max() < image_width)

    def as_map(self, inserted_at: int, temporal=None) -> "FeatureBlock":
        """The same rows as a fresh map block: inserted at one traversal,
        score 0, the given temporal model for every row."""
        n = len(self)
        return FeatureBlock(self.x, self.y, self.words, self.width,
                            inserted_at=np.full(n, inserted_at, dtype=np.int64),
                            score=np.zeros(n), temporal=temporal, ids=self.ids,
                            bits=self._bits)

    def copy_state(self) -> "FeatureBlock":
        """A block sharing this one's rows and bit rows but owning copies of
        the mutable state (score and temporal model)."""
        return FeatureBlock(self.x, self.y, self.words, self.width,
                            inserted_at=self.inserted_at,
                            score=None if self.score is None
                            else self.score.copy(),
                            temporal=None if self.temporal is None
                            else self.temporal.copy(),
                            ids=self.ids, bits=pack_features(self))


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
                        ids=cat(a.ids, b.ids), bits=cat(a._bits, b._bits))


def pack_features(block: FeatureBlock) -> np.ndarray:
    """The block's descriptors as ±1 int8 bit rows, ``(n, 64 * n_words)``
    (see ``kernels.bit_rows``): unpacked on first use, then cached on the
    block."""
    if block._bits is None:
        block._bits = bit_rows(block.words)
    return block._bits


@dataclass
class LocalMap:
    """Features taught at one odometry distance along the path.

    ``alternatives`` holds the map blocks the multiple-map strategy appends,
    each inserted at one traversal; the taught set in ``features`` always
    acts as alternative 0."""

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
                         [a.copy_state() for a in lm.alternatives])
                for lm in self.local_maps]
        return PathMap(maps, self.image_width, self.descriptor_width,
                       self.taught_at)
