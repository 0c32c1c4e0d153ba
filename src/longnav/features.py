"""Core domain types: feature blocks of binary descriptors, local maps, paths."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
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
    update builds its next block with ``exchange``. The ±1 bit rows
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


def _stack(a, keep, b, picks, n_new: int):
    """Rows keep of a (an index array) followed by n_new rows of b, those
    picks (every row when picks is None; a scalar b fills them), in one new
    array that copies each row once. None when a side that gives rows is
    None (only bit rows may be)."""
    k = len(keep)
    if a is None or b is None:
        if (a is None and k) or (b is None and n_new) or a is b:
            return None
        a, b, picks = (b, b, picks) if a is None else (a, a, keep[:0])
    out = np.empty((k + n_new,) + a.shape[1:], a.dtype)
    # indices come in range; "clip" spares take its checked copy of out
    a.take(keep, 0, out[:k], "clip")
    if n_new:
        if picks is None:
            out[k:] = b
        else:
            b.take(picks, 0, out[k:], "clip")
    return out


def exchange(feats: FeatureBlock, keep, view: FeatureBlock, picks, x,
             inserted_at: int) -> FeatureBlock:
    """The map block that one update leaves: rows keep of the map block
    feats (an index array, in that order) followed by rows picks of the view
    (an index array; None for every row, in view order) as fresh map rows at
    positions x. Fresh rows are inserted at inserted_at with score 0 and,
    when feats carries temporal models, models without observations over the
    same periods.

    Each array is gathered once. A block of the whole view alone shares the
    view's y, descriptors, ids and bit rows. ValueError when both sides give
    rows and their descriptor widths differ."""
    n_new = len(x)
    if len(keep) and n_new and feats.width != view.width:
        raise ValueError(f"descriptor width mismatch: {feats.width} vs "
                         f"{view.width}")
    temporal = (None if feats.temporal is None
                else feats.temporal.exchange(keep, n_new))
    if picks is None and not len(keep):
        return FeatureBlock(x, view.y, view.words, view.width,
                            inserted_at=np.full(n_new, inserted_at,
                                                dtype=np.int64),
                            score=np.zeros(n_new), temporal=temporal,
                            ids=view.ids, bits=view._bits)
    return FeatureBlock(_stack(feats.x, keep, x, None, n_new),
                        _stack(feats.y, keep, view.y, picks, n_new),
                        _stack(feats.words, keep, view.words, picks, n_new),
                        feats.width if len(keep) else view.width,
                        inserted_at=_stack(feats.inserted_at, keep,
                                           inserted_at, None, n_new),
                        score=_stack(feats.score, keep, 0.0, None, n_new),
                        temporal=temporal,
                        ids=_stack(feats.ids, keep, view.ids, picks, n_new),
                        bits=_stack(feats._bits, keep, view._bits, picks,
                                    n_new))


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
