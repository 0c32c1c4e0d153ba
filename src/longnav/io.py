"""File formats: frame datasets (JSONL), map snapshots (JSON), logs (JSONL).

Dataset lines look like
{"traversal":0,"location":3,"time_s":0.0,"gamma_px":0.0,
 "features":[{"x":12.5,"y":80.0,"d":"<hex>"}]}
with the teach pass stored as traversal 0. Descriptors are lowercase hex,
width/4 characters. Positions round-trip at full float precision. A log line
is one LocationRecord, keyed by its field names.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .errors import DatasetError
from .features import (FeatureBlock, LocalMap, MapAlternative, PathMap,
                       hex_rows, words_from_hex)
from .fremen import FremenModel
from .simulator import Frame, LocationRecord


def _feature_records(block: FeatureBlock) -> list:
    return [{"x": x, "y": y, "d": d}
            for x, y, d in zip(block.x.tolist(), block.y.tolist(),
                               hex_rows(block.words, block.width))]


def write_dataset(pairs, path) -> int:
    """Write (traversal, Frame) pairs as JSONL; returns the line count."""
    n = 0
    with Path(path).open("w") as fh:
        for traversal, frame in pairs:
            rec = {
                "traversal": int(traversal),
                "location": int(frame.location),
                "time_s": float(frame.time),
                "gamma_px": float(frame.gamma),
                "features": _feature_records(frame.features),
            }
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            n += 1
    return n


def _number(v, name: str) -> float:
    """v as a float; ValueError unless it is a finite JSON number."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{name} is {v!r}, not a number")
    if not math.isfinite(v):
        raise ValueError(f"{name} is {v}, not a finite number")
    return float(v)


def _integer(v, name: str) -> int:
    """v itself; ValueError unless it is a JSON integer."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{name} is {v!r}, not an integer")
    return v


def _numbers(values: list, name: str) -> np.ndarray:
    """values as a float64 array; ValueError unless all are finite JSON
    numbers."""
    if not set(map(type, values)) <= {int, float}:
        for v in values:
            _number(v, name)
    out = np.array(values, dtype=np.float64)
    if not np.isfinite(out).all():
        _number(float(out[~np.isfinite(out)][0]), name)
    return out


def read_dataset(path):
    """Yield (traversal, Frame) pairs from a dataset file.

    Non-finite numbers, and descriptors whose width differs from the first
    one in the file, are rejected with DatasetError naming path:line.
    """
    p = Path(path)
    n_hex = None  # hex digits per descriptor, fixed by the first one
    with p.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                feats = rec["features"]
                hexes = [fr["d"] for fr in feats]
                if n_hex is None and hexes:
                    n_hex = len(hexes[0])
                for s in hexes:
                    if len(s) != n_hex:
                        raise ValueError(f"descriptor width {4 * len(s)} differs "
                                         f"from the file's first, {4 * n_hex}")
                width = 4 * (n_hex or 0)
                block = FeatureBlock(_numbers([fr["x"] for fr in feats], "x"),
                                     _numbers([fr["y"] for fr in feats], "y"),
                                     words_from_hex(hexes, (width + 63) // 64),
                                     width)
                frame = Frame(_integer(rec["location"], "location"),
                              _number(rec["time_s"], "time_s"), block,
                              _number(rec["gamma_px"], "gamma_px"))
                yield _integer(rec["traversal"], "traversal"), frame
            except (KeyError, ValueError, TypeError) as e:
                raise DatasetError(f"{p}:{lineno}: bad dataset record: {e}") from e


def _snapshot_records(block: FeatureBlock) -> list:
    n = len(block)
    temporal = [None] * n
    if block.temporal is not None:
        temporal = [block.temporal.take(i).to_dict() for i in range(n)]
    return [{"x": x, "y": y, "d": d, "score": score, "inserted_at": ins,
             "temporal": tm}
            for x, y, d, score, ins, tm in zip(
                block.x.tolist(), block.y.tolist(),
                hex_rows(block.words, block.width), block.score.tolist(),
                block.inserted_at.tolist(), temporal)]


def _temporal_from_snapshot(doc: dict) -> FremenModel:
    _number(doc["mu"], "mu")
    _numbers([v for comp in doc["components"] for v in comp],  # period, re, im
             "fremen component value")
    return FremenModel.from_dict(doc)


def _block_from_snapshot(recs: list, width: int) -> FeatureBlock:
    """A map block from snapshot rows; ValueError when a row is not an
    object, or when some rows have a temporal model and others do not."""
    if not all(isinstance(r, dict) for r in recs):
        raise ValueError("a feature record is not an object")
    has = [r.get("temporal") is not None for r in recs]
    temporal = None
    if any(has):
        if not all(has):
            raise ValueError("a feature set mixes rows with and without a "
                             "temporal model")
        temporal = FremenModel.concat([_temporal_from_snapshot(r["temporal"])
                                       for r in recs])
    return FeatureBlock(
        _numbers([r["x"] for r in recs], "x"),
        _numbers([r["y"] for r in recs], "y"),
        words_from_hex([r["d"] for r in recs], (width + 63) // 64), width,
        inserted_at=np.array([_integer(r.get("inserted_at", 0), "inserted_at")
                              for r in recs], dtype=np.int64),
        score=_numbers([r.get("score", 0.0) for r in recs], "score"),
        temporal=temporal)


def write_map_snapshot(path_map: PathMap, path) -> None:
    doc = {
        "image_width": path_map.image_width,
        "descriptor_width": path_map.descriptor_width,
        "taught_at": path_map.taught_at,
        "local_maps": [
            {
                "index": lm.index,
                "odometry_distance": lm.odometry_distance,
                "features": _snapshot_records(lm.features),
                "alternatives": [
                    {"created_at": alt.created_at,
                     "features": _snapshot_records(alt.features)}
                    for alt in lm.alternatives
                ],
            }
            for lm in path_map.local_maps
        ],
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def read_map_snapshot(path) -> PathMap:
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
        width = _integer(doc["descriptor_width"], "descriptor_width")
        maps = []
        for lm in doc["local_maps"]:
            feats = _block_from_snapshot(lm["features"], width)
            alts = [MapAlternative(_block_from_snapshot(a["features"], width),
                                   _integer(a["created_at"], "created_at"))
                    for a in lm.get("alternatives", [])]
            odometry = _number(lm["odometry_distance"], "odometry_distance")
            maps.append(LocalMap(_integer(lm["index"], "index"), odometry,
                                 feats, alts))
        return PathMap(maps,
                       image_width=_integer(doc["image_width"], "image_width"),
                       descriptor_width=width,
                       taught_at=_number(doc.get("taught_at", 0.0), "taught_at"))
    except (KeyError, ValueError, TypeError) as e:
        raise DatasetError(f"{p}: bad map snapshot: {e}") from e


def write_logs(records, path) -> int:
    """One JSONL line per LocationRecord; returns the line count."""
    with Path(path).open("w") as fh:
        for rec in records:
            fh.write(json.dumps(dataclasses.asdict(rec),
                                separators=(",", ":")) + "\n")
    return len(records)


def _string(v, name: str) -> str:
    """v itself; ValueError unless it is a JSON string."""
    if not isinstance(v, str):
        raise ValueError(f"{name} is {v!r}, not a string")
    return v


# Each LocationRecord field as a log key: its name, the check its annotation
# picks (one ending " | None" also takes null), whether it has a default, and
# the range its metadata gives (a minimum or None, and the field it must be
# below or None).
_CHECKS = {"int": _integer, "float": _number, "str": _string}
_LOG_FIELDS = [(f.name, _CHECKS[f.type.removesuffix(" | None")],
                f.type.endswith(" | None"), f.default is not dataclasses.MISSING,
                f.metadata.get("min"), f.metadata.get("below"))
               for f in dataclasses.fields(LocationRecord)]


def _check_ranges(rec: LocationRecord) -> None:
    """ValueError unless each of rec's fields lies in its _LOG_FIELDS range."""
    for name, _, _, _, low, below in _LOG_FIELDS:
        v = getattr(rec, name)
        if low is not None and v < low:
            raise ValueError(f"{name} is {v}, below {low}")
        if below is not None and v >= getattr(rec, below):
            raise ValueError(f"{name} is {v}, not below {below} "
                             f"{getattr(rec, below)}")


def read_logs(path) -> list:
    """The LocationRecords of a log file written by write_logs, each row's
    types and ranges checked as _LOG_FIELDS says. A bad row, a row of another
    strategy than the first row's and a repeated (traversal, location), since
    a log holds one strategy's run, are rejected with DatasetError naming
    path:line; so is a file without records."""
    p = Path(path)
    records = []
    seen = set()
    with p.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                rec = LocationRecord(**{
                    name: None if null and row[name] is None
                    else check(row[name], name)
                    for name, check, null, optional, _, _ in _LOG_FIELDS
                    if not optional or name in row})
                _check_ranges(rec)
            except (KeyError, ValueError, TypeError) as e:
                raise DatasetError(f"{p}:{lineno}: bad log record: {e}") from e
            if records and rec.strategy != records[0].strategy:
                raise DatasetError(f"{p}:{lineno}: a {rec.strategy!r} record in "
                                   f"a log of {records[0].strategy!r}; one log "
                                   "file holds one strategy")
            key = (rec.traversal, rec.location)
            if key in seen:
                raise DatasetError(f"{p}:{lineno}: traversal {key[0]}, location "
                                   f"{key[1]} is logged twice")
            seen.add(key)
            records.append(rec)
    if not records:
        raise DatasetError(f"{p}: no log records")
    return records
