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


def _finite(rec: dict, key: str) -> float:
    return _number(rec[key], key)


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
                              _finite(rec, "time_s"), block,
                              _finite(rec, "gamma_px"))
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
    _finite(doc, "mu")
    for comp in doc["components"]:
        for v in comp:  # period, re, im
            _number(v, "fremen component value")
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
        np.array([_finite(r, "x") for r in recs], dtype=np.float64),
        np.array([_finite(r, "y") for r in recs], dtype=np.float64),
        words_from_hex([r["d"] for r in recs], (width + 63) // 64), width,
        inserted_at=np.array([_integer(r.get("inserted_at", 0), "inserted_at")
                              for r in recs], dtype=np.int64),
        score=np.array([_number(r.get("score", 0.0), "score") for r in recs],
                       dtype=np.float64),
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
            maps.append(LocalMap(_integer(lm["index"], "index"),
                                 _finite(lm, "odometry_distance"), feats, alts))
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


def _number_or_null(v, name: str):
    return None if v is None else _number(v, name)


def read_logs(path) -> list:
    """The LocationRecords of a log file written by write_logs.

    Non-integer traversal, location or counts, a non-string strategy, and
    non-numeric or non-finite delta_px, gamma_px, time_s or offset_m (delta_px
    and offset_m may be null) are rejected with DatasetError naming path:line,
    and so is a row of another strategy than the first row's or a repeated
    (traversal, location), since a log holds one strategy's run; so is a
    file without records.
    """
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
                if not isinstance(row["strategy"], str):
                    raise ValueError(f"strategy is {row['strategy']!r}, "
                                     "not a string")
                rec = LocationRecord(
                    traversal=_integer(row["traversal"], "traversal"),
                    strategy=row["strategy"],
                    time_s=_finite(row, "time_s"),
                    location=_integer(row["location"], "location"),
                    delta_px=_number_or_null(row["delta_px"], "delta_px"),
                    gamma_px=_finite(row, "gamma_px"),
                    n_correct=_integer(row["n_correct"], "n_correct"),
                    n_incorrect=_integer(row["n_incorrect"], "n_incorrect"),
                    n_not_matched=_integer(row["n_not_matched"],
                                           "n_not_matched"),
                    map_size=_integer(row["map_size"], "map_size"),
                    n_alternatives=_integer(row.get("n_alternatives", 1),
                                            "n_alternatives"),
                    best_alternative=_integer(row.get("best_alternative", 0),
                                              "best_alternative"),
                    offset_m=_number_or_null(row.get("offset_m"), "offset_m"))
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
