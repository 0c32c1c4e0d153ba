"""File formats: frame datasets (JSONL), map snapshots (JSON), logs (JSONL).

Dataset lines look like
{"traversal":0,"location":3,"time_s":0.0,"gamma_px":0.0,
 "features":[{"x":12.5,"y":80.0,"d":"<hex>"}]}
with the teach pass stored as traversal 0. Descriptors are lowercase hex,
width/4 characters. Positions round-trip at full float precision.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DatasetError
from .features import (FeatureBlock, LocalMap, MapAlternative, PathMap,
                       hex_rows, words_from_hex)
from .fremen import FremenModel
from .simulator import Frame, LocationRecord, TraversalLog


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
                frame = Frame(int(rec["location"]), _finite(rec, "time_s"),
                              block, _finite(rec, "gamma_px"))
                yield int(rec["traversal"]), frame
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
        inserted_at=np.array([int(r.get("inserted_at", 0)) for r in recs],
                             dtype=np.int64),
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
        width = int(doc["descriptor_width"])
        maps = []
        for lm in doc["local_maps"]:
            feats = _block_from_snapshot(lm["features"], width)
            alts = [MapAlternative(_block_from_snapshot(a["features"], width),
                                   int(a["created_at"]))
                    for a in lm.get("alternatives", [])]
            maps.append(LocalMap(int(lm["index"]),
                                 _finite(lm, "odometry_distance"), feats, alts))
        return PathMap(maps, image_width=int(doc["image_width"]),
                       descriptor_width=width,
                       taught_at=_number(doc.get("taught_at", 0.0), "taught_at"))
    except (KeyError, ValueError, TypeError) as e:
        raise DatasetError(f"{p}: bad map snapshot: {e}") from e


def write_logs(logs, path) -> int:
    """One JSONL line per location record; returns the line count."""
    n = 0
    with Path(path).open("w") as fh:
        for log in logs:
            for rec in log.records:
                row = {
                    "traversal": log.traversal,
                    "strategy": log.strategy,
                    "time_s": log.time,
                    "location": rec.location,
                    "delta_px": rec.delta,
                    "gamma_px": rec.gamma,
                    "n_correct": rec.n_correct,
                    "n_incorrect": rec.n_incorrect,
                    "n_not_matched": rec.n_not_matched,
                    "map_size": rec.map_size,
                    "n_alternatives": rec.n_alternatives,
                    "best_alternative": rec.best_alternative,
                    "offset_m": rec.offset_m,
                }
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
                n += 1
    return n


def _number_or_null(v, name: str):
    return None if v is None else _number(v, name)


def read_logs(path) -> list:
    """Rebuild TraversalLogs from a log file written by write_logs.

    Non-numeric or non-finite delta_px, gamma_px, time_s or offset_m (delta_px
    and offset_m may be null) are rejected with DatasetError naming path:line,
    and so is a file without records.
    """
    p = Path(path)
    logs = []
    current = None
    with p.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                rec = LocationRecord(
                    location=int(row["location"]),
                    delta=_number_or_null(row["delta_px"], "delta_px"),
                    gamma=_finite(row, "gamma_px"),
                    n_correct=int(row["n_correct"]),
                    n_incorrect=int(row["n_incorrect"]),
                    n_not_matched=int(row["n_not_matched"]),
                    map_size=int(row["map_size"]),
                    n_alternatives=int(row.get("n_alternatives", 1)),
                    best_alternative=int(row.get("best_alternative", 0)),
                    offset_m=_number_or_null(row.get("offset_m"), "offset_m"))
                tr = int(row["traversal"])
                strategy, time_s = row["strategy"], _finite(row, "time_s")
            except (KeyError, ValueError, TypeError) as e:
                raise DatasetError(f"{p}:{lineno}: bad log record: {e}") from e
            if current is None or current.traversal != tr:
                current = TraversalLog(tr, strategy, time_s, [])
                logs.append(current)
            current.records.append(rec)
    if not logs:
        raise DatasetError(f"{p}: no log records")
    return logs
