"""File formats: frame datasets (JSONL), map snapshots (JSON), logs (JSONL).

A dataset line is one frame, {"traversal":0,"location":3,"time_s":0.0,
"gamma_px":0.0,"features":[{"x":12.5,"y":80.0,"d":"<hex>"}]}, the teach pass
being traversal 0. A snapshot's feature records add "score", "inserted_at" and
"temporal" (null, or {"n_obs":..,"mu":..,"components":[[period,re,im],..]}),
and each alternative is {"created_at":<traversal>,"features":[..]}. A
descriptor is lowercase hex of width/4 digits, width being a dataset's first
descriptor's and a snapshot's "descriptor_width". Positions round-trip at full
float precision. A log line is one LocationRecord, keyed by its field names.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .errors import DatasetError
from .features import FeatureBlock, LocalMap, PathMap
from .fremen import FremenModel
from .simulator import Frame, LocationRecord

_BAD = (KeyError, ValueError, TypeError, OverflowError)  # from a bad value


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


def words_from_hex(strings: list, width: int) -> np.ndarray:
    """Packed ``(n, ceil(width / 64))`` rows from hex descriptors of width/4
    digits each; ValueError naming a descriptor of another width, and on a
    width that is not positive or on malformed hex."""
    n_words = (width + 63) // 64
    if not strings:
        return np.zeros((0, n_words), dtype=np.uint64)
    if width <= 0:
        raise ValueError(f"descriptor width {width} is not positive")
    if set(map(len, strings)) != {width / 4}:
        bad = next(4 * len(s) for s in strings if 4 * len(s) != width)
        raise ValueError(f"descriptor width {bad} differs from {width}")
    if width % 8:  # whole bytes: one leading zero digit
        strings = ["0" + s for s in strings]
    n_bytes = (width + 7) // 8
    raw = bytes.fromhex("".join(strings))
    if len(raw) != n_bytes * len(strings):
        raise ValueError("malformed hex descriptor")
    octets = np.zeros((len(strings), 8 * n_words), dtype=np.uint8)
    octets[:, :n_bytes] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, n_bytes)[:, ::-1]
    return octets.view("<u8").astype(np.uint64, copy=False)


def _records(block: FeatureBlock, state: bool = False) -> list:
    """The block's rows as feature records: x, y and d, and with state the
    map-state columns."""
    recs = [{"x": x, "y": y, "d": d}
            for x, y, d in zip(block.x.tolist(), block.y.tolist(),
                               hex_rows(block.words, block.width))]
    if state:
        m = block.temporal
        models = [None] * len(block) if m is None else [
            {"n_obs": k, "mu": mu, "components": list(map(list, zip(m.periods, re, im)))}
            for k, mu, re, im in zip(m.n_obs.tolist(), m.mu.tolist(),
                                     m.re.tolist(), m.im.tolist())]
        for rec, score, inserted, model in zip(
                recs, block.score.tolist(), block.inserted_at.tolist(), models):
            rec.update(score=score, inserted_at=inserted, temporal=model)
    return recs


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
                "features": _records(frame.features),
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


def _unit_range(values: np.ndarray, name: str) -> np.ndarray:
    """values; ValueError unless every one lies in [-1, 1]."""
    out = np.abs(values) > 1.0
    if out.any():
        raise ValueError(f"{name} is {float(values[out][0])}, outside [-1, 1]")
    return values


def _model(docs: list) -> FremenModel | None:
    """One fremen model for all rows from their "temporal" values, None when
    every one is null; ValueError when only some are, when an n_obs is not a
    JSON integer >= 0, when a mean mu or a component's re or im lies outside
    the observation range [-1, 1] (running means of observations in it
    never do), and unless every row has row 0's periods."""
    if not docs or None in docs:
        if any(d is not None for d in docs):
            raise ValueError("a feature set mixes rows with and without a "
                             "temporal model")
        return None
    n_obs = np.array([_integer(d["n_obs"], "n_obs") for d in docs],
                     dtype=np.int64)
    if n_obs.min() < 0:
        raise ValueError(f"n_obs is {n_obs.min()}, below 0")
    comps = [d["components"] for d in docs]
    if not {len(v) for c in comps for v in c} <= {3}:
        raise ValueError("a fremen component is not [period, re, im]")
    if len({tuple(v[0] for v in c) for c in comps}) > 1:
        raise ValueError("a feature set's fremen models have different periods")
    values = _numbers([v for c in comps for comp in c for v in comp],
                      "fremen component value").reshape(len(docs), -1, 3)
    model = FremenModel(values[0, :, 0].tolist(), len(docs))
    model.n_obs[:] = n_obs
    model.mu[:] = _unit_range(_numbers([d["mu"] for d in docs], "mu"), "mu")
    model.re[:] = _unit_range(values[:, :, 1], "fremen component re")
    model.im[:] = _unit_range(values[:, :, 2], "fremen component im")
    return model


def _block(recs: list, width: int | None, state: bool = False) -> FeatureBlock:
    """Feature records as one block of width-bit descriptors (None: the first
    one's): x, y and d, and with state the map-state columns (by default
    score 0, inserted_at 0 and no temporal model)."""
    if type(recs) is not list:
        raise ValueError("features is not a list")
    try:
        hexes = [r["d"] for r in recs]
    except TypeError:  # only an object takes a key
        raise ValueError("a feature record is not an object") from None
    if width is None:
        width = 4 * len(hexes[0]) if hexes else 0
    columns = {
        "inserted_at": np.array([_integer(r.get("inserted_at", 0), "inserted_at")
                                 for r in recs], dtype=np.int64),
        "score": _numbers([r.get("score", 0.0) for r in recs], "score"),
        "temporal": _model([r.get("temporal") for r in recs])} if state else {}
    return FeatureBlock(_numbers([r["x"] for r in recs], "x"),
                        _numbers([r["y"] for r in recs], "y"),
                        words_from_hex(hexes, width), width, **columns)


def read_dataset(path):
    """Yield (traversal, Frame) pairs from a dataset file; a non-finite
    number, an integer that is not a JSON integer and a descriptor of another
    width than the file's first are rejected with DatasetError naming
    path:line."""
    p = Path(path)
    width = None  # fixed by the file's first descriptor
    with p.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                block = _block(rec["features"], width)
                if width is None and len(block):
                    width = block.width
                frame = Frame(_integer(rec["location"], "location"),
                              _number(rec["time_s"], "time_s"), block,
                              _number(rec["gamma_px"], "gamma_px"))
                yield _integer(rec["traversal"], "traversal"), frame
            except _BAD as e:
                raise DatasetError(f"{p}:{lineno}: bad dataset record: {e}") from e


def write_map_snapshot(path_map: PathMap, path) -> None:
    """Write the path; an alternative's created_at is its rows' inserted_at."""
    doc = {
        "image_width": path_map.image_width,
        "descriptor_width": path_map.descriptor_width,
        "taught_at": path_map.taught_at,
        "local_maps": [
            {
                "index": lm.index,
                "odometry_distance": lm.odometry_distance,
                "features": _records(lm.features, state=True),
                "alternatives": [
                    {"created_at": int(alt.inserted_at[0]),
                     "features": _records(alt, state=True)}
                    for alt in lm.alternatives
                ],
            }
            for lm in path_map.local_maps
        ],
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def read_map_snapshot(path) -> PathMap:
    """The PathMap of a snapshot file. A bad value, a local map whose taught
    set has no rows, and an alternative without rows or with rows inserted at
    another traversal than its created_at are rejected with DatasetError
    naming the file."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
        width = _integer(doc["descriptor_width"], "descriptor_width")
        maps = []
        for lm in doc["local_maps"]:
            index = _integer(lm["index"], "index")
            feats = _block(lm["features"], width, state=True)
            if not len(feats):
                raise ValueError(f"local map {index}'s taught set has no rows")
            alts = []
            for a in lm.get("alternatives", []):
                alt = _block(a["features"], width, state=True)
                created = _integer(a["created_at"], "created_at")
                inserted = sorted(set(alt.inserted_at.tolist()))
                if inserted != [created]:  # no rows, or some not created then
                    raise ValueError(f"local map {index} has an alternative "
                                     f"created at {created} whose rows were "
                                     f"inserted at {inserted}")
                alts.append(alt)
            odometry = _number(lm["odometry_distance"], "odometry_distance")
            maps.append(LocalMap(index, odometry, feats, alts))
        return PathMap(maps,
                       image_width=_integer(doc["image_width"], "image_width"),
                       descriptor_width=width,
                       taught_at=_number(doc.get("taught_at", 0.0), "taught_at"))
    except _BAD as e:
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
            except _BAD as e:
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
