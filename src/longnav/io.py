"""File formats: frame datasets (JSONL), map snapshots (JSON), logs (JSONL).

A dataset line is one frame, {"traversal":0,"location":3,"time_s":0.0,
"gamma_px":0.0,"x":[12.5,..],"y":[80.0,..],"d":"<hex>"}, the teach pass being
traversal 0. Its features are columns: x and y hold one position per
feature, and d every feature's descriptor, one after another, as lowercase
hex of width/4 digits each. A frame's width is thus 4·len(d)/len(x), and
every frame with features must have the width of the file's first. A file
of per-feature records (a "features" list, the layout before columns) is
rejected. A snapshot keeps one record per feature, {"x":..,"y":..,"d":..,
"score":..,"inserted_at":..,"temporal":..}, "temporal" being null or
{"n_obs":..,"mu":..,"components":[[period,re,im],..]}, each descriptor
"descriptor_width"/4 digits long; each alternative is
{"created_at":<traversal>,"features":[..]}. Its records are transposed to
and from the same columns, so one decoder and one encoder serve both
formats. Positions round-trip at full float precision. A log line is one
LocationRecord, keyed by its field names.
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


def hex_digits(words: np.ndarray, width: int) -> str:
    """Lowercase hex of the packed descriptor rows, one after another,
    width/4 digits each."""
    n, n_words = words.shape
    step = 16 * n_words
    # most significant word first, each word big-endian: the integer's digits
    digits = words[:, ::-1].astype(">u8").tobytes().hex().encode()
    rows = np.frombuffer(digits, dtype=np.uint8).reshape(n, step)
    return rows[:, step - width // 4:].tobytes().decode()


def words_from_hex(digits: str, n: int, width: int) -> np.ndarray:
    """Packed ``(n, ceil(width / 64))`` rows from n descriptors of width/4
    hex digits each, one after another; ValueError on malformed hex."""
    step = 16 * ((width + 63) // 64)
    raw = digits.encode()
    if len(raw) != n * (width // 4):
        raise ValueError("malformed hex descriptor")
    # each row zero-padded to whole words: the integer's big-endian digits
    rows = np.full((n, step), ord("0"), dtype=np.uint8)
    rows[:, step - width // 4:] = np.frombuffer(raw, dtype=np.uint8).reshape(
        n, width // 4)
    try:
        octets = bytes.fromhex(rows.tobytes().decode())
    except ValueError:  # a byte that is no hex digit
        raise ValueError("malformed hex descriptor") from None
    if len(octets) != n * step // 2:  # fromhex skips whitespace
        raise ValueError("malformed hex descriptor")
    # least significant word first
    words = np.frombuffer(octets, dtype=">u8").reshape(n, step // 16)
    return words[:, ::-1].astype(np.uint64, order="C")


def _columns(block: FeatureBlock) -> dict:
    """The block's features as columns: x and y, and d, every descriptor's
    hex one after another."""
    return {"x": block.x.tolist(), "y": block.y.tolist(),
            "d": hex_digits(block.words, block.width)}


def _records(block: FeatureBlock) -> list:
    """The map block's rows as snapshot feature records: its columns
    transposed, with the map-state columns."""
    cols = _columns(block)
    k, d = block.width // 4, cols["d"]
    m = block.temporal
    models = [None] * len(block) if m is None else [
        {"n_obs": n, "mu": mu, "components": list(map(list, zip(m.periods, re, im)))}
        for n, mu, re, im in zip(m.n_obs.tolist(), m.mu.tolist(),
                                 m.re.tolist(), m.im.tolist())]
    return [{"x": x, "y": y, "d": d[i * k:(i + 1) * k], "score": score,
             "inserted_at": inserted, "temporal": model}
            for i, (x, y, score, inserted, model) in enumerate(zip(
                cols["x"], cols["y"], block.score.tolist(),
                block.inserted_at.tolist(), models))]


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
                **_columns(frame.features),
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
    """values as a float64 array; ValueError unless they are a list of finite
    JSON numbers."""
    if type(values) is not list:
        raise ValueError(f"{name} is not a list")
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


def _block(cols: dict, width: int | None, **state) -> FeatureBlock:
    """One block of width-bit descriptors (None: the block's own,
    4·len(d)/len(x), or 0 without rows) from the columns x, y and d; state
    gives the map-state columns. ValueError on a bad value, on columns of
    different lengths and on a descriptor width other than width."""
    x, y, d = _numbers(cols["x"], "x"), _numbers(cols["y"], "y"), cols["d"]
    n = len(x)
    if len(y) != n:
        raise ValueError(f"x has {n} values and y {len(y)}")
    if type(d) is not str:
        raise ValueError("d is not a string")
    if n:
        if len(d) % n:
            raise ValueError(f"d's {len(d)} hex digits are no whole number "
                             f"per row for {n} rows")
        own = 4 * (len(d) // n)
        if width is None:
            width = own
        if own != width:
            raise ValueError(f"descriptor width {own} differs from {width}")
        if width <= 0:
            raise ValueError(f"descriptor width {width} is not positive")
    elif d:
        raise ValueError(f"d holds {len(d)} hex digits for no rows")
    width = width or 0
    return FeatureBlock(x, y, words_from_hex(d, n, width), width, **state)


def _snapshot_block(recs: list, width: int) -> FeatureBlock:
    """A snapshot set's feature records, transposed into columns, as one map
    block of width-bit descriptors."""
    if type(recs) is not list:
        raise ValueError("features is not a list")
    if not all(type(r) is dict for r in recs):
        raise ValueError("a feature record is not an object")
    hexes = [r["d"] for r in recs]
    if set(map(len, hexes)) - {width / 4}:
        bad = next(4 * len(h) for h in hexes if 4 * len(h) != width)
        raise ValueError(f"descriptor width {bad} differs from {width}")
    state = {
        "inserted_at": np.array([_integer(r.get("inserted_at", 0), "inserted_at")
                                 for r in recs], dtype=np.int64),
        "score": _numbers([r.get("score", 0.0) for r in recs], "score"),
        "temporal": _model([r.get("temporal") for r in recs])}
    return _block({"x": [r["x"] for r in recs], "y": [r["y"] for r in recs],
                   "d": "".join(hexes)}, width, **state)


def read_dataset(path):
    """Yield (traversal, Frame) pairs from a dataset file; a non-finite
    number, an integer that is not a JSON integer, columns of different
    lengths, malformed hex, a frame with features whose descriptor width
    differs from the file's first such frame's, and a line in the
    per-feature layout are rejected with DatasetError naming path:line."""
    p = Path(path)
    width = None  # fixed by the file's first frame with features
    with p.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if "features" in rec:
                    raise ValueError('a "features" list: the old per-feature '
                                     "dataset layout; a frame now holds x, y "
                                     "and d columns")
                block = _block(rec, width)
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
                "features": _records(lm.features),
                "alternatives": [
                    {"created_at": int(alt.inserted_at[0]),
                     "features": _records(alt)}
                    for alt in lm.alternatives
                ],
            }
            for lm in path_map.local_maps
        ],
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def _in_image(block: FeatureBlock, image_width: int, what: str) -> FeatureBlock:
    """block; ValueError naming what unless every row has x in [0,
    image_width)."""
    if not block.in_image(image_width):
        raise ValueError(f"{what} has a feature x outside [0, {image_width})")
    return block


def read_map_snapshot(path) -> PathMap:
    """The PathMap of a snapshot file. A bad value, a local map whose taught
    set has no rows, an alternative without rows or with rows inserted at
    another traversal than its created_at, and a set with a feature x outside
    [0, image_width) are rejected with DatasetError naming the file."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
        width = _integer(doc["descriptor_width"], "descriptor_width")
        image_width = _integer(doc["image_width"], "image_width")
        maps = []
        for lm in doc["local_maps"]:
            index = _integer(lm["index"], "index")
            feats = _in_image(_snapshot_block(lm["features"], width),
                              image_width, f"local map {index}'s taught set")
            if not len(feats):
                raise ValueError(f"local map {index}'s taught set has no rows")
            alts = []
            for a in lm.get("alternatives", []):
                alt = _snapshot_block(a["features"], width)
                created = _integer(a["created_at"], "created_at")
                inserted = sorted(set(alt.inserted_at.tolist()))
                if inserted != [created]:  # no rows, or some not created then
                    raise ValueError(f"local map {index} has an alternative "
                                     f"created at {created} whose rows were "
                                     f"inserted at {inserted}")
                alts.append(_in_image(alt, image_width,
                                      f"local map {index}'s alternative "
                                      f"created at {created}"))
            odometry = _number(lm["odometry_distance"], "odometry_distance")
            maps.append(LocalMap(index, odometry, feats, alts))
        return PathMap(maps, image_width=image_width, descriptor_width=width,
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
