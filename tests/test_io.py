"""Round-trip fidelity for datasets, map snapshots, and traversal logs."""

import hashlib
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longnav.errors import DatasetError
from longnav.evaluation import _hashed
from longnav.features import LocalMap, PathMap
from longnav.fremen import FremenModel
from longnav.io import (read_dataset, read_logs, read_map_snapshot,
                        write_dataset, write_logs, write_map_snapshot)
from longnav.simulator import (Frame, LocationRecord, World, WorldConfig,
                               generate_frames, replay_frames,
                               run_closed_loop, teach, uniform_offset_schedule)
from longnav.strategies import DEFAULT_PERIODS, StrategyConfig

from blocks import Descriptor, block_from_descriptors, stack_models


def small_world():
    return World(WorldConfig(n_locations=2, landmarks_per_location=40, seed=5))


def test_dataset_round_trip_is_lossless(tmp_path):
    frames = list(generate_frames(small_world(), 2, 3600.0,
                                  offset_fn=uniform_offset_schedule(0.1)))
    path = tmp_path / "d.jsonl"
    n = write_dataset(frames, path)
    assert n == len(frames) == 2 + 2 * 2  # teach pass + 2 traversals

    back = list(read_dataset(path))
    assert len(back) == len(frames)
    for (tr0, f0), (tr1, f1) in zip(frames, back):
        assert tr0 == tr1
        assert (f0.location, f0.time, f0.gamma) == (f1.location, f1.time, f1.gamma)
        a, b = f0.features, f1.features
        assert len(a) == len(b)
        assert (a.x.tolist(), a.y.tolist()) == (b.x.tolist(), b.y.tolist())
        assert np.array_equal(a.words, b.words) and a.width == b.width


def test_dataset_rewrite_is_byte_identical(tmp_path):
    frames = list(generate_frames(small_world(), 1, 100.0))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(frames, p1)
    write_dataset(read_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_reads_give_fresh_row_ids_that_no_file_holds(tmp_path):
    # each read makes new blocks, with ids no earlier row has; writing the
    # rows again gives the same bytes whatever their ids
    frames = list(generate_frames(small_world(), 1, 100.0))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(frames, p1)
    first, second = list(read_dataset(p1)), list(read_dataset(p1))
    seen = [f.features.ids for _, f in frames + first + second]
    assert len(np.unique(np.concatenate(seen))) == sum(map(len, seen))
    write_dataset(second, p2)
    assert p1.read_bytes() == p2.read_bytes()
    s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
    write_map_snapshot(teach(small_world()), s1)
    back = read_map_snapshot(s1)
    assert not np.intersect1d(back.local_maps[0].features.ids,
                              read_map_snapshot(s1).local_maps[0].features.ids
                              ).size
    write_map_snapshot(back, s2)
    assert s1.read_bytes() == s2.read_bytes()


def test_dataset_frame_without_features_round_trips(tmp_path):
    frames = list(generate_frames(small_world(), 1, 100.0))
    tr, f = frames[0]
    empty = block_from_descriptors([], [], [])
    frames[0] = (tr, type(f)(f.location, f.time, empty, f.gamma))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(frames, p1)
    back = list(read_dataset(p1))
    assert len(back[0][1].features) == 0
    assert [len(f.features) for _, f in back[1:]] \
        == [len(f.features) for _, f in frames[1:]]
    write_dataset(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_malformed_lines(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"traversal":0,"location":0,"time_s":0.0}\n')
    with pytest.raises(DatasetError, match="bad.jsonl:1"):
        list(read_dataset(p))
    p.write_text("not json\n")
    with pytest.raises(DatasetError):
        list(read_dataset(p))
    p.write_text("")
    assert list(read_dataset(p)) == []


def test_dataset_blank_lines_skipped(tmp_path):
    frames = list(generate_frames(small_world(), 1, 100.0))
    p = tmp_path / "d.jsonl"
    write_dataset(frames, p)
    p.write_text(p.read_text().replace("\n", "\n\n"))
    assert len(list(read_dataset(p))) == len(frames)


def _edit_line(path, lineno, edit):
    """Parse line lineno (1-based) of a JSONL file, edit it, write it back."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[lineno - 1])
    edit(rec)
    lines[lineno - 1] = json.dumps(rec)  # writes NaN and Infinity bare
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("field, value", [
    ("x", math.nan), ("y", math.inf), ("time_s", -math.inf),
    ("gamma_px", math.nan), ("location", 1.7), ("traversal", 2.4),
])
def test_dataset_rejects_non_finite_numbers(tmp_path, field, value):
    p = tmp_path / "d.jsonl"
    write_dataset(generate_frames(small_world(), 1, 100.0), p)

    def edit(rec):
        if field in ("x", "y"):
            rec[field][1] = value
        else:
            rec[field] = value
    _edit_line(p, 3, edit)
    with pytest.raises(DatasetError, match=f"d.jsonl:3: .*{field} is"):
        list(read_dataset(p))


def test_dataset_rejects_mixed_descriptor_widths(tmp_path):
    p = tmp_path / "d.jsonl"
    write_dataset(generate_frames(small_world(), 1, 100.0), p)

    def edit(rec):  # every 256-bit descriptor of the frame cut to 128 bits
        d = rec["d"]
        rec["d"] = "".join(d[i + 32:i + 64] for i in range(0, len(d), 64))
    _edit_line(p, 4, edit)
    with pytest.raises(DatasetError, match="d.jsonl:4: .*width 128 differs"):
        list(read_dataset(p))


@pytest.mark.parametrize("edit, message", [
    (lambda rec: rec["y"].pop(), r"x has \d+ values and y \d+"),
    (lambda rec: rec["x"].append(1.0), r"x has \d+ values and y \d+"),
    (lambda rec: rec.update(d=rec["d"][:-1]),
     r"d's \d+ hex digits are no whole number per row for \d+ rows"),
    (lambda rec: rec.update(x=[], y=[]), r"d holds \d+ hex digits for no rows"),
    (lambda rec: rec.update(d=""), "descriptor width 0 differs from 256"),
    (lambda rec: rec.update(d="g" + rec["d"][1:]), "malformed hex descriptor"),
    (lambda rec: rec.update(d="\u00e9" + rec["d"][1:]),
     "malformed hex descriptor"),
    (lambda rec: rec.update(d=rec["d"][:-2] + "  "), "malformed hex descriptor"),
    (lambda rec: rec.update(d=list(rec["d"])), "d is not a string"),
    (lambda rec: rec.update(x={}), "x is not a list"),
], ids=["y-short", "x-long", "digits-per-row", "digits-without-rows",
        "no-digits", "not-hex", "not-ascii", "trailing-spaces", "d-not-string",
        "x-not-list"])
def test_dataset_rejects_bad_columns(tmp_path, edit, message):
    p = tmp_path / "d.jsonl"
    write_dataset(generate_frames(small_world(), 1, 100.0), p)
    _edit_line(p, 3, edit)
    with pytest.raises(DatasetError, match=f"d.jsonl:3: bad dataset record: "
                                           f"{message}"):
        list(read_dataset(p))


def test_dataset_rejects_the_per_feature_layout(tmp_path):
    p = tmp_path / "d.jsonl"
    write_dataset(generate_frames(small_world(), 1, 100.0), p)
    lines = p.read_text().splitlines()
    rec = json.loads(lines[1])
    k = len(rec["d"]) // len(rec["x"])
    old = {key: rec[key] for key in ("traversal", "location", "time_s",
                                     "gamma_px")}
    old["features"] = [{"x": x, "y": y, "d": rec["d"][i * k:(i + 1) * k]}
                       for i, (x, y) in enumerate(zip(rec["x"], rec["y"]))]
    p.write_text(lines[0] + "\n" + json.dumps(old) + "\n")
    with pytest.raises(DatasetError, match="d.jsonl:2: .*the old per-feature "
                                           "dataset layout"):
        list(read_dataset(p))


@st.composite
def _column_frames(draw):
    """(width, frames): frames of 0..6 rows whose descriptors share a width
    that is a multiple of 4, x and y any finite floats."""
    width = 4 * draw(st.integers(1, 80))
    value = st.integers(0, (1 << width) - 1)
    coord = st.floats(allow_nan=False, allow_infinity=False)
    frames = []
    for tr in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 6))
        descs = [Descriptor.from_int(draw(value), width) for _ in range(n)]
        x = draw(st.lists(coord, min_size=n, max_size=n))
        y = draw(st.lists(coord, min_size=n, max_size=n))
        frames.append((tr, Frame(tr, draw(coord),
                                 block_from_descriptors(x, y, descs),
                                 draw(coord))))
    return width, frames


@given(_column_frames())
@settings(max_examples=80, deadline=None)
def test_dataset_columns_round_trip_bit_exact(case):
    width, frames = case
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.jsonl"
        write_dataset(frames, p)
        back = list(read_dataset(p))
    assert len(back) == len(frames)
    for (tr0, f0), (tr1, f1) in zip(frames, back):
        a, b = f0.features, f1.features
        assert tr0 == tr1 and (f0.location, f0.time, f0.gamma) \
            == (f1.location, f1.time, f1.gamma)
        assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
        assert a.words.tobytes() == b.words.tobytes()
        if len(a):
            assert b.width == width and b.words.shape == a.words.shape
    hashes = []
    for stream in (frames, back):
        h = hashlib.sha256()
        for _ in _hashed(stream, h):
            pass
        hashes.append(h.hexdigest())
    assert hashes[0] == hashes[1]


def _block(rows):
    """A map block from (x, y, descriptor, score, inserted_at, temporal)
    rows; temporal is a model on every row or None on every row."""
    x, y, d, score, inserted_at, models = zip(*rows)
    temporal = None if models[0] is None else stack_models(models)
    return block_from_descriptors(
        x, y, list(d), score=np.array(score),
        inserted_at=np.array(inserted_at, dtype=np.int64), temporal=temporal)


def _models(block):
    """The block's temporal model as its periods and per-row columns, None
    when it has none."""
    m = block.temporal
    return None if m is None else (m.periods, m.n_obs.tolist(), m.mu.tolist(),
                                   m.re.tolist(), m.im.tolist())


def snapshot_path_map():
    """A path whose first local map has a model on every row (as fremen
    writes it) and whose second local map and alternative have none."""
    rng = np.random.default_rng(6)
    rows = []
    for i in range(5):
        d = Descriptor.from_int(int.from_bytes(rng.bytes(32), "little"), 256)
        m = FremenModel(DEFAULT_PERIODS, 1)
        for k in range(i):
            m.add_observation(1.0 if k % 2 else -1.0, k * 3600.0)
        rows.append((float(rng.uniform(0, 640)), float(rng.uniform(0, 480)),
                     d, float(i) - 2.5, i, m if i < 3 else None))
    alt = _block([(1.0, 2.0, rows[0][2], 0.0, 3, None)])
    maps = [LocalMap(0, 0.0, _block(rows[:3]), [alt]),
            LocalMap(1, 1.5, _block(rows[3:]))]
    return PathMap(maps, image_width=800, descriptor_width=256, taught_at=42.0)


def test_map_snapshot_round_trip(tmp_path):
    pm = snapshot_path_map()
    p = tmp_path / "map.json"
    write_map_snapshot(pm, p)
    back = read_map_snapshot(p)

    doc = json.loads(p.read_text())
    assert [[r["temporal"] is None for r in lm["features"]]
            for lm in doc["local_maps"]] == [[False] * 3, [True] * 2]
    assert back.image_width == 800 and back.taught_at == 42.0
    assert len(back.local_maps) == 2
    for lm0, lm1 in zip(pm.local_maps, back.local_maps):
        assert (lm0.index, lm0.odometry_distance) == (lm1.index, lm1.odometry_distance)
        a, b = lm0.features, lm1.features
        for col in ("x", "y", "score", "inserted_at", "words"):
            assert np.array_equal(getattr(a, col), getattr(b, col)), col
        assert _models(b) == _models(a)
    assert back.local_maps[0].features.temporal.n_obs.tolist() == [0, 1, 2]
    alt0 = pm.local_maps[0].alternatives[0]
    alt1 = back.local_maps[0].alternatives[0]
    assert alt1.inserted_at.tolist() == alt0.inserted_at.tolist() == [3]
    assert doc["local_maps"][0]["alternatives"][0]["created_at"] == 3
    assert np.array_equal(alt1.words, alt0.words)

    p2 = tmp_path / "map2.json"
    write_map_snapshot(back, p2)
    assert p.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("local_map, pattern", [(0, [True, False, True]),
                                                (1, [True, False])],
                         ids=["models-on-some", "model-on-one"])
def test_map_snapshot_rejects_mixed_temporal_rows(tmp_path, local_map, pattern):
    p = tmp_path / "map.json"
    write_map_snapshot(snapshot_path_map(), p)
    doc = json.loads(p.read_text())
    model = doc["local_maps"][0]["features"][1]["temporal"]
    for rec, has in zip(doc["local_maps"][local_map]["features"], pattern):
        rec["temporal"] = model if has else None
    p.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match="mixes rows with and without"):
        read_map_snapshot(p)


def test_map_snapshot_rejects_mixed_fremen_periods(tmp_path):
    p = tmp_path / "map.json"
    write_map_snapshot(snapshot_path_map(), p)
    doc = json.loads(p.read_text())
    rec = doc["local_maps"][0]["features"][0]
    rec["temporal"] = {"n_obs": 0, "mu": 0.0, "components": [[3600.0, 0.0, 0.0]]}
    p.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match="different periods"):
        read_map_snapshot(p)


def test_map_snapshot_from_teach(tmp_path):
    pm = teach(small_world(), feature_cap=30)
    p = tmp_path / "map.json"
    write_map_snapshot(pm, p)
    back = read_map_snapshot(p)
    assert [len(lm.features) for lm in back.local_maps] \
        == [len(lm.features) for lm in pm.local_maps]


def test_map_snapshot_malformed(tmp_path):
    p = tmp_path / "map.json"
    p.write_text('{"descriptor_width": 256}')
    with pytest.raises(DatasetError, match="bad map snapshot"):
        read_map_snapshot(p)


@pytest.mark.parametrize("edit, name", [
    (lambda doc: doc["local_maps"][0]["features"][0].update(x=math.nan), "x"),
    (lambda doc: doc["local_maps"][1]["features"][0].update(y=math.inf), "y"),
    (lambda doc: doc["local_maps"][0]["features"][1].update(score=math.nan),
     "score"),
    (lambda doc: doc["local_maps"][1].update(odometry_distance=math.nan),
     "odometry_distance"),
    (lambda doc: doc.update(taught_at=-math.inf), "taught_at"),
    (lambda doc: doc["local_maps"][0]["features"][1]["temporal"].update(
        mu=math.nan), "mu"),
    (lambda doc: doc["local_maps"][0]["features"][1]["temporal"]
     ["components"][0].__setitem__(1, math.inf), "fremen component value"),
    (lambda doc: doc["local_maps"][0]["features"][0].update(x="12.5"), "x"),
    (lambda doc: doc.update(image_width=640.9), "image_width"),
    (lambda doc: doc["local_maps"][1]["features"][0].update(inserted_at=0.5),
     "inserted_at"),
    (lambda doc: doc["local_maps"][0]["features"][1]["temporal"].update(
        n_obs=-1), "n_obs"),
    (lambda doc: doc["local_maps"][0]["features"][1]["temporal"].update(
        n_obs="7"), "n_obs"),
    (lambda doc: doc["local_maps"][0]["features"][1]["temporal"].update(
        n_obs=2.0), "n_obs"),
], ids=["x", "y", "score", "odometry", "taught_at", "mu", "component", "x-str",
        "image_width", "inserted_at", "n_obs-negative", "n_obs-string",
        "n_obs-float"])
def test_map_snapshot_rejects_non_finite_values(tmp_path, edit, name):
    p = tmp_path / "map.json"
    write_map_snapshot(snapshot_path_map(), p)
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=f"bad map snapshot: {name} is"):
        read_map_snapshot(p)


def _taught_row(doc, local_map=0, row=1):
    return doc["local_maps"][local_map]["features"][row]


@pytest.mark.parametrize("edit, message", [
    (lambda doc: _taught_row(doc)["temporal"]["components"][0].pop(),
     r"a fremen component is not \[period, re, im\]"),
    (lambda doc: _taught_row(doc, 1, 0).update(d=_taught_row(doc, 1, 0)["d"][32:]),
     "descriptor width 128 differs from 256"),
    (lambda doc: _taught_row(doc, 1, 0).update(d=_taught_row(doc, 1, 0)["d"] + "00"),
     "descriptor width 264 differs from 256"),
    (lambda doc: doc["local_maps"][1].update(features=[]),
     "local map 1's taught set has no rows"),
    (lambda doc: doc["local_maps"][0]["alternatives"][0].update(features=[]),
     r"local map 0 has an alternative created at 3 whose rows were inserted "
     r"at \[\]"),
    (lambda doc: doc["local_maps"][0]["alternatives"][0].update(created_at=2),
     r"local map 0 has an alternative created at 2 whose rows were inserted "
     r"at \[3\]"),
    (lambda doc: _taught_row(doc)["temporal"].update(mu=7.5),
     r"mu is 7.5, outside \[-1, 1\]"),
    (lambda doc: _taught_row(doc)["temporal"]["components"][2].__setitem__(
        1, -1.25), r"fremen component re is -1.25, outside \[-1, 1\]"),
    (lambda doc: _taught_row(doc, row=2)["temporal"]["components"][0]
     .__setitem__(2, 1.0000001),
     r"fremen component im is 1.0000001, outside \[-1, 1\]"),
    (lambda doc: _taught_row(doc, 1, 0).update(x=800.0),
     r"local map 1's taught set has a feature x outside \[0, 800\)"),
    (lambda doc: doc["local_maps"][0]["alternatives"][0]["features"][0]
     .update(x=-0.5),
     r"local map 0's alternative created at 3 has a feature x outside "
     r"\[0, 800\)"),
], ids=["component-pair", "descriptor-narrow", "descriptor-wide", "taught-empty",
        "alternative-empty", "alternative-created-elsewhere", "mu-range",
        "re-range", "im-range", "x-at-width", "alternative-x-negative"])
def test_map_snapshot_rejects_bad_state(tmp_path, edit, message):
    p = tmp_path / "map.json"
    write_map_snapshot(snapshot_path_map(), p)
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=f"map.json: bad map snapshot: {message}$"):
        read_map_snapshot(p)


def test_logs_round_trip(tmp_path):
    records = [
        LocationRecord(1, "score", 100.0, 0, 3.5, 2.0, 10, 1, 2, 500,
                       offset_m=0.01),
        LocationRecord(1, "score", 130.0, 1, None, 0.0, 0, 0, 13, 500),
        LocationRecord(2, "score", 200.0, 0, -1.25, -1.0, 9, 0, 4, 510,
                       n_alternatives=3, best_alternative=2),
    ]
    p = tmp_path / "logs.jsonl"
    assert write_logs(records, p) == 3
    assert read_logs(p) == records
    for line in p.read_text().splitlines():
        assert list(json.loads(line)) == [f.name for f in fields(LocationRecord)]


def test_log_row_without_optional_fields_reads_defaults(tmp_path):
    p = tmp_path / "logs.jsonl"
    p.write_text('{"traversal":1,"strategy":"static","time_s":5.0,'
                 '"location":0,"delta_px":null,"gamma_px":2.0,"n_correct":0,'
                 '"n_incorrect":0,"n_not_matched":7,"map_size":7}\n')
    assert read_logs(p) == [LocationRecord(1, "static", 5.0, 0, None, 2.0,
                                           0, 0, 7, 7, n_alternatives=1,
                                           best_alternative=0, offset_m=None)]


def test_logs_round_trip_run_output(tmp_path):
    """Closed-loop and replayed records come back equal from their files."""
    cfgs = [StrategyConfig(kind="multiple", m=40, multiple_threshold=0.6),
            StrategyConfig(kind="fremen")]
    wc = WorldConfig(n_locations=2, landmarks_per_location=60,
                     visibility_mean=(0.05, 0.8), visibility_amp=(0.3, 0.5),
                     visibility_phases=(0.0, math.pi), turnover_prob=0.05,
                     clutter_count=10, seed=5)
    _, closed = run_closed_loop(World(wc), cfgs, 4, 10800.0)
    _, replayed = replay_frames(
        generate_frames(World(wc), 4, 10800.0,
                        offset_fn=uniform_offset_schedule(0.1)), cfgs)
    for i, records in enumerate(closed + replayed):
        p = tmp_path / f"logs{i}.jsonl"
        write_logs(records, p)
        assert read_logs(p) == records
    everything = closed[0] + closed[1] + replayed[0] + replayed[1]
    assert any(r.n_alternatives > 1 for r in everything)
    assert any(r.delta_px is None for r in everything)


def test_replayed_records_log_their_own_frame_times(tmp_path):
    """A dataset may give each frame of a traversal its own time; each
    record, and its log row, carries its frame's time."""
    frames = []
    for tr, f in generate_frames(small_world(), 2, 3600.0):
        t = f.time + 60.0 * f.location if tr else f.time
        frames.append((tr, type(f)(f.location, t, f.features, f.gamma)))
    data = tmp_path / "d.jsonl"
    write_dataset(frames, data)
    _, (records,) = replay_frames(read_dataset(data),
                                  [StrategyConfig(kind="fremen")])
    want = [f.time for tr, f in frames if tr]
    assert [rec.time_s for rec in records] == want == [3600.0, 3660.0,
                                                        7200.0, 7260.0]
    p = tmp_path / "logs.jsonl"
    write_logs(records, p)
    assert [rec.time_s for rec in read_logs(p)] == want


@pytest.mark.parametrize("key, value, message", [
    ("traversal", -3, "below 1"),
    ("location", -1, "below 0"),
    ("n_correct", -5, "below 0"),
    ("n_incorrect", -1, "below 0"),
    ("n_not_matched", -2, "below 0"),
    ("map_size", -1, "below 0"),
    ("n_alternatives", 0, "below 1"),
    ("best_alternative", -1, "below 0"),
    ("best_alternative", 7, "not below n_alternatives 3"),
    ("best_alternative", 3, "not below n_alternatives 3"),
])
def test_logs_reject_values_out_of_range(tmp_path, key, value, message):
    rec = LocationRecord(2, "multiple", 200.0, 1, -1.25, -1.0, 9, 0, 4, 510,
                         n_alternatives=3, best_alternative=2)
    p = tmp_path / "logs.jsonl"
    write_logs([LocationRecord(1, "multiple", 100.0, 0, None, 0.0, 0, 0, 13,
                               500), rec], p)
    assert read_logs(p)[1] == rec
    lines = p.read_text().splitlines()
    row = json.loads(lines[1]) | {key: value}
    p.write_text(lines[0] + "\n" + json.dumps(row) + "\n")
    with pytest.raises(DatasetError, match=f"logs.jsonl:2: bad log record: "
                                           f"{key} is {value}, {message}$"):
        read_logs(p)


def test_logs_malformed(tmp_path):
    p = tmp_path / "logs.jsonl"
    p.write_text('{"traversal":1}\n')
    with pytest.raises(DatasetError, match="bad log record"):
        read_logs(p)
