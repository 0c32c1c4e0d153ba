"""Round-trip fidelity for datasets, map snapshots, and traversal logs."""

import json
import math

import numpy as np
import pytest

from longnav.errors import DatasetError
from longnav.features import Descriptor, LocalMap, MapAlternative, PathMap
from longnav.fremen import FremenModel
from longnav.io import (read_dataset, read_logs, read_map_snapshot,
                        write_dataset, write_logs, write_map_snapshot)
from longnav.simulator import (LocationRecord, TraversalLog, World,
                               WorldConfig, generate_frames, teach,
                               uniform_offset_schedule)

from blocks import block_from_descriptors


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
    ("gamma_px", math.nan),
])
def test_dataset_rejects_non_finite_numbers(tmp_path, field, value):
    p = tmp_path / "d.jsonl"
    write_dataset(generate_frames(small_world(), 1, 100.0), p)

    def edit(rec):
        target = rec["features"][1] if field in ("x", "y") else rec
        target[field] = value
    _edit_line(p, 3, edit)
    with pytest.raises(DatasetError, match=f"d.jsonl:3: .*{field} is"):
        list(read_dataset(p))


def test_dataset_rejects_mixed_descriptor_widths(tmp_path):
    p = tmp_path / "d.jsonl"
    write_dataset(generate_frames(small_world(), 1, 100.0), p)

    def edit(rec):  # one 256-bit descriptor cut to 128 bits
        rec["features"][2]["d"] = rec["features"][2]["d"][32:]
    _edit_line(p, 4, edit)
    with pytest.raises(DatasetError, match="d.jsonl:4: .*width 128 differs"):
        list(read_dataset(p))


def _block(rows):
    """A map block from (x, y, descriptor, score, inserted_at, temporal)
    rows; a row whose temporal is None has no model."""
    x, y, d, score, inserted_at, models = zip(*rows)
    has = np.array([m is not None for m in models])
    temporal = None
    if has.any():
        temporal = FremenModel.concat([FremenModel() if m is None else m
                                       for m in models])
    return block_from_descriptors(
        x, y, list(d), score=np.array(score),
        inserted_at=np.array(inserted_at, dtype=np.int64), temporal=temporal,
        has_temporal=None if has.all() else has)


def _models(block):
    """Each row's temporal model as a dict, None where the row has none."""
    if block.temporal is None:
        return [None] * len(block)
    return [block.temporal.take(i).to_dict() if has else None
            for i, has in enumerate(block.temporal_rows().tolist())]


def snapshot_path_map():
    rng = np.random.default_rng(6)
    rows = []
    for i in range(5):
        d = Descriptor.from_int(int.from_bytes(rng.bytes(32), "little"), 256)
        m = FremenModel()
        for k in range(i):
            m.add_observation(1.0 if k % 2 else -1.0, k * 3600.0)
        rows.append((float(rng.uniform(0, 640)), float(rng.uniform(0, 480)),
                     d, float(i) - 2.5, i, m if i % 2 else None))
    alt = MapAlternative(_block([(1.0, 2.0, rows[0][2], 0.0, 3, None)]), 3)
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
            for lm in doc["local_maps"]] == [[True, False, True], [False, True]]
    assert back.image_width == 800 and back.taught_at == 42.0
    assert len(back.local_maps) == 2
    for lm0, lm1 in zip(pm.local_maps, back.local_maps):
        assert (lm0.index, lm0.odometry_distance) == (lm1.index, lm1.odometry_distance)
        a, b = lm0.features, lm1.features
        for col in ("x", "y", "score", "inserted_at", "words"):
            assert np.array_equal(getattr(a, col), getattr(b, col)), col
        assert _models(b) == _models(a)
        assert None in _models(b) and _models(b) != [None] * len(b)
    alt0 = pm.local_maps[0].alternatives[0]
    alt1 = back.local_maps[0].alternatives[0]
    assert alt1.created_at == alt0.created_at
    assert np.array_equal(alt1.features.words, alt0.features.words)

    p2 = tmp_path / "map2.json"
    write_map_snapshot(back, p2)
    assert p.read_bytes() == p2.read_bytes()


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
], ids=["x", "y", "score", "odometry", "taught_at", "mu", "component", "x-str"])
def test_map_snapshot_rejects_non_finite_values(tmp_path, edit, name):
    p = tmp_path / "map.json"
    write_map_snapshot(snapshot_path_map(), p)
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=f"bad map snapshot: {name} is"):
        read_map_snapshot(p)


def test_logs_round_trip(tmp_path):
    logs = [
        TraversalLog(1, "score", 100.0, [
            LocationRecord(0, 3.5, 2.0, 10, 1, 2, 500, offset_m=0.01),
            LocationRecord(1, None, 0.0, 0, 0, 13, 500),
        ]),
        TraversalLog(2, "score", 200.0, [
            LocationRecord(0, -1.25, -1.0, 9, 0, 4, 510, n_alternatives=3,
                           best_alternative=2),
        ]),
    ]
    p = tmp_path / "logs.jsonl"
    assert write_logs(logs, p) == 3
    back = read_logs(p)
    assert back == logs


def test_logs_malformed(tmp_path):
    p = tmp_path / "logs.jsonl"
    p.write_text('{"traversal":1}\n')
    with pytest.raises(DatasetError, match="bad log record"):
        read_logs(p)
