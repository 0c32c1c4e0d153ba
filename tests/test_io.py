"""Round-trip fidelity for datasets, map snapshots, and traversal logs."""

import json
import math

import numpy as np
import pytest

from longnav.errors import DatasetError
from longnav.features import (Descriptor, Feature, LocalMap, MapAlternative,
                              PathMap)
from longnav.fremen import FremenModel
from longnav.io import (read_dataset, read_logs, read_map_snapshot,
                        write_dataset, write_logs, write_map_snapshot)
from longnav.simulator import (LocationRecord, TraversalLog, World,
                               WorldConfig, generate_frames, teach,
                               uniform_offset_schedule)


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
        assert len(f0.features) == len(f1.features)
        for a, b in zip(f0.features, f1.features):
            assert (a.x, a.y) == (b.x, b.y)
            assert a.descriptor == b.descriptor


def test_dataset_rewrite_is_byte_identical(tmp_path):
    frames = list(generate_frames(small_world(), 1, 100.0))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(frames, p1)
    write_dataset(read_dataset(p1), p2)
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


def snapshot_path_map():
    rng = np.random.default_rng(6)
    feats = []
    for i in range(5):
        d = Descriptor.from_int(int.from_bytes(rng.bytes(32), "little"), 256)
        m = FremenModel()
        for k in range(i):
            m.add_observation(1.0 if k % 2 else -1.0, k * 3600.0)
        feats.append(Feature(float(rng.uniform(0, 640)), float(rng.uniform(0, 480)),
                             d, score=float(i) - 2.5,
                             temporal=m if i % 2 else None, inserted_at=i))
    alt = MapAlternative([Feature(1.0, 2.0, feats[0].descriptor, inserted_at=3)], 3)
    maps = [LocalMap(0, 0.0, feats[:3], [alt]), LocalMap(1, 1.5, feats[3:])]
    return PathMap(maps, image_width=800, descriptor_width=256, taught_at=42.0)


def test_map_snapshot_round_trip(tmp_path):
    pm = snapshot_path_map()
    p = tmp_path / "map.json"
    write_map_snapshot(pm, p)
    back = read_map_snapshot(p)

    assert back.image_width == 800 and back.taught_at == 42.0
    assert len(back.local_maps) == 2
    for lm0, lm1 in zip(pm.local_maps, back.local_maps):
        assert (lm0.index, lm0.odometry_distance) == (lm1.index, lm1.odometry_distance)
        for a, b in zip(lm0.features, lm1.features):
            assert (a.x, a.y, a.score, a.inserted_at) == (b.x, b.y, b.score, b.inserted_at)
            assert a.descriptor == b.descriptor
            if a.temporal is None:
                assert b.temporal is None
            else:
                assert b.temporal.to_dict() == a.temporal.to_dict()
    alt0 = pm.local_maps[0].alternatives[0]
    alt1 = back.local_maps[0].alternatives[0]
    assert alt1.created_at == alt0.created_at
    assert alt1.features[0].descriptor == alt0.features[0].descriptor

    p2 = tmp_path / "map2.json"
    write_map_snapshot(back, p2)
    assert p.read_bytes() == p2.read_bytes()


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
