"""Byte-identity oracle for the eight strategies.

One small world with landmark turnover, bimodal visibility and an active
cap (m=40) below every map's size, so selection, removal, insertion,
alternatives and failed registrations all occur. The digests cover what a
run writes: the open and closed compare reports, and each kind's
closed-loop log and final map snapshot. The open report must also come out
of the same frames written to a dataset file and read back. A refactor must leave every digest
unchanged; a deliberate behaviour change re-records them and says why.
The final maps also have digests over their arrays, which hold whatever
the snapshot format, both in memory and as read back from a snapshot.
"""

import hashlib
import math

import numpy as np
import pytest

from longnav.evaluation import compare_strategies, write_report
from longnav.io import (read_map_snapshot, write_dataset, write_logs,
                        write_map_snapshot)
from longnav.simulator import (World, WorldConfig, generate_frames,
                               run_closed_loop, uniform_offset_schedule)
from longnav.strategies import STRATEGY_KINDS, StrategyConfig

WORLD = WorldConfig(seed=3, n_locations=2, landmarks_per_location=120,
                    visibility_mean=(0.45, 0.55), visibility_amp=(0.40, 0.50),
                    visibility_phases=(0.0, math.pi), turnover_prob=0.05,
                    clutter_count=10, alias_prob=0.2)
SCHEDULE = (12, 90 * 86400.0 / 178)
RUN_SEED = 1

REPORTS = {  # (summary.json, cdf.csv)
    "open": ("924ea4397a45847a2e0acd9883aa8e44ed01b192a5520b07714a7e5fe6539acb",
             "3b9fb7fd57f0890028f6dd3fcdaeaa546461e601fb9fe99757b7560d7dea85a0"),
    "closed": ("dc4fdf7525dee3ea93cd8ae721cf65a865717b249a75ebc543aa0c81b8bbbc8d",
               "20e76bced6be704ac4b72e232a53c54c40df751effd28910ee15c913a37249b6"),
}
RUNS = {  # kind: (closed-loop log, final map snapshot)
    "static": ("fe6031a54b6f85f9e8a9ed319e5b08fd058e3eb4ae69873becdf7d5c487a63e4",
               "6f303d2636d3dac4aa5d6ff0581f37fbe3ef91133e37246099bb66a0a31a61ac"),
    "latest": ("2dd4dfc9c03f45cbecd66ef87ea044e18b8579a59c2974c947b336aa92dbf805",
               "32251ab9d8780974b0a18ecf5bd9c3f348232df23097f0f192c7ce69c8c8277a"),
    "aggressive": ("9525415c5d0e1e8758d1f31db9c9e1c846170a5486ecbdbde866264049521981",
                   "f098fe3a8b3c88fc7db50149ce27cedb5dbda8439bea1326aebad97276bfa63e"),
    "strict": ("75e8cecdef81850fb0366407c12648dba5ddec0cb2203d1ccf3225e614701389",
               "3629e40a7fe6314c600728238d0f84a664ea519800c5d2ede20a623f1ad2ad26"),
    "summary": ("ab31d7adf38c5745bf0b375f16c9f8df4e8b1787fea1926b89fde05e629e78cd",
                "6bc3f6d940428c50ee8f45520406dbc7d3c407ffb675e11368a8c862780d2ba4"),
    "multiple": ("f2cce0445412a551695b2af0198d5aa4b2a9e52d586f1aee2c1bc02d18b69604",
                 "9838bb3c1b4c1f9cb986a02eed5923830e788920d713e2f42421ddc625377301"),
    "score": ("93f794b9e0ff2120ed55d57624d49394cc846a8ddf9443e647d944bf6c2edecb",
              "b40b8ae7f6f576b93846a830be69a9c83882a15eed1e02e4d75233034c38d002"),
    "fremen": ("e20fc7507b1644c92dccd60880d81c483d2b672b1b37aec18314d6f27c8e8ed5",
               "bb4b3f0af8aa0816887794637d10df635a95c966871755988b6903b25c0c933e"),
}
MAPS = {  # kind: the final closed-loop map's arrays (see map_digest)
    "static": "3dee728328774609a6835a56f98fe96f72e1a4bf3deaf4b5abf5856d26801d3c",
    "latest": "bb069b7c51b97bbd41149489f556b181cf16bd110e936625d434273b4fa62893",
    "aggressive": "a799df8e05ccc30e2fb44f04aafbdc32518fb8474bbd9cd4b97ae13638367bf8",
    "strict": "b14a1f68a3f9eb6f2cef251b9c60dcc8759525f0a5f19fd7c8e2d6a96c19c4a9",
    "summary": "9928371e98007f768113f79ecff53f67e85e195f25e43dc2b5d6730d0f3385e8",
    "multiple": "da2c17e83f9ee97bcc2d6992fa0f383a210260cc139fa1375a249960fd2964a2",
    "score": "c2c1ae644103bcfb3331cd1e7dbaf97731d59822cb3fa53c4cd54a86a7d406fc",
    "fremen": "70af800af1a6059cc52060aad416a7b4da16736d497723e405c9200e93d09bd5",
}


def configs():
    return [StrategyConfig(kind=k, m=40, multiple_threshold=0.5,
                           multiple_max_alternatives=2)
            for k in STRATEGY_KINDS]


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def map_digest(path_map):
    """A digest of the map's arrays, each set (taught, then alternatives in
    order) giving x, y, words, score, inserted_at and, under fremen, the
    model's periods, n_obs, mu, re and im, each with its dtype and shape."""
    h = hashlib.sha256()
    for lm in path_map.local_maps:
        for block in [lm.features, *lm.alternatives]:
            m = block.temporal
            arrays = [block.x, block.y, block.words, block.score,
                      block.inserted_at]
            if m is not None:
                arrays += [np.array(m.periods), m.n_obs, m.mu, m.re, m.im]
            h.update(b"set")
            for a in arrays:
                h.update(f"{a.dtype.str}{a.shape}".encode())
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.filterwarnings("ignore:alternative cap reached")
@pytest.mark.parametrize("mode", ["open", "closed"])
def test_compare_reports_are_unchanged(mode, tmp_path):
    offsets = uniform_offset_schedule(0.25, seed=RUN_SEED)
    report = compare_strategies(WORLD, configs(), SCHEDULE, mode=mode,
                                run_seed=RUN_SEED,
                                offset_fn=offsets if mode == "open" else None)
    paths = write_report(report, tmp_path)
    assert tuple(digest(p) for p in paths) == REPORTS[mode]


@pytest.mark.filterwarnings("ignore:alternative cap reached")
def test_open_compare_read_from_a_dataset_file_is_unchanged(tmp_path):
    # the reader must hand back the frames the writer was given, bit for bit
    frames = generate_frames(World(WORLD), *SCHEDULE, RUN_SEED,
                             offset_fn=uniform_offset_schedule(0.25,
                                                               seed=RUN_SEED))
    write_dataset(frames, tmp_path / "dataset.jsonl")
    report = compare_strategies(tmp_path / "dataset.jsonl", configs())
    paths = write_report(report, tmp_path / "report")
    assert tuple(digest(p) for p in paths) == REPORTS["open"]


@pytest.fixture(scope="module")
def closed_loop():
    """(paths, logs) of every kind's closed-loop run, one list entry per kind."""
    return run_closed_loop(World(WORLD), configs(), *SCHEDULE, run_seed=RUN_SEED)


@pytest.mark.filterwarnings("ignore:alternative cap reached")
def test_closed_loop_logs_and_maps_are_unchanged(closed_loop, tmp_path):
    paths, logs = closed_loop
    got = {}
    for kind, path, log in zip(STRATEGY_KINDS, paths, logs):
        write_logs(log, tmp_path / f"logs_{kind}.jsonl")
        write_map_snapshot(path, tmp_path / f"map_{kind}.json")
        got[kind] = (digest(tmp_path / f"logs_{kind}.jsonl"),
                     digest(tmp_path / f"map_{kind}.json"))
    assert got == RUNS


@pytest.mark.filterwarnings("ignore:alternative cap reached")
def test_closed_loop_map_arrays_are_unchanged(closed_loop, tmp_path):
    paths, _ = closed_loop
    got, back = {}, {}
    for kind, path in zip(STRATEGY_KINDS, paths):
        write_map_snapshot(path, tmp_path / f"map_{kind}.json")
        got[kind] = map_digest(path)
        back[kind] = map_digest(read_map_snapshot(tmp_path / f"map_{kind}.json"))
    assert got == MAPS
    assert back == MAPS


@pytest.mark.filterwarnings("ignore:alternative cap reached")
def test_closed_loop_maps_read_back_and_rewrite_identically(closed_loop,
                                                           tmp_path):
    paths, _ = closed_loop
    for kind, path in zip(STRATEGY_KINDS, paths):
        first, again = tmp_path / f"{kind}.json", tmp_path / f"{kind}.again.json"
        write_map_snapshot(path, first)
        write_map_snapshot(read_map_snapshot(first), again)
        assert again.read_bytes() == first.read_bytes(), kind
    fremen = paths[STRATEGY_KINDS.index("fremen")].local_maps
    assert all(lm.features.temporal.n_obs.max() > 0 for lm in fremen)
    multiple = paths[STRATEGY_KINDS.index("multiple")].local_maps
    assert any(lm.alternatives for lm in multiple)
