"""Byte-identity oracle for the eight strategies.

One small world with landmark turnover, bimodal visibility and an active
cap (m=40) below every map's size, so selection, removal, insertion,
alternatives and failed registrations all occur. The digests cover what a
run writes: the open and closed compare reports, and each kind's
closed-loop log and final map snapshot. The open report must also come out
of the same frames written to a dataset file and read back. A refactor must leave every digest
unchanged; a deliberate behaviour change re-records them and says why.
"""

import hashlib
import math

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
    "open": ("45fa5759b418bf6016e55aad176fb1f027c7821be235a00b10c02725c0793320",
             "3b9fb7fd57f0890028f6dd3fcdaeaa546461e601fb9fe99757b7560d7dea85a0"),
    "closed": ("b06db4bf5ea3a5d94bd8166b31ea2324ce9f07716ac7ee631e3adf4b97d59788",
               "20e76bced6be704ac4b72e232a53c54c40df751effd28910ee15c913a37249b6"),
}
RUNS = {  # kind: (closed-loop log, final map snapshot)
    "static": ("fe6031a54b6f85f9e8a9ed319e5b08fd058e3eb4ae69873becdf7d5c487a63e4",
               "5e1e8eead3af46f183875026ba62150f067e5226dfaa982c14d7682591ecd795"),
    "latest": ("2dd4dfc9c03f45cbecd66ef87ea044e18b8579a59c2974c947b336aa92dbf805",
               "e44276719a3da3a33d43185faa6770e54d91090f1229f3bb712a92ffc21fd55b"),
    "aggressive": ("9525415c5d0e1e8758d1f31db9c9e1c846170a5486ecbdbde866264049521981",
                   "d7bcdb31b8270f84ac670eb82823f23da0514abc405dcb67c0cfcbfe2d63720d"),
    "strict": ("75e8cecdef81850fb0366407c12648dba5ddec0cb2203d1ccf3225e614701389",
               "e4a3a03f1daf659bfb52b6b6c3e73be9b3fe10fcfbb00e0e66e929860b60b644"),
    "summary": ("ab31d7adf38c5745bf0b375f16c9f8df4e8b1787fea1926b89fde05e629e78cd",
                "4d69822c1fdf56813d4971fe5a51e810477b7cb9dc2bc36d8d5a29c7057c6a65"),
    "multiple": ("f2cce0445412a551695b2af0198d5aa4b2a9e52d586f1aee2c1bc02d18b69604",
                 "98cc5a68c3aae145b01e66ad89bcf270dca5078a0b4782a835ee880d645fdb0b"),
    "score": ("93f794b9e0ff2120ed55d57624d49394cc846a8ddf9443e647d944bf6c2edecb",
              "e298f286d355c48607f0db3b0f3f737a3fb9051edbbbdfc1ecfedf8f23d0ccf6"),
    "fremen": ("e20fc7507b1644c92dccd60880d81c483d2b672b1b37aec18314d6f27c8e8ed5",
               "b55303468624be4ef2caeb3b274c87bcd7a25a2c83f0b00adef15eed40acc51f"),
}


def configs():
    return [StrategyConfig(kind=k, m=40, multiple_threshold=0.5,
                           multiple_max_alternatives=2)
            for k in STRATEGY_KINDS]


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
