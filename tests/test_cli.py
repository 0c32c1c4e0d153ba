"""End-to-end command-line flows on a miniature world."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import longnav
from longnav.cli import (DEFAULT_INTERVAL_S, RunConfig, load_run_config, main,
                         run_config_from_dict)
from longnav.errors import ConfigError
from longnav.io import read_logs, read_map_snapshot, write_map_snapshot
from longnav.strategies import STRATEGY_KINDS


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "world": {"n_locations": 2, "landmarks_per_location": 50, "seed": 3},
        "strategies": ["score", "static"],
        "traversals": 2,
        "interval_s": 3600.0,
        "offset_amplitude_m": 0.1,
    }
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc))
    return p


def test_run_config_from_dict():
    cfg = run_config_from_dict({
        "world": {"n_locations": 4, "visibility_mean": [0.6, 0.8]},
        "strategies": ["fremen", {"kind": "score", "m": 100}],
        "mode": "closed",
    })
    assert cfg.world.n_locations == 4
    assert cfg.world.visibility_mean == (0.6, 0.8)
    assert [s.kind for s in cfg.strategies] == ["fremen", "score"]
    assert cfg.strategies[1].m == 100
    assert cfg.registration.image_width == cfg.world.image_width
    assert cfg.mode == "closed"
    assert cfg.interval_s == DEFAULT_INTERVAL_S


def test_run_config_defaults_all_strategies():
    cfg = RunConfig()
    assert len(cfg.strategies) == 8


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        run_config_from_dict({"bananas": 1})
    with pytest.raises(ConfigError):
        run_config_from_dict({"world": {"bananas": 1}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"mode": "sideways"})


def test_load_run_config_bad_file(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError):
        load_run_config(p)
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "missing.json")


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_generate_is_deterministic(tmp_path, config_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli("generate", "--config", config_path, "--out", out1) == 0
    assert run_cli("generate", "--config", config_path, "--out", out2) == 0
    for name in ("dataset.jsonl", "map.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "dataset.jsonl").read_text().count("\n") == 2 + 2 * 2


def test_generate_seed_override_changes_output(tmp_path, config_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run_cli("generate", "--config", config_path, "--out", out1)
    run_cli("generate", "--config", config_path, "--out", out2, "--seed", 99)
    assert (out1 / "dataset.jsonl").read_bytes() \
        != (out2 / "dataset.jsonl").read_bytes()


def test_replay_round(tmp_path, config_path, capsys):
    data = tmp_path / "data"
    run_cli("generate", "--config", config_path, "--out", data)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run_cli("replay", "--config", config_path, "--out", out,
                       "--strategy", "score",
                       "--dataset", data / "dataset.jsonl") == 0
    assert (out1 / "logs_score.jsonl").read_bytes() \
        == (out2 / "logs_score.jsonl").read_bytes()
    assert "mean_error_px" in capsys.readouterr().out

    out3 = tmp_path / "r3"
    assert run_cli("replay", "--config", config_path, "--out", out3,
                   "--strategy", "score", "--dataset", data / "dataset.jsonl",
                   "--map", data / "map.json") == 0
    assert (out3 / "logs_score.jsonl").exists()


def test_replay_requires_strategy_choice(tmp_path, config_path, capsys):
    data = tmp_path / "data"
    run_cli("generate", "--config", config_path, "--out", data)
    code = run_cli("replay", "--config", config_path, "--out", tmp_path / "r",
                   "--dataset", data / "dataset.jsonl")
    assert code == 1  # config lists two strategies, none picked
    assert "error:" in capsys.readouterr().err


def _rewrite_dataset(src, dst, edit):
    """Copy a JSONL dataset, passing each parsed record through edit."""
    lines = [json.loads(line) for line in src.read_text().splitlines()]
    dst.write_text("".join(json.dumps(rec) + "\n" for rec in edit(lines)))


def _set_last_location(location):
    def edit(recs):
        recs[-1]["location"] = location
        return recs
    return edit


def _edit_last_frame(edit):
    def edit_dataset(recs):
        edit(recs[-1])
        return recs
    return edit_dataset


def _pad_first_descriptor(rec):
    # the right length, but no hex digits at the first descriptor's end
    k = len(rec["d"]) // len(rec["x"])
    rec["d"] = rec["d"][:k - 2] + "  " + rec["d"][k:]


@pytest.mark.parametrize("edit, message", [
    (_set_last_location(7), "location 7 is outside the taught path"),
    (_set_last_location(-1), "location -1 is outside the taught path"),
    (lambda recs: recs[:2] + recs[-2:] + recs[2:-2], "out of traversal order"),
    # the teach pass once taught local maps in list order, so a repeated or
    # missing location registered later locations against the wrong maps
    (lambda recs: recs[:1] + recs, "location 0 repeats"),
    (lambda recs: recs[1:], "location 0 is missing"),
    # a repeat traversal naming a location twice once replayed both frames
    # and wrote a log that `longnav report` rejects
    (lambda recs: recs[:3] + recs[2:], "traversal 1: location 0 appears twice"),
    # the last frame names the location its traversal's first frame named
    (_set_last_location(0), "traversal 2: location 0 appears twice"),
    (_edit_last_frame(lambda rec: rec.update(x={})), "x is not a list"),
    (_edit_last_frame(_pad_first_descriptor), "malformed hex descriptor"),
], ids=["location-7", "location-minus-1", "traversal-backwards",
        "teach-repeats-location", "teach-misses-location",
        "repeat-repeats-location", "last-repeats-location",
        "features-not-list",
        "descriptor-trailing-spaces"])
def test_replay_rejects_bad_frames(tmp_path, config_path, capsys, edit, message):
    data = tmp_path / "data"
    run_cli("generate", "--config", config_path, "--out", data)
    bad = tmp_path / "bad.jsonl"
    _rewrite_dataset(data / "dataset.jsonl", bad, edit)
    capsys.readouterr()
    assert run_cli("replay", "--config", config_path, "--out", tmp_path / "r",
                   "--strategy", "score", "--dataset", bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_bad_registration_config_exits_1(tmp_path, config_path, capsys):
    # a bin so narrow that the vote's bins would not fit in memory is
    # rejected too, as one error line
    doc = json.loads(config_path.read_text())
    bad = tmp_path / "bad_reg.json"
    for bin_width in (0, 1e-6, 1e-9, 1e-300):
        doc["registration"] = {"bin_width": bin_width}
        bad.write_text(json.dumps(doc))
        for command in ("generate", "compare"):
            capsys.readouterr()
            assert run_cli(command, "--config", bad,
                           "--out", tmp_path / "o") == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "bin_width" in err
            assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("args, edit, message", [
    (["--seed", "-1"], {}, "seed"),
    ([], {"seed": -3}, "seed"),
    (["--interval-s", "nan"], {}, "interval_s"),
    (["--interval-s", "inf"], {}, "interval_s"),
    (["--interval-s", "-100"], {}, "interval_s"),
    ([], {"feature_cap": 0}, "feature_cap"),
    ([], {"alpha": 2}, "alpha"),
    ([], {"failure_penalty": -5}, "failure_penalty"),
    ([], {"offset_amplitude_m": -1}, "offset_amplitude_m"),
], ids=["seed-flag", "seed-config", "interval-nan", "interval-inf",
        "interval-negative", "feature-cap-0", "alpha-2", "penalty-negative",
        "offset-amplitude-negative"])
def test_compare_rejects_bad_run_config(tmp_path, config_path, capsys, args,
                                        edit, message):
    doc = dict(json.loads(config_path.read_text()), **edit)
    bad = tmp_path / "bad_run.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("compare", "--config", bad, "--out", tmp_path / "o",
                   *args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section, key, value", [
    ("world", "px_per_m", math.nan),
    ("world", "day_period", math.nan),
    ("world", "visibility_mean", [0.9, 0.1]),
    ("world", "n_locations", 2.5),
    ("world", "landmarks_per_location", 50.5),
    ("world", "odometry_noise", math.nan),
    ("world", "position_jitter", math.nan),
    ("run", "traversals", 1.5),
    ("strategy", "fremen_periods", []),
    ("strategy", "fremen_order", -1),
    ("strategy", "multiple_max_alternatives", 0),
    ("strategy", "summary_add_fraction", -1),
    ("strategy", "image_width", 300),
    ("registration", "image_width", 645),
    ("registration", "min_votes", 2.5),
    ("registration", "d_max", 40.5),
    ("registration", "min_votes", True),
], ids=["px-per-m-nan", "day-period-nan", "visibility-mean-inverted",
        "n-locations-fraction", "landmarks-fraction", "odometry-noise-nan",
        "position-jitter-nan", "traversals-fraction", "fremen-periods-empty",
        "fremen-order-negative", "max-alternatives-0",
        "summary-fraction-negative", "strategy-image-width",
        "registration-image-width-other", "min-votes-fraction",
        "d-max-fraction", "min-votes-bool"])
def test_compare_rejects_unusable_settings(tmp_path, config_path, capsys,
                                           section, key, value):
    # each of these once ran to exit 0 on a meaningless world, truncated
    # silently, or died in a numpy traceback
    doc = json.loads(config_path.read_text())
    if section == "world":
        doc["world"][key] = value
    elif section == "strategy":
        doc["strategies"] = [{"kind": "score", key: value}]
    elif section == "registration":
        doc["registration"] = {key: value}
    else:
        doc[key] = value
    bad = tmp_path / "bad_settings.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("compare", "--config", bad, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "the config must be a JSON object, got list"),
    ('"hello"', "the config must be a JSON object, got str"),
    ('{"strategies": "static"}', "strategies must be a list, got str"),
    ('{"strategies": [3]}', "a strategies entry must be a JSON object"),
    ('{"world": [], "traversals": 1}', "world must be a JSON object, got list"),
    ('{"registration": "bin_width"}', "registration must be a JSON object"),
], ids=["list", "string", "strategies-string", "strategies-entry-int",
        "world-list", "registration-string"])
def test_compare_rejects_config_of_wrong_shape(tmp_path, capsys, text,
                                               message):
    # a top level that is not an object once ended in a traceback, and a
    # strategies string was read one character at a time
    bad = tmp_path / "shape.json"
    bad.write_text(text)
    capsys.readouterr()
    assert run_cli("compare", "--config", bad, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    with pytest.raises(ConfigError, match=message):
        load_run_config(bad)


def test_strategy_flag_takes_that_kinds_config_entry(tmp_path, capsys):
    doc = {"world": {"n_locations": 2, "landmarks_per_location": 200, "seed": 3},
           "strategies": [{"kind": "score", "m": 50}, "static"],
           "traversals": 2, "interval_s": 3600.0}
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))

    def active_rows(kind):
        out = tmp_path / kind
        assert run_cli("simulate", "--config", config, "--out", out,
                       "--strategy", kind) == 0
        return {r.n_correct + r.n_incorrect + r.n_not_matched
                for r in read_logs(out / f"logs_{kind}.jsonl")}

    assert active_rows("score") == {50}  # the listed entry's cap
    assert min(active_rows("fremen")) > 50  # not listed: the defaults, m=500

    doc["strategies"].append({"kind": "score", "m": 60})
    config.write_text(json.dumps(doc))
    assert run_cli("simulate", "--config", config, "--out", tmp_path / "x",
                   "--strategy", "score") == 1
    assert "lists strategy 'score' 2 times" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["s_c", "s_i", "s_n"])
def test_simulate_rejects_fremen_weight_above_one(tmp_path, config_path,
                                                  capsys, name):
    # once passed validation and died mid-run in FremenModel.add_observation
    doc = dict(json.loads(config_path.read_text()),
               strategies=[{"kind": "fremen", name: 2.0}])
    bad = tmp_path / "fremen_run.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("simulate", "--config", bad, "--strategy", "fremen",
                   "--out", tmp_path / "sim") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{name} must be in [0, 1]" in err
    assert "Traceback" not in err


def test_simulate_writes_logs_and_final_map(tmp_path, config_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", config_path, "--out", out,
                   "--strategy", "latest", "--traversals", 3) == 0
    assert (out / "logs_latest.jsonl").exists()
    assert (out / "map_final.json").exists()


def test_compare_writes_report(tmp_path, config_path, capsys):
    out = tmp_path / "cmp"
    assert run_cli("compare", "--config", config_path, "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "open"
    assert set(summary["ranking"]) == {"score", "static"}
    assert summary["n_frames"] == 2 * 2
    assert len(set(summary["stream_hash"].values())) == 1
    header = (out / "cdf.csv").read_text().splitlines()[0]
    assert header.startswith("threshold_px,")
    assert set(header.split(",")[1:]) == {"score", "static"}
    assert "ranking (best first):" in capsys.readouterr().out


def test_compare_closed_mode_flag(tmp_path, config_path):
    out = tmp_path / "cmpc"
    assert run_cli("compare", "--config", config_path, "--out", out,
                   "--mode", "closed", "--traversals", 2) == 0
    assert json.loads((out / "summary.json").read_text())["mode"] == "closed"


def test_report_from_logs(tmp_path, config_path):
    data = tmp_path / "data"
    run_cli("generate", "--config", config_path, "--out", data)
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    run_cli("replay", "--config", config_path, "--out", r1,
            "--strategy", "score", "--dataset", data / "dataset.jsonl")
    run_cli("replay", "--config", config_path, "--out", r2,
            "--strategy", "static", "--dataset", data / "dataset.jsonl")
    out = tmp_path / "rep"
    assert run_cli("report", "--config", config_path, "--out", out,
                   "--logs", r1 / "logs_score.jsonl",
                   r2 / "logs_static.jsonl") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["mean_error_px"]) == {"score", "static"}


def _replay_logs(tmp_path, config_path, strategy="score"):
    data = tmp_path / "data"
    if not (data / "dataset.jsonl").exists():
        run_cli("generate", "--config", config_path, "--out", data)
    out = tmp_path / f"r_{strategy}"
    run_cli("replay", "--config", config_path, "--out", out,
            "--strategy", strategy, "--dataset", data / "dataset.jsonl")
    return out / f"logs_{strategy}.jsonl"


def _report_error(capsys, config_path, tmp_path, *logs):
    capsys.readouterr()
    assert run_cli("report", "--config", config_path, "--out",
                   tmp_path / "rep", "--logs", *logs) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


@pytest.mark.parametrize("key, value", [
    ("delta_px", math.nan), ("delta_px", "3.5"), ("gamma_px", math.inf),
    ("time_s", math.nan), ("offset_m", -math.inf), ("traversal", 1.9),
    ("location", "0"), ("n_correct", True), ("strategy", 5),
    ("n_incorrect", 2.5), ("n_not_matched", None), ("map_size", "500"),
    ("n_alternatives", 1.0), ("best_alternative", False),
    # JSON integers out of their LocationRecord field's range
    ("n_correct", -5), ("map_size", -1), ("n_alternatives", 0),
    ("best_alternative", 7),
])
def test_report_rejects_bad_log_values(tmp_path, config_path, capsys,
                                       key, value):
    logs = _replay_logs(tmp_path, config_path)
    rows = [json.loads(line) for line in logs.read_text().splitlines()]
    rows[1][key] = value
    logs.write_text("".join(json.dumps(r) + "\n" for r in rows))
    err = _report_error(capsys, config_path, tmp_path, logs)
    assert f"logs_score.jsonl:2: bad log record: {key} is" in err


def test_report_rejects_empty_log_file(tmp_path, config_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    err = _report_error(capsys, config_path, tmp_path, empty)
    assert "empty.jsonl: no log records" in err


@pytest.mark.parametrize("with_score", [False, True])
def test_report_rejects_log_mixing_strategies(tmp_path, config_path, capsys,
                                              with_score):
    # cat logs_score.jsonl logs_static.jsonl > mixed.jsonl
    score = _replay_logs(tmp_path, config_path, "score")
    static = _replay_logs(tmp_path, config_path, "static")
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(score.read_text() + static.read_text())
    n_score = len(score.read_text().splitlines())
    logs = (mixed, score) if with_score else (mixed,)
    err = _report_error(capsys, config_path, tmp_path, *logs)
    assert (f"mixed.jsonl:{n_score + 1}: a 'static' record in a log of "
            "'score'") in err


def test_report_rejects_repeated_frame(tmp_path, config_path, capsys):
    score = _replay_logs(tmp_path, config_path, "score")
    rows = score.read_text().splitlines()
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text("\n".join(rows + rows[:1]) + "\n")
    err = _report_error(capsys, config_path, tmp_path, doubled)
    row = json.loads(rows[0])
    assert (f"doubled.jsonl:{len(rows) + 1}: traversal {row['traversal']}, "
            f"location {row['location']} is logged twice") in err


def test_report_aligns_logs_listing_frames_in_another_order(
        tmp_path, config_path, capsys):
    # a second log with two rows swapped once ended in "sequences are not
    # aligned by frame key"; it is read in the first log's order
    score = _replay_logs(tmp_path, config_path, "score")
    static = _replay_logs(tmp_path, config_path, "static")
    assert run_cli("report", "--config", config_path, "--out", tmp_path / "a",
                   "--logs", score, static) == 0
    rows = static.read_text().splitlines()
    rows[0], rows[1] = rows[1], rows[0]
    swapped = tmp_path / "swapped.jsonl"
    swapped.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert run_cli("report", "--config", config_path, "--out", tmp_path / "b",
                   "--logs", score, swapped) == 0
    assert "Traceback" not in capsys.readouterr().err
    for name in ("summary.json", "cdf.csv"):
        assert ((tmp_path / "b" / name).read_bytes()
                == (tmp_path / "a" / name).read_bytes())


def test_report_needs_two_common_frames(tmp_path, config_path, capsys):
    score = _replay_logs(tmp_path, config_path, "score")
    static = _replay_logs(tmp_path, config_path, "static")
    static.write_text(static.read_text().splitlines()[0] + "\n")
    err = _report_error(capsys, config_path, tmp_path, score, static)
    assert "share 1 frame" in err


def test_replay_rejects_non_finite_map(tmp_path, config_path, capsys):
    data = tmp_path / "data"
    run_cli("generate", "--config", config_path, "--out", data)
    doc = json.loads((data / "map.json").read_text())
    doc["local_maps"][0]["features"]["x"][0] = math.nan
    bad = tmp_path / "bad_map.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("replay", "--config", config_path, "--out", tmp_path / "r",
                   "--strategy", "score", "--dataset", data / "dataset.jsonl",
                   "--map", bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "x is nan" in err


def test_replay_rejects_map_feature_outside_the_image(tmp_path, config_path,
                                                     capsys):
    # such a map once replayed to exit 0: every difference fell in the
    # histogram's clipped edge bin, and delta read about -5000 px
    data = tmp_path / "data"
    run_cli("generate", "--config", config_path, "--out", data)
    doc = json.loads((data / "map.json").read_text())
    for lm in doc["local_maps"]:
        lm["features"]["x"] = [x + 5000.0 for x in lm["features"]["x"]]
    bad = tmp_path / "bad_map.json"
    bad.write_text(json.dumps(doc))
    err = _replay_error(capsys, tmp_path, "--config", config_path,
                        "--strategy", "latest", "--dataset",
                        data / "dataset.jsonl", "--map", bad)
    assert ("bad_map.json: bad map snapshot: local map 0's taught set has a "
            "feature x outside [0, 640)") in err


def test_replay_rejects_map_feature_record_not_object(tmp_path, config_path,
                                                      capsys):
    data = tmp_path / "data"
    run_cli("generate", "--config", config_path, "--out", data)
    doc = json.loads((data / "map.json").read_text())
    doc["local_maps"][0]["features"] = 5
    bad = tmp_path / "bad_map.json"
    bad.write_text(json.dumps(doc))
    err = _replay_error(capsys, tmp_path, "--config", config_path,
                        "--strategy", "score", "--dataset",
                        data / "dataset.jsonl", "--map", bad)
    assert "local map 0's taught set is not an object" in err


@pytest.fixture
def fremen_run(tmp_path, config_path):
    """generate's dataset and the map_final.json of a closed fremen run."""
    run_cli("generate", "--config", config_path, "--out", tmp_path / "data")
    run_cli("simulate", "--config", config_path, "--strategy", "fremen",
            "--out", tmp_path / "sim")
    return tmp_path / "data" / "dataset.jsonl", tmp_path / "sim" / "map_final.json"


def _replay_error(capsys, tmp_path, *args):
    capsys.readouterr()
    assert run_cli("replay", "--out", tmp_path / "r", *args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


def test_replay_rejects_map_with_other_fremen_periods(tmp_path, config_path,
                                                      fremen_run, capsys):
    dataset, final = fremen_run
    doc = json.loads(config_path.read_text())
    doc["strategies"] = [{"kind": "fremen", "fremen_periods": [86400, 43200]}]
    cfg = tmp_path / "periods.json"
    cfg.write_text(json.dumps(doc))
    err = _replay_error(capsys, tmp_path, "--config", cfg, "--dataset", dataset,
                        "--map", final)
    # both period sets: the config's, and the map's default diurnal ones
    assert "(86400.0, 43200.0)" in err and "43200.0, 28800.0" in err


def _taught(doc, local_map=0):
    return doc["local_maps"][local_map]["features"]


def _alternative(cols, inserted_at):
    """An alternative of the set's first rows, one inserted at each of the
    given traversals."""
    n = len(inserted_at)
    return {"x": cols["x"][:n], "y": cols["y"][:n],
            "d": cols["d"][:n * len(cols["d"]) // len(cols["x"])],
            "score": [0.0] * n, "inserted_at": inserted_at, "temporal": None}


@pytest.mark.parametrize("edit, message", [
    (lambda doc: _taught(doc)["temporal"]["n_obs"].__setitem__(0, -1),
     "n_obs is -1, below 0"),
    (lambda doc: _taught(doc)["temporal"]["n_obs"].__setitem__(0, "7"),
     "n_obs is '7', not an integer"),
    (lambda doc: _taught(doc).update(d="".join(
        _taught(doc)["d"][i + 32:i + 64]
        for i in range(0, len(_taught(doc)["d"]), 64))),
     "descriptor width 128 differs from 256"),
    (lambda doc: doc["local_maps"][0].update(
        alternatives=[_alternative(_taught(doc), [])]),
     "local map 0's alternative 1 has no rows"),
    (lambda doc: doc["local_maps"][0].update(
        alternatives=[_alternative(_taught(doc), [1, 2])]),
     "local map 0's alternative 1 has rows inserted at [1, 2], not at one "
     "traversal"),
    (lambda doc: _taught(doc, 1).update(x=[], y=[], d="", score=[],
                                        inserted_at=[], temporal=None),
     "local map 1's taught set has no rows"),
    (lambda doc: [lm["features"]["temporal"].update(
        mu=[7.5] * len(lm["features"]["x"])) for lm in doc["local_maps"]],
     "mu is 7.5, outside [-1, 1]"),
], ids=["n_obs-negative", "n_obs-string", "descriptor-narrow",
        "alternative-empty", "alternative-created-elsewhere", "taught-empty",
        "mu-range"])
def test_replay_rejects_map_of_bad_state(tmp_path, config_path, fremen_run,
                                         capsys, edit, message):
    dataset, final = fremen_run
    doc = json.loads(final.read_text())
    edit(doc)
    final.write_text(json.dumps(doc))
    err = _replay_error(capsys, tmp_path, "--config", config_path,
                        "--strategy", "fremen", "--dataset", dataset,
                        "--map", final)
    assert "bad map snapshot" in err and message in err


def test_replay_rejects_map_of_other_image_width(tmp_path, config_path, capsys):
    doc = json.loads(config_path.read_text())
    doc["world"]["image_width"] = 800
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(doc))
    run_cli("generate", "--config", wide, "--out", tmp_path / "data")
    err = _replay_error(capsys, tmp_path, "--strategy", "latest", "--dataset",
                        tmp_path / "data" / "dataset.jsonl",
                        "--map", tmp_path / "data" / "map.json")
    assert "image_width 800; this run uses 640" in err


def test_replay_rejects_dataset_of_other_descriptor_width(tmp_path,
                                                         config_path, capsys):
    # once ended in view_product's "descriptor widths differ" traceback
    run_cli("generate", "--config", config_path, "--out", tmp_path / "data")
    doc = json.loads(config_path.read_text())
    doc["world"]["descriptor_width"] = 128
    narrow = tmp_path / "narrow.json"
    narrow.write_text(json.dumps(doc))
    run_cli("generate", "--config", narrow, "--out", tmp_path / "narrow")
    err = _replay_error(capsys, tmp_path, "--config", config_path,
                        "--strategy", "score", "--dataset",
                        tmp_path / "narrow" / "dataset.jsonl",
                        "--map", tmp_path / "data" / "map.json")
    assert ("traversal 1, location 0: descriptor width 128 differs from the "
            "path's 256") in err


def test_replay_rejects_dataset_of_a_wider_image(tmp_path, config_path,
                                                 capsys):
    # an 800-px world's dataset replayed at 640 px once exited 0; its
    # features beyond x = 640 now stop the replay at the first such frame
    doc = json.loads(config_path.read_text())
    doc["world"]["image_width"] = 800
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(doc))
    run_cli("generate", "--config", wide, "--out", tmp_path / "wide")
    err = _replay_error(capsys, tmp_path, "--config", config_path,
                        "--strategy", "score", "--dataset",
                        tmp_path / "wide" / "dataset.jsonl")
    assert "traversal 0, location 0: feature x outside [0, 640)" in err


def test_replay_registers_a_featureless_first_frame_as_failed(tmp_path,
                                                              config_path):
    # the reader gives a file's leading featureless frame width 0, which once
    # ended in view_product's "descriptor widths differ" traceback
    data = tmp_path / "data"
    run_cli("generate", "--config", config_path, "--out", data)
    repeats = tmp_path / "repeats.jsonl"

    def edit(recs):
        recs = [rec for rec in recs if rec["traversal"] > 0]
        recs[0].update(x=[], y=[], d="")
        return recs
    _rewrite_dataset(data / "dataset.jsonl", repeats, edit)
    out = tmp_path / "r"
    assert run_cli("replay", "--config", config_path, "--out", out,
                   "--strategy", "score", "--dataset", repeats,
                   "--map", data / "map.json") == 0
    logs = read_logs(out / "logs_score.jsonl")
    assert len(logs) == 4 and logs[0].delta_px is None
    assert (logs[0].n_correct, logs[0].n_incorrect) == (0, 0)
    assert all(rec.delta_px is not None for rec in logs[1:])


def test_replay_rejects_a_dataset_without_repeat_frames(tmp_path, config_path,
                                                       capsys):
    # a teach-only dataset once replayed to exit 0 with an empty log and
    # mean_error_px=nan
    data = tmp_path / "data"
    run_cli("generate", "--config", config_path, "--out", data)
    teach_only = tmp_path / "teach.jsonl"
    _rewrite_dataset(data / "dataset.jsonl", teach_only,
                     lambda recs: [rec for rec in recs if rec["traversal"] == 0])
    capsys.readouterr()
    out = tmp_path / "r"
    assert run_cli("replay", "--config", config_path, "--out", out,
                   "--strategy", "score", "--dataset", teach_only) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no repeat frames" in err
    assert "Traceback" not in err
    assert not (out / "logs_score.jsonl").exists()


def test_written_maps_have_models_on_every_row_or_none(tmp_path):
    # fremen's taught sets carry a model on every row; nothing else carries any
    world = {"n_locations": 3, "landmarks_per_location": 60, "seed": 4,
             "turnover_prob": 0.05}
    for kind in STRATEGY_KINDS:
        cfg = tmp_path / f"{kind}.json"
        cfg.write_text(json.dumps({
            "world": world, "traversals": 4, "interval_s": 21600.0,
            "strategies": [{"kind": kind, "m": 30, "multiple_threshold": 0.9}]}))
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / kind) == 0
    assert run_cli("generate", "--config", cfg, "--out", tmp_path / "gen") == 0
    maps = [(k, tmp_path / k / "map_final.json") for k in STRATEGY_KINDS]
    n_alternatives = 0
    for kind, p in maps + [("generate", tmp_path / "gen" / "map.json")]:
        doc = json.loads(p.read_text())
        for i, lm in enumerate(doc["local_maps"]):
            n_alternatives += len(lm["alternatives"])
            sets = [(True, lm["features"])] + [(False, a)
                                               for a in lm["alternatives"]]
            for taught, cols in sets:
                has = cols["temporal"] is not None
                assert has == (kind == "fremen" and taught), (kind, i)
        again = tmp_path / "again.json"
        write_map_snapshot(read_map_snapshot(p), again)
        assert again.read_bytes() == p.read_bytes(), kind
    assert n_alternatives > 0


def test_replay_from_a_multiple_map_registers_only_its_taught_sets(tmp_path):
    # a score replay once kept the multiple run's alternatives and logged
    # them in n_alternatives, though it never registers against them
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "world": {"n_locations": 3, "landmarks_per_location": 60, "seed": 4,
                  "turnover_prob": 0.05},
        "traversals": 4, "interval_s": 21600.0,
        "strategies": [{"kind": "multiple", "m": 30, "multiple_threshold": 0.9},
                       {"kind": "score", "m": 30}]}))
    assert run_cli("simulate", "--config", cfg, "--strategy", "multiple",
                   "--out", tmp_path / "sim") == 0
    final = tmp_path / "sim" / "map_final.json"
    assert all(read_map_snapshot(final).local_maps[i].alternatives
               for i in range(3))
    assert run_cli("generate", "--config", cfg, "--out", tmp_path / "data") == 0
    out = tmp_path / "r"
    assert run_cli("replay", "--config", cfg, "--strategy", "score", "--out",
                   out, "--dataset", tmp_path / "data" / "dataset.jsonl",
                   "--map", final) == 0
    logs = read_logs(out / "logs_score.jsonl")
    assert len(logs) == 3 * 4
    assert {(r.n_alternatives, r.best_alternative) for r in logs} == {(1, 0)}


def test_error_exit_codes(tmp_path, config_path, capsys):
    assert run_cli("generate", "--config", config_path) == 1  # no --out
    assert "error:" in capsys.readouterr().err

    missing = tmp_path / "nope.jsonl"
    assert run_cli("replay", "--config", config_path, "--out", tmp_path / "o",
                   "--strategy", "score", "--dataset", missing) == 1
    assert "io error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"bananas": 1}')
    assert run_cli("generate", "--config", bad, "--out", tmp_path / "o") == 1

    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run_cli("replay", "--strategy", "bogus", "--dataset", "x", "--out", "y")


def run_child(*args):
    """A fresh interpreter importing the same package as the tests,
    installed or not."""
    src = str(Path(longnav.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_console_entry_point():
    proc = run_child("-m", "longnav.cli", "--help")
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "compare" in proc.stdout


def test_compare_and_report_never_load_scipy(tmp_path, config_path):
    # the t-test's p-value is computed with math alone; scipy is only the
    # tests' oracle
    logs = [_replay_logs(tmp_path, config_path, kind) for kind in ("score",
                                                                  "static")]
    script = ("import json, sys; from longnav.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules if m == 'scipy' "
              "or m.startswith('scipy.')))")
    runs = [["compare", "--config", config_path, "--out", tmp_path / "cmp"],
            ["report", "--config", config_path, "--out", tmp_path / "rep",
             "--logs", *logs]]
    proc = run_child("-c", script, json.dumps(runs, default=str))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "rep" / "summary.json").is_file()


def test_every_export_resolves():
    # a name left in __all__ after its type is deleted breaks `import *`
    missing = [name for name in longnav.__all__ if not hasattr(longnav, name)]
    assert not missing, missing
