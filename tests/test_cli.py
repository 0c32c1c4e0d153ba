"""End-to-end command-line flows on a miniature world."""

import json
import math
import subprocess
import sys

import pytest

from longnav.cli import (DEFAULT_INTERVAL_S, RunConfig, load_run_config, main,
                         run_config_from_dict)
from longnav.errors import ConfigError


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
    assert cfg.strategies[0].image_width == cfg.world.image_width
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


@pytest.mark.parametrize("edit, message", [
    (_set_last_location(7), "location 7 is outside the taught path"),
    (_set_last_location(-1), "location -1 is outside the taught path"),
    (lambda recs: recs[:2] + recs[-2:] + recs[2:-2], "out of traversal order"),
], ids=["location-7", "location-minus-1", "traversal-backwards"])
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
    doc = json.loads(config_path.read_text())
    doc["registration"] = {"bin_width": 0}
    bad = tmp_path / "bad_reg.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("generate", "--config", bad, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bin_width" in err


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
    ("time_s", math.nan), ("offset_m", -math.inf),
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
    doc["local_maps"][0]["features"][0]["x"] = math.nan
    bad = tmp_path / "bad_map.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("replay", "--config", config_path, "--out", tmp_path / "r",
                   "--strategy", "score", "--dataset", data / "dataset.jsonl",
                   "--map", bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "x is nan" in err


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


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "longnav.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "compare" in proc.stdout
