"""Command-line entry point binding worlds, strategies, and reports together.

Subcommands: generate (world -> dataset + taught map), replay (dataset ->
logs), simulate (closed-loop run -> logs + final map), compare (all configured
strategies -> summary.json + cdf.csv), report (re-render a report from logs).
Everything is seeded; reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, LongNavError
from .evaluation import (build_report, compare_strategies, registration_errors,
                         unique_labels, write_report)
from .io import (read_dataset, read_logs, read_map_snapshot, write_dataset,
                 write_logs, write_map_snapshot)
from .registration import RegistrationParams
from .simulator import (WorldConfig, generate_frames, generate_world,
                        replay_frames, run_closed_loop, teach,
                        uniform_offset_schedule)
from .strategies import STRATEGY_KINDS, StrategyConfig

DEFAULT_TRAVERSALS = 178
DEFAULT_SPAN_S = 90 * 86400.0
DEFAULT_INTERVAL_S = DEFAULT_SPAN_S / DEFAULT_TRAVERSALS


@dataclass
class RunConfig:
    """One experiment: a world, strategies to run on it, and a schedule."""

    world: WorldConfig = field(default_factory=WorldConfig)
    strategies: list = field(default_factory=list)
    traversals: int = DEFAULT_TRAVERSALS
    interval_s: float = DEFAULT_INTERVAL_S
    mode: str = "open"
    seed: int = 0
    offset_amplitude_m: float = 0.25
    feature_cap: int = 500
    alpha: float = 0.05
    failure_penalty: float | None = None
    registration: RegistrationParams = field(default_factory=RegistrationParams)

    def __post_init__(self):
        if not self.strategies:
            self.strategies = [StrategyConfig(kind=k) for k in STRATEGY_KINDS]
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError naming the first setting no run can use; call
        again after changing fields."""
        for name, ok, rule in (
                ("traversals", self.traversals >= 1, ">= 1"),
                ("mode", self.mode in ("open", "closed"), "open|closed"),
                ("seed", isinstance(self.seed, int) and self.seed >= 0,
                 "a non-negative integer"),
                ("interval_s", 0 < self.interval_s < math.inf, "finite and > 0"),
                ("feature_cap", self.feature_cap >= 1, ">= 1"),
                ("alpha", 0 < self.alpha < 1, "in (0, 1)"),
                ("failure_penalty", self.failure_penalty is None
                 or 0 <= self.failure_penalty < math.inf, "finite and >= 0"),
                ("offset_amplitude_m", 0 <= self.offset_amplitude_m < math.inf,
                 "finite and >= 0")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, "
                                  f"got {getattr(self, name)!r}")


def run_config_from_dict(doc: dict) -> RunConfig:
    doc = dict(doc)
    for drop in ("out",):  # output location comes from the command line
        doc.pop(drop, None)
    try:
        world_doc = dict(doc.pop("world", {}))
        for key in ("visibility_mean", "visibility_amp", "visibility_phases"):
            if isinstance(world_doc.get(key), list):
                world_doc[key] = tuple(world_doc[key])
        world = WorldConfig(**world_doc)

        strategies = []
        for entry in doc.pop("strategies", []):
            if isinstance(entry, str):
                entry = {"kind": entry}
            entry = dict(entry)
            entry.setdefault("image_width", world.image_width)
            if isinstance(entry.get("fremen_periods"), list):
                entry["fremen_periods"] = tuple(entry["fremen_periods"])
            strategies.append(StrategyConfig(**entry))

        reg_doc = dict(doc.pop("registration", {}))
        reg_doc.setdefault("image_width", world.image_width)
        registration = RegistrationParams(**reg_doc)

        known = {f.name for f in fields(RunConfig)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(world=world, strategies=strategies,
                         registration=registration, **doc)
    except TypeError as e:
        raise ConfigError(f"bad configuration: {e}") from e


def load_run_config(path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return run_config_from_dict(doc)


def _config_for(args) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        # one knob seeds both environment and observation noise
        cfg.seed = args.seed
        cfg.world.seed = args.seed
    if getattr(args, "traversals", None) is not None:
        cfg.traversals = args.traversals
    if getattr(args, "interval_s", None) is not None:
        cfg.interval_s = args.interval_s
    if getattr(args, "mode", None) is not None:
        cfg.mode = args.mode
    cfg.validate()
    return cfg


def _out_dir(args) -> Path:
    out = getattr(args, "out", None)
    if out is None:
        raise ConfigError("--out <dir> is required")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _strategy_for(args, cfg: RunConfig) -> StrategyConfig:
    name = getattr(args, "strategy", None)
    if name:
        return StrategyConfig(kind=name, image_width=cfg.world.image_width)
    if len(cfg.strategies) == 1:
        return cfg.strategies[0]
    raise ConfigError("--strategy <kind> is required (config lists several)")


def _offset_fn(cfg: RunConfig):
    if cfg.offset_amplitude_m > 0:
        return uniform_offset_schedule(cfg.offset_amplitude_m, cfg.seed)
    return None


def _cmd_generate(args) -> int:
    cfg = _config_for(args)
    out = _out_dir(args)
    world = generate_world(cfg.world)
    path = teach(world, 0.0, feature_cap=cfg.feature_cap)
    write_map_snapshot(path, out / "map.json")
    pairs = generate_frames(world, cfg.traversals, cfg.interval_s,
                            run_seed=cfg.seed, offset_fn=_offset_fn(cfg))
    n = write_dataset(pairs, out / "dataset.jsonl")
    print(f"wrote {n} frames to {out / 'dataset.jsonl'} and taught map to "
          f"{out / 'map.json'}")
    return 0


def _penalty(cfg: RunConfig) -> float:
    if cfg.failure_penalty is not None:
        return cfg.failure_penalty
    return cfg.world.image_width / 2.0


def _summarize(logs, cfg: RunConfig, label: str) -> str:
    seq = registration_errors(logs, _penalty(cfg), label)
    return (f"{label}: frames={len(seq)} mean_error_px={seq.mean():.3f} "
            f"failures={int(seq.failed.sum())}")


def _cmd_replay(args) -> int:
    cfg = _config_for(args)
    out = _out_dir(args)
    strategy = _strategy_for(args, cfg)
    snapshot = read_map_snapshot(args.map) if args.map else None
    pairs = read_dataset(args.dataset)
    _, (logs,) = replay_frames(pairs, [strategy], path=snapshot,
                               feature_cap=cfg.feature_cap,
                               image_width=cfg.world.image_width,
                               params=cfg.registration)
    log_path = out / f"logs_{strategy.kind}.jsonl"
    write_logs(logs, log_path)
    print(_summarize(logs, cfg, strategy.kind))
    print(f"wrote {log_path}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _config_for(args)
    out = _out_dir(args)
    strategy = _strategy_for(args, cfg)
    world = generate_world(cfg.world)
    (path,), (logs,) = run_closed_loop(world, [strategy], cfg.traversals,
                                       cfg.interval_s,
                                       feature_cap=cfg.feature_cap,
                                       run_seed=cfg.seed,
                                       params=cfg.registration)
    log_path = out / f"logs_{strategy.kind}.jsonl"
    write_logs(logs, log_path)
    write_map_snapshot(path, out / "map_final.json")
    print(_summarize(logs, cfg, strategy.kind))
    print(f"wrote {log_path} and {out / 'map_final.json'}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _config_for(args)
    out = _out_dir(args)
    report = compare_strategies(
        cfg.world, cfg.strategies, (cfg.traversals, cfg.interval_s),
        mode=cfg.mode, run_seed=cfg.seed,
        offset_fn=_offset_fn(cfg) if cfg.mode == "open" else None,
        params=cfg.registration, feature_cap=cfg.feature_cap,
        failure_penalty=_penalty(cfg), alpha=cfg.alpha)
    summary_path, cdf_path = write_report(report, out)
    ranked = ", ".join(f"{lab}={report.mean_errors[lab]:.2f}px"
                       for lab in report.ranking)
    print(f"ranking (best first): {ranked}")
    print(f"wrote {summary_path} and {cdf_path}")
    return 0


def _cmd_report(args) -> int:
    cfg = _config_for(args)
    out = _out_dir(args)
    all_logs = [read_logs(p) for p in args.logs]
    names = unique_labels([logs[0].strategy if logs else f"logs{i}"
                           for i, logs in enumerate(all_logs)])
    sequences = [registration_errors(logs, _penalty(cfg), name)
                 for logs, name in zip(all_logs, names)]
    report = build_report(sequences, alpha=cfg.alpha)
    summary_path, cdf_path = write_report(report, out)
    print(f"wrote {summary_path} and {cdf_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="longnav",
        description="Teach-and-repeat navigation: simulate, replay, and "
                    "compare map-management strategies.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_strategy=False):
        sp.add_argument("--config", type=Path, help="run configuration JSON")
        sp.add_argument("--seed", type=int, help="seed for world and run noise")
        sp.add_argument("--out", type=Path, help="output directory")
        sp.add_argument("--traversals", type=int, help="number of repeat passes")
        sp.add_argument("--interval-s", type=float, dest="interval_s",
                        help="seconds between traversals")
        if with_strategy:
            sp.add_argument("--strategy", choices=list(STRATEGY_KINDS),
                            help="map-update strategy")

    sp = sub.add_parser("generate", help="synthesize a dataset and taught map")
    common(sp)
    sp.set_defaults(func=_cmd_generate)

    sp = sub.add_parser("replay", help="replay a dataset through one strategy")
    common(sp, with_strategy=True)
    sp.add_argument("--dataset", type=Path, required=True)
    sp.add_argument("--map", type=Path, help="taught map snapshot "
                    "(default: teach from the dataset's traversal 0)")
    sp.set_defaults(func=_cmd_replay)

    sp = sub.add_parser("simulate", help="closed-loop run of one strategy")
    common(sp, with_strategy=True)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("compare", help="run all configured strategies and "
                        "write summary.json + cdf.csv")
    common(sp)
    sp.add_argument("--mode", choices=["open", "closed"])
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("report", help="re-render a report from log files")
    sp.add_argument("--logs", type=Path, nargs="+", required=True)
    sp.add_argument("--config", type=Path)
    sp.add_argument("--out", type=Path)
    sp.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LongNavError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
