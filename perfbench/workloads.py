"""The benchmark's workloads: inputs made from a seed, one timed unit of work,
and the check of that unit's outputs.

A unit is one full eight-strategy comparison, from frame generation (or
dataset parsing) to the written ``summary.json`` and ``cdf.csv``. Why each
workload exists is in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

# longnav's functions are reached through their modules, never imported by
# name, so that the tracer's wrappers see these calls too
from longnav import cli, evaluation, simulator
from longnav import io as longnav_io
from longnav.strategies import STRATEGY_KINDS, StrategyConfig

# the CLI's default schedule: 178 traversals over 90 days
INTERVAL_S = cli.DEFAULT_INTERVAL_S
OFFSET_AMPLITUDE_M = 0.25

# the C1 acceptance world: scarce landmarks whose visibility peaks either by
# day or by night, so a never-updated map starves half the time
SCARCE_BIMODAL = {
    "landmarks_per_location": 120,
    "visibility_mean": [0.45, 0.55],
    "visibility_amp": [0.40, 0.50],
    "visibility_phases": [0.0, math.pi],
}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "open" or "closed"
    locations: int
    traversals: int
    world: dict  # WorldConfig fields beyond the defaults
    replay: bool  # True: setup writes a dataset that each unit replays
    numpy_share: float  # rough share of a unit spent in numpy kernels

    @property
    def strategy_frames(self) -> int:
        return len(STRATEGY_KINDS) * self.locations * self.traversals

    def key(self) -> str:
        """Identifies the unit's inputs apart from the seed."""
        return json.dumps([self.mode, self.locations, self.traversals,
                           self.world, self.replay], sort_keys=True)


WORKLOADS = {w.name: w for w in (
    Workload("open-dense", "open", 2, 6, {}, False, 0.5),
    Workload("closed-dense", "closed", 2, 6, {}, False, 0.5),
    Workload("sparse-replay", "open", 8, 24, SCARCE_BIMODAL, True, 0.25),
)}


def setup(w: Workload, seed: int, workdir: Path) -> Path:
    """Write the unit's input: a run config for `longnav compare`, or for a
    replay workload the JSONL dataset `longnav generate` would write."""
    workdir.mkdir(parents=True, exist_ok=True)
    world = dict(w.world, n_locations=w.locations, seed=seed)
    if not w.replay:
        path = workdir / "config.json"
        path.write_text(json.dumps({
            "world": world, "seed": seed, "traversals": w.traversals,
            "interval_s": INTERVAL_S, "mode": w.mode,
            "offset_amplitude_m": OFFSET_AMPLITUDE_M}))
        return path
    for key in ("visibility_mean", "visibility_amp", "visibility_phases"):
        world[key] = tuple(world[key])
    path = workdir / "dataset.jsonl"
    frames = simulator.generate_frames(
        simulator.generate_world(simulator.WorldConfig(**world)), w.traversals,
        INTERVAL_S, run_seed=seed,
        offset_fn=simulator.uniform_offset_schedule(OFFSET_AMPLITUDE_M, seed))
    longnav_io.write_dataset(frames, path)
    return path


def run_unit(w: Workload, source: Path, out: Path) -> None:
    """One eight-strategy comparison writing summary.json and cdf.csv to out."""
    if not w.replay:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["compare", "--config", str(source), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"longnav compare exited with {code}")
        return
    strategies = [StrategyConfig(kind=k) for k in STRATEGY_KINDS]
    report = evaluation.compare_strategies(str(source), strategies, mode=w.mode)
    evaluation.write_report(report, out)


def check_unit(w: Workload, out: Path) -> dict:
    """Check the unit's report and return its digest and quality figures.

    Raises ValueError naming the first failed check."""
    summary_bytes = (out / "summary.json").read_bytes()
    cdf_bytes = (out / "cdf.csv").read_bytes()
    summary = json.loads(summary_bytes)
    labels = list(summary["mean_error_px"])
    if sorted(labels) != sorted(STRATEGY_KINDS):
        raise ValueError(f"strategies in report: {labels}")
    n = summary["n_frames"]
    if n != w.locations * w.traversals:
        raise ValueError(f"{n} frames per strategy, expected "
                         f"{w.locations * w.traversals}")
    if summary["dropped_frames"] != 0:
        raise ValueError(f"{summary['dropped_frames']} frames dropped")
    means = [summary["mean_error_px"][lab] for lab in labels]
    if not all(isinstance(m, (int, float)) and math.isfinite(m) for m in means):
        raise ValueError(f"non-finite mean error: {means}")
    hashes = set(summary["stream_hash"].values())
    if w.mode == "open" and (len(hashes) != 1 or None in hashes):
        raise ValueError(f"open-mode stream hashes disagree: {hashes}")
    if w.mode == "closed" and hashes != {None}:
        raise ValueError(f"closed-mode report holds stream hashes: {hashes}")
    failures = sum(summary["failure_count"].values())
    if not 0 <= failures <= n * len(labels):
        raise ValueError(f"failure count {failures} out of range")
    if len(cdf_bytes.splitlines()) != 1 + len(evaluation.DEFAULT_THRESHOLDS):
        raise ValueError("cdf.csv does not hold one row per threshold")
    return {
        "digest": hashlib.sha256(summary_bytes + cdf_bytes).hexdigest(),
        "reg_fail_frac": failures / (n * len(labels)),
        # every strategy scores the same frames, so the mean of the
        # per-strategy means is the mean over all strategy-frames
        "mean_error_px": sum(means) / len(means),
    }
