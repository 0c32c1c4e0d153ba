"""Registration-error statistics, paired t-tests, and strategy comparisons.

A comparison replays every strategy over the same evidence: in open loop one
frame stream is read once and every frame is fed to every strategy in turn
(its sha256 is reported), in closed loop every strategy steers its own frames
through one seeded world, in lockstep. Errors eps_i = |delta_i - gamma_i|
feed per-strategy CDFs and pairwise paired t-tests.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import ConfigError
from .registration import RegistrationParams
from .simulator import (World, WorldConfig, generate_frames, replay_frames,
                        run_closed_loop)

DEFAULT_THRESHOLDS = tuple(float(v) for v in range(0, 101))


@dataclass
class ErrorSequence:
    """Per-frame registration errors for one strategy, aligned by frame key."""

    strategy: str
    values: np.ndarray  # eps_i >= 0, pixels
    failed: np.ndarray  # True where the penalty was substituted
    keys: list  # (traversal, location) per entry

    def __len__(self):
        return len(self.values)

    def mean(self) -> float:
        return float(self.values.mean()) if len(self.values) else math.nan


@dataclass
class TTestResult:
    t: float
    df: int
    p_value: float
    significant: bool


def registration_errors(logs, failure_penalty: float = 320.0,
                        strategy: str | None = None) -> ErrorSequence:
    """eps_i = |delta_i - gamma_i| over all records; failed registrations get
    the penalty value and a flag."""
    values = []
    failed = []
    keys = []
    name = strategy
    for log in logs:
        if name is None:
            name = log.strategy
        for rec in log.records:
            if rec.delta is None:
                values.append(float(failure_penalty))
                failed.append(True)
            else:
                values.append(abs(rec.delta - rec.gamma))
                failed.append(False)
            keys.append((log.traversal, rec.location))
    return ErrorSequence(name or "", np.asarray(values, dtype=np.float64),
                         np.asarray(failed, dtype=bool), keys)


def error_cdf(eps: ErrorSequence, thresholds) -> list:
    """(threshold, fraction of errors <= threshold) for each threshold."""
    if len(eps) == 0:
        raise ValueError("cannot compute a CDF over an empty error sequence")
    vals = np.sort(eps.values)
    n = vals.shape[0]
    out = []
    for thr in thresholds:
        c = int(np.searchsorted(vals, float(thr), side="right"))
        out.append((float(thr), c / n))
    return out


def paired_t_test(a: ErrorSequence, b: ErrorSequence,
                  alpha: float = 0.05) -> TTestResult:
    """Two-sided paired Student t-test on aligned error sequences.

    Degenerate zero-variance differences follow the stated convention:
    t = +-inf with p = 0 when the mean difference is nonzero, t = 0 with
    p = 1 when the sequences are identical.
    """
    if len(a) != len(b):
        raise ValueError(f"sequence lengths differ: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 samples")
    if a.keys and b.keys and a.keys != b.keys:
        raise ValueError("sequences are not aligned by frame key")
    d = a.values - b.values
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, df, 1.0, False)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t, df, 0.0, 0.0 < alpha)
    t = mean / (sd / math.sqrt(n))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t, df, p, p < alpha)


def _hashed(pairs, h):
    """Yield (traversal, frame) pairs, folding each into the sha256 h."""
    for tr, frame in pairs:
        h.update(struct.pack("<qqdd", tr, frame.location, frame.time,
                             frame.gamma))
        h.update(struct.pack("<q", len(frame.features)))
        for f in frame.features:
            h.update(struct.pack("<dd", f.x, f.y))
            h.update(f.descriptor.words.tobytes())
        yield tr, frame


def unique_labels(names) -> list:
    """Disambiguate repeated strategy names: static, static.2, static.3 ..."""
    seen = {}
    labels = []
    for name in names:
        seen[name] = seen.get(name, 0) + 1
        k = seen[name]
        labels.append(name if k == 1 else f"{name}.{k}")
    return labels


@dataclass
class ComparisonReport:
    mode: str
    labels: list
    sequences: dict  # label -> ErrorSequence
    mean_errors: dict
    failure_counts: dict
    thresholds: tuple
    cdf: dict  # label -> probability list aligned with thresholds
    ttests: dict  # label -> {other label -> TTestResult}
    ranking: list  # labels sorted by mean error, best first
    alpha: float
    stream_hashes: dict
    dropped_frames: int = 0
    n_frames: int = 0


def _align(sequences) -> tuple:
    """Restrict all sequences to the frame keys present in every one of them."""
    key_sets = [set(s.keys) for s in sequences]
    common = set.intersection(*key_sets) if key_sets else set()
    total = sum(len(s) for s in sequences)
    if all(len(s) == len(common) for s in sequences):
        return list(sequences), 0
    aligned = []
    for s in sequences:
        sel = [i for i, k in enumerate(s.keys) if k in common]
        aligned.append(ErrorSequence(s.strategy, s.values[sel], s.failed[sel],
                                     [s.keys[i] for i in sel]))
    dropped = total - sum(len(s) for s in aligned)
    return aligned, dropped


def _normalize_schedule(schedule) -> tuple:
    try:
        traversals, interval_s = schedule
    except (TypeError, ValueError):
        raise ConfigError("schedule must be (traversal count, interval seconds)")
    traversals, interval_s = int(traversals), float(interval_s)
    if traversals < 1:
        raise ConfigError("schedule needs at least one traversal")
    if not 0 < interval_s < math.inf:
        raise ConfigError(f"schedule interval must be finite and > 0 s, "
                          f"got {interval_s}")
    return traversals, interval_s


def compare_strategies(source, strategies, schedule=None, *, mode: str = "open",
                       run_seed: int = 0, offset_fn=None,
                       params: RegistrationParams | None = None,
                       feature_cap: int = 500,
                       failure_penalty: float | None = None,
                       thresholds=DEFAULT_THRESHOLDS, alpha: float = 0.05,
                       initial_offset_m: float = 0.0) -> ComparisonReport:
    """Run every strategy over the same evidence and assemble the report.

    source: a World/WorldConfig (frames are generated), a dataset path, or an
    in-memory iterable of (traversal, frame) pairs. mode "open" reads that
    frame stream once and feeds every frame to every strategy; each label's
    stream hash is the stream's one sha256. mode "closed" runs every strategy
    in lockstep through one world, each steering its own frames.
    """
    if not strategies:
        raise ConfigError("no strategies to compare")
    if mode not in ("open", "closed"):
        raise ConfigError(f"mode must be open|closed, got {mode!r}")
    labels = unique_labels([cfg.kind for cfg in strategies])

    world_cfg = None
    if isinstance(source, World):
        world_cfg = source.config
    elif isinstance(source, WorldConfig):
        world_cfg = source

    image_width = world_cfg.image_width if world_cfg else 640
    if failure_penalty is None:
        failure_penalty = image_width / 2.0
    reg_params = params or RegistrationParams(image_width=image_width)

    if world_cfg is not None:
        traversals, interval_s = _normalize_schedule(schedule)
    elif mode == "closed":
        raise ConfigError("closed-loop comparison needs a world source")

    if mode == "closed":
        _, results = run_closed_loop(World(world_cfg), strategies, traversals,
                                     interval_s, feature_cap=feature_cap,
                                     run_seed=run_seed,
                                     initial_offset_m=initial_offset_m,
                                     params=reg_params)
        stream_hashes = dict.fromkeys(labels)
    else:
        if world_cfg is not None:
            pairs = generate_frames(World(world_cfg), traversals, interval_s,
                                    run_seed, offset_fn=offset_fn)
        elif isinstance(source, (str, os.PathLike)):
            from .io import read_dataset
            pairs = read_dataset(source)
        else:
            pairs = source
        h = hashlib.sha256()
        _, results = replay_frames(_hashed(pairs, h), strategies,
                                   feature_cap=feature_cap,
                                   image_width=image_width, params=reg_params)
        stream_hashes = dict.fromkeys(labels, h.hexdigest())

    sequences = [registration_errors(logs, failure_penalty, lab)
                 for lab, logs in zip(labels, results)]
    return build_report(sequences, thresholds=thresholds, alpha=alpha,
                        mode=mode, stream_hashes=stream_hashes)


def build_report(sequences, *, thresholds=DEFAULT_THRESHOLDS,
                 alpha: float = 0.05, mode: str = "open",
                 stream_hashes: dict | None = None) -> ComparisonReport:
    """Assemble a ComparisonReport from labeled error sequences, aligning them
    on common frame keys first."""
    if not sequences:
        raise ConfigError("no error sequences to report on")
    labels = [s.strategy for s in sequences]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate sequence labels: {labels}")
    sequences, dropped = _align(sequences)
    n_frames = len(sequences[0])
    needed = 2 if len(labels) > 1 else 1  # a paired t-test needs 2 pairs
    if n_frames < needed:
        raise ConfigError(f"the sequences share {n_frames} frame(s); "
                          f"a report on {len(labels)} sequence(s) needs at least "
                          f"{needed}")
    seq_by_label = dict(zip(labels, sequences))

    mean_errors = {lab: s.mean() for lab, s in seq_by_label.items()}
    failure_counts = {lab: int(s.failed.sum()) for lab, s in seq_by_label.items()}
    cdf = {lab: [p for _, p in error_cdf(s, thresholds)]
           for lab, s in seq_by_label.items()}
    ttests = {}
    for la in labels:
        row = {}
        for lb in labels:
            if la != lb:
                row[lb] = paired_t_test(seq_by_label[la], seq_by_label[lb], alpha)
        ttests[la] = row
    ranking = sorted(labels, key=lambda lab: mean_errors[lab])
    return ComparisonReport(mode, labels, seq_by_label, mean_errors,
                            failure_counts, tuple(float(t) for t in thresholds),
                            cdf, ttests, ranking, alpha, stream_hashes or {},
                            dropped, n_frames)


def _json_float(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def write_report(report: ComparisonReport, out_dir) -> tuple:
    """Write summary.json and cdf.csv; returns their paths."""
    import json
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "mode": report.mode,
        "ranking": report.ranking,
        "mean_error_px": report.mean_errors,
        "failure_count": report.failure_counts,
        "n_frames": report.n_frames,
        "dropped_frames": report.dropped_frames,
        "alpha": report.alpha,
        "stream_hash": report.stream_hashes,
        "t_tests": {
            la: {lb: {"t": _json_float(r.t), "df": r.df, "p_value": r.p_value,
                      "significant": r.significant}
                 for lb, r in row.items()}
            for la, row in report.ttests.items()
        },
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    cdf_path = out / "cdf.csv"
    with cdf_path.open("w") as fh:
        fh.write("threshold_px," + ",".join(report.labels) + "\n")
        for i, thr in enumerate(report.thresholds):
            row = [f"{thr:g}"] + [f"{report.cdf[lab][i]:.6f}" for lab in report.labels]
            fh.write(",".join(row) + "\n")
    return summary_path, cdf_path
