"""Span tracing around calls into longnav's public functions.

The tracer replaces each target function with a wrapper that records one span
(id, name, start, end, parent id) per call, plus counts of the work the call
did (matrix cells, packed rows, matched pairs, ...). Functions that other
modules import by name (``register``, ``pack_features``,
``self_nearest_distances``, ``predict_many``, ...) are replaced at every
import site: patching only the defining module would silently drop the calls
made through the other names.

Spans and counts stay in memory, grouped by phase (``setup``, ``unit0``,
``unit1``, ...), and are written out once at the end of a run. A span's self
time is its duration minus the durations of its child spans. Tracing is
single-threaded: the benchmark runs longnav with ``LONGNAV_THREADS`` unset.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_now = time.perf_counter


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# ---------------------------------------------------------------------------
# per-call counters: (tracer, args, kwargs, result) -> None
# ---------------------------------------------------------------------------

def _cells_ab(name):
    def count(tr, args, kwargs, result):
        tr.counters[name + ".cells"] += int(args[0].shape[0]) * int(args[1].shape[0])
    return count


def _cells_aa(name):
    def count(tr, args, kwargs, result):
        tr.counters[name + ".cells"] += int(args[0].shape[0]) ** 2
    return count


def _count_rows(tr, args, kwargs, result):
    tr.counters["features.pack_features.rows"] += int(result.shape[0])


def _count_register(tr, args, kwargs, result):
    c = tr.counters
    c["registration.pairs"] += len(result.pairs)
    c["registration.no_consensus"] += result.delta is None
    if tr.parent_name() == "strategies.select_best_alternative":
        c["strategies.select_best_alternative.registers"] += 1


def _count_observe(tr, args, kwargs, result):
    tr.counters["simulator.observe.features"] += len(result.features)


def _count_record(tr, args, kwargs, result):
    rec = result[0]
    tr.counters["strategies.map_size.sum"] += rec.map_size
    tr.counters["strategies.map_size.records"] += 1


def _update_map_name(args, kwargs):
    return "strategies.update_map." + _arg(args, kwargs, 3, "cfg").kind


# (module, attribute, span name or name function, counter or None); an
# attribute "Class.method" patches the method on the class.
TARGETS = (
    ("kernels", "mutual_nearest_pairs", "kernels.mutual_nearest_pairs",
     _cells_ab("kernels.mutual_nearest_pairs")),
    ("kernels", "nearest_distances", "kernels.nearest_distances",
     _cells_ab("kernels.nearest_distances")),
    ("kernels", "self_nearest_distances", "kernels.self_nearest_distances",
     _cells_aa("kernels.self_nearest_distances")),
    ("features", "pack_features", "features.pack_features", _count_rows),
    ("registration", "register", "registration.register", _count_register),
    ("registration", "match_features", "registration.match_features", None),
    ("registration", "histogram_vote", "registration.histogram_vote", None),
    ("registration", "classify_outcomes", "registration.classify_outcomes", None),
    ("fremen", "FremenModel.add_observation", "fremen.add_observation", None),
    ("fremen", "predict_many", "fremen.predict_many", None),
    ("strategies", "update_map", _update_map_name, None),
    ("strategies", "select_active_indices", "strategies.select_active_indices", None),
    ("strategies", "rank_addition_candidates",
     "strategies.rank_addition_candidates", None),
    ("strategies", "correct_positions", "strategies.correct_positions", None),
    ("strategies", "select_best_alternative",
     "strategies.select_best_alternative", None),
    ("simulator", "World.observe", "simulator.observe", _count_observe),
    ("simulator", "World.advance_turnover", "simulator.advance_turnover", None),
    ("simulator", "teach_from_frames", "simulator.teach_from_frames", None),
    ("simulator", "process_frame", "simulator.process_frame", _count_record),
    ("simulator", "replay_frames", "simulator.replay_frames", None),
    ("simulator", "traverse", "simulator.traverse", None),
    ("evaluation", "compare_strategies", "evaluation.compare_strategies", None),
    ("evaluation", "registration_errors", "evaluation.registration_errors", None),
    ("evaluation", "build_report", "evaluation.build_report", None),
    ("evaluation", "write_report", "evaluation.write_report", None),
    ("io", "write_dataset", "io.write_dataset", None),
)

# read_dataset is a generator: its span is the time spent inside each next()
READER = ("io", "read_dataset", "io.read_dataset")


class Tracer:
    """Records spans and counts for the phase opened last with begin()."""

    def __init__(self):
        self.phases = {}  # phase -> (spans, counters)
        self.spans = None
        self.counters = None
        self._stack = []  # (span id, name) of the calls in progress
        self._next_id = 0
        self._patches = []  # (owner, attribute, original, wrapper, site)

    def begin(self, phase: str) -> None:
        self.spans = []
        self.counters = Counter()
        self.phases[phase] = (self.spans, self.counters)

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, name))
        return sid, parent

    def _close(self, sid, name, t0, parent):
        t1 = _now()
        self._stack.pop()
        self.spans.append((sid, name, t0, t1, parent))

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sid, parent = tracer._open(label)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, label, t0, parent)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result
        return wrapper

    def _wrap_reader(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            tracer.counters[name + ".bytes"] += os.path.getsize(path)
            inner = fn(path, *args, **kwargs)

            def timed():
                while True:
                    sid, parent = tracer._open(name)
                    t0 = _now()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid, name, t0, parent)
                    tracer.counters[name + ".frames"] += 1
                    yield item
            return timed()
        return wrapper

    def install(self, package) -> None:
        """Wrap every target wherever a module of the package holds it. The
        first call finds the sites; later calls re-apply the same wrappers."""
        if not self._patches:
            self._patches = self._find_sites(package)
        for owner, attr, _, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def patched_sites(self) -> set:
        """Replaced attributes, as module.attr or module.Class.method."""
        return {site for *_, site in self._patches}

    def _find_sites(self, package) -> list:
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(prefix)]
        specs = [(mod, attr, self._wrap, (name, count))
                 for mod, attr, name, count in TARGETS]
        specs.append((READER[0], READER[1], self._wrap_reader, (READER[2],)))
        patches = []
        for mod_name, attr, make, extra in specs:
            home = sys.modules[prefix + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                patches.append((cls, meth, fn, make(fn, *extra),
                                f"{home.__name__}.{attr}"))
                continue
            fn = getattr(home, attr)
            wrapper = make(fn, *extra)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is fn:
                        patches.append((mod, key, fn, wrapper,
                                        f"{mod.__name__}.{key}"))
        return patches

    def write(self, path) -> None:
        """Write every recorded span as CSV: phase,id,name,start,end,parent."""
        with open(path, "w") as fh:
            fh.write("phase,id,name,start,end,parent\n")
            for phase, (spans, _) in self.phases.items():
                for sid, name, t0, t1, parent in spans:
                    fh.write(f"{phase},{sid},{name},{t0:.9f},{t1:.9f},{parent}\n")


def phase_table(spans, counters) -> dict:
    """Flat per-phase totals: <span>.calls, <span>.self_s and the counters."""
    calls = Counter()
    self_s = defaultdict(float)
    child = defaultdict(float)
    # spans are appended as they end, so children come before their parent
    for sid, name, t0, t1, parent in spans:
        d = t1 - t0
        calls[name] += 1
        self_s[name] += d - child.pop(sid, 0.0)
        if parent >= 0:
            child[parent] += d
    table = dict(counters)
    for name, n in calls.items():
        table[name + ".calls"] = n
        table[name + ".self_s"] = self_s[name]
    return table


def kernel_rates(kernels, seed: int, repeat: int = 7) -> dict:
    """Cells per second of each kernel on one fixed live-frame size: a
    500-feature map against a 530-feature view, 256-bit (4-word) descriptors.
    The view holds the map's descriptors with one bit flipped, plus clutter."""
    n_map, n_view, words = 500, 530, 4
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2**64, size=(n_map, words), dtype=np.uint64)
    b = a.copy()
    flip = np.uint64(1) << rng.integers(0, 64, size=n_map).astype(np.uint64)
    b[np.arange(n_map), rng.integers(0, words, size=n_map)] ^= flip
    b = np.vstack([b, rng.integers(0, 2**64, size=(n_view - n_map, words),
                                   dtype=np.uint64)])
    calls = {
        "mutual_nearest_pairs": ((a, b, 64), n_map * n_view),
        "nearest_distances": ((a, b), n_map * n_view),
        "self_nearest_distances": ((a,), n_map * n_map),
    }
    rates = {}
    for fn_name, (args, cells) in calls.items():
        fn = getattr(kernels, fn_name)
        fn(*args)
        times = []
        for _ in range(repeat):
            t0 = _now()
            fn(*args)
            times.append(_now() - t0)
        rates[f"kernels.{fn_name}.cells_per_s"] = cells / float(np.median(times))
    return rates
