"""longnav benchmark: eight-strategy comparisons, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload open-dense --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with longnav untouched. --trace 1
alternates untraced and traced units and reports the per-layer metrics from
the traced ones, plus the tracing overhead. Every unit's outputs are checked.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where attempted and failed count strategy-frames. The line before it holds
the environment, the report digest and the quality figures; the same record
goes to .perfbench-out/<workload>-seed<seed>-trace<t>.json, and the spans of a
traced run to .perfbench-out/<workload>-spans.csv. Metric names and units
come from BENCHMARK.json. README.md beside this file says why each workload
exists and which layer metric should move which end-to-end metric.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5

# spans that must record calls on every workload, and on some workloads only;
# a zero means the trace lost a call site
EXPECTED_SPANS = (
    "kernels.mutual_nearest_pairs", "kernels.nearest_distances",
    "features.pack_features",
    "registration.register", "registration.match_features",
    "registration.histogram_vote", "registration.classify_outcomes",
    "fremen.add_observation", "strategies.select_active_indices",
    "strategies.rank_addition_candidates", "strategies.correct_positions",
    "strategies.select_best_alternative", "simulator.observe",
    "simulator.advance_turnover", "simulator.teach_from_frames",
    "simulator.process_frame", "evaluation.compare_strategies",
    "evaluation.registration_errors", "evaluation.build_report",
    "evaluation.write_report",
)
EXPECTED_BY_WORKLOAD = {
    # only dense teaching frames exceed the 500-feature cap
    "open-dense": ("simulator.replay_frames", "kernels.self_nearest_distances"),
    "closed-dense": ("simulator.traverse", "kernels.self_nearest_distances"),
    "sparse-replay": ("simulator.replay_frames", "io.read_dataset",
                      "io.write_dataset"),
}
# import sites that a patch of the defining module alone would miss
EXPECTED_SITES = (
    "longnav.registration.pack_features", "longnav.strategies.pack_features",
    "longnav.simulator.pack_features", "longnav.simulator.register",
    "longnav.strategies.register", "longnav.simulator.self_nearest_distances",
    "longnav.strategies.predict_many", "longnav.simulator.update_map",
    "longnav.cli.compare_strategies", "longnav.cli.write_report",
)


def limit_threads() -> int:
    """One load-generating process: longnav's own thread pool stays at its
    default of one thread, and BLAS may use at most the cores this process
    may run on. Must run before numpy loads. Returns that core count."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, nproc))
        except ValueError:
            n = nproc
        os.environ[var] = str(max(1, min(n, nproc)))
    os.environ.pop("LONGNAV_THREADS", None)
    return nproc


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha():
    """Commit of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_threads(numpy):
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(kernels, nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(numpy),
        "nproc": nproc,
        "backend": kernels.BACKEND,
        # numbers from another backend measure a different program
        "numpy_path": kernels.BACKEND == "numpy",
        "LONGNAV_THREADS": os.environ.get("LONGNAV_THREADS"),
    }


def program_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "longnav").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def checked_digest(key: str, digest: str) -> bool:
    """Record the report digest for this program, workload and seed, or
    compare it with the one an earlier run recorded."""
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    if key in store:
        return store[key] == digest
    store[key] = digest
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)
    return True


def time_setup(args) -> float:
    """Median wall time of fresh processes that import longnav and write the
    workload's input, i.e. everything before the timed phase."""
    walls = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "1", "--trace", "0",
             "--setup-only", str(OUT / args.workload / f"setup{i}")],
            cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = limit_threads()
    if not (SRC / "longnav" / "__init__.py").is_file():
        fail(f"no longnav sources under {SRC}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    sys.path.insert(0, str(SRC))
    import longnav
    from longnav import kernels
    if Path(longnav.__file__).resolve().parent != (SRC / "longnav").resolve():
        fail(f"imported longnav from {longnav.__file__}, not {SRC}")

    import probe
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of "
             f"{', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    if args.setup_only is not None:
        workloads.setup(w, args.seed, args.setup_only)
        return 0

    spec = json.loads(spec_path.read_text())
    OUT.mkdir(exist_ok=True)
    work = OUT / w.name
    env = environment(kernels, nproc)
    setup_s = time_setup(args) if args.trace == 0 else None
    host = probe.HostProbe(w.numpy_share)

    tracer = spans.Tracer()
    if args.trace:
        tracer.install(longnav)
        tracer.begin("setup")
    source = workloads.setup(w, args.seed, work / "input")
    if args.trace:
        tracer.uninstall()

    units = []  # (traced, wall or None, check result or None)
    factors = []  # host speed before each unit, and after the last
    start = time.perf_counter()
    k = 0
    # trace mode alternates untraced and traced units and ends on a traced one
    while k == 0 or (args.trace and (k < 2 or k % 2)) \
            or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace and k % 2)
        out = work / "report"
        gc.collect()
        factors.append(host.speed_factor())
        if traced:
            tracer.install(longnav)
            tracer.begin(f"unit{k}")
        try:
            t0 = time.perf_counter()
            workloads.run_unit(w, source, out)
            wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            wall = None
        finally:
            if traced:
                tracer.uninstall()
        check = None
        if wall is not None:
            try:
                check = workloads.check_unit(w, out)
            except (ValueError, KeyError, OSError):
                traceback.print_exc(file=sys.stderr)
        units.append((traced, wall, check))
        k += 1
    factors.append(host.speed_factor())
    # each wall time divided by the host's speed factor around its unit
    norm = [wall / ((factors[i] + factors[i + 1]) / 2.0) if wall else None
            for i, (_, wall, _) in enumerate(units)]

    # every unit of one seed must produce the same report, traced or not,
    # in this run and in every other run of this program
    checks = [c for _, _, c in units if c is not None]
    reference = checks[0] if checks else None
    key = "|".join((program_fingerprint(), w.key(), str(args.seed)))
    if reference is not None and not checked_digest(key, reference["digest"]):
        reference = None
    bad = sum(c is None or c != reference for _, _, c in units)
    attempted = w.strategy_frames * len(units)
    failed = w.strategy_frames * bad
    problems = []
    if bad:
        problems.append(f"{bad} of {len(units)} units failed or disagreed "
                        "with the seed's report")
    # a run without a checked report still reports its timings, as failed
    quality = reference or {"digest": None, "reg_fail_frac": 1.0,
                            "mean_error_px": 0.0}

    untraced = [i for i, (traced, wall, _) in enumerate(units) if not traced and wall]
    if not untraced:
        fail("no untraced unit completed")
    raw_frames_per_s = statistics.median(w.strategy_frames / units[i][1]
                                         for i in untraced)
    if args.trace == 0:
        metrics = {
            "frames_per_s": statistics.median(w.strategy_frames / norm[i]
                                              for i in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "correct_frac": 1.0 - failed / attempted,
            "reg_success_frac": 1.0 - quality["reg_fail_frac"],
        }
        declared = spec["end_to_end"]
    else:
        traced = [i for i, (t, wall, _) in enumerate(units) if t and wall]
        if not traced:
            fail("no traced unit completed")
        metrics, calls = layer_metrics(tracer, [f"unit{i}" for i in traced],
                                       [m["name"] for m in spec["per_layer"]])
        metrics.update(spans.kernel_rates(kernels, args.seed))
        metrics["trace_overhead_frac"] = (
            statistics.median(norm[i] for i in traced)
            / statistics.median(norm[i] for i in untraced) - 1.0)
        metrics["raw_frames_per_s"] = raw_frames_per_s
        metrics["host.speed_factor"] = statistics.median(factors)
        metrics["reg_fail_frac"] = quality["reg_fail_frac"]
        metrics["mean_error_px"] = quality["mean_error_px"]
        problems += coverage_problems(tracer, calls, w.name)
        tracer.write(OUT / f"{w.name}-spans.csv")
        declared = spec["per_layer"]

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        fail(f"metrics not measured: {missing}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        **quality,
        "unit_walls_s": [wall for _, wall, _ in units],
        "unit_traced": [traced for traced, _, _ in units],
        "host_speed_factors": factors,
        "raw_frames_per_s": raw_frames_per_s,
        "problems": problems,
        "result": result,
    }
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, traced_units, names) -> tuple:
    """Per-layer figures for one pass of the workload: its setup plus one
    comparison unit (the median over the traced units, for each figure).
    Returns the declared figures and the call count of every span."""
    import spans
    setup = spans.phase_table(*tracer.phases["setup"])
    tables = [spans.phase_table(*tracer.phases[u]) for u in traced_units]
    total = {key: setup.get(key, 0) + statistics.median(t.get(key, 0) for t in tables)
             for key in set(setup).union(*tables)}

    def ratio(num, den):
        return total.get(num, 0) / total[den] if total.get(den) else 0.0

    # spans that never ran read 0, as predict_many does today
    m = {name: total.get(name, 0) for name in names}
    m["registration.success_ratio"] = 1.0 - ratio("registration.no_consensus",
                                                  "registration.register.calls")
    m["strategies.select_best_alternative.registers_per_frame"] = ratio(
        "strategies.select_best_alternative.registers",
        "strategies.select_best_alternative.calls")
    m["strategies.map_size.mean"] = ratio("strategies.map_size.sum",
                                          "strategies.map_size.records")
    calls = {key[:-len(".calls")]: v for key, v in total.items()
             if key.endswith(".calls")}
    return m, calls


def coverage_problems(tracer, calls, workload) -> list:
    problems = [f"span {name} recorded no calls"
                for name in EXPECTED_SPANS + EXPECTED_BY_WORKLOAD[workload]
                if not calls.get(name)]
    from longnav.strategies import STRATEGY_KINDS
    problems += [f"span strategies.update_map.{kind} recorded no calls"
                 for kind in STRATEGY_KINDS
                 if not calls.get(f"strategies.update_map.{kind}")]
    missed = sorted(set(EXPECTED_SITES) - tracer.patched_sites())
    if missed:
        problems.append(f"import sites not traced: {missed}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
