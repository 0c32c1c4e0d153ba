"""The benchmark's span tracer still finds every longnav name it wraps, and
every span the benchmark expects still records calls.

perfbench/spans.py patches functions by name at install time, so deleting or
renaming a traced function, or no longer calling it, would otherwise surface
only under --trace 1.
"""

import contextlib
import importlib
import importlib.util
from pathlib import Path

import pytest

import longnav
import longnav.cli  # noqa: F401  the tracer patches import sites here too
import longnav.io  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_expected_site():
    spans, run = _load("spans"), _load("run")
    tracer = spans.Tracer()
    tracer.install(longnav)
    try:
        patched = tracer.patched_sites()
    finally:
        tracer.uninstall()
    missed = sorted(set(run.EXPECTED_SITES) - patched)
    assert not missed, missed


@contextlib.contextmanager
def traced(tracer, phase):
    tracer.install(longnav)
    tracer.begin(phase)
    try:
        yield
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", ["open-dense", "closed-dense", "sparse-replay"])
def test_one_traced_unit_records_every_expected_span(name, tmp_path,
                                                     monkeypatch):
    # the benchmark's own modules, imported by name as run.py imports them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans, run, workloads = (importlib.import_module(m)
                             for m in ("spans", "run", "workloads"))
    w = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    with traced(tracer, "setup"):
        source = workloads.setup(w, 1, tmp_path / "in")
    with traced(tracer, "unit1"):
        workloads.run_unit(w, source, tmp_path / "out")
    workloads.check_unit(w, tmp_path / "out")
    _, calls = run.layer_metrics(tracer, ["unit1"], [])
    assert run.coverage_problems(tracer, calls, name) == []
