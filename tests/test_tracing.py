"""The benchmark's span tracer still finds every longnav name it wraps.

perfbench/spans.py patches functions by name at install time, so deleting or
renaming a traced function would otherwise surface only under --trace 1.
"""

import importlib.util
from pathlib import Path

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
