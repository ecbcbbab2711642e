"""What the benchmark under ``perfbench/`` relies on in the package.

``perfbench/tracer.py`` wraps functions by name in the namespaces that call
them (``vars(owner)[name]``), and ``perfbench/run.py`` divides certification
trials by the ``theta`` plus ``containment`` timings of ``manifest.json``.  A
cleanup that unbinds a traced name, such as ``origin_boundary_estimate`` in
``trunclab.harness`` (imported there but no longer called), or drops a
timing key would break ``perfbench/run.py`` while the rest of the suite
stayed green.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from trunclab import engine, harness, thresholds
from trunclab.harness import run_pipeline

from test_golden import golden_config

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    tracing = load_tracer()
    owners = (harness, thresholds, engine, thresholds.LatticeFamily)
    before = {(owner, name): value for owner in owners for name, value in vars(owner).items()}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, harness, thresholds, engine)  # KeyError names a missing one
        wrapped = {(owner.__name__, name) for owner, name, _ in tracer._patches}
    finally:
        tracer.restore()
    assert all(vars(owner).get(name) is value for (owner, name), value in before.items())
    assert ("trunclab.harness", "origin_boundary_estimate") in wrapped
    assert ("trunclab.harness", "containment_check") in wrapped


def test_manifest_times_theta_and_containment(tmp_path):
    run_pipeline(golden_config(), tmp_path)
    timings = json.loads((tmp_path / "manifest.json").read_text())["timings_seconds"]
    assert {"theta", "containment"} <= timings.keys()
