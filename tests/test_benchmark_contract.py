"""What the benchmark under ``perfbench/`` relies on in the package.

``perfbench/tracer.py`` wraps functions by name in the namespaces that call
them (``vars(owner)[name]``), ``perfbench/run.py`` divides certification
trials by the ``theta`` plus ``containment`` timings of ``manifest.json``, and
``perfbench/workloads.py`` builds its pipeline config from names it imports,
``ThresholdSettings`` fields among them, and reads per-layer inputs from
``report.json`` fields by name.  A cleanup that unbinds a traced name, such as
``origin_boundary_estimate`` in ``trunclab.harness`` (imported there but no
longer called), drops a timing key, drops a settings field or renames a report
field would break every benchmark op while the rest of the suite stayed green.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import json
import sys
from pathlib import Path

import trunclab
from trunclab import engine, harness, thresholds
from trunclab.harness import run_pipeline

from test_golden import golden_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    tracing = load_perfbench("tracer")
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


def unused_imports(source: str) -> set[str]:
    """The names a module's imports bind that it never loads."""
    tree = ast.parse(source)
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - loaded


def test_only_the_traced_names_are_imported_unused():
    # No linter is installed, so this is the gate: an import the module never
    # uses is kept only where the tracer wraps it by name.
    package = Path(trunclab.__file__).parent
    unused = {
        f"{path.stem}.{name}"
        for path in package.glob("*.py")
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text())
    }
    assert unused == {
        "harness.component_labels",
        "harness.origin_boundary_estimate",
        "harness.keyed_uniforms",
        "engine.indexed_uniform_matrix",
        "thresholds.crossing_estimate",
    }


def test_manifest_times_theta_and_containment(tmp_path):
    run_pipeline(golden_config(), tmp_path)
    timings = json.loads((tmp_path / "manifest.json").read_text())["timings_seconds"]
    assert {"theta", "containment"} <= timings.keys()


def test_benchmark_pipeline_config_builds():
    workloads = load_perfbench("workloads")  # an unbound imported name raises here
    config = workloads.pipeline_config(1)
    assert isinstance(config.thresholds, thresholds.ThresholdSettings)
    assert config.master_seed == 1


def test_benchmark_accepts_the_one_row_certification_report(tmp_path):
    workloads = load_perfbench("workloads")
    config = golden_config()
    op = workloads.run_pipeline_op(config, tmp_path / "run", lambda name: contextlib.nullcontext())
    assert op.failures == []
    assert len(op.report["containment"]) == 1
    # Two windows per theta trial for each theta row, and per containment trial.
    expected = 2 * config.theta_trials * len(config.theta_radii) + 2 * config.containment_trials
    assert workloads.certification_trials(op.report) == expected
    assert {"theta", "containment"} <= op.timings.keys()
    # The per-layer inputs read report fields by name, the embedding's vertex count among them.
    layer = workloads.pipeline_layer_inputs(op, config)
    slab = op.report["slab"]
    vertices = (2 * config.verify_coarse + 1) * (2 * config.verify_vertical + 1)
    vertices *= slab["thickness"] ** (slab["dimension"] - 2)
    assert layer["embedding.pairs_checked"] == vertices * (vertices - 1) // 2
