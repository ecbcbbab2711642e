"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/smoke.py

Checks, on both pipeline workloads (cold, then warm on the cold run's
calibration table):

* tracing changes nothing: the traced run's report.json equals the untraced
  one byte for byte;
* the top-level spans cover at least 95% of the traced op's wall time;
* the tracer restores every attribute it wrapped.

Exits 0 when every check holds, 1 otherwise.
"""

import dataclasses
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from trunclab import engine, harness, thresholds  # noqa: E402
from trunclab.thresholds import ThresholdSettings  # noqa: E402

SEED = 7


def tiny_config(calibration_file=None):
    config = workloads.pipeline_config(SEED, calibration_file)
    return dataclasses.replace(
        config,
        theta_radii=(16, 32),
        theta_trials=40,
        containment_trials=20,
        thresholds=ThresholdSettings(l_schedule=(8, 16), trials_per_probe=100, coarse_trials=40),
    )


def traced_op(config, out_dir):
    """One op under a freshly installed tracer; returns (op, coverage, restored)."""
    owners = (harness, thresholds, engine, thresholds.LatticeFamily)
    before = {(owner, name): value for owner in owners for name, value in vars(owner).items()}
    tracer = tracing.Tracer()
    tracing.install(tracer, harness, thresholds, engine)
    try:
        op = workloads.run_pipeline_op(config, out_dir, tracer.span)
    finally:
        tracer.restore()
    restored = all(vars(owner).get(name) is value for (owner, name), value in before.items())
    coverage = layers.op_metrics(tracer.op_spans(0), 0)["trace.coverage"]
    return op, coverage, restored


def main() -> int:
    failures = []
    work = ROOT / ".bench_build" / "perfbench" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cold = workloads.run_pipeline_op(tiny_config(), work / "cold-plain", run.no_span)
        table = work / "calibration.csv"
        table.write_bytes(cold.calibration_bytes)
        cold_traced, cold_coverage, cold_restored = traced_op(tiny_config(), work / "cold-traced")
        warm = workloads.run_pipeline_op(tiny_config(str(table)), work / "warm-plain", run.no_span)
        warm_traced, warm_coverage, warm_restored = traced_op(tiny_config(str(table)), work / "warm-traced")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, op in (("cold", cold), ("cold traced", cold_traced), ("warm", warm), ("warm traced", warm_traced)):
        if op.failures:
            failures.append(f"{name} op failed: {op.failures}")
    if cold_traced.report_bytes != cold.report_bytes:
        failures.append("cold: traced report.json differs from the untraced one")
    if warm_traced.report_bytes != warm.report_bytes:
        failures.append("warm: traced report.json differs from the untraced one")
    if warm.report_bytes != cold.report_bytes:
        failures.append("warm report.json differs from the cold one")
    for name, coverage in (("cold", cold_coverage), ("warm", warm_coverage)):
        print(f"{name} trace.coverage {coverage:.4f}")
        if coverage < 0.95:
            failures.append(f"{name}: spans cover {coverage:.4f} of wall time, below 0.95")
    if not (cold_restored and warm_restored):
        failures.append("tracer left a wrapped attribute behind")

    for message in failures:
        print(f"FAIL {message}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
