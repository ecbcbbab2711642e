"""trunclab benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload pipeline-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; trunclab is imported from its ``src``
directory.  Workloads:

* ``pipeline-cold``  full certification into an empty output directory;
* ``pipeline-warm``  the same config rerun against a calibration table that
  set-up builds through the public slab search;
* ``oracle-small``   Monte Carlo estimates on small seeded planar windows,
  checked against exact enumeration where it is affordable.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures half the
time untraced and half traced, and prints the per-layer metrics.  The last
line of standard output is the JSON result.  See ``perfbench/README.md``.
"""

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import tracer as tracing

# One thread per native pool: the workloads are one in-process caller, and
# nothing may run more threads than the machine has cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# Fresh interpreters timed for the import part of setup_s; a single import
# reading per process swings by a third with the page cache and host load.
IMPORT_REPEATS = 5


def load_spec() -> dict:
    """BENCHMARK.json: the one list of workloads and metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(src: Path) -> float:
    """Median wall time of a fresh interpreter that imports what the workloads import."""
    code = f"import sys; sys.path[:0] = [{str(src)!r}, {str(HERE)!r}]; import workloads"
    times = []
    for _ in range(IMPORT_REPEATS):
        clock = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - clock)
    return statistics.median(times)


def no_span(name, **attrs):
    return contextlib.nullcontext()


def machine_record(numpy, scipy) -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Counts ops, failures and run-level problems for one workload process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, failures: list[str], ops: int = 1) -> None:
        self.attempted += ops
        self.failed += min(len(failures), ops)
        for message in failures:
            print(f"op failed: {message}", file=sys.stderr)

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)


def timed_loop(seconds: float, op):
    """Closed loop: start ops back to back until ``seconds`` have passed (at least one)."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(op(len(results)))
    return results


def measure(args, op, modules, trace_path):
    """Untraced ops for the whole budget, or half untraced and half traced.

    Returns (untraced results, traced results, tracer or None).  ``op(span)``
    runs one op with the given span factory.
    """
    if not args.trace:
        return timed_loop(args.seconds, lambda _: op(no_span)), [], None
    plain = timed_loop(args.seconds / 2, lambda _: op(no_span))
    tracer = tracing.Tracer()
    tracing.install(tracer, *modules)

    def traced(index):
        tracer.op = index
        return op(tracer.span)

    try:
        traced_results = timed_loop(args.seconds / 2, traced)
    finally:
        tracer.restore()
    tracer.write(trace_path)
    return plain, traced_results, tracer


def guarded(run: Run, op):
    """Wrap an op so that an exception counts as one failed op instead of ending the run."""

    def call(span):
        try:
            return op(span)
        except Exception:  # a crashing op is a failed op; the loop keeps measuring
            traceback.print_exc()
            run.record(["op raised"])
            return None

    return call


def layer_values(names, tracer, traced_results, extra: dict) -> dict:
    """Median over traced ops of each per-layer metric; ``extra`` overrides.

    A metric of a layer the workload never enters is 0.
    """
    per_op = [
        layers.op_metrics(tracer.op_spans(index), 0)
        for index, result in enumerate(traced_results)
        if result is not None
    ]
    values = dict.fromkeys(names, 0.0)
    for name in per_op[0]:
        values[name] = statistics.median(m[name] for m in per_op)
    values.update(extra)
    return values


def overhead(plain, traced) -> float:
    """Traced minus untraced median op wall time."""
    return statistics.median(r.wall for r in traced if r is not None) - statistics.median(
        r.wall for r in plain
    )


def pipeline_workload(args, env, run: Run):
    w, work = env["workloads"], env["work"]
    warm = args.workload == "pipeline-warm"

    setup_times = []
    tables = []
    for attempt in range(SETUP_REPEATS if warm and not args.trace else 1):
        clock = time.perf_counter()
        if warm:
            path = work / f"setup-{attempt}.csv"
            config = w.pipeline_config(args.seed, str(path))
            w.build_calibration(config, path)
        else:
            config = w.pipeline_config(args.seed)
        setup_times.append(time.perf_counter() - clock)
        if warm:
            tables.append(path.read_bytes())
    if len(set(tables)) > 1:
        run.problem("set-up built a different calibration table on a repeat")

    counter = itertools.count()

    def op(span):
        return w.run_pipeline_op(config, work / f"out-{next(counter)}", span)

    plain, traced, tracer = measure(args, guarded(run, op), env["modules"], env["trace_path"])
    rss = peak_rss_mb()
    results = [r for r in plain + traced if r is not None]
    if not results:
        raise RuntimeError("every op raised")
    reference = results[0].report_bytes
    if warm:
        try:
            cold = w.run_pipeline_op(w.pipeline_config(args.seed), work / "cold-reference", no_span)
        except Exception:  # reported as a failed check; the warm ops still get their verdicts
            traceback.print_exc()
            cold = None
        if cold is None or cold.failures:
            run.problem("the cold reference run failed")
        elif cold.calibration_bytes != tables[0]:
            run.problem("cold run's calibration.csv differs from the set-up table")
        reference = cold.report_bytes if cold is not None else None
    for result in results:
        if result.report_bytes != reference:
            result.failures.append("report.json differs from the reference run's bytes")
        run.record(result.failures)

    plain = [r for r in plain if r is not None]
    env["walls"] = [r.wall for r in plain]
    if not args.trace:
        rates = [
            w.certification_trials(r.report) / (r.timings["theta"] + r.timings["containment"])
            for r in plain
        ]
        return {
            "setup_s": env["import_s"] + statistics.median(setup_times),
            "wall_s": statistics.median(r.wall for r in plain),
            "trials_per_s": statistics.median(rates),
            "peak_rss_mb": rss,
        }
    inputs = [w.pipeline_layer_inputs(r, config) for r in plain]
    extra = {name: statistics.median(i[name] for i in inputs) for name in inputs[0]}
    examined = extra.pop("families_examined")
    values = layer_values(env["per_layer"], tracer, traced, extra)
    values["thresholds.calib_hits"] = examined - values["thresholds.families_computed"]
    values["trace.overhead_s"] = overhead(plain, traced)
    return values


def oracle_workload(args, env, run: Run):
    w = env["workloads"]
    setup_times = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        clock = time.perf_counter()
        windows = w.draw_oracle_windows(args.seed)
        setup_times.append(time.perf_counter() - clock)

    plain, traced, tracer = measure(
        args,
        guarded(run, lambda span: w.run_oracle_round(windows, span)),
        env["modules"],
        env["trace_path"],
    )
    rss = peak_rss_mb()
    rounds = [r for r in plain + traced if r is not None]
    if not rounds:
        raise RuntimeError("every round raised")
    expected = rounds[0].successes
    for index, item in enumerate(windows):
        if item.exact:
            continue
        try:
            reference = w.reference_successes(item)
        except AssertionError as exc:
            run.problem(f"window {index}: {exc}")
            continue
        if reference != expected[index]:
            for r in rounds:
                r.failures.append(
                    f"window {index}: batched count {expected[index]} != per-trial count {reference}"
                )
    for r in rounds:
        mismatched = sum(a != b for a, b in zip(r.successes, expected))
        r.failures += ["success count changed between rounds"] * mismatched
        run.record(r.failures, ops=len(windows))

    plain = [r for r in plain if r is not None]
    env["walls"] = [r.wall for r in plain]
    if not args.trace:
        return {
            "setup_s": env["import_s"] + statistics.median(setup_times),
            "wall_s": statistics.median(r.wall for r in plain),
            "trials_per_s": statistics.median(r.trials / r.mc_seconds for r in plain),
            "peak_rss_mb": rss,
        }
    values = layer_values(env["per_layer"], tracer, traced, {})
    values["trace.overhead_s"] = overhead(plain, traced)
    return values


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 1
    src = ROOT / "src"
    if not (src / "trunclab" / "__init__.py").is_file():
        print(f"no trunclab sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy
    import scipy

    import trunclab
    from trunclab import engine, harness, thresholds

    if Path(trunclab.__file__).resolve().parent != src / "trunclab":
        print(f"imported trunclab from {trunclab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    import_s = import_seconds(src) if not args.trace else 0.0
    build = ROOT / ".bench_build" / "perfbench"
    env = {
        "workloads": workloads,
        "modules": (harness, thresholds, engine),
        "import_s": import_s,
        "per_layer": [m["name"] for m in spec["per_layer"]],
        "work": build / f"{args.workload}-s{args.seed}-p{os.getpid()}",
        "trace_path": build / f"trace-{args.workload}-s{args.seed}.jsonl",
    }
    env["work"].mkdir(parents=True, exist_ok=True)
    run = Run()
    try:
        if args.workload == "oracle-small":
            metrics = oracle_workload(args, env, run)
        else:
            metrics = pipeline_workload(args, env, run)
    finally:
        shutil.rmtree(env["work"], ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine_record(numpy, scipy), sort_keys=True))
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    walls = ", ".join(f"{wall:.3f}" for wall in env["walls"])
    print(f"untraced op walls (n={len(env['walls'])}): {walls} s")
    print(f"ops {run.attempted} count")
    print(f"ops_failed {run.failed} count")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
