"""Seeded inputs, timed ops and output checks for the three workloads.

Every workload is a closed loop with one in-process caller: the next op
starts only after the previous one returned.  The workload seed is the only
source of randomness; trunclab receives the generated configs and windows.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trunclab import engine
from trunclab.engine import (
    component_labels,
    event_terminals,
    exact_event_probability,
    trial_open_mask,
)
from trunclab.harness import PipelineConfig, run_pipeline
from trunclab.rng import indexed_uniform_matrix
from trunclab.sequences import EpsilonCertificate, ProbabilitySequence
from trunclab.thresholds import CalibrationTable, ThresholdSettings, choose_slab_parameters
from trunclab.windows import (
    GraphWindow,
    long_range_box_window,
    long_range_crossing_window,
    long_range_radial_window,
)

# The acceptance-criterion-7 pipeline takes about a minute on two cores
# (59.2 s measured), longer than one benchmark run may take.  The pipeline
# workloads keep its geometry (sequence, level, margin, L schedule, radii) and
# divide every trial count by this factor.  Fixed costs keep their size, so
# the stage shares (slab search/theta/containment) move from 47/35/18% at full
# size to about 42/29/29%; see "Baseline" in README.md.
TRIAL_DIVISOR = 10

# Oracle windows: eight slots of fixed shape, with 7, 12, 14, 17, 27, 40, 49
# and 54 edges.  The seed draws each slot's edge probability, its vertex pair
# (box slots) and its stream seed; fixing the shapes keeps a round's work
# nearly the same from seed to seed.  Slots with at most 22 edges get the
# exact oracle; the exact slots stop at 17 edges because enumeration doubles
# per edge (2^22 configurations take about 8 s).  Every slot stays at or below
# 60 edges, the label-propagation route's cap.
ORACLE_SLOTS = (
    ("crossing", 1, 1),
    ("radial", 1, 1),
    ("box", (3, 1), 2),
    ("crossing", 2, 1),
    ("box", (5, 2), 1),
    ("radial", 2, 1),
    ("crossing", 4, 1),
    ("lacunary-box", (6, 2), 2),
)
ORACLE_TRIALS = 10**5
EXACT_CAP = engine.MAX_EXACT_EDGES
SPOT_TRIALS = 200  # trials re-checked one at a time on the per-trial route
UNION_CHUNK = 5000  # trials per disjoint-union clustering call in the check


def pipeline_config(seed: int, calibration_file: str | None = None) -> PipelineConfig:
    """The acceptance-criterion-7 config with trial counts divided by TRIAL_DIVISOR."""
    return PipelineConfig(
        sequence=ProbabilitySequence.lacunary(0.9, base=2),
        certificate=EpsilonCertificate(0.45, evidence="level 0.9 on a geometric set of lengths"),
        margin=0.02,
        d_max=6,
        k_max=4,
        scale_search_limit=10**6,
        verify_coarse=3,
        verify_vertical=3,
        theta_radii=(32, 64),
        theta_trials=2000 // TRIAL_DIVISOR,
        positivity_floor=0.05,
        containment_trials=1000 // TRIAL_DIVISOR,
        thresholds=ThresholdSettings(
            l_schedule=(8, 16, 32),
            bracket_tol=0.015,
            trials_per_probe=2500 // TRIAL_DIVISOR,
            coarse_trials=600 // TRIAL_DIVISOR,
        ),
        master_seed=seed,
        calibration_file=calibration_file,
    )


def build_calibration(config: PipelineConfig, path: Path) -> None:
    """Fill a calibration table through the public slab search, as a cold run would."""
    choose_slab_parameters(
        epsilon=config.certificate.epsilon,
        margin=config.margin,
        d_max=config.d_max,
        k_max=config.k_max,
        table=CalibrationTable(path),
        settings=config.thresholds,
        master_seed=config.master_seed,
    )


@dataclass
class PipelineOp:
    wall: float
    report: dict
    report_bytes: bytes
    timings: dict
    calibration_bytes: bytes | None
    failures: list[str] = field(default_factory=list)


def run_pipeline_op(config: PipelineConfig, out_dir: Path, span) -> PipelineOp:
    """One certification run into an empty directory; checks its outputs.

    ``span(name)`` is a context manager from the caller; it records the op's
    root span in traced runs and does nothing otherwise.
    """
    clock = time.perf_counter()
    with span("op"):
        outcome = run_pipeline(config, out_dir)
    wall = time.perf_counter() - clock
    report_bytes = (out_dir / "report.json").read_bytes()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    calibration = out_dir / "calibration.csv"
    op = PipelineOp(
        wall,
        json.loads(report_bytes),
        report_bytes,
        manifest["timings_seconds"],
        calibration.read_bytes() if calibration.exists() else None,
    )
    if outcome.exit_code != 0:
        op.failures.append(f"exit code {outcome.exit_code} at stage {outcome.failure_stage}")
    failed_checks = [name for name, ok in outcome.checks.items() if not ok]
    if failed_checks:
        op.failures.append(f"checks failed: {failed_checks}")
    violations = sum(r["edge_violations"] + r["cluster_violations"] for r in outcome.containment)
    if violations or not outcome.containment:
        op.failures.append(f"containment found {violations} violations over {len(outcome.containment)} radii")
    shutil.rmtree(out_dir)
    return op


def certification_trials(report: dict) -> int:
    """Window-trials in the theta and containment stages (each samples two windows per trial)."""
    theta = sum(row["embedded"]["trials"] + row["full"]["trials"] for row in report["theta"])
    return theta + sum(2 * row["trials"] for row in report["containment"])


@dataclass
class OracleWindow:
    window: GraphWindow
    event: object
    seed: int

    @property
    def exact(self) -> bool:
        return self.window.n_edges <= EXACT_CAP


def _slot_window(rng: np.random.Generator, kind: str, size, level: int) -> OracleWindow:
    """One slot's window, with an edge probability drawn from [0.4, 0.6]."""
    p = float(rng.uniform(0.4, 0.6))
    if kind == "crossing":
        window = long_range_crossing_window(ProbabilitySequence.constant(p).truncate(level), size)
        event = "crossing"
    elif kind == "radial":
        window = long_range_radial_window(ProbabilitySequence.constant(p).truncate(level), size)
        event = "origin_boundary"
    else:
        if kind == "box":
            seq = ProbabilitySequence.constant(p)
        else:
            seq = ProbabilitySequence.lacunary(p, base=2)
        window = long_range_box_window(seq.truncate(level), (0, size[0]), (0, size[1]))
        u, v = (int(x) for x in rng.choice(window.n_vertices, size=2, replace=False))
        event = ("pair", u, v)
    return OracleWindow(window, event, int(rng.integers(0, 2**62)))


def draw_oracle_windows(seed: int) -> list[OracleWindow]:
    """The seeded window of every slot, in slot order."""
    rng = np.random.default_rng(seed)
    return [_slot_window(rng, kind, size, level) for kind, size, level in ORACLE_SLOTS]


@dataclass
class OracleRound:
    wall: float
    mc_seconds: float
    trials: int
    successes: list[int]
    failures: list[str]


def run_oracle_round(windows: list[OracleWindow], span) -> OracleRound:
    """One pass over the windows: a Monte Carlo estimate each, exact oracle where E <= 22.

    ``span(name)`` is a context manager from the caller; it records a span in
    traced runs and does nothing otherwise.  An estimate more than 4 sigma
    from the exact value is a failed op.
    """
    mc_seconds = 0.0
    successes = []
    failures = []
    clock = time.perf_counter()
    with span("op"):
        for item in windows:
            start = time.perf_counter()
            with span("engine.mc_event_probability"):
                estimate = engine.mc_event_probability(item.window, item.event, ORACLE_TRIALS, item.seed)
            mc_seconds += time.perf_counter() - start
            successes.append(estimate.successes)
            if not item.exact:
                continue
            with span("engine.exact_event_probability", edges=item.window.n_edges):
                exact = exact_event_probability(item.window, item.event)
            sigma = math.sqrt(exact * (1.0 - exact) / ORACLE_TRIALS)
            if abs(estimate.value - exact) > 4 * sigma + 1e-12:
                failures.append(f"{item.window.describe()} {item.event}: estimate {estimate.value}, exact {exact}")
    wall = time.perf_counter() - clock
    return OracleRound(wall, mc_seconds, ORACLE_TRIALS * len(windows), successes, failures)


def reference_successes(item: OracleWindow) -> int:
    """Success count recomputed on the scipy clustering route from the same indexed streams.

    All trials are clustered through ``component_labels`` on disjoint unions
    of UNION_CHUNK trial graphs.  The first SPOT_TRIALS trials are also drawn
    with the per-trial stream function and clustered one at a time, and both
    routes must agree on each of them.
    """
    window = item.window
    left, right = event_terminals(window, item.event)
    n_vertices = window.n_vertices
    opened = indexed_uniform_matrix(window.n_edges, item.seed, ORACLE_TRIALS) < window.probs
    hits = []
    for start in range(0, ORACLE_TRIALS, UNION_CHUNK):
        block = opened[start : start + UNION_CHUNK]
        rows = block.shape[0]
        offsets = (np.arange(rows, dtype=np.int32) * n_vertices)[:, None]
        union = GraphWindow(
            family="union",
            coords=np.zeros((rows * n_vertices, 1), dtype=np.int64),
            edges_u=(window.edges_u[None, :] + offsets).ravel(),
            edges_v=(window.edges_v[None, :] + offsets).ravel(),
            probs=np.tile(window.probs, rows),
            lengths=np.tile(window.lengths, rows),
        )
        labels = component_labels(union, block.ravel()).reshape(rows, n_vertices)
        hits.append((labels[:, left][:, :, None] == labels[:, right][:, None, :]).any(axis=(1, 2)))
    hit = np.concatenate(hits)
    for trial in range(SPOT_TRIALS):
        mask = trial_open_mask(window, item.seed, trial)
        if not np.array_equal(mask, opened[trial]):
            raise AssertionError(f"trial {trial}: batched and per-trial streams differ")
        labels = component_labels(window, mask)
        if bool(np.intersect1d(labels[left], labels[right]).size) != bool(hit[trial]):
            raise AssertionError(f"trial {trial}: per-trial and union clustering disagree")
    return int(hit.sum())


def pipeline_layer_inputs(op: PipelineOp, config: PipelineConfig) -> dict:
    """Per-layer values the untraced run's outputs already hold."""
    report = op.report
    slab = report["slab"]
    examined = (slab["dimension"] - 3) * config.k_max + slab["thickness"]
    vertices = report["embedding"]["vertex_count"]
    return {
        "harness.slab_search_s": op.timings.get("slab-search", 0.0),
        "harness.scale_selection_s": op.timings.get("scale-selection", 0.0),
        "harness.verification_s": op.timings.get("embedding-verification", 0.0),
        "harness.theta_s": op.timings.get("theta", 0.0),
        "harness.containment_s": op.timings.get("containment", 0.0),
        "families_examined": examined,
        "thresholds.p_hat": report["threshold"]["p_hat"],
        "thresholds.uncertainty": report["threshold"]["uncertainty"],
        "embedding.pairs_checked": vertices * (vertices - 1) // 2,
    }
