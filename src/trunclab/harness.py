"""End-to-end pipeline: geometry selection, scale recursion, embedding
verification, the containment check and reach estimates, with file outputs.

A run is a pure function of its configuration and master seed.  Every stage
derives its stream seeds from the master seed and a textual label, so the
report (written as ``report.json``) is byte-identical across reruns; wall
times live only in the manifest.

Certification works on one pair of windows, the embedded and the full
radial window of radius ``R = max(theta_radii) + N`` (``N`` the truncation
level).  :func:`containment_check` checks containment on the pair's
structure: every embedded vertex and edge lies in the full window, with the
same edge keys, open thresholds at most the full ones, and the same origin.
Since each keyed draw is a pure function of (edge key, seed, trial), that
makes the embedded cluster sit inside the truncated one on every trial.
The theta rows are then read off one
:func:`trunclab.engine.origin_radius_profile` call per window, both on the
pair's stage seed, so the two windows share their keyed trials.  A path
that leaves the open box ``{|x| < r}`` first lands at a vertex of norm
below ``r + N``, so the radius-``R`` windows decide that event exactly for
every theta radius ``r``.

Each stage runs under one timer (:func:`_stage`), which records its wall
time also when the stage raises, and a run leaves through one exit.  The
loader and its unknown-key check read the same schema tables:
:data:`_SEQUENCE_KINDS` (each ``[sequence]`` kind's constructor and key
readers) and :data:`_FIELD_KEYS` (each record field's section, key and reader).
"""

from __future__ import annotations

import configparser
import csv
import json
import platform
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .embedding import (
    EmbeddedGraph,
    HypothesisNotWitnessed,
    _row_lookup,
    select_scales,
    verify_isomorphism,
)
# component_labels, origin_boundary_estimate and keyed_uniforms are not
# called here (theta is read off origin_radius_profile's keyed reach
# search), but they stay bound: the benchmark's tracer wraps each by name in
# this namespace.
from .engine import (
    ESTIMATE_COLUMNS,
    Estimate,
    component_labels,  # noqa: F401
    origin_boundary_estimate,  # noqa: F401
    origin_radius_profile,
)
from .rng import (
    KEYED_STREAM_RULE,
    derive_seed,
    keyed_uniforms,  # noqa: F401
    open_thresholds,
)
from .sequences import EpsilonCertificate, ProbabilitySequence
from .thresholds import (
    SETTING_READERS,
    CalibrationTable,
    ParametersNotFound,
    ThresholdSettings,
    _int_list,
    choose_slab_parameters,
)
from .windows import (
    ConfigError,
    GraphWindow,
    embedded_radial_window,
    long_range_radial_window,
)

# Largest full certification window a run may build, counted by the bound
# 2 (2R + 1)^2 m on its edges (m supported lengths, two axes).  The benchmark
# config's bound is 112,614 edges and the sparse-support config's 432,964.  A
# window pair at this bound (989,812 full edges at R = 176, lengths 1..4)
# took 0.25 s and about 57 MB to build and check, and under 0.1 ms per trial
# and window to search, on 2 cores.
MAX_CERTIFICATION_EDGES = 1_000_000


@dataclass
class PipelineConfig:
    sequence: ProbabilitySequence
    certificate: EpsilonCertificate
    margin: float = 0.02
    d_max: int = 6
    k_max: int = 4
    scale_search_limit: int = 1_000_000
    verify_coarse: int = 3
    verify_vertical: int = 3
    theta_radii: tuple[int, ...] = (32, 64)
    theta_trials: int = 2000
    positivity_floor: float = 0.05
    containment_trials: int = 1000
    thresholds: ThresholdSettings = field(default_factory=ThresholdSettings)
    master_seed: int = 1
    calibration_file: str | None = None
    embedding_dimension: int | None = None
    embedding_thickness: int | None = None
    raw_text: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.margin < self.certificate.epsilon:
            raise ConfigError(
                f"margin must lie strictly between 0 and epsilon {self.certificate.epsilon}, got {self.margin}"
            )
        if self.d_max < 3 or self.k_max < 1:
            raise ConfigError("search budget needs d_max >= 3 and k_max >= 1")
        if self.scale_search_limit < 1:
            raise ConfigError("scale_search_limit must be positive")
        if list(self.theta_radii) != sorted(set(self.theta_radii)) or not self.theta_radii:
            raise ConfigError("theta radii must be a nonempty increasing list")
        for radius in self.theta_radii:
            if not isinstance(radius, (int, np.integer)) or radius < 1:
                raise ConfigError(f"theta_radii entries must be integers >= 1, got {radius!r}")
        for name in ("verify_coarse", "verify_vertical"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # Written as "not (...)" so that a NaN is refused too, as is a NaN margin above.
        if not 0.0 <= self.positivity_floor <= 1.0:
            raise ConfigError(f"positivity_floor must lie in [0, 1], got {self.positivity_floor}")
        if self.theta_trials < 1 or self.containment_trials < 0:
            raise ConfigError("theta needs at least one trial and containment a nonnegative count")


# Each [sequence] kind's constructor, the keys it needs, then those it may
# take, each with its text reader; a key left out keeps the constructor's
# default.  Of each group of needed keys exactly one is set.
_SEQUENCE_KINDS = {
    "constant": (ProbabilitySequence.constant, ({"value": float},), {}),
    "power_law": (ProbabilitySequence.power_law, ({"exponent": float},), {"amplitude": float}),
    "lacunary": (
        ProbabilitySequence.lacunary,
        ({"value": float}, {"support": _int_list, "base": int}),
        {"background": float},
    ),
    "table": (
        lambda file, **taken: ProbabilitySequence.from_table_file(file, **taken),
        ({"file": Path},),
        {"tail": float},
    ),
}
_SEQUENCE_KEYS = {"kind", "truncation"}.union(
    *(group for _, needs, takes in _SEQUENCE_KINDS.values() for group in (*needs, takes))
)


def _sequence_from_file(parser: configparser.ConfigParser, base_dir: Path) -> ProbabilitySequence:
    """The [sequence] section's sequence; a key its kind does not read, a
    missing one or two of one group stop the load.  A path reads relative
    to ``base_dir``, the config file's directory."""
    section = dict(parser["sequence"]) if parser.has_section("sequence") else {}
    if "kind" not in section:
        raise ConfigError("[sequence] needs key 'kind'")
    kind = section.pop("kind").strip().replace("-", "_")
    if kind not in _SEQUENCE_KINDS:
        raise ConfigError(f"unknown sequence kind {kind!r}")
    build, needs, takes = _SEQUENCE_KINDS[kind]
    readers = {key: read for group in ({"truncation": int}, *needs, takes) for key, read in group.items()}
    for key in section:
        if key not in readers:
            raise ConfigError(f"[sequence] kind {kind} does not read key {key!r}")
    for group in needs:
        names, count = " or ".join(f"key {key!r}" for key in group), len(group.keys() & section.keys())
        if count == 0:
            raise ConfigError(f"[sequence] kind {kind} needs {names}")
        if count > 1:
            raise ConfigError(f"[sequence] kind {kind} takes {names}, not both")
    values = {key: base_dir / text if readers[key] is Path else readers[key](text) for key, text in section.items()}
    truncation = values.pop("truncation", None)
    seq = build(**values)
    return seq if truncation is None else seq.truncate(truncation)


# The experiment file's section and key for each field of each record it
# sets, and how the key's text reads.  The [thresholds] keys are the
# ThresholdSettings field names, each read by its SETTING_READERS entry.
_FIELD_KEYS = {
    PipelineConfig: {
        "margin": ("search", "margin", float),
        "d_max": ("search", "d_max", int),
        "k_max": ("search", "k_max", int),
        "scale_search_limit": ("search", "scale_search_limit", int),
        "verify_coarse": ("verify", "coarse_window", int),
        "verify_vertical": ("verify", "vertical_window", int),
        "theta_radii": ("theta", "radii", _int_list),
        "theta_trials": ("theta", "trials", int),
        "positivity_floor": ("theta", "positivity_floor", float),
        "containment_trials": ("containment", "trials", int),
        "master_seed": ("run", "master_seed", int),
        "calibration_file": ("thresholds", "calibration_file", str),
        "embedding_dimension": ("embedding", "dimension", int),
        "embedding_thickness": ("embedding", "thickness", int),
    },
    EpsilonCertificate: {
        "epsilon": ("certificate", "epsilon", float),
        "evidence": ("certificate", "evidence", str),
    },
    ThresholdSettings: {name: ("thresholds", name, read) for name, read in SETTING_READERS.items()},
}


def _record_from_file(parser: configparser.ConfigParser, record: type, **given):
    """``record`` built from ``given`` and the fields whose key the file
    sets, read from its text.  A field the file leaves out keeps its
    dataclass default; one without a default stops the load, naming its key."""
    required = {f.name for f in fields(record) if f.default is MISSING and f.default_factory is MISSING}
    values = {}
    for name, (section, key, read) in _FIELD_KEYS[record].items():
        if parser.has_option(section, key):
            values[name] = read(parser.get(section, key))
        elif name in required:
            raise ConfigError(f"[{section}] needs key {key!r}")
    return record(**given, **values)


def _refuse_unknown_keys(parser: configparser.ConfigParser, path: Path) -> None:
    """A key the loader does not read would silently run its default, so it stops the load."""
    known = {(section, key) for keys in _FIELD_KEYS.values() for section, key, _ in keys.values()}
    known |= {("sequence", key) for key in _SEQUENCE_KEYS}
    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in known:
                raise ConfigError(f"config {path}: unknown key {key!r} in [{section}]")


def load_config(path: str | Path) -> PipelineConfig:
    """Parse the INI-style experiment file into a validated configuration.

    A key outside the sections and names the loader reads is refused, and so
    is a required one left out, naming its section and key."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    text = path.read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    _refuse_unknown_keys(parser, path)
    try:
        return _record_from_file(
            parser,
            PipelineConfig,
            sequence=_sequence_from_file(parser, path.parent),
            certificate=_record_from_file(parser, EpsilonCertificate),
            thresholds=_record_from_file(parser, ThresholdSettings),
            raw_text=text,
        )
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from None
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from None


@dataclass
class ContainmentReport:
    """Containment, checked once on the structure of the window pair.

    The kernel draws each keyed word as a pure function of (edge key, seed,
    trial).  So when every embedded vertex and edge lies in the full window,
    each embedded edge shares its image's key, no embedded open threshold
    exceeds its image's, and the embedded origin is the full origin, every
    open embedded edge is open in the full configuration and the origin's
    embedded cluster sits inside its full one, on every trial of every seed.
    ``trials`` is the count the claim is stated for (the configured
    containment trials); the check covers every trial.  ``edge_violations``
    counts the embedded edges that break it, ``cluster_violations`` the
    stray vertices and a mismatched origin, and ``first_violation`` names the
    first fault's kind and its vertex or edge.  ``seed`` is the pair's stage
    seed, on which the theta rows draw their trials.
    """

    radius: int
    trials: int
    checked_edges: int
    edge_violations: int
    cluster_violations: int
    first_violation: dict | None
    seed: int

    @property
    def passed(self) -> bool:
        return self.edge_violations == 0 and self.cluster_violations == 0

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def containment_check(embedded: GraphWindow, full: GraphWindow, trials: int, master_seed: int) -> ContainmentReport:
    """Containment from the structure of the window pair.

    ``embedded`` and ``full`` are the radial windows of one radius, built by
    :func:`embedded_radial_window` and :func:`long_range_radial_window` on the
    same truncated sequence.  The check (:class:`ContainmentReport`) fails on
    an embedded vertex missing from the full window, an embedded origin that
    is not the full origin, an embedded edge missing from the full window, an
    edge key that differs from its image's, or an open threshold above its
    image's.  ``first_violation`` names the first fault in that order: a
    stray vertex, else the origin, else the first edge of the first edge
    fault.  Nothing is drawn: ``trials`` and ``master_seed`` are recorded.
    """
    vertex_map = _row_lookup(full.coords.T, embedded.coords.T)
    edge_map = _row_lookup((full.edges_u, full.edges_v), (vertex_map[embedded.edges_u], vertex_map[embedded.edges_v]))
    unmapped, image = edge_map < 0, np.maximum(edge_map, 0)
    edge_faults = {
        "unmapped-edge": unmapped,
        "edge-key-differs": ~unmapped & (embedded.edge_keys != full.edge_keys[image]),
        "edge-threshold-exceeds-full": ~unmapped & (
            open_thresholds(embedded.probs) > open_thresholds(full.probs[image])
        ),
    }
    stray = np.flatnonzero(vertex_map < 0)
    moved = vertex_map[embedded.origin_index] != full.origin_index
    faulty = [kind for kind, mask in edge_faults.items() if mask.any()]
    first = None
    if stray.size:
        first = {"kind": "unmapped-vertex", "vertex": embedded.coords[stray[0]].tolist()}
    elif moved:
        first = {
            "kind": "origin-mismatch",
            "vertex": embedded.coords[embedded.origin_index].tolist(),
            "full_origin": full.coords[full.origin_index].tolist(),
        }
    elif faulty:
        e = int(np.argmax(edge_faults[faulty[0]]))
        ends = [embedded.edges_u[e], embedded.edges_v[e]]
        first = {"kind": faulty[0], "edge_index": e, "edge": embedded.coords[ends].tolist()}
    return ContainmentReport(
        radius=embedded.meta["radius"],
        trials=trials,
        checked_edges=embedded.n_edges,
        edge_violations=int(np.logical_or.reduce(list(edge_faults.values())).sum()),
        cluster_violations=stray.size + int(moved),
        first_violation=first,
        seed=master_seed,
    )


@dataclass
class PipelineReport:
    epsilon: float
    margin: float
    master_seed: int
    positivity_floor: float
    passed: bool = False
    failure_stage: str | None = None
    error: str | None = None
    slab: dict | None = None
    threshold: dict | None = None
    scales: list[int] | None = None
    truncation: int | None = None
    embedding: dict | None = None
    theta: list[dict] = field(default_factory=list)
    containment: list[dict] = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    stream_rules: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @property
    def exit_code(self) -> int:
        if self.passed:
            return 0
        if self.failure_stage in ("slab-search", "scale-selection", "certification"):
            return 3
        return 2


def _estimate_dict(estimate: Estimate) -> dict:
    return {name: value for name, value in asdict(estimate).items() if name != "label"}


@contextmanager
def _stage(timings: dict[str, float], name: str):
    """Records the block's wall time as ``timings[name]``, also when it raises."""
    clock = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - clock


def run_pipeline(config: PipelineConfig, out_dir: str | Path | None = None) -> PipelineReport:
    """Execute all stages in order and (optionally) persist the run artifacts.

    Stage failures with an honest meaning (level never witnessed, budget
    exhausted) produce a failed report with the stage named instead of an
    exception; verification failures do the same.  Everything else raises.
    """
    timings: dict[str, float] = {}
    estimates_log: list[dict] = []
    report = PipelineReport(
        epsilon=config.certificate.epsilon,
        margin=config.margin,
        master_seed=config.master_seed,
        positivity_floor=config.positivity_floor,
        stream_rules={"keyed": KEYED_STREAM_RULE},
    )
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    calibration_path = (
        Path(config.calibration_file)
        if config.calibration_file
        else (out_path / "calibration.csv" if out_path else None)
    )
    table = CalibrationTable(calibration_path)

    def finish(stage: str | None = None, error: str | None = None) -> PipelineReport:
        """The run's one exit: it passed when no stage failed."""
        report.passed, report.failure_stage, report.error = stage is None, stage, error
        if out_path is not None:
            _write_outputs(out_path, config, report, estimates_log, timings)
        return report

    try:
        # A budget failure spends its time in this stage, so it is recorded too.
        with _stage(timings, "slab-search"):
            params, row = choose_slab_parameters(
                epsilon=config.certificate.epsilon,
                margin=config.margin,
                d_max=config.d_max,
                k_max=config.k_max,
                table=table,
                settings=config.thresholds,
                master_seed=config.master_seed,
            )
    except ParametersNotFound as exc:
        report.checks["slab_found"] = False
        report.slab = {"shortfalls": exc.shortfalls}
        return finish("slab-search", str(exc))
    report.slab = {"dimension": params.dimension, "thickness": params.thickness}
    report.threshold = row.to_dict()
    report.checks["slab_found"] = True

    try:
        with _stage(timings, "scale-selection"):
            scales = select_scales(
                config.sequence, config.certificate.epsilon, params, config.scale_search_limit
            )
    except HypothesisNotWitnessed as exc:
        report.checks["scales_found"] = False
        return finish("scale-selection", str(exc))
    report.scales = list(scales.scales)
    report.truncation = scales.top
    report.checks["scales_found"] = True

    with _stage(timings, "embedding-verification"):
        graph = EmbeddedGraph(params, scales)
        embedding_report = verify_isomorphism(
            graph,
            config.verify_coarse,
            config.verify_vertical,
            seq=config.sequence,
            epsilon=config.certificate.epsilon,
        )
    report.embedding = asdict(embedding_report)
    report.checks["isomorphism"] = embedding_report.passed
    if not embedding_report.passed:
        return finish("embedding-verification", embedding_report.counterexample)

    # The windows of radius max(radii) + top decide every theta row exactly
    # (module docstring); a pair that could outgrow the edge budget is refused
    # before it is built.
    truncated = config.sequence.truncate(scales.top)
    radius = max(config.theta_radii) + scales.top
    steps = len(truncated.supported_lengths(min(scales.top, 2 * radius)))
    edge_bound = 2 * (2 * radius + 1) ** 2 * steps
    if edge_bound > MAX_CERTIFICATION_EDGES:
        return finish(
            "certification",
            f"the certification windows of radius {radius} = {max(config.theta_radii)} + {scales.top} "
            f"may hold {edge_bound} edges, above the {MAX_CERTIFICATION_EDGES} a run may build",
        )

    # The "containment" stage builds the pair and checks it; the "theta"
    # stage searches both windows' reaches on the pair's stage seed.
    with _stage(timings, "containment"):
        seed = derive_seed(config.master_seed, "containment", radius)
        windows = {
            "embedded": embedded_radial_window(graph, truncated, radius),
            "full": long_range_radial_window(truncated, radius),
        }
        outcome = containment_check(windows["embedded"], windows["full"], config.containment_trials, seed)
        report.containment.append(outcome.to_dict())

    with _stage(timings, "theta"):
        embedded_rows, full_rows = (
            origin_radius_profile(window, config.theta_radii, config.theta_trials, seed, f"theta-{name}-")[0]
            for name, window in windows.items()
        )
        for rho, est_embedded, est_full in zip(config.theta_radii, embedded_rows, full_rows):
            report.theta.append(
                {"radius": rho, "embedded": _estimate_dict(est_embedded), "full": _estimate_dict(est_full)}
            )
            for est, family in ((est_embedded, "embedded"), (est_full, "z2-long-range")):
                estimates_log.append({"family": family, "event": "origin_boundary", **est.as_row()})
    report.checks["theta_floor"] = all(est.value >= config.positivity_floor for est in embedded_rows)
    report.checks["containment"] = outcome.passed

    first = outcome.first_violation
    notes = {"containment": f" ({first['kind']} at {first.get('edge', first.get('vertex'))})"} if first else {}
    failed = [name + notes.get(name, "") for name, ok in report.checks.items() if not ok]
    return finish("acceptance-checks", "failed checks: " + ", ".join(failed)) if failed else finish()


def _write_outputs(
    out_path: Path,
    config: PipelineConfig,
    report: PipelineReport,
    estimates_log: list[dict],
    timings: dict[str, float],
) -> None:
    """Writes ``report.json`` and ``estimates.csv``, timed as the ``write``
    stage, then ``manifest.json``, whose own write is not timed."""
    with _stage(timings, "write"):
        (out_path / "report.json").write_text(report.to_json())
        with open(out_path / "estimates.csv", "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=["family", "event", *ESTIMATE_COLUMNS])
            writer.writeheader()
            writer.writerows(estimates_log)
    manifest = {
        "config_text": config.raw_text,
        "master_seed": config.master_seed,
        "versions": {
            "trunclab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
        "passed": report.passed,
    }
    (out_path / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
