"""Critical-threshold estimation and slab-geometry selection.

The threshold proxy is the open probability at which the left-right crossing
of the ``(L+1) x L`` sponge reaches one-half, located by bisection on the
largest window of a schedule after a coarse scan on the smallest.  On the
planar lattice this proxy equals the true threshold exactly (self-duality),
which is the calibration anchor; elsewhere it is an estimate whose bracket
and statistical uncertainty are reported rather than hidden.

``choose_slab_parameters`` scans slab geometries in increasing simulation
cost (dimension first, then thickness) until one's estimated threshold
clears a declared level with margin to spare -- the numeric stand-in for
the cited existence results, which give no effective bounds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .embedding import SlabParameters
from .engine import Estimate, binomial_half_width, crossing_estimate
from .rng import derive_seed
from .sequences import ProbabilitySequence
from .windows import (
    ConfigError,
    GraphWindow,
    grid_crossing_window,
    long_range_crossing_window,
    slab_crossing_window,
)


class BracketError(Exception):
    """The crossing response refused to straddle one-half; diagnostics attached."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


class ParametersNotFound(Exception):
    """No slab geometry within budget cleared the level; best shortfall attached."""

    def __init__(self, message: str, shortfalls: list[dict]):
        super().__init__(message)
        self.shortfalls = shortfalls


@dataclass(frozen=True)
class LatticeFamily:
    """A graph family whose threshold can be estimated: z2, zd, or slab."""

    kind: str
    dimension: int = 2
    thickness: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("z2", "zd", "slab"):
            raise ConfigError(f"unknown lattice family kind {self.kind!r}")
        if self.kind != "z2" and self.dimension < 2:
            raise ConfigError("dimension must be >= 2")
        if self.kind == "slab" and self.thickness < 1:
            raise ConfigError("slab thickness must be >= 1")

    @property
    def key(self) -> str:
        if self.kind == "z2":
            return "z2"
        if self.kind == "zd":
            return f"z{self.dimension}"
        return f"slab-d{self.dimension}-k{self.thickness}"

    def crossing_window(self, p: float, side: int) -> GraphWindow:
        if self.kind == "z2":
            return long_range_crossing_window(ProbabilitySequence.constant(p).truncate(1), side)
        if self.kind == "zd":
            return grid_crossing_window(self.dimension, p, side)
        return slab_crossing_window(self.dimension, self.thickness, p, side)


# Spacing of the coarse ascending scan that opens the bisection bracket.
COARSE_GRID_STEP = 0.05


@dataclass(frozen=True)
class ThresholdSettings:
    """Schedule and budgets shared by every threshold estimate in a run."""

    l_schedule: tuple[int, ...] = (8, 16, 32)
    bracket_tol: float = 0.015
    trials_per_probe: int = 3000
    coarse_trials: int = 600

    def __post_init__(self) -> None:
        if not self.l_schedule or any(b <= a for a, b in zip(self.l_schedule, self.l_schedule[1:])):
            raise ConfigError("L schedule must be nonempty and strictly increasing")
        if self.bracket_tol <= 0:
            raise ConfigError("bracket tolerance must be positive")
        if self.trials_per_probe < 1 or self.coarse_trials < 1:
            raise ConfigError("trial counts must be positive")


@dataclass
class ProbeRecord:
    side: int
    p: float
    value: float
    trials: int
    seed: int

    def to_dict(self) -> dict:
        return {"L": self.side, "p": self.p, "value": self.value, "trials": self.trials, "seed": self.seed}


@dataclass
class ThresholdEstimate:
    """Bisection outcome: midpoint, bracket, and combined uncertainty."""

    family: LatticeFamily
    p_hat: float
    uncertainty: float
    bracket: tuple[float, float]
    stat_term: float
    settings: ThresholdSettings
    master_seed: int
    probes: list[ProbeRecord] = field(default_factory=list)
    method: str = "bisection-on-crossing/v1"

    def to_dict(self) -> dict:
        return {
            "family": self.family.key,
            "p_hat": self.p_hat,
            "uncertainty": self.uncertainty,
            "bracket": list(self.bracket),
            "stat_term": self.stat_term,
            "L_schedule": list(self.settings.l_schedule),
            "trials_per_probe": self.settings.trials_per_probe,
            "master_seed": self.master_seed,
            "method": self.method,
            "probes": [p.to_dict() for p in self.probes],
        }


def estimate_pc(
    family: LatticeFamily,
    settings: ThresholdSettings,
    master_seed: int,
) -> ThresholdEstimate:
    """Locate the probability where the largest window's crossing hits one-half.

    A coarse ascending scan on the smallest window initializes the bracket.
    Because the crossing response drifts between window sizes, the bracket is
    then *transported* through the schedule: at each larger window it walks
    outward in coarse steps until it straddles one-half again.  At the
    largest window the endpoints are re-probed as a noise check -- if an
    endpoint sits on the wrong side of one-half beyond twice the probe
    half-width, the check reruns once with four times the trials before
    failing with diagnostics -- and bisection then runs the bracket down to
    tolerance.
    """
    probes: list[ProbeRecord] = []
    probe_counter = 0

    def probe(p: float, side: int, trials: int) -> Estimate:
        nonlocal probe_counter
        seed = derive_seed(master_seed, "pc", family.key, probe_counter)
        probe_counter += 1
        window = family.crossing_window(p, side)
        estimate = crossing_estimate(window, trials, seed, label=f"pc-probe:{family.key}:L{side}:p{p!r}")
        probes.append(ProbeRecord(side, p, estimate.value, trials, seed))
        return estimate

    def diagnostics(extra: dict) -> dict:
        return {"family": family.key, "probes": [pr.to_dict() for pr in probes], **extra}

    schedule = settings.l_schedule
    step = COARSE_GRID_STEP
    grid = [round(step * k, 10) for k in range(1, int(1.0 / step))]
    low, high = 0.0, None
    for p in grid:
        value = probe(p, schedule[0], settings.coarse_trials).value
        if value >= 0.5:
            high = p
            break
        low = p
    if high is None:
        raise BracketError(
            f"{family.key}: crossing stayed below 1/2 over the whole coarse grid",
            diagnostics({"grid_max": grid[-1]}),
        )

    def transport(side: int, low: float, high: float) -> tuple[float, float, Estimate, Estimate]:
        est_high = probe(high, side, settings.trials_per_probe)
        for _ in range(len(grid)):
            if est_high.value >= 0.5:
                break
            if high >= grid[-1] + step:
                raise BracketError(
                    f"{family.key}: crossing stayed below 1/2 up to p={high} at L={side}",
                    diagnostics({"bracket": [low, high]}),
                )
            low, high = high, min(high + step, 1.0)
            est_high = probe(high, side, settings.trials_per_probe)
        est_low = probe(low, side, settings.trials_per_probe)
        for _ in range(len(grid)):
            if est_low.value < 0.5:
                break
            if low <= 0.0:
                raise BracketError(
                    f"{family.key}: crossing stayed at or above 1/2 down to p=0 at L={side}",
                    diagnostics({"bracket": [low, high]}),
                )
            high, est_high = low, est_low
            low = max(low - step, 0.0)
            est_low = probe(low, side, settings.trials_per_probe)
        return low, high, est_low, est_high

    for side in schedule[1:] or schedule[-1:]:
        low, high, est_low, est_high = transport(side, low, high)

    top = schedule[-1]

    def validate(trials: int) -> tuple[Estimate, Estimate] | None:
        est_low = probe(low, top, trials)
        est_high = probe(high, top, trials)
        slack_low = 2.0 * max(est_low.half_width, binomial_half_width(0.5, trials))
        slack_high = 2.0 * max(est_high.half_width, binomial_half_width(0.5, trials))
        if est_low.value >= 0.5 + slack_low or est_high.value <= 0.5 - slack_high:
            return None
        return est_low, est_high

    endpoints = validate(settings.trials_per_probe)
    if endpoints is None:
        endpoints = validate(4 * settings.trials_per_probe)
        if endpoints is None:
            raise BracketError(
                f"{family.key}: bracket ({low}, {high}) failed the noise check at L={top} even "
                "after widening trials",
                diagnostics({"bracket": [low, high]}),
            )
    est_low, est_high = endpoints
    validated_span = high - low

    while high - low > settings.bracket_tol:
        mid = 0.5 * (low + high)
        if probe(mid, top, settings.trials_per_probe).value >= 0.5:
            high = mid
        else:
            low = mid

    # Slope of the crossing response across the validated bracket converts
    # the probe's statistical half-width into probability units; a floor of
    # 1/2 keeps flat-response noise from exploding the uncertainty.
    slope = max((est_high.value - est_low.value) / max(validated_span, 1e-9), 0.5)
    stat_term = min(binomial_half_width(0.5, settings.trials_per_probe) / slope, 0.1)
    return ThresholdEstimate(
        family=family,
        p_hat=0.5 * (low + high),
        uncertainty=0.5 * (high - low) + stat_term,
        bracket=(low, high),
        stat_term=stat_term,
        settings=settings,
        master_seed=master_seed,
        probes=probes,
    )


CALIBRATION_COLUMNS = [
    "family",
    "kind",
    "dimension",
    "thickness",
    "p_hat",
    "uncertainty",
    "bracket_lo",
    "bracket_hi",
    "stat_term",
    "l_max",
    "trials_per_probe",
    "seed",
    "method",
]


@dataclass
class CalibrationRow:
    family_key: str
    kind: str
    dimension: int
    thickness: int
    p_hat: float
    uncertainty: float
    bracket_lo: float
    bracket_hi: float
    stat_term: float
    l_max: int
    trials_per_probe: int
    seed: int
    method: str

    @staticmethod
    def from_estimate(estimate: ThresholdEstimate) -> "CalibrationRow":
        return CalibrationRow(
            family_key=estimate.family.key,
            kind=estimate.family.kind,
            dimension=estimate.family.dimension,
            thickness=estimate.family.thickness,
            p_hat=estimate.p_hat,
            uncertainty=estimate.uncertainty,
            bracket_lo=estimate.bracket[0],
            bracket_hi=estimate.bracket[1],
            stat_term=estimate.stat_term,
            l_max=estimate.settings.l_schedule[-1],
            trials_per_probe=estimate.settings.trials_per_probe,
            seed=estimate.master_seed,
            method=estimate.method,
        )

    def to_csv_dict(self) -> dict:
        return {
            "family": self.family_key,
            "kind": self.kind,
            "dimension": self.dimension,
            "thickness": self.thickness,
            "p_hat": repr(self.p_hat),
            "uncertainty": repr(self.uncertainty),
            "bracket_lo": repr(self.bracket_lo),
            "bracket_hi": repr(self.bracket_hi),
            "stat_term": repr(self.stat_term),
            "l_max": self.l_max,
            "trials_per_probe": self.trials_per_probe,
            "seed": self.seed,
            "method": self.method,
        }

    def to_dict(self) -> dict:
        return {
            "family": self.family_key,
            "p_hat": self.p_hat,
            "uncertainty": self.uncertainty,
            "bracket": [self.bracket_lo, self.bracket_hi],
            "l_max": self.l_max,
            "trials_per_probe": self.trials_per_probe,
            "seed": self.seed,
            "method": self.method,
        }


class CalibrationTable:
    """Threshold rows persisted as CSV; every row replays from its seed."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.rows: dict[str, CalibrationRow] = {}
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, newline="") as handle:
            reader = csv.DictReader(row for row in handle if not row.startswith("#"))
            for record in reader:
                row = CalibrationRow(
                    family_key=record["family"],
                    kind=record["kind"],
                    dimension=int(record["dimension"]),
                    thickness=int(record["thickness"]),
                    p_hat=float(record["p_hat"]),
                    uncertainty=float(record["uncertainty"]),
                    bracket_lo=float(record["bracket_lo"]),
                    bracket_hi=float(record["bracket_hi"]),
                    stat_term=float(record["stat_term"]),
                    l_max=int(record["l_max"]),
                    trials_per_probe=int(record["trials_per_probe"]),
                    seed=int(record["seed"]),
                    method=record["method"],
                )
                self.rows[row.family_key] = row

    def save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", newline="") as handle:
            handle.write("# threshold calibration: bisection on sponge-crossing probability 1/2\n")
            handle.write("# rows replay bit-exactly from their recorded seed and settings\n")
            handle.write(
                "# external reference anchors (not asserted): z2 bond = 1/2 exactly"
                " (self-duality); z3 bond ~ 0.2488 (literature)\n"
            )
            writer = csv.DictWriter(handle, fieldnames=CALIBRATION_COLUMNS)
            writer.writeheader()
            for key in sorted(self.rows):
                writer.writerow(self.rows[key].to_csv_dict())

    def get(self, family: LatticeFamily) -> CalibrationRow | None:
        return self.rows.get(family.key)

    def put(self, row: CalibrationRow) -> None:
        self.rows[row.family_key] = row
        self.save()

    def ensure(
        self,
        family: LatticeFamily,
        settings: ThresholdSettings,
        master_seed: int,
    ) -> CalibrationRow:
        """Return the stored row or compute, persist, and return a fresh one.

        The estimation seed depends only on the master seed and the family
        key, never on scan order, so a table rebuilt in any order is
        identical.
        """
        row = self.get(family)
        if row is not None:
            return row
        seed = derive_seed(master_seed, "threshold", family.key)
        estimate = estimate_pc(family, settings, seed)
        row = CalibrationRow.from_estimate(estimate)
        self.put(row)
        return row


def choose_slab_parameters(
    epsilon: float,
    margin: float,
    d_max: int,
    k_max: int,
    table: CalibrationTable,
    settings: ThresholdSettings,
    master_seed: int,
) -> tuple[SlabParameters, CalibrationRow]:
    """First slab geometry (by cost order) whose threshold clears the level.

    Acceptance is ``p_hat + uncertainty + margin < epsilon``, recorded as
    stated.  Dimension 2 never qualifies (the planar threshold is one-half
    and epsilon cannot exceed one-half), so the scan starts at dimension 3.
    Raises :class:`ParametersNotFound` with every candidate's shortfall when
    the budget is exhausted.
    """
    if not 0.0 < margin < epsilon:
        raise ConfigError(f"margin must lie strictly between 0 and epsilon, got {margin}")
    shortfalls: list[dict] = []
    for dimension in range(3, d_max + 1):
        for thickness in range(1, k_max + 1):
            family = LatticeFamily("slab", dimension, thickness)
            row = table.ensure(family, settings, master_seed)
            score = row.p_hat + row.uncertainty + margin
            if score < epsilon:
                return SlabParameters(dimension, thickness), row
            shortfalls.append(
                {
                    "family": family.key,
                    "p_hat": row.p_hat,
                    "uncertainty": row.uncertainty,
                    "required_below": epsilon - margin,
                    "shortfall": score - epsilon,
                }
            )
    best = min(shortfalls, key=lambda s: s["shortfall"]) if shortfalls else None
    raise ParametersNotFound(
        f"no slab within d <= {d_max}, K <= {k_max} reaches level {epsilon} with margin {margin}"
        + (f"; best was {best['family']} short by {best['shortfall']:.4f}" if best else ""),
        shortfalls,
    )
