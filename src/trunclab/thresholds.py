"""Critical-threshold estimation and slab-geometry selection.

The threshold proxy is the open probability at which the left-right crossing
of the ``(L+1) x L`` sponge reaches one-half.  All probes at one window side
share one seed, so the crossing fraction there is the empirical distribution
function of the trials' bottleneck values and exactly nondecreasing in the
probability; bisection on it cannot fail, and it is carried through a
schedule of sides to the largest.  On the planar lattice this proxy equals
the true threshold exactly (self-duality), which is the calibration anchor;
elsewhere it is an estimate whose bracket and statistical uncertainty are
reported rather than hidden.  The finite-size drift between sides is not yet
part of the uncertainty.

``choose_slab_parameters`` scans slab geometries in increasing simulation
cost (dimension first, then thickness) until one's estimated threshold
clears a declared level with margin to spare -- the numeric stand-in for
the cited existence results, which give no effective bounds.  Estimates are
persisted in a :class:`CalibrationTable`, whose rows are reused only under
the settings and method they were computed with.  A row is a
:class:`ThresholdEstimate` without its probes: the table stores, loads and
returns estimates, and the report prints the same record.  Its columns are
``family``, the family's fields, the estimate, the settings' fields, ``seed``
and ``method``; one reader per setting (:data:`SETTING_READERS`) reads its
column, its ``[thresholds]`` key and its ``trunclab pc`` flag.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, get_origin, get_type_hints

from .embedding import SlabParameters
from .engine import binomial_half_width, crossing_estimate
from .rng import derive_seed
from .windows import ConfigError, GraphWindow, lattice_window


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
        # A field the kind ignores would give two unequal families one key.
        if self.kind != "slab" and self.thickness != 1:
            raise ConfigError(f"family {self.kind} has no thickness, got {self.thickness}")
        if self.kind == "z2" and self.dimension != 2:
            raise ConfigError(f"family z2 has dimension 2, got {self.dimension}")

    @property
    def key(self) -> str:
        if self.kind == "z2":
            return "z2"
        if self.kind == "zd":
            return f"z{self.dimension}"
        return f"slab-d{self.dimension}-k{self.thickness}"

    def crossing_window(self, p: float, side: int) -> GraphWindow:
        return lattice_window(self.dimension, p, side, "crossing", self.thickness if self.kind == "slab" else None)


# Names the estimator in every ThresholdEstimate and calibration row; a
# stored row computed by another method is never reused.
METHOD = "coupled-bisection/v2"


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


def _int_list(text: str) -> tuple[int, ...]:
    """Integers separated by commas or spaces."""
    return tuple(int(part) for part in text.replace(",", " ").split())


def _text_readers(record: type) -> dict[str, Callable[[str], object]]:
    """Each field's text reader: :func:`_int_list` for a tuple, else its annotated type."""
    return {name: _int_list if get_origin(hint) is tuple else hint for name, hint in get_type_hints(record).items()}


# The one text reader of each family field and setting: calibration columns
# read through both, [thresholds] keys and `trunclab pc` flags through SETTING_READERS.
_FAMILY_READERS = _text_readers(LatticeFamily)
SETTING_READERS = _text_readers(ThresholdSettings)


@dataclass
class ProbeRecord:
    side: int
    p: float
    value: float
    trials: int
    seed: int


@dataclass
class ThresholdEstimate:
    """One family's threshold with the settings, seed and method behind it.

    The bisection outcome: midpoint, bracket, and combined uncertainty, of
    which ``stat_term`` is the statistical part.  A calibration row is an
    estimate whose ``probes`` were not stored; probes never enter equality.
    """

    family: LatticeFamily
    p_hat: float
    uncertainty: float
    bracket: tuple[float, float]
    stat_term: float
    settings: ThresholdSettings
    seed: int
    method: str = METHOD
    probes: list[ProbeRecord] = field(default_factory=list, compare=False)

    def to_dict(self) -> dict:
        """The report's ``threshold`` entry, which ``trunclab pc`` also prints."""
        return {
            "family": self.family.key,
            "p_hat": self.p_hat,
            "uncertainty": self.uncertainty,
            "bracket": list(self.bracket),
            **asdict(self.settings),
            "seed": self.seed,
            "method": self.method,
        }

    def mismatches(self, settings: ThresholdSettings) -> list[str]:
        """``name stored != requested`` for each setting, and the method, that differs.

        The seed is provenance, not part of the key: a row computed under
        another master seed is still reused.
        """
        stored, requested = asdict(self.settings), asdict(settings)
        differing = [
            f"{name} {stored[name]!r} != {requested[name]!r}" for name in stored if stored[name] != requested[name]
        ]
        if self.method != METHOD:
            differing.append(f"method {self.method!r} != {METHOD!r}")
        return differing


def estimate_pc(family: LatticeFamily, settings: ThresholdSettings, master_seed: int) -> ThresholdEstimate:
    """Locate the probability where the largest window's crossing hits one-half.

    Every probe at side ``L`` uses the seed ``derive_seed(master_seed, "pc",
    key, L)``, so the crossing fraction there is exactly nondecreasing in
    ``p``, with the known values 0 at ``p = 0`` and 1 at ``p = 1``, which are
    never probed.  Side by side, the bracket carried over (at first
    ``[0, 1]``) widens in doubling steps until it straddles one-half and is
    then bisected to ``bracket_tol``; the first of several sides probes with
    ``coarse_trials``, every other side with ``trials_per_probe``.  The final
    bracket holds the median of the top side's per-trial bottleneck values,
    and the slope across it (their density) turns the probe noise at
    one-half into ``stat_term``.
    """
    probes: list[ProbeRecord] = []

    def response(side: int, trials: int) -> Callable[[float], float]:
        seed = derive_seed(master_seed, "pc", family.key, side)
        values = {0.0: 0.0, 1.0: 1.0}

        def value(p: float) -> float:
            if p not in values:
                window = family.crossing_window(p, side)
                label = f"pc-probe:{family.key}:L{side}:p{p!r}"
                values[p] = crossing_estimate(window, trials, seed, label=label).value
                probes.append(ProbeRecord(side, p, values[p], trials, seed))
            return values[p]

        return value

    schedule = settings.l_schedule
    low, high = 0.0, 1.0
    for index, side in enumerate(schedule):
        coarse = index == 0 and len(schedule) > 1
        value = response(side, settings.coarse_trials if coarse else settings.trials_per_probe)
        step = high - low
        while value(high) < 0.5:
            low, high, step = high, min(high + step, 1.0), 2.0 * step
        while value(low) >= 0.5:
            low, high, step = max(low - step, 0.0), low, 2.0 * step
        while high - low > settings.bracket_tol:
            mid = 0.5 * (low + high)
            low, high = (low, mid) if value(mid) >= 0.5 else (mid, high)

    # A slope floor of 1/2 keeps a flat response from exploding the term.
    slope = max((value(high) - value(low)) / (high - low), 0.5)
    stat_term = min(binomial_half_width(0.5, settings.trials_per_probe) / slope, 0.1)
    return ThresholdEstimate(
        family=family,
        p_hat=0.5 * (low + high),
        uncertainty=0.5 * (high - low) + stat_term,
        bracket=(low, high),
        stat_term=stat_term,
        settings=settings,
        seed=master_seed,
        probes=probes,
    )


# family, the LatticeFamily fields, the estimate, the ThresholdSettings fields, seed, method.
CALIBRATION_COLUMNS = [
    "family", *_FAMILY_READERS, "p_hat", "uncertainty", "bracket_lo", "bracket_hi", "stat_term",
    *SETTING_READERS, "seed", "method",
]


class CalibrationTable:
    """Threshold rows persisted as CSV; every row replays from its seed."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.rows: dict[str, ThresholdEstimate] = {}
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, newline="") as handle:
            lines = [(number, line) for number, line in enumerate(handle, 1) if not line.startswith("#")]
        reader = csv.DictReader(line for _, line in lines)
        missing = [column for column in CALIBRATION_COLUMNS if column not in (reader.fieldnames or ())]
        if reader.fieldnames and missing:
            raise ConfigError(f"calibration file {self.path}: missing column(s) {', '.join(missing)}")
        first_line: dict[str, int] = {}
        for record in reader:
            line = lines[reader.line_num - 1][0]
            where = f"calibration file {self.path}, line {line}"
            if None in record or not all(record.values()):
                raise ConfigError(f"{where}: expected {len(CALIBRATION_COLUMNS)} nonempty fields")
            try:
                family = LatticeFamily(**{name: read(record[name]) for name, read in _FAMILY_READERS.items()})
                if record["family"] != family.key:
                    raise ConfigError(
                        f"family {record['family']!r} does not match kind, dimension and thickness ({family.key})"
                    )
                row = ThresholdEstimate(
                    family=family,
                    p_hat=float(record["p_hat"]),
                    uncertainty=float(record["uncertainty"]),
                    bracket=(float(record["bracket_lo"]), float(record["bracket_hi"])),
                    stat_term=float(record["stat_term"]),
                    settings=ThresholdSettings(
                        **{name: read(record[name]) for name, read in SETTING_READERS.items()}
                    ),
                    seed=int(record["seed"]),
                    method=record["method"],
                )
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{where}: {exc}") from None
            if family.key in first_line:
                raise ConfigError(f"{where}: family {family.key} already listed on line {first_line[family.key]}")
            first_line[family.key] = line
            self.rows[family.key] = row

    def save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", newline="") as handle:
            handle.write(
                "# threshold calibration: coupled bisection on sponge-crossing probability 1/2;"
                " the bracket holds the median of the top side's per-trial bottleneck values\n"
            )
            handle.write(
                "# rows replay bit-exactly from their recorded seed and settings, and are"
                " reused only under the same settings and method\n"
            )
            handle.write(
                "# external reference anchors (not asserted): z2 bond = 1/2 exactly"
                " (self-duality); z3 bond ~ 0.2488 (literature)\n"
            )
            writer = csv.DictWriter(handle, fieldnames=CALIBRATION_COLUMNS)
            writer.writeheader()
            for key in sorted(self.rows):
                row = self.rows[key]
                writer.writerow(
                    {
                        "family": key,
                        **asdict(row.family),
                        "p_hat": row.p_hat,
                        "uncertainty": row.uncertainty,
                        "bracket_lo": row.bracket[0],
                        "bracket_hi": row.bracket[1],
                        "stat_term": row.stat_term,
                        **asdict(row.settings),
                        "l_schedule": " ".join(str(side) for side in row.settings.l_schedule),
                        "seed": row.seed,
                        "method": row.method,
                    }
                )

    def get(self, family: LatticeFamily) -> ThresholdEstimate | None:
        return self.rows.get(family.key)

    def put(self, estimate: ThresholdEstimate) -> None:
        self.rows[estimate.family.key] = estimate
        self.save()

    def ensure(
        self,
        family: LatticeFamily,
        settings: ThresholdSettings,
        master_seed: int,
    ) -> ThresholdEstimate:
        """Return the stored row or compute, persist, and return a fresh estimate.

        A stored row computed under other settings or by another method
        raises :class:`ConfigError` naming every differing field.  The
        estimation seed depends only on the master seed and the family key,
        never on scan order, so a table rebuilt in any order is identical.
        """
        row = self.get(family)
        if row is not None:
            stale = row.mismatches(settings)
            if stale:
                raise ConfigError(
                    f"calibration row {family.key} in {self.path or 'the table'} was computed under"
                    f" other settings (stored != requested): {'; '.join(stale)}; remove the row or"
                    " use another calibration file"
                )
            return row
        estimate = estimate_pc(family, settings, derive_seed(master_seed, "threshold", family.key))
        self.put(estimate)
        return estimate


def choose_slab_parameters(
    epsilon: float,
    margin: float,
    d_max: int,
    k_max: int,
    table: CalibrationTable,
    settings: ThresholdSettings,
    master_seed: int,
) -> tuple[SlabParameters, ThresholdEstimate]:
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
