"""Critical-threshold estimation and slab-geometry selection.

The threshold proxy is the open probability at which the left-right crossing
of the ``(L+1) x L`` sponge reaches one-half.  A trial's bottleneck is the
least ``p`` at which it crosses, read exactly by a Kruskal sweep in the
kernel (:func:`trunclab.kernel.keyed_bottlenecks`) over the trial's keyed
words, the stream the theta rows draw too, so at one side the
crossing fraction at every ``p`` is the empirical distribution function of
the trials' bottlenecks and the proxy is their median.  One kernel call per
side of the schedule gives them all.  The estimate is the largest side's
sample median; its bracket is the distribution-free 95% order-statistic
interval for the median (:func:`median_interval_rank`), and its uncertainty
adds that interval's half-width to the finite-size drift, the largest
distance between the top side's median and a smaller side's.  On the
planar lattice the proxy equals the true threshold exactly (self-duality),
which is the calibration anchor; elsewhere it is an estimate whose interval and drift
are reported rather than hidden.

``choose_slab_parameters`` scans slab geometries in increasing simulation
cost (dimension first, then thickness) until one's estimated threshold
clears a declared level with margin to spare, on an interval no wider than
``bracket_tol`` -- the numeric stand-in for the cited existence results,
which give no effective bounds.  Estimates are persisted in a
:class:`CalibrationTable`, whose rows are reused only under the settings
and method they were computed with.  A row is a :class:`ThresholdEstimate`
without its probes: the table stores, loads and returns estimates, and the
report prints the same record.  Its columns are ``family``, the family's
fields, the estimate, the settings' fields, ``seed`` and ``method``; one
reader per setting (:data:`SETTING_READERS`) reads its column, its
``[thresholds]`` key and its ``trunclab pc`` flag.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from functools import cache
from math import comb, isqrt
from pathlib import Path
from typing import Callable, get_origin, get_type_hints

import numpy as np

from .embedding import SlabParameters
# crossing_estimate is not called here (each side's bottlenecks give the
# crossing fraction at every p), but it stays bound: the benchmark's tracer
# wraps it by name in this namespace.
from .engine import crossing_estimate  # noqa: F401
from .kernel import keyed_bottlenecks
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
        if self.kind == "slab" and self.dimension < 2:
            raise ConfigError("dimension must be >= 2")
        if self.kind == "slab" and self.thickness < 1:
            raise ConfigError("slab thickness must be >= 1")
        # A field the kind ignores would give two unequal families one key.
        if self.kind != "slab" and self.thickness != 1:
            raise ConfigError(f"family {self.kind} has no thickness, got {self.thickness}")
        if self.kind == "z2" and self.dimension != 2:
            raise ConfigError(f"family z2 has dimension 2, got {self.dimension}")
        # zd at dimension 2 would share the key "z2" with the z2 family.
        if self.kind == "zd" and self.dimension < 3:
            raise ConfigError(f"family zd needs dimension >= 3 (the plane is family z2), got {self.dimension}")

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
METHOD = "bottleneck-median/v4"


@dataclass(frozen=True)
class ThresholdSettings:
    """Schedule and budgets shared by every threshold estimate in a run.

    ``l_schedule`` lists the window sides; the first of several draws
    ``coarse_trials`` trials and every other side ``trials_per_probe``.
    ``bracket_tol`` is the widest top-side interval with which a family may
    certify a slab in :func:`choose_slab_parameters`.
    """

    l_schedule: tuple[int, ...] = (8, 16, 32)
    bracket_tol: float = 0.015
    trials_per_probe: int = 3000
    coarse_trials: int = 600

    def __post_init__(self) -> None:
        if not self.l_schedule or any(b <= a for a, b in zip(self.l_schedule, self.l_schedule[1:])):
            raise ConfigError("L schedule must be nonempty and strictly increasing")
        # A side below 1 would otherwise fail mid-search, in the window builder.
        if self.l_schedule[0] < 1:
            raise ConfigError(f"l_schedule side {self.l_schedule[0]} must be >= 1")
        # Written as "not (...)" so that a NaN is refused too.
        if not self.bracket_tol > 0:
            raise ConfigError(f"bracket_tol must be positive, got {self.bracket_tol}")
        for name in ("trials_per_probe", "coarse_trials"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")


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
    """One side's bottlenecks: their median, its 95% interval, trials and seed."""

    side: int
    median: float
    interval: tuple[float, float]
    trials: int
    seed: int


@dataclass
class ThresholdEstimate:
    """One family's threshold with the settings, seed and method behind it.

    ``p_hat`` is the median of the top side's bottlenecks and ``bracket``
    its 95% order-statistic interval; ``stat_term``, the interval's
    half-width ``max(p_hat - lo, hi - p_hat)``, is the statistical part of
    ``uncertainty``, which adds the drift, the largest distance between the
    top side's median and a smaller side's.  A calibration row is an estimate whose ``probes`` were
    not stored; probes never enter equality.  An estimate out of range is
    refused: the slab search would read a negative uncertainty, or a
    ``p_hat`` its bracket does not hold, as a threshold below the level.
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

    def __post_init__(self) -> None:
        # Written as "not (...)" so that a NaN is refused too.
        if not 0.0 <= self.p_hat <= 1.0:
            raise ConfigError(f"p_hat {self.p_hat} outside [0, 1]")
        if not self.uncertainty >= 0.0:
            raise ConfigError(f"uncertainty {self.uncertainty} must be >= 0")
        if not self.bracket[0] <= self.p_hat <= self.bracket[1]:
            raise ConfigError(f"bracket [{self.bracket[0]}, {self.bracket[1]}] does not hold p_hat {self.p_hat}")
        if not 0.0 <= self.stat_term <= self.uncertainty:
            raise ConfigError(f"stat_term {self.stat_term} outside [0, uncertainty {self.uncertainty}]")

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


@cache
def median_interval_rank(trials: int) -> int:
    """The rank ``j`` of the distribution-free 95% interval for a median.

    Of ``n = trials`` independent draws, sorted as ``b_(1) <= ... <= b_(n)``,
    the interval ``[b_(j), b_(n-j+1)]`` misses the median with probability
    ``2 P(Binomial(n, 1/2) < j)``, whatever the distribution.  ``j`` is the
    largest rank with ``P(Binomial(n, 1/2) <= j - 1) <= 0.025``, summed
    exactly in integers: ``scipy.stats.binom.ppf(0.025, n, 0.5)``, without
    importing scipy.stats.  For ``n <= 5`` even ``[b_(1), b_(n)]`` covers
    less than 95% (``1 - 2^(1-n)``), so the rank is 0, and the interval is
    the whole range of the bottlenecks, ``[0, 1]``.

    The sum starts eight standard deviations below ``n/2``, where the tail
    is below ``e^-32``, and bounds the terms it skips by a geometric series
    (each is at most ``start / (n - start + 1)`` times the next), so a rank
    costs ``O(n^1.5)`` bit operations, not ``O(n^2)``.  Only a tail within
    that bound of the 2.5% cut, or a cut below the start, is summed from 0.
    """
    total, start = 1 << trials, max(0, trials // 2 - 4 * isqrt(trials))
    while True:
        term = comb(trials, start)  # C(n, rank)
        skipped = -(-term * start // (trials - 2 * start + 1))  # >= sum of C(n, i), i < start
        rank, below = start, 0
        while 40 * (below + skipped + term) <= total:
            below += term
            rank += 1
            term = term * (trials - rank + 1) // rank
        if start == 0 or (rank > start and 40 * (below + term) > total):
            return rank
        start = 0


def _side_probe(family: LatticeFamily, side: int, trials: int, master_seed: int) -> ProbeRecord:
    """The median of one side's bottlenecks, with its interval, as probabilities."""
    seed = derive_seed(master_seed, "pc", family.key, side)
    # The bottlenecks read the window's edges and terminals, not its edge probability.
    window = family.crossing_window(0.5, side)
    ranked = np.sort(keyed_bottlenecks(window, seed, 0, trials))
    # b_(0) = 0 and b_(n+1) = 2^53 close the interval when no rank gives 95%.
    padded = [0, *ranked.tolist(), 1 << 53]
    rank = median_interval_rank(trials)
    lo, median, hi = (padded[index] * 2.0**-53 for index in (rank, (trials + 1) // 2, trials + 1 - rank))
    return ProbeRecord(side, median, (lo, hi), trials, seed)


def estimate_pc(family: LatticeFamily, settings: ThresholdSettings, master_seed: int) -> ThresholdEstimate:
    """The median of the largest side's per-trial bottlenecks, with its uncertainty.

    Side ``L`` draws its trials under the seed ``derive_seed(master_seed,
    "pc", key, L)``.  A trial crosses at ``p`` exactly when its bottleneck
    is below ``p``, so ``p_hat``, the ``ceil(n/2)``-th smallest top-side
    bottleneck, is where the crossing fraction reaches one-half.  The
    drift, the largest ``|median(top side) - median(side)|`` over the
    smaller sides, is 0 for a schedule of one side.
    """
    schedule = settings.l_schedule
    probes = [
        _side_probe(
            family, side, settings.coarse_trials if index == 0 and len(schedule) > 1 else settings.trials_per_probe,
            master_seed,
        )
        for index, side in enumerate(schedule)
    ]
    top = probes[-1]
    lo, hi = top.interval
    stat_term = max(top.median - lo, hi - top.median)
    drift = max((abs(top.median - probe.median) for probe in probes[:-1]), default=0.0)
    return ThresholdEstimate(
        family=family,
        p_hat=top.median,
        uncertainty=stat_term + drift,
        bracket=top.interval,
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
                if family.key in first_line:
                    raise ConfigError(f"family {family.key} already listed on line {first_line[family.key]}")
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
            first_line[family.key] = line
            self.rows[family.key] = row

    def save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", newline="") as handle:
            handle.write(
                "# threshold calibration: p_hat is the median of the top side's per-trial crossing"
                " bottlenecks, the bracket its 95% order-statistic interval and stat_term the"
                " interval's half-width; the uncertainty adds the largest drift of a smaller side's median\n"
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

    Acceptance is ``p_hat + uncertainty + margin < epsilon`` on a bracket no
    wider than ``settings.bracket_tol``, recorded as stated.  A candidate's
    shortfall is the larger of ``p_hat + uncertainty + margin - epsilon``
    and ``bracket width - bracket_tol``, so a failed candidate's is at least
    0.  Dimension 2 never qualifies (the planar threshold
    is one-half and epsilon cannot exceed one-half), so the scan starts at
    dimension 3.  Raises :class:`ParametersNotFound` with every candidate's
    shortfall when the budget is exhausted.
    """
    if not 0.0 < margin < epsilon:
        raise ConfigError(f"margin must lie strictly between 0 and epsilon, got {margin}")
    shortfalls: list[dict] = []
    for dimension in range(3, d_max + 1):
        for thickness in range(1, k_max + 1):
            family = LatticeFamily("slab", dimension, thickness)
            row = table.ensure(family, settings, master_seed)
            score = row.p_hat + row.uncertainty + margin
            width = row.bracket[1] - row.bracket[0]
            if score < epsilon and width <= settings.bracket_tol:
                return SlabParameters(dimension, thickness), row
            shortfalls.append(
                {
                    "family": family.key,
                    "p_hat": row.p_hat,
                    "uncertainty": row.uncertainty,
                    "required_below": epsilon - margin,
                    "bracket_width": width,
                    "shortfall": max(score - epsilon, width - settings.bracket_tol),
                }
            )
    best = min(shortfalls, key=lambda s: s["shortfall"]) if shortfalls else None
    raise ParametersNotFound(
        f"no slab within d <= {d_max}, K <= {k_max} reaches level {epsilon} with margin {margin}"
        + (f"; best was {best['family']} short by {best['shortfall']:.4f}" if best else ""),
        shortfalls,
    )
