"""Edge-probability sequences by length, their truncations, and support scans.

A sequence assigns an open probability ``p(n)`` to every positive edge length
``n``.  Truncating at level ``N`` zeroes the probability of every length
beyond ``N`` while leaving shorter lengths untouched; the result is again a
sequence, so truncation composes (the effective level is the minimum).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path


def _check_probability(value: float, what: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class ProbabilitySequence:
    """Immutable probability-by-length rule.

    Kinds:

    * ``constant`` -- ``p(n) = value`` for every length.
    * ``power_law`` -- ``p(n) = min(1, amplitude * n ** -exponent)``.
    * ``lacunary`` -- ``value`` on a sparse support (geometric powers of
      ``base``, or an explicit sorted tuple), ``background`` elsewhere.
    * ``table`` -- explicit values for ``n = 1 .. len(table)``, ``tail``
      beyond.

    ``truncation`` caps the support: lengths above it evaluate to 0.
    """

    kind: str
    value: float = 0.0
    amplitude: float = 1.0
    exponent: float = 1.0
    base: int | None = None
    support: tuple[int, ...] | None = None
    background: float = 0.0
    table: tuple[float, ...] = ()
    tail: float = 0.0
    truncation: int | None = None

    @staticmethod
    def constant(value: float) -> "ProbabilitySequence":
        return ProbabilitySequence(kind="constant", value=_check_probability(value, "value"))

    @staticmethod
    def power_law(amplitude: float, exponent: float) -> "ProbabilitySequence":
        # Written as "not (...)" so that a NaN, which min(1, ...) would read as 1, is refused too.
        if not amplitude >= 0:
            raise ValueError(f"amplitude must be nonnegative, got {amplitude}")
        if not exponent >= 0:
            raise ValueError(f"exponent must be nonnegative (probabilities may not grow), got {exponent}")
        return ProbabilitySequence(kind="power_law", amplitude=float(amplitude), exponent=float(exponent))

    @staticmethod
    def lacunary(
        value: float,
        base: int | None = None,
        support: tuple[int, ...] | None = None,
        background: float = 0.0,
    ) -> "ProbabilitySequence":
        if (base is None) == (support is None):
            raise ValueError("lacunary sequences take exactly one of base= or support=")
        if base is not None and base < 2:
            raise ValueError("geometric support base must be >= 2")
        if support is not None:
            support = tuple(sorted(set(int(s) for s in support)))
            if not support or support[0] < 1:
                raise ValueError("explicit support must be a nonempty set of positive lengths")
        return ProbabilitySequence(
            kind="lacunary",
            value=_check_probability(value, "value"),
            base=base,
            support=support,
            background=_check_probability(background, "background"),
        )

    @staticmethod
    def from_table(values, tail: float = 0.0) -> "ProbabilitySequence":
        table = tuple(_check_probability(v, "table entry") for v in values)
        return ProbabilitySequence(kind="table", table=table, tail=_check_probability(tail, "tail"))

    @staticmethod
    def from_table_file(path: str | Path, tail: float = 0.0) -> "ProbabilitySequence":
        """Read a two-column text file of ``n p`` rows covering n = 1..max.

        A malformed row, a length below 1 or listed twice, or a probability
        outside [0, 1] raises ``ValueError`` naming ``path:line``.
        """
        rows: dict[int, float] = {}
        for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            try:
                if len(fields) != 2:
                    raise ValueError(f"expected 'n p', got {line!r}")
                length = int(fields[0])
                if length < 1:
                    raise ValueError(f"length {length} is below 1")
                if length in rows:
                    raise ValueError(f"length {length} is listed twice")
                rows[length] = _check_probability(fields[1], "probability")
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
        if not rows:
            raise ValueError(f"{path}: no data rows")
        top = max(rows)
        if len(rows) != top:
            # Lengths are distinct and at least 1, so a short count means a gap;
            # the message names the first five, found without listing the rest.
            missing = list(itertools.islice((n for n in range(1, top + 1) if n not in rows), 5))
            raise ValueError(f"{path}: table must cover 1..{top} contiguously, missing {missing}")
        return ProbabilitySequence.from_table([rows[n] for n in range(1, top + 1)], tail=tail)

    @cached_property
    def _support_set(self) -> frozenset[int]:
        return frozenset(self.support) if self.support is not None else frozenset()

    def _on_support(self, length: int) -> bool:
        if self.base is not None:
            while length % self.base == 0:
                length //= self.base
            return length == 1
        return length in self._support_set

    def probability(self, length: int) -> float:
        """Open probability of an edge of the given length."""
        if length < 1:
            raise ValueError(f"edge length must be a positive integer, got {length}")
        if self.truncation is not None and length > self.truncation:
            return 0.0
        if self.kind == "constant":
            return self.value
        if self.kind == "power_law":
            return min(1.0, self.amplitude * float(length) ** -self.exponent)
        if self.kind == "lacunary":
            return self.value if self._on_support(length) else self.background
        if self.kind == "table":
            return self.table[length - 1] if length <= len(self.table) else self.tail
        raise ValueError(f"unknown sequence kind {self.kind!r}")

    def truncate(self, level: int) -> "ProbabilitySequence":
        """Zero all lengths beyond ``level``; composing keeps the minimum level."""
        level = int(level)
        if level < 1:
            raise ValueError(f"truncation level must be >= 1, got {level}")
        if self.truncation is not None:
            level = min(level, self.truncation)
        return replace(self, truncation=level)

    def supported_lengths(self, max_length: int) -> list[int]:
        """Lengths up to ``max_length`` with strictly positive probability.

        Found by :func:`scan_support` jumps, so a sparse support costs its
        size, not ``max_length`` evaluations; 5e-324, the least positive
        float, makes its ``>=`` exactly ``> 0``.
        """
        lengths: list[int] = []
        low = 0
        while low < max_length:
            low = scan_support(self, 5e-324, low, max_length)
            if low is None:
                break
            lengths.append(low)
        return lengths

    def describe(self) -> str:
        if self.kind == "constant":
            body = f"constant({self.value})"
        elif self.kind == "power_law":
            body = f"power_law(a={self.amplitude}, s={self.exponent})"
        elif self.kind == "lacunary":
            where = f"base={self.base}" if self.base is not None else f"support={list(self.support or ())}"
            body = f"lacunary(v={self.value}, {where}, bg={self.background})"
        else:
            body = f"table(len={len(self.table)}, tail={self.tail})"
        if self.truncation is not None:
            body += f"@N={self.truncation}"
        return body


def _next_geometric(base: int, low: int) -> int:
    power = 1
    while power <= low:
        power *= base
    return power


def scan_support(seq: ProbabilitySequence, threshold: float, low: int, high: int) -> int | None:
    """Smallest length in ``(low, high]`` with ``p(length) >= threshold``, else None.

    Uses the closed form of each sequence kind to skip barren stretches; the
    result is identical to a term-by-term linear scan (the test suite checks
    this against one).  Comparisons are exact floating-point ``>=``.
    """
    if low < 0:
        raise ValueError("low must be nonnegative")
    if high <= low:
        raise ValueError("scan range must satisfy low < high")
    cap = high if seq.truncation is None else min(high, seq.truncation)
    if cap <= low:
        return None

    candidate: int | None = None
    if seq.kind == "constant":
        candidate = low + 1 if seq.value >= threshold else None
    elif seq.kind == "power_law":
        # Nonincreasing in length, so only the first length can qualify.
        candidate = low + 1 if seq.probability(low + 1) >= threshold else None
    elif seq.kind == "lacunary":
        options: list[int] = []
        if seq.value >= threshold:
            if seq.base is not None:
                options.append(_next_geometric(seq.base, low))
            elif seq.support:
                pos = bisect.bisect_right(seq.support, low)
                if pos < len(seq.support):
                    options.append(seq.support[pos])
        if seq.background >= threshold:
            # Walk past any on-support run whose value misses the threshold.
            probe = low + 1
            while probe <= cap and seq._on_support(probe) and seq.value < threshold:
                probe += 1
            if probe <= cap:
                options.append(probe)
        qualifying = [n for n in options if n <= cap]
        candidate = min(qualifying) if qualifying else None
    elif seq.kind == "table":
        for length in range(low + 1, min(len(seq.table), cap) + 1):
            if seq.table[length - 1] >= threshold:
                candidate = length
                break
        else:
            if seq.tail >= threshold and cap > max(low, len(seq.table)):
                candidate = max(low, len(seq.table)) + 1
    else:
        raise ValueError(f"unknown sequence kind {seq.kind!r}")

    if candidate is not None and not (low < candidate <= cap and seq.probability(candidate) >= threshold):
        raise AssertionError(f"support scan produced an invalid witness {candidate} for {seq.describe()}")
    return candidate


@dataclass(frozen=True)
class EpsilonCertificate:
    """Declared lower level reached by infinitely many lengths.

    The level is configuration, not something inferred from the sequence: a
    black-box rule cannot reveal its asymptotics in finite time.  Every
    downstream search therefore carries a finite bound and a distinguishable
    "not witnessed within bound" failure.
    """

    epsilon: float
    evidence: str = field(default="declared by configuration")

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 0.5:
            # The bond threshold of Z^2 is 1/2 (Kesten 1980).
            raise ValueError(
                f"epsilon must lie in (0, 1/2] (got {self.epsilon}); a level above 1/2 is settled by one"
                " length alone, whose edges form copies of Z^2 above their threshold 1/2"
            )
