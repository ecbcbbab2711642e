"""Embedding of a thickened slab graph into the planar integer lattice.

Given edge lengths ``n_1 < ... < n_{d-1}`` in which each scale exceeds
``(K+1)`` times the previous one, the vertex set

    x = k * n_{d-1} + sum_i m_i * n_i   (m_i in 0..K-1),   y = m * n_1

together with axis-aligned edges whose horizontal length is one of the
``n_j`` (and vertical length ``n_1``) forms a graph isomorphic to the slab
``{0..K-1}^(d-2) x Z^2``.  The spacing bound makes the digit decomposition of
``x`` unique, so the coordinate map can be inverted greedily.

One method, :meth:`EmbeddedGraph.edges_among`, says which image points are
joined.  The certification window is built from it, and the window verifier
checks, by exact lookup of integer rows, that its edges are exactly the slab's
unit steps instead of trusting the arithmetic argument.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .sequences import ProbabilitySequence, scan_support

Point = tuple[int, int]


def _row_codes(columns: Sequence[np.ndarray], low: list[int], spans: list[int]) -> np.ndarray:
    """Exact mixed-radix int64 code of each integer row, given its columns and their ranges.
    The steps run in place and may wrap, but each code lies below 2^63, so it comes out exact."""
    codes = np.zeros(len(columns[0]), dtype=np.int64)
    for column, least, span in zip(columns, low, spans):
        codes *= span
        codes += column
        codes -= least
    return codes


# Table rows coded and sorted at a time by _row_lookup: a chunk's codes and sort
# order take 0.4 MB, where all of a large full window's vertices or edges take MBs.
_LOOKUP_CHUNK = 1 << 14


def _row_lookup(table: Sequence[np.ndarray], queries: Sequence[np.ndarray]) -> np.ndarray:
    """Index of the first row of ``table`` equal to each query row, or -1 where none is.

    ``table`` and ``queries`` are sequences of as many integer columns (pass
    ``array.T`` for the rows of a 2-D array).  Rows are compared exactly by
    their mixed-radix codes; the table is coded, sorted and searched one
    ``_LOOKUP_CHUNK`` of rows at a time, in row order.
    """
    n_rows, found = len(table[0]), np.full(len(queries[0]), -1, dtype=np.int64)
    if n_rows == 0 or found.size == 0:
        return found
    low = [min(int(c.min()), int(q.min())) for c, q in zip(table, queries)]
    spans = [max(int(c.max()), int(q.max())) - least + 1 for c, q, least in zip(table, queries, low)]
    if math.prod(spans) >= 2**63:
        raise ValueError("coordinate range too wide for exact 64-bit row codes")
    query_codes = _row_codes(queries, low, spans)
    for start in range(0, n_rows, _LOOKUP_CHUNK):
        codes = _row_codes([column[start:start + _LOOKUP_CHUNK] for column in table], low, spans)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]  # drops the unsorted codes
        slot = np.searchsorted(codes, query_codes)
        np.minimum(slot, codes.size - 1, out=slot)
        hit = codes[slot] == query_codes
        hit &= found < 0
        found[hit] = start + order[slot[hit]]
    return found


class HypothesisNotWitnessed(Exception):
    """A scale-recursion step found no qualifying length within its bound.

    Either the declared level is not actually attained infinitely often, or
    the search bound is too small; the step index says where the recursion
    stalled.
    """

    def __init__(self, step: int, lower: int, search_limit: int):
        self.step = step
        self.lower = lower
        self.search_limit = search_limit
        super().__init__(
            f"scale step {step}: no length in ({lower}, {search_limit}] reaches the declared level"
        )


@dataclass(frozen=True)
class SlabParameters:
    """Ambient dimension and slab thickness of the target product graph."""

    dimension: int
    thickness: int

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if self.thickness < 1:
            raise ValueError("thickness must be >= 1")

    @property
    def confined_axes(self) -> int:
        return self.dimension - 2


@dataclass(frozen=True)
class ScaleVector:
    """Selected edge lengths, one per graph axis beyond the first.

    Spacing ``n_j > (thickness + 1) * n_{j-1}`` (with ``n_0 = 0``) is required
    at construction; it implies the unique-decomposition bound
    ``(thickness - 1) * (n_1 + ... + n_{j-1}) < n_j``, which is asserted too.
    """

    scales: tuple[int, ...]
    thickness: int

    def __post_init__(self) -> None:
        if not self.scales:
            raise ValueError("at least one scale is required")
        if any(int(n) != n or n < 1 for n in self.scales):
            raise ValueError("scales must be positive integers")
        previous = 0
        running_sum = 0
        for index, scale in enumerate(self.scales, start=1):
            if scale <= (self.thickness + 1) * previous:
                raise ValueError(
                    f"scale {index} = {scale} violates spacing: must exceed "
                    f"{self.thickness + 1} * {previous}"
                )
            if (self.thickness - 1) * running_sum >= scale:
                raise AssertionError("spacing held but the decomposition bound failed")
            running_sum += scale
            previous = scale

    def __len__(self) -> int:
        return len(self.scales)

    @property
    def top(self) -> int:
        """The largest scale; truncating at this level keeps every embedded edge."""
        return self.scales[-1]


@dataclass(frozen=True)
class SlabCoord:
    """Product-graph coordinate: confined digits, coarse column, and row."""

    confined: tuple[int, ...]
    coarse: int
    vertical: int

    def as_tuple(self) -> tuple[int, ...]:
        return self.confined + (self.coarse, self.vertical)


def select_scales(
    seq: ProbabilitySequence,
    epsilon: float,
    params: SlabParameters,
    search_limit: int,
) -> ScaleVector:
    """Run the scale recursion: each step takes the minimal qualifying length.

    Step ``j`` searches for the smallest length above ``(thickness + 1)``
    times the previous scale whose probability reaches ``epsilon``.  Raises
    :class:`HypothesisNotWitnessed` (with the failing step) when a step's
    search window is exhausted.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if search_limit < 1:
        raise ValueError("search_limit must be positive")
    scales: list[int] = []
    previous = 0
    for step in range(1, params.dimension):
        lower = (params.thickness + 1) * previous
        if lower >= search_limit:
            raise HypothesisNotWitnessed(step, lower, search_limit)
        found = scan_support(seq, epsilon, lower, search_limit)
        if found is None:
            raise HypothesisNotWitnessed(step, lower, search_limit)
        scales.append(found)
        previous = found
    return ScaleVector(tuple(scales), params.thickness)


@dataclass(frozen=True)
class EmbeddedGraph:
    """The embedded vertex/edge structure plus its coordinate maps."""

    params: SlabParameters
    scales: ScaleVector

    def __post_init__(self) -> None:
        if len(self.scales) != self.params.dimension - 1:
            raise ValueError(
                f"need {self.params.dimension - 1} scales for dimension "
                f"{self.params.dimension}, got {len(self.scales)}"
            )
        if self.scales.thickness != self.params.thickness:
            raise ValueError(
                f"scale vector was validated against thickness {self.scales.thickness}, "
                f"not the slab's thickness {self.params.thickness}"
            )

    @property
    def max_edge_length(self) -> int:
        return self.scales.top

    def encode(self, coord: SlabCoord) -> Point:
        """Coordinate map into the lattice; confined digits must be in range."""
        if len(coord.confined) != self.params.confined_axes:
            raise ValueError(
                f"expected {self.params.confined_axes} confined digits, got {len(coord.confined)}"
            )
        for digit in coord.confined:
            if not 0 <= digit < self.params.thickness:
                raise ValueError(f"confined digit {digit} outside [0, {self.params.thickness - 1}]")
        scales = self.scales.scales
        x = coord.coarse * scales[-1]
        for digit, scale in zip(coord.confined, scales):
            x += digit * scale
        return (x, coord.vertical * scales[0])

    def encode_array(self, coords: np.ndarray) -> np.ndarray:
        """:meth:`encode` over integer rows laid out as :meth:`SlabCoord.as_tuple`
        (confined digits, coarse column, row); returns ``(n, 2)`` int64 points."""
        coords = np.asarray(coords, dtype=np.int64)
        confined_axes = self.params.confined_axes
        if coords.ndim != 2 or coords.shape[1] != confined_axes + 2:
            raise ValueError(
                f"expected rows of {confined_axes + 2} coordinates, got shape {coords.shape}"
            )
        confined = coords[:, :confined_axes]
        if ((confined < 0) | (confined >= self.params.thickness)).any():
            raise ValueError(f"confined digit outside [0, {self.params.thickness - 1}]")
        scales = np.array(self.scales.scales, dtype=np.int64)
        x = coords[:, -2] * scales[-1] + confined @ scales[:confined_axes]
        return np.stack([x, coords[:, -1] * scales[0]], axis=1)

    def decode(self, point: Point) -> SlabCoord | None:
        """Greedy inverse of :meth:`encode`; None when the point is not a vertex.

        Uniqueness of the digit decomposition follows from the spacing bound,
        so taking the largest-scale digit first either reconstructs the
        coordinate or proves there is none (digit out of range, or a nonzero
        residue).
        """
        scales = self.scales.scales
        x, y = point
        if y % scales[0] != 0:
            return None
        vertical = y // scales[0]
        coarse = x // scales[-1]
        residue = x - coarse * scales[-1]
        digits: list[int] = []
        for axis in range(self.params.confined_axes - 1, -1, -1):
            digit, residue = divmod(residue, scales[axis])
            if digit >= self.params.thickness:
                return None
            digits.append(digit)
        if residue != 0:
            return None
        digits.reverse()
        return SlabCoord(tuple(digits), coarse, vertical)

    def edges_among(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The embedded edges among ``(n, 2)`` distinct image points.

        Each point is joined to the point one scale to its right, and to the
        point ``n_1`` above, when that point is among ``points`` too.  Returns
        ``(edges_u, edges_v, lengths)``: indices into ``points`` and each
        edge's length.  Edges come point by point, per point the scales in
        order and then the vertical step.
        """
        points = np.asarray(points, dtype=np.int64)
        scales = self.scales.scales
        lengths = np.array(scales + scales[:1], dtype=np.int64)
        offsets = np.array([(n, 0) for n in scales] + [(0, scales[0])], dtype=np.int64)
        targets = _row_lookup(points.T, (points[:, None, :] + offsets).reshape(-1, 2).T)
        targets = targets.reshape(points.shape[0], offsets.shape[0])
        edges_u, slot = np.nonzero(targets >= 0)
        return edges_u, targets[edges_u, slot], lengths[slot]


@dataclass
class EmbeddingReport:
    """Outcome of the exhaustive window check of the coordinate isomorphism."""

    passed: bool
    checks: dict[str, bool] = field(default_factory=dict)
    counterexample: str | None = None
    vertex_count: int = 0
    edge_count: int = 0
    max_edge_length: int | None = None
    min_edge_probability: float | None = None


def verify_isomorphism(
    graph: EmbeddedGraph,
    coarse_bound: int,
    vertical_bound: int,
    seq: ProbabilitySequence | None = None,
    epsilon: float | None = None,
) -> EmbeddingReport:
    """Exhaustively compare the embedded window with the slab product graph.

    The window is every slab coordinate with ``|coarse| <= coarse_bound`` and
    ``|vertical| <= vertical_bound``.  This confirms that (a) its image under
    :meth:`EmbeddedGraph.encode_array` is injective, (b) the edges
    :meth:`EmbeddedGraph.edges_among` finds among the image points, which are
    the edges :func:`trunclab.windows.embedded_radial_window` is built from,
    are exactly the slab's unit steps, found independently by looking up
    ``coord + e_axis`` for every axis, (c) no lattice edge is listed twice, and
    (d) every embedded edge spans one of the selected scales, the largest
    being attained.  Every pair of vertices is decided: a pair in neither edge
    set is a non-edge on both sides.  When a sequence and level are supplied
    it also checks that each scale's probability reaches the level, both
    untruncated and truncated at the top scale.
    """
    if coarse_bound < 1 or vertical_bound < 1:
        raise ValueError("window bounds must be >= 1 so that every edge class occurs")
    report = EmbeddingReport(passed=False)
    shape = (2 * coarse_bound + 1, 2 * vertical_bound + 1)
    shape += (graph.params.thickness,) * graph.params.confined_axes
    grid = np.indices(shape).reshape(len(shape), -1).T
    grid[:, :2] -= (coarse_bound, vertical_bound)
    coords = np.roll(grid, -2, axis=1)  # rows laid out as SlabCoord.as_tuple
    points = graph.encode_array(coords)
    report.vertex_count = coords.shape[0]

    def coord(i: int) -> SlabCoord:
        row = [int(value) for value in coords[i]]
        return SlabCoord(tuple(row[:-2]), row[-2], row[-1])

    def point(i: int) -> Point:
        return (int(points[i, 0]), int(points[i, 1]))

    def pairs(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)

    first = _row_lookup(points.T, points.T)
    repeats = np.flatnonzero(first != np.arange(report.vertex_count))
    report.checks["injective"] = repeats.size == 0
    if repeats.size:
        later = int(repeats[0])
        report.counterexample = f"{coord(int(first[later]))} and {coord(later)} both map to {point(later)}"
        return report

    axes = coords.shape[1]
    steps = _row_lookup(coords.T, (coords[:, None, :] + np.eye(axes, dtype=np.int64)).reshape(-1, axes).T)
    found = np.flatnonzero(steps >= 0)
    slab = pairs(found // axes, steps[found])
    edges_u, edges_v, lengths = graph.edges_among(points)
    embedded = pairs(edges_u, edges_v)
    slab_only = slab[_row_lookup(embedded.T, slab.T) < 0].tolist()
    embedded_only = embedded[_row_lookup(slab.T, embedded.T) < 0].tolist()
    spans = np.abs(points[edges_v] - points[edges_u]).sum(axis=1)
    scale_length = (lengths[:, None] == np.array(graph.scales.scales)).any(axis=1)
    off_scale = np.flatnonzero((spans != lengths) | ~scale_length)
    report.checks["adjacency_equivalence"] = not (slab_only or embedded_only)
    report.checks["edge_lengths_are_scales"] = off_scale.size == 0
    if slab_only or embedded_only:
        i, j = min(slab_only + embedded_only)
        adjacent = [i, j] in slab_only
        report.counterexample = (
            f"pair {coord(i)} / {coord(j)}: slab adjacency {adjacent} "
            f"but embedded edge {not adjacent} between {point(i)} and {point(j)}"
        )
        return report
    if off_scale.size:
        e = int(off_scale[0])
        report.counterexample = (
            f"edge {point(edges_u[e])}-{point(edges_v[e])} spans {spans[e]} "
            f"but has length {lengths[e]}, scales {list(graph.scales.scales)}"
        )
        return report

    report.edge_count = len(slab)
    report.max_edge_length = int(lengths.max())
    report.checks["distinct_lattice_edges"] = edges_u.size == report.edge_count
    if not report.checks["distinct_lattice_edges"]:
        report.counterexample = "two embedded edges share a lattice edge"
        return report
    report.checks["top_scale_attained"] = report.max_edge_length == graph.max_edge_length
    if not report.checks["top_scale_attained"]:
        report.counterexample = (
            f"largest embedded edge length {report.max_edge_length} != top scale {graph.max_edge_length}"
        )
        return report

    if seq is not None and epsilon is not None:
        truncated = seq.truncate(graph.scales.top)
        probabilities = [seq.probability(n) for n in graph.scales.scales]
        probabilities += [truncated.probability(n) for n in graph.scales.scales]
        report.min_edge_probability = min(probabilities)
        report.checks["edge_probabilities_reach_level"] = report.min_edge_probability >= epsilon
        if not report.checks["edge_probabilities_reach_level"]:
            report.counterexample = (
                f"minimum scale probability {report.min_edge_probability} below level {epsilon}"
            )
            return report

    report.passed = all(report.checks.values())
    return report
