"""Embedding of a thickened slab graph into the planar integer lattice.

Given edge lengths ``n_1 < ... < n_{d-1}`` in which each scale exceeds
``(K+1)`` times the previous one, the vertex set

    x = k * n_{d-1} + sum_i m_i * n_i   (m_i in 0..K-1),   y = m * n_1

together with axis-aligned edges whose horizontal length is one of the
``n_j`` (and vertical length ``n_1``) forms a graph isomorphic to the slab
``{0..K-1}^(d-2) x Z^2``.  The spacing bound makes the digit decomposition of
``x`` unique, so the coordinate map can be inverted greedily; a brute-force
window verifier checks the whole claim exhaustively instead of trusting the
arithmetic argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .sequences import ProbabilitySequence, scan_support

Point = tuple[int, int]


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


@dataclass(frozen=True)
class EdgeClass:
    orientation: str  # "horizontal" or "vertical"
    scale_index: int  # 1-based index into the scale vector
    length: int


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


def block_set(scales: ScaleVector, params: SlabParameters, level: int) -> frozenset[Point]:
    """Recursive block set at the given level: all digit sums over the first
    ``level`` scales, as points on the horizontal axis.

    Level 0 is the origin alone; level ``j`` has exactly ``thickness ** j``
    points (spacing guarantees the digit sums are distinct).
    """
    if not 0 <= level <= params.dimension - 2:
        raise ValueError(f"block level must lie in [0, {params.dimension - 2}], got {level}")
    points = frozenset(
        (sum(digit * scale for digit, scale in zip(digits, scales.scales)), 0)
        for digits in product(range(params.thickness), repeat=level)
    )
    assert len(points) == params.thickness**level
    return points


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
    def scale_set(self) -> frozenset[int]:
        return frozenset(self.scales.scales)

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

    def classify_edge(self, u: Point, v: Point) -> EdgeClass | None:
        """Edge class of the pair, or None.

        An edge needs both endpoints to be vertices and the displacement to
        be a single axis step by one of the scales (vertically, only the
        smallest).  The displacement test runs first: it is cheap and failing
        it already settles the answer.
        """
        dx = u[0] - v[0]
        dy = u[1] - v[1]
        scales = self.scales.scales
        if dy == 0:
            length = abs(dx)
            if length not in self.scale_set:
                return None
            proposed = EdgeClass("horizontal", self.scales.scales.index(length) + 1, length)
        elif dx == 0 and abs(dy) == scales[0]:
            proposed = EdgeClass("vertical", 1, scales[0])
        else:
            return None
        if self.decode(u) is None or self.decode(v) is None:
            return None
        return proposed

    def slab_adjacent(self, a: SlabCoord, b: SlabCoord) -> bool:
        """Product-graph adjacency: unit step in exactly one coordinate."""
        distance = abs(a.coarse - b.coarse) + abs(a.vertical - b.vertical)
        for da, db in zip(a.confined, b.confined):
            distance += abs(da - db)
            if distance > 1:
                return False
        return distance == 1

    def coord_neighbors(self, coord: SlabCoord) -> list[SlabCoord]:
        """All product-graph neighbors (confined steps stay inside the slab)."""
        neighbors = [
            SlabCoord(coord.confined, coord.coarse + 1, coord.vertical),
            SlabCoord(coord.confined, coord.coarse - 1, coord.vertical),
            SlabCoord(coord.confined, coord.coarse, coord.vertical + 1),
            SlabCoord(coord.confined, coord.coarse, coord.vertical - 1),
        ]
        for axis in range(self.params.confined_axes):
            for step in (1, -1):
                digit = coord.confined[axis] + step
                if 0 <= digit < self.params.thickness:
                    confined = coord.confined[:axis] + (digit,) + coord.confined[axis + 1 :]
                    neighbors.append(SlabCoord(confined, coord.coarse, coord.vertical))
        return neighbors

    def window_coords(self, coarse_bound: int, vertical_bound: int) -> list[SlabCoord]:
        """All coordinates with ``|coarse| <= coarse_bound``, ``|vertical| <= vertical_bound``."""
        return [
            SlabCoord(confined, coarse, vertical)
            for coarse in range(-coarse_bound, coarse_bound + 1)
            for vertical in range(-vertical_bound, vertical_bound + 1)
            for confined in product(range(self.params.thickness), repeat=self.params.confined_axes)
        ]


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

    Over every pair of coordinates in the window this confirms that (a) the
    coordinate map is injective, (b) product-graph adjacency holds exactly
    when the encoded points form an embedded edge, (c) distinct slab edges
    land on distinct lattice edges, and (d) every embedded edge uses one of
    the selected scales, the largest scale being attained.  When a sequence
    and level are supplied it also checks that each scale's probability
    reaches the level, both untruncated and truncated at the top scale.
    """
    if coarse_bound < 1 or vertical_bound < 1:
        raise ValueError("window bounds must be >= 1 so that every edge class occurs")
    report = EmbeddingReport(passed=False)
    coords = graph.window_coords(coarse_bound, vertical_bound)
    points = [graph.encode(c) for c in coords]
    report.vertex_count = len(coords)

    report.checks["injective"] = len(set(points)) == len(points)
    if not report.checks["injective"]:
        seen: dict[Point, SlabCoord] = {}
        for coord, point in zip(coords, points):
            if point in seen:
                report.counterexample = f"{seen[point]} and {coord} both map to {point}"
                break
            seen[point] = coord
        return report

    # Every unordered pair is compared.  The displacement test (axis-aligned,
    # length among the scales) is vectorized; it mirrors the cheap-reject
    # stage of classify_edge, whose outcome it therefore determines for every
    # non-candidate pair.  Candidate and disagreeing pairs go through the
    # real classify_edge, decoding included.
    coord_matrix = np.array([c.as_tuple() for c in coords], dtype=np.int64)
    point_matrix = np.array(points, dtype=np.int64)
    scale_array = np.array(graph.scales.scales, dtype=np.int64)
    smallest = graph.scales.scales[0]
    lattice_edges: set[frozenset[Point]] = set()
    slab_edge_count = 0
    max_length = 0
    adjacency_ok = True
    lengths_ok = True
    for i in range(len(coords) - 1):
        rest = slice(i + 1, None)
        adjacent = np.abs(coord_matrix[rest] - coord_matrix[i]).sum(axis=1) == 1
        dx = point_matrix[rest, 0] - point_matrix[i, 0]
        dy = point_matrix[rest, 1] - point_matrix[i, 1]
        displaced = ((dy == 0) & np.isin(np.abs(dx), scale_array)) | (
            (dx == 0) & (np.abs(dy) == smallest)
        )
        for offset in np.nonzero(adjacent | displaced)[0]:
            j = i + 1 + int(offset)
            edge = graph.classify_edge(points[i], points[j])
            if graph.slab_adjacent(coords[i], coords[j]) != (edge is not None):
                adjacency_ok = False
                report.counterexample = (
                    f"pair {coords[i]} / {coords[j]}: slab adjacency {bool(adjacent[offset])} "
                    f"but embedded edge {edge} between {points[i]} and {points[j]}"
                )
                break
            if edge is None:
                continue
            slab_edge_count += 1
            lattice_edges.add(frozenset((points[i], points[j])))
            max_length = max(max_length, edge.length)
            if edge.length not in graph.scale_set:
                lengths_ok = False
                report.counterexample = (
                    f"edge {points[i]}-{points[j]} has non-scale length {edge.length}"
                )
                break
        if report.counterexample:
            break
    report.checks["adjacency_equivalence"] = adjacency_ok
    report.checks["edge_lengths_are_scales"] = lengths_ok
    if report.counterexample:
        return report

    report.edge_count = slab_edge_count
    report.max_edge_length = max_length
    report.checks["distinct_lattice_edges"] = len(lattice_edges) == slab_edge_count
    if not report.checks["distinct_lattice_edges"]:
        report.counterexample = "two slab edges share a lattice edge"
        return report
    report.checks["top_scale_attained"] = max_length == graph.max_edge_length
    if not report.checks["top_scale_attained"]:
        report.counterexample = (
            f"largest embedded edge length {max_length} != top scale {graph.max_edge_length}"
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
