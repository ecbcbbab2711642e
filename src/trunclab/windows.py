"""Finite graph windows with enumerable, deterministically ordered edge lists.

Every builder lists vertices in lexicographic coordinate order and, per
vertex, edges toward lexicographically larger endpoints in a fixed offset
order.  Identical inputs therefore always produce identical edge orderings,
which is what ties the per-edge random streams down.  Builders work by index
arithmetic on numpy arrays: in a box window a vertex index is the row-major
rank of its coordinates, and the embedded window finds edge endpoints with an
exact sorted lookup of coordinate rows.

Edges carrying probability zero are omitted: they can never open, and for
heavy-tailed sequences they would dominate the edge list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .embedding import EmbeddedGraph
from .rng import coordinate_edge_keys
from .sequences import ProbabilitySequence


class ConfigError(Exception):
    """Inconsistent window or experiment specification."""


@dataclass
class GraphWindow:
    """A finite graph with per-edge open probabilities.

    ``terminals`` names the vertex sets events refer to: crossing windows
    carry ``left``/``right``, radial windows carry ``origin``/``boundary``.
    ``edge_keys`` are coordinate-derived 64-bit identifiers used by the keyed
    (shared-uniform) sampling mode; they exist for planar families only.
    """

    family: str
    coords: np.ndarray  # (n_vertices, dim) int64
    edges_u: np.ndarray  # (n_edges,) int32
    edges_v: np.ndarray  # (n_edges,) int32
    probs: np.ndarray  # (n_edges,) float64
    lengths: np.ndarray  # (n_edges,) int32 lattice length of each edge
    terminals: dict[str, np.ndarray] = field(default_factory=dict)
    origin_index: int | None = None
    edge_keys: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return int(self.coords.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edges_u.shape[0])

    def edge_endpoint_coords(self) -> tuple[np.ndarray, np.ndarray]:
        return self.coords[self.edges_u], self.coords[self.edges_v]

    def edge_pairs(self) -> Iterator[tuple[tuple, tuple, float]]:
        for u, v, p in zip(self.edges_u, self.edges_v, self.probs):
            yield tuple(self.coords[u]), tuple(self.coords[v]), float(p)

    @cached_property
    def edge_rows(self) -> tuple[np.ndarray | None, np.ndarray]:
        """The edge list grouped by first endpoint, computed once per window.

        Returns ``(order, starts)``: ``order`` stably sorts the edges by
        ``edges_u`` (None when ``edges_u`` is already nondecreasing, as every
        builder leaves it), and ``starts[i]`` is the position in that order of
        vertex ``i``'s first edge.  The edge arrays must not be changed after
        the first read.
        """
        edges_u = self.edges_u
        order = None
        if np.any(edges_u[1:] < edges_u[:-1]):
            order = np.argsort(edges_u, kind="stable")
            edges_u = edges_u[order]
        return order, np.searchsorted(edges_u, np.arange(self.n_vertices, dtype=edges_u.dtype))

    def describe(self) -> str:
        parts = [f"{key}={value}" for key, value in sorted(self.meta.items())]
        return f"{self.family}({', '.join(parts)})"


def _row_codes(rows: np.ndarray, low: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """Exact mixed-radix int64 code of each integer row, given per-column ranges."""
    codes = np.zeros(rows.shape[0], dtype=np.int64)
    for column in range(rows.shape[1]):
        codes = codes * spans[column] + (rows[:, column] - low[column])
    return codes


def _row_lookup(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of each query row among the rows of ``table``, or -1 where absent.

    Both are integer arrays with the same number of columns; rows are compared
    exactly, through sorted mixed-radix codes.
    """
    if table.shape[0] == 0 or queries.shape[0] == 0:
        return np.full(queries.shape[0], -1, dtype=np.int64)
    low = np.minimum(table.min(axis=0), queries.min(axis=0))
    spans = np.maximum(table.max(axis=0), queries.max(axis=0)) - low + 1
    if np.prod(spans.astype(object)) >= 2**63:
        raise ValueError("coordinate range too wide for exact 64-bit row codes")
    table_codes = _row_codes(table, low, spans)
    order = np.argsort(table_codes, kind="stable")
    ranked = table_codes[order]
    query_codes = _row_codes(queries, low, spans)
    slot = np.minimum(np.searchsorted(ranked, query_codes), ranked.shape[0] - 1)
    return np.where(ranked[slot] == query_codes, order[slot], -1)


Edges = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _finish(
    family: str,
    coords: np.ndarray,
    edges: Edges,
    terminals: dict[str, np.ndarray],
    origin_index: int | None,
    meta: dict,
    with_keys: bool,
) -> GraphWindow:
    edges_u, edges_v, probs, lengths = edges
    window = GraphWindow(
        family=family,
        coords=coords,
        edges_u=edges_u.astype(np.int32),
        edges_v=edges_v.astype(np.int32),
        probs=probs.astype(np.float64),
        lengths=lengths.astype(np.int32),
        terminals={name: np.asarray(idx, dtype=np.int64) for name, idx in terminals.items()},
        origin_index=origin_index,
        meta=meta,
    )
    if with_keys:
        window.edge_keys = coordinate_edge_keys(coords[edges_u], coords[edges_v])
    return window


def _box_coords(ranges: list[range]) -> np.ndarray:
    """Every point of the box ``ranges[0] x ranges[1] x ...``, lexicographically ordered."""
    axes = [np.arange(r.start, r.stop, dtype=np.int64) for r in ranges]
    return np.stack([grid.ravel() for grid in np.meshgrid(*axes, indexing="ij")], axis=1)


def _box_edges(shape: tuple[int, ...], steps: list[list[tuple[int, float]]]) -> Edges:
    """Axis-parallel edges of a box with ``shape[a]`` points along axis ``a``.

    ``steps[a]`` lists the ``(length, probability)`` steps along axis ``a``.
    A vertex index is the row-major rank of the vertex in the box, so a step
    of length ``n`` along axis ``a`` adds ``n`` times that axis's stride, and
    the edge exists iff the coordinate stays inside the box.  Edges come
    vertex by vertex, and per vertex axis by axis in the order of ``steps``,
    which is the edge order the module docstring promises.
    """
    position = np.indices(shape).reshape(len(shape), -1)
    strides = np.cumprod((1,) + tuple(shape[:0:-1]))[::-1]
    slot_axis = np.array([a for a, axis_steps in enumerate(steps) for _ in axis_steps], dtype=np.intp)
    lengths = np.array([n for axis_steps in steps for n, _ in axis_steps], dtype=np.int64)
    probs = np.array([p for axis_steps in steps for _, p in axis_steps], dtype=np.float64)
    inside = position[slot_axis].T + lengths < np.asarray(shape)[slot_axis]
    edges_u, slot = np.nonzero(inside)
    edges_v = edges_u + lengths[slot] * strides[slot_axis[slot]]
    return edges_u, edges_v, probs[slot], lengths[slot]


def _long_range_window(
    seq: ProbabilitySequence,
    x_range: range,
    y_range: range,
    max_span: int,
) -> tuple[np.ndarray, Edges]:
    """Coordinates and long-range edges of the planar box ``x_range x y_range``."""
    cap = max_span if seq.truncation is None else min(seq.truncation, max_span)
    steps = [(n, seq.probability(n)) for n in seq.supported_lengths(cap)]
    coords = _box_coords([x_range, y_range])
    return coords, _box_edges((len(x_range), len(y_range)), [steps, steps])


def _origin(coords: np.ndarray) -> int | None:
    """Index of the all-zero point among ``coords``, or None."""
    hits = np.flatnonzero(~coords.any(axis=1))
    return int(hits[0]) if hits.size else None


def long_range_box_window(
    seq: ProbabilitySequence,
    x_extent: tuple[int, int],
    y_extent: tuple[int, int],
) -> GraphWindow:
    """Plain planar long-range box with inclusive extents and no terminals.

    Useful for pair-connectivity events and as raw material for randomized
    oracle windows; crossing and radial windows wrap the same edge rule with
    terminal sets attached.
    """
    (x_lo, x_hi), (y_lo, y_hi) = x_extent, y_extent
    if x_hi < x_lo or y_hi < y_lo:
        raise ConfigError("box extents must be nonempty")
    span = max(x_hi - x_lo, y_hi - y_lo, 1)
    coords, edges = _long_range_window(seq, range(x_lo, x_hi + 1), range(y_lo, y_hi + 1), span)
    meta = {"x": list(x_extent), "y": list(y_extent), "seq": seq.describe()}
    return _finish("z2-long-range", coords, edges, {}, None, meta, with_keys=True)


def long_range_crossing_window(seq: ProbabilitySequence, side: int) -> GraphWindow:
    """Planar long-range rectangle ``{0..side+1} x {0..side}`` for sponge crossings.

    The crossing event joins the ``x = 0`` column to the ``x = side + 1``
    column; at open probability one-half with nearest-neighbor edges the
    crossing probability is exactly one-half, which calibrates estimators.
    """
    if side < 1:
        raise ConfigError("crossing window needs side >= 1")
    coords, edges = _long_range_window(seq, range(side + 2), range(side + 1), side + 1)
    terminals = {
        "left": np.flatnonzero(coords[:, 0] == 0),
        "right": np.flatnonzero(coords[:, 0] == side + 1),
    }
    meta = {"L": side, "seq": seq.describe()}
    return _finish("z2-long-range", coords, edges, terminals, None, meta, with_keys=True)


def long_range_radial_window(seq: ProbabilitySequence, radius: int) -> GraphWindow:
    """Planar long-range box ``[-radius, radius]^2`` around the origin.

    The boundary terminal is the box rim (sup-norm exactly ``radius``); the
    origin-to-boundary event is the finite-volume stand-in for reaching
    infinity.
    """
    if radius < 1:
        raise ConfigError("radial window needs radius >= 1")
    span = range(-radius, radius + 1)
    coords, edges = _long_range_window(seq, span, span, 2 * radius)
    origin = _origin(coords)
    terminals = {
        "origin": [origin],
        "boundary": np.flatnonzero(np.abs(coords).max(axis=1) == radius),
    }
    meta = {"radius": radius, "seq": seq.describe()}
    return _finish("z2-long-range", coords, edges, terminals, origin, meta, with_keys=True)


def grid_crossing_window(dimension: int, p: float, side: int) -> GraphWindow:
    """Nearest-neighbor box in ``dimension`` axes, ``{0..side+1} x {0..side}^(d-1)``."""
    if dimension < 2:
        raise ConfigError("grid family needs dimension >= 2")
    if side < 1:
        raise ConfigError("crossing window needs side >= 1")
    ranges = [range(side + 2)] + [range(side + 1)] * (dimension - 1)
    return _axis_box_window(
        family=f"z{dimension}",
        ranges=ranges,
        p=p,
        crossing_axis=0,
        meta={"d": dimension, "p": p, "L": side},
    )


def slab_crossing_window(dimension: int, thickness: int, p: float, side: int) -> GraphWindow:
    """Slab box: two infinite axes at crossing aspect, confined axes at full thickness."""
    if dimension < 2:
        raise ConfigError("slab family needs dimension >= 2")
    if thickness < 1:
        raise ConfigError("slab thickness must be >= 1")
    if side < 1:
        raise ConfigError("crossing window needs side >= 1")
    ranges = [range(side + 2), range(side + 1)] + [range(thickness)] * (dimension - 2)
    return _axis_box_window(
        family=f"slab-d{dimension}-k{thickness}",
        ranges=ranges,
        p=p,
        crossing_axis=0,
        meta={"d": dimension, "K": thickness, "p": p, "L": side},
    )


def _nearest_neighbor_box(ranges: list[range], p: float) -> tuple[np.ndarray, Edges]:
    """Coordinates and unit edges of the box ``ranges[0] x ranges[1] x ...``."""
    coords = _box_coords(ranges)
    return coords, _box_edges(tuple(len(r) for r in ranges), [[(1, p)]] * len(ranges))


def _axis_box_window(family, ranges, p, crossing_axis, meta) -> GraphWindow:
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability {p} outside [0, 1]")
    coords, edges = _nearest_neighbor_box(ranges, p)
    terminals = {
        "left": np.flatnonzero(coords[:, crossing_axis] == ranges[crossing_axis].start),
        "right": np.flatnonzero(coords[:, crossing_axis] == ranges[crossing_axis].stop - 1),
    }
    return _finish(family, coords, edges, terminals, None, meta, with_keys=False)


def grid_radial_window(dimension: int, p: float, radius: int) -> GraphWindow:
    """Nearest-neighbor box ``[-radius, radius]^d`` with rim boundary."""
    if dimension < 2:
        raise ConfigError("grid family needs dimension >= 2")
    if radius < 1:
        raise ConfigError("radial window needs radius >= 1")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability {p} outside [0, 1]")
    coords, edges = _nearest_neighbor_box([range(-radius, radius + 1)] * dimension, p)
    origin = _origin(coords)
    boundary = np.flatnonzero(np.abs(coords).max(axis=1) == radius)
    terminals = {"origin": [origin], "boundary": boundary}
    meta = {"d": dimension, "p": p, "radius": radius}
    return _finish(f"z{dimension}", coords, edges, terminals, origin, meta, with_keys=False)


def slab_radial_window(dimension: int, thickness: int, p: float, radius: int) -> GraphWindow:
    """Slab box radial window: infinite axes span ``[-radius, radius]``."""
    if dimension < 2 or thickness < 1 or radius < 1:
        raise ConfigError("slab radial window needs dimension >= 2, thickness >= 1, radius >= 1")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability {p} outside [0, 1]")
    span = range(-radius, radius + 1)
    coords, edges = _nearest_neighbor_box([span, span] + [range(thickness)] * (dimension - 2), p)
    origin = _origin(coords)
    boundary = np.flatnonzero(np.abs(coords[:, :2]).max(axis=1) == radius)
    terminals = {"origin": [origin], "boundary": boundary}
    meta = {"d": dimension, "K": thickness, "p": p, "radius": radius}
    return _finish(
        f"slab-d{dimension}-k{thickness}", coords, edges, terminals, origin, meta, with_keys=False
    )


def embedded_radial_window(
    graph: EmbeddedGraph,
    seq: ProbabilitySequence,
    radius: int,
) -> GraphWindow:
    """The embedded graph restricted to the lattice box ``[-radius, radius]^2``.

    Edge probabilities are inherited from the ambient sequence at each edge's
    scale length.  The boundary terminal holds every window vertex with at
    least one embedded-graph neighbor outside the box: a coarse vertex set
    rarely touches the exact rim, so "about to leave the box" is the honest
    boundary notion here.

    Vertices are the slab coordinates whose image under the graph's
    coordinate map lies in the box, sorted by image point; an edge joins a
    vertex to the image point one scale to its right, or the smallest scale
    above it, when that point is a vertex too.
    """
    if radius < 1:
        raise ConfigError("radial window needs radius >= 1")
    scales = graph.scales.scales
    top = scales[-1]
    smallest = scales[0]
    thickness = graph.params.thickness
    confined_axes = graph.params.confined_axes
    coarse = range(-(radius // top) - 1, radius // top + 2)
    vertical = range(-(radius // smallest) - 1, radius // smallest + 2)
    slab = _box_coords([range(thickness)] * confined_axes + [coarse, vertical])
    points = graph.encode_array(slab)
    inside = np.abs(points).max(axis=1) <= radius
    slab, points = slab[inside], points[inside]
    order = np.lexsort((points[:, 1], points[:, 0]))
    slab, points = slab[order], points[order]
    origin = _origin(points)
    if origin is None:
        raise ConfigError("embedded window does not contain the origin")

    step_lengths = np.array(list(scales) + [smallest], dtype=np.int64)
    offsets = np.array([(n, 0) for n in scales] + [(0, smallest)], dtype=np.int64)
    probabilities = np.array([seq.probability(n) for n in step_lengths.tolist()], dtype=np.float64)
    targets = _row_lookup(points, (points[:, None, :] + offsets).reshape(-1, 2))
    targets = targets.reshape(points.shape[0], offsets.shape[0])
    edges_u, slot = np.nonzero(targets >= 0)
    edges = (edges_u, targets[edges_u, slot], probabilities[slot], step_lengths[slot])

    # Slab-graph neighbors: a unit step along any axis, confined digits kept
    # inside the slab.
    escapes = np.zeros(points.shape[0], dtype=bool)
    unit = np.eye(slab.shape[1], dtype=np.int64)
    for move in np.vstack([unit, -unit]):
        neighbor = slab + move
        confined = neighbor[:, :confined_axes]
        valid = ((confined >= 0) & (confined < thickness)).all(axis=1)
        far = np.abs(graph.encode_array(neighbor[valid])).max(axis=1) > radius
        escapes[np.flatnonzero(valid)[far]] = True
    terminals = {"origin": [origin], "boundary": np.flatnonzero(escapes)}
    meta = {
        "radius": radius,
        "d": graph.params.dimension,
        "K": graph.params.thickness,
        "scales": list(scales),
        "seq": seq.describe(),
    }
    return _finish("embedded", points, edges, terminals, origin, meta, with_keys=True)
