"""Finite graph windows with enumerable, deterministically ordered edge lists.

There are two kinds of window.  Boxes, the planar long-range ones and the
nearest-neighbor Z^d and slab ones of :func:`lattice_window`, all come from
one box builder, which also attaches the crossing or the origin/boundary
terminals.  The embedded window is the embedded slab graph inside a planar
box.

Every builder lists vertices in lexicographic coordinate order and, per
vertex, edges toward lexicographically larger endpoints in a fixed offset
order.  Identical inputs therefore always produce identical edge orderings,
which is what ties the per-edge random streams down.  Builders work by index
arithmetic on numpy arrays: in a box window a vertex index is the row-major
rank of its coordinates, and the embedded window takes its edges from
:meth:`trunclab.embedding.EmbeddedGraph.edges_among`.

Edges carrying probability zero are omitted: they can never open, and for
heavy-tailed sequences they would dominate the edge list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from . import kernel
from .embedding import EmbeddedGraph
from .rng import coordinate_edge_keys, open_thresholds
from .sequences import ProbabilitySequence


class ConfigError(Exception):
    """Inconsistent window or experiment specification."""


@dataclass
class GraphWindow:
    """A finite graph with per-edge open probabilities.

    ``terminals`` names the vertex sets events refer to: crossing windows
    carry ``left``/``right``, box radial windows carry ``origin``/``boundary``
    and the embedded window carries ``origin`` only.
    ``edge_keys`` are coordinate-derived 64-bit identifiers used by the keyed
    (shared-uniform) sampling mode; they exist for planar families only.
    ``free_axes`` counts the leading coordinate columns distance is measured on
    (not a slab's confined axes); None means all of them.
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
    free_axes: int | None = None

    @property
    def n_vertices(self) -> int:
        return int(self.coords.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edges_u.shape[0])

    @cached_property
    def norms(self) -> np.ndarray:
        """Sup-norm of every vertex over the free axes, computed once per window."""
        return np.abs(self.coords[:, : self.free_axes]).max(axis=1)

    @cached_property
    def kernel_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``edges_u`` and ``edges_v`` as contiguous int32 arrays, checked once
        per window to pair up and to lie among its vertices, so the compiled
        kernel indexes only inside its arrays.  A failed check caches nothing."""
        edges_u = np.ascontiguousarray(self.edges_u, dtype=np.int32)
        edges_v = np.ascontiguousarray(self.edges_v, dtype=np.int32)
        if edges_v.shape != edges_u.shape:
            raise ValueError("edges_u and edges_v differ in length")
        # Negative endpoints wrap to large unsigned values, so one comparison checks both ends.
        if edges_u.size and max(edges_u.view(np.uint32).max(), edges_v.view(np.uint32).max()) >= self.n_vertices:
            raise ValueError("an edge endpoint lies outside the window's vertices")
        return edges_u, edges_v

    @cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Each vertex's edges as int32 CSR ``(offsets, incident)``
        (:func:`trunclab.kernel.incidence`), built once per window for the
        kernel's search from the origin."""
        return kernel.incidence(self)

    @cached_property
    def open_thresholds(self) -> np.ndarray:
        """The kernel's integer form of ``probs`` (:func:`trunclab.rng.open_thresholds`),
        computed once per window, after checking that ``probs`` holds one
        entry per edge.  A failed check caches nothing."""
        if self.probs.shape != (self.n_edges,):
            raise ValueError(f"window family {self.family!r} needs one edge probability per edge ({self.n_edges})")
        return open_thresholds(self.probs)

    def edge_pairs(self) -> Iterator[tuple[tuple, tuple, float]]:
        for u, v, p in zip(self.edges_u, self.edges_v, self.probs):
            yield tuple(self.coords[u]), tuple(self.coords[v]), float(p)

    def describe(self) -> str:
        parts = [f"{key}={value}" for key, value in sorted(self.meta.items())]
        return f"{self.family}({', '.join(parts)})"


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
        edges_u=edges_u.astype(np.int32, copy=False),
        edges_v=edges_v.astype(np.int32, copy=False),
        probs=probs.astype(np.float64, copy=False),
        lengths=lengths.astype(np.int32, copy=False),
        terminals={name: np.asarray(idx, dtype=np.int64) for name, idx in terminals.items()},
        origin_index=origin_index,
        meta=meta,
    )
    if with_keys:
        window.edge_keys = coordinate_edge_keys(coords, edges_u, edges_v)
    return window


def _box_coords(ranges: list[range]) -> np.ndarray:
    """Every point of the box ``ranges[0] x ranges[1] x ...``, lexicographically ordered."""
    axes = [np.arange(r.start, r.stop, dtype=np.int64) for r in ranges]
    return np.stack([grid.ravel() for grid in np.meshgrid(*axes, indexing="ij")], axis=1)


def _box_edges(shape: tuple[int, ...], steps: list[tuple[int, float]]) -> Edges:
    """Axis-parallel edges of a box with ``shape[a]`` points along axis ``a``.

    ``steps`` lists the ``(length, probability)`` steps taken along every
    axis.  A vertex index is the row-major rank of the vertex in the box, so
    a step of length ``n`` along axis ``a`` adds ``n`` times that axis's
    stride, and the edge exists iff the coordinate stays inside the box.
    Edges come vertex by vertex, and per vertex axis by axis in the order of
    ``steps``, which is the edge order the module docstring promises.
    """
    position = np.indices(shape).reshape(len(shape), -1)
    strides = np.cumprod((1,) + tuple(shape[:0:-1]))[::-1]
    slot_axis = np.repeat(np.arange(len(shape)), len(steps))
    lengths = np.tile(np.array([n for n, _ in steps], dtype=np.int64), len(shape))
    probs = np.tile(np.array([p for _, p in steps], dtype=np.float64), len(shape))
    inside = position[slot_axis].T + lengths < np.asarray(shape)[slot_axis]
    # Endpoints, slots and lengths go straight to int32, as the window keeps
    # them, so a large window's build holds few int64 arrays per edge at once.
    flat = np.flatnonzero(inside)
    edges_u = (flat // slot_axis.size).astype(np.int32)
    slot = (flat % slot_axis.size).astype(np.int32)
    del flat
    edges_v = edges_u + (lengths * strides[slot_axis]).astype(np.int32)[slot]
    return edges_u, edges_v, probs[slot], lengths.astype(np.int32)[slot]


def _origin(coords: np.ndarray) -> int | None:
    """Index of the all-zero point among ``coords``, or None."""
    hits = np.flatnonzero(~coords.any(axis=1))
    return int(hits[0]) if hits.size else None


def _box_window(
    family: str,
    ranges: list[range],
    steps: list[tuple[int, float]],
    event: str | None,
    meta: dict,
    with_keys: bool,
    free_axes: int | None = None,
) -> GraphWindow:
    """The box ``ranges[0] x ranges[1] x ...`` with ``steps`` along every axis.

    ``event`` picks the terminals: ``"crossing"`` joins the first and the
    last slice of axis 0; ``"origin_boundary"`` marks the origin and the rim,
    the points whose :attr:`GraphWindow.norms` (over the first ``free_axes``
    axes, all by default) reads ``ranges[0].stop - 1``; ``None`` attaches none.
    """
    coords = _box_coords(ranges)
    window = _finish(family, coords, _box_edges(tuple(len(r) for r in ranges), steps), {}, None, meta, with_keys)
    window.free_axes = free_axes
    if event == "crossing":
        window.terminals = {
            "left": np.flatnonzero(coords[:, 0] == ranges[0].start),
            "right": np.flatnonzero(coords[:, 0] == ranges[0].stop - 1),
        }
    elif event == "origin_boundary":
        window.origin_index = _origin(coords)
        window.terminals = {
            "origin": np.array([window.origin_index], dtype=np.int64),
            "boundary": np.flatnonzero(window.norms == ranges[0].stop - 1),
        }
    return window


def _long_range_window(
    seq: ProbabilitySequence, ranges: list[range], event: str | None, meta: dict
) -> GraphWindow:
    """Planar box ``ranges[0] x ranges[1]`` with an edge of every supported length that fits in it."""
    span = max(len(r) for r in ranges) - 1
    cap = span if seq.truncation is None else min(seq.truncation, span)
    steps = [(n, seq.probability(n)) for n in seq.supported_lengths(cap)]
    return _box_window("z2-long-range", ranges, steps, event, {**meta, "seq": seq.describe()}, with_keys=True)


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
    ranges = [range(x_lo, x_hi + 1), range(y_lo, y_hi + 1)]
    return _long_range_window(seq, ranges, None, {"x": list(x_extent), "y": list(y_extent)})


def long_range_crossing_window(seq: ProbabilitySequence, side: int) -> GraphWindow:
    """Planar long-range rectangle ``{0..side+1} x {0..side}`` for sponge crossings.

    The crossing event joins the ``x = 0`` column to the ``x = side + 1``
    column; at open probability one-half with nearest-neighbor edges the
    crossing probability is exactly one-half, which calibrates estimators.
    """
    if side < 1:
        raise ConfigError("crossing window needs side >= 1")
    return _long_range_window(seq, [range(side + 2), range(side + 1)], "crossing", {"L": side})


def long_range_radial_window(seq: ProbabilitySequence, radius: int) -> GraphWindow:
    """Planar long-range box ``[-radius, radius]^2`` around the origin.

    The boundary terminal is the box rim (sup-norm exactly ``radius``); the
    origin-to-boundary event is the finite-volume stand-in for reaching
    infinity.
    """
    if radius < 1:
        raise ConfigError("radial window needs radius >= 1")
    return _long_range_window(seq, [range(-radius, radius + 1)] * 2, "origin_boundary", {"radius": radius})


def lattice_window(
    dimension: int,
    p: float,
    size: int,
    event: str,
    thickness: int | None = None,
) -> GraphWindow:
    """Nearest-neighbor window of Z^d, or of the slab Z^2 x {0..K-1}^(d-2) with ``thickness`` K.

    Every edge has length one and open probability ``p``.  The free axes
    (all ``dimension`` axes of Z^d, the first two of the slab) span
    ``{0..size+1} x {0..size} x ...`` for the ``"crossing"`` event, whose
    terminals are the two end slices of axis 0, and ``[-size, size]`` for
    the ``"origin_boundary"`` event, whose boundary is the rim of the free
    axes.  The slab's confined axes always span ``{0..K-1}`` in full.
    """
    if dimension < 2:
        raise ConfigError("lattice window needs dimension >= 2")
    if thickness is not None and thickness < 1:
        raise ConfigError("slab thickness must be >= 1")
    if size < 1:
        raise ConfigError("lattice window needs size >= 1")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability {p} outside [0, 1]")
    free = dimension if thickness is None else 2
    if event == "crossing":
        ranges, extent = [range(size + 2)] + [range(size + 1)] * (free - 1), "L"
    elif event == "origin_boundary":
        ranges, extent = [range(-size, size + 1)] * free, "radius"
    else:
        raise ConfigError(f"lattice window event must be 'crossing' or 'origin_boundary', not {event!r}")
    if thickness is None:
        family, meta = f"z{dimension}", {"d": dimension, "p": p, extent: size}
    else:
        ranges += [range(thickness)] * (dimension - 2)
        family, meta = f"slab-d{dimension}-k{thickness}", {"d": dimension, "K": thickness, "p": p, extent: size}
    return _box_window(family, ranges, [(1, p)], event, meta, with_keys=False, free_axes=free)


def embedded_radial_window(
    graph: EmbeddedGraph,
    seq: ProbabilitySequence,
    radius: int,
) -> GraphWindow:
    """The embedded graph restricted to the lattice box ``[-radius, radius]^2``.

    Edge probabilities are inherited from the ambient sequence at each edge's
    scale length.  The only terminal is the origin: how far the origin's
    cluster reaches is read off the vertex coordinates (the largest sup-norm
    in the cluster), the same way as on the full radial window, so the two
    reaches compare like for like.

    Vertices are the slab coordinates whose image under the graph's
    coordinate map lies in the box, sorted by image point; the edges are
    those :meth:`EmbeddedGraph.edges_among` finds among them.
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
    points = graph.encode_array(_box_coords([range(thickness)] * confined_axes + [coarse, vertical]))
    points = points[np.abs(points).max(axis=1) <= radius]
    points = points[np.lexsort((points[:, 1], points[:, 0]))]
    origin = _origin(points)
    if origin is None:
        raise ConfigError("embedded window does not contain the origin")

    edges_u, edges_v, lengths = graph.edges_among(points)
    probabilities = np.array([seq.probability(n) for n in scales], dtype=np.float64)
    edges = (edges_u, edges_v, probabilities[np.searchsorted(scales, lengths)], lengths)
    meta = {
        "radius": radius,
        "d": graph.params.dimension,
        "K": graph.params.thickness,
        "scales": list(scales),
        "seq": seq.describe(),
    }
    return _finish("embedded", points, edges, {"origin": [origin]}, origin, meta, with_keys=True)
