"""Window builders against their coordinate-loop reference implementations.

The package builds windows by index arithmetic on numpy arrays.  The loops
below are the builders it replaced, kept as the reference: they walk the
vertices in lexicographic order with coordinate-tuple dictionaries, and every
array of the window they build must equal the package's, dtype included.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from trunclab.embedding import EmbeddedGraph, ScaleVector, SlabCoord, SlabParameters
from trunclab.rng import coordinate_edge_keys
from trunclab.sequences import ProbabilitySequence as PS
from trunclab.windows import (
    ConfigError,
    embedded_radial_window,
    lattice_window,
    long_range_box_window,
    long_range_crossing_window,
    long_range_radial_window,
)


def reference_window(family, coords, edges, terminals, origin_index, meta):
    coord_array = np.array(coords, dtype=np.int64).reshape(len(coords), -1)
    edges_u = np.array([e[0] for e in edges], dtype=np.int32)
    edges_v = np.array([e[1] for e in edges], dtype=np.int32)
    return {
        "family": family,
        "coords": coord_array,
        "edges_u": edges_u,
        "edges_v": edges_v,
        "probs": np.array([e[2] for e in edges], dtype=np.float64),
        "lengths": np.array([e[3] for e in edges], dtype=np.int32),
        "terminals": {name: np.array(idx, dtype=np.int64) for name, idx in terminals.items()},
        "origin_index": origin_index,
        "edge_keys": coordinate_edge_keys(coord_array, edges_u, edges_v),
        "meta": meta,
    }


def reference_long_range_edges(seq, coords, index, max_span, all_lengths):
    """Long-range edges by a coordinate loop.

    With ``all_lengths`` the loop walks every length up to the cap and drops
    the zero-probability edges afterwards, which is the omission rule the
    builders promise, stated without ``supported_lengths``.
    """
    cap = max_span if seq.truncation is None else min(seq.truncation, max_span)
    if all_lengths:
        lengths = list(range(1, cap + 1))
    else:
        lengths = seq.supported_lengths(cap)
    probabilities = {n: seq.probability(n) for n in lengths}
    edges = []
    for (x, y) in coords:
        i = index[(x, y)]
        for n in lengths:
            j = index.get((x + n, y))
            if j is not None:
                edges.append((i, j, probabilities[n], n))
        for n in lengths:
            j = index.get((x, y + n))
            if j is not None:
                edges.append((i, j, probabilities[n], n))
    return [edge for edge in edges if edge[2] > 0.0] if all_lengths else edges


def reference_box(seq, x_extent, y_extent, all_lengths=False):
    (x_lo, x_hi), (y_lo, y_hi) = x_extent, y_extent
    coords = [(x, y) for x in range(x_lo, x_hi + 1) for y in range(y_lo, y_hi + 1)]
    index = {c: i for i, c in enumerate(coords)}
    span = max(x_hi - x_lo, y_hi - y_lo, 1)
    edges = reference_long_range_edges(seq, coords, index, span, all_lengths)
    meta = {"x": list(x_extent), "y": list(y_extent), "seq": seq.describe()}
    return reference_window("z2-long-range", coords, edges, {}, None, meta)


def reference_crossing(seq, side, all_lengths=False):
    coords = [(x, y) for x in range(side + 2) for y in range(side + 1)]
    index = {c: i for i, c in enumerate(coords)}
    edges = reference_long_range_edges(seq, coords, index, side + 1, all_lengths)
    terminals = {
        "left": [index[(0, y)] for y in range(side + 1)],
        "right": [index[(side + 1, y)] for y in range(side + 1)],
    }
    meta = {"L": side, "seq": seq.describe()}
    return reference_window("z2-long-range", coords, edges, terminals, None, meta)


def reference_radial(seq, radius, all_lengths=False):
    span = range(-radius, radius + 1)
    coords = [(x, y) for x in span for y in span]
    index = {c: i for i, c in enumerate(coords)}
    edges = reference_long_range_edges(seq, coords, index, 2 * radius, all_lengths)
    boundary = [i for i, (x, y) in enumerate(coords) if max(abs(x), abs(y)) == radius]
    terminals = {"origin": [index[(0, 0)]], "boundary": boundary}
    meta = {"radius": radius, "seq": seq.describe()}
    return reference_window("z2-long-range", coords, edges, terminals, index[(0, 0)], meta)


def reference_nearest_neighbor_edges(coords, p):
    index = {c: i for i, c in enumerate(coords)}
    edges = []
    for c in coords:
        i = index[c]
        for axis in range(len(c)):
            neighbor = c[:axis] + (c[axis] + 1,) + c[axis + 1 :]
            j = index.get(neighbor)
            if j is not None:
                edges.append((i, j, p, 1))
    return index, edges


def reference_axis_box(family, ranges, p, meta):
    coords = list(product(*ranges))
    _, edges = reference_nearest_neighbor_edges(coords, p)
    lo, hi = ranges[0].start, ranges[0].stop - 1
    terminals = {
        "left": [i for i, c in enumerate(coords) if c[0] == lo],
        "right": [i for i, c in enumerate(coords) if c[0] == hi],
    }
    return reference_window(family, coords, edges, terminals, None, meta)


def reference_grid_crossing(dimension, p, side):
    ranges = [range(side + 2)] + [range(side + 1)] * (dimension - 1)
    return reference_axis_box(f"z{dimension}", ranges, p, {"d": dimension, "p": p, "L": side})


def reference_slab_crossing(dimension, thickness, p, side):
    ranges = [range(side + 2), range(side + 1)] + [range(thickness)] * (dimension - 2)
    meta = {"d": dimension, "K": thickness, "p": p, "L": side}
    return reference_axis_box(f"slab-d{dimension}-k{thickness}", ranges, p, meta)


def reference_grid_radial(dimension, p, radius):
    span = range(-radius, radius + 1)
    coords = list(product(*[span] * dimension))
    index, edges = reference_nearest_neighbor_edges(coords, p)
    origin = index[(0,) * dimension]
    boundary = [i for i, c in enumerate(coords) if max(abs(v) for v in c) == radius]
    meta = {"d": dimension, "p": p, "radius": radius}
    terminals = {"origin": [origin], "boundary": boundary}
    return reference_window(f"z{dimension}", coords, edges, terminals, origin, meta)


def reference_slab_radial(dimension, thickness, p, radius):
    span = range(-radius, radius + 1)
    coords = list(product(*([span, span] + [range(thickness)] * (dimension - 2))))
    index, edges = reference_nearest_neighbor_edges(coords, p)
    origin = index[(0, 0) + (0,) * (dimension - 2)]
    boundary = [i for i, c in enumerate(coords) if max(abs(c[0]), abs(c[1])) == radius]
    meta = {"d": dimension, "K": thickness, "p": p, "radius": radius}
    terminals = {"origin": [origin], "boundary": boundary}
    family = f"slab-d{dimension}-k{thickness}"
    return reference_window(family, coords, edges, terminals, origin, meta)


def reference_embedded(graph, seq, radius):
    scales = graph.scales.scales
    top = scales[-1]
    smallest = scales[0]
    members = []
    for coarse in range(-(radius // top) - 1, radius // top + 2):
        for vertical in range(-(radius // smallest) - 1, radius // smallest + 2):
            for confined in product(range(graph.params.thickness), repeat=graph.params.confined_axes):
                coord = SlabCoord(confined, coarse, vertical)
                point = graph.encode(coord)
                if max(abs(point[0]), abs(point[1])) <= radius:
                    members.append((coord, point))
    members.sort(key=lambda item: item[1])
    coords = [point for _, point in members]
    index = {point: i for i, (_, point) in enumerate(members)}
    if (0, 0) not in index:
        raise ConfigError("embedded window does not contain the origin")
    probabilities = {n: seq.probability(n) for n in scales}
    edges = []
    for _, point in members:
        i = index[point]
        x, y = point
        for n in scales:
            j = index.get((x + n, y))
            if j is not None:
                edges.append((i, j, probabilities[n], n))
        j = index.get((x, y + smallest))
        if j is not None:
            edges.append((i, j, probabilities[smallest], smallest))
    terminals = {"origin": [index[(0, 0)]]}
    meta = {
        "radius": radius,
        "d": graph.params.dimension,
        "K": graph.params.thickness,
        "scales": list(scales),
        "seq": seq.describe(),
    }
    return reference_window("embedded", coords, edges, terminals, index[(0, 0)], meta)


ARRAYS = ("coords", "edges_u", "edges_v", "probs", "lengths", "edge_keys")


def assert_same_window(window, reference):
    assert window.family == reference["family"]
    for name in ARRAYS:
        built, expected = getattr(window, name), reference[name]
        assert built.dtype == expected.dtype, name
        assert built.shape == expected.shape, name
        assert np.array_equal(built, expected), name
    assert window.terminals.keys() == reference["terminals"].keys()
    for name, expected in reference["terminals"].items():
        assert window.terminals[name].dtype == expected.dtype, name
        assert np.array_equal(window.terminals[name], expected), name
    assert window.origin_index == reference["origin_index"]
    assert type(window.origin_index) is type(reference["origin_index"])
    assert window.meta == reference["meta"]


SEQUENCES = {
    "constant": PS.constant(0.37),
    "lacunary": PS.lacunary(0.8, base=2),
    "lacunary-background": PS.lacunary(0.7, base=3, background=0.05),
    "lacunary-support": PS.lacunary(0.6, support=(2, 5, 11)),
    "power-law": PS.power_law(0.9, 1.3),
}


@pytest.mark.parametrize("all_lengths", [False, True])
@pytest.mark.parametrize("truncation", range(1, 10))
@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_long_range_builders_match_loops(name, truncation, all_lengths):
    seq = SEQUENCES[name].truncate(truncation)
    for radius in (1, 2, 5, 9):
        assert_same_window(
            long_range_radial_window(seq, radius), reference_radial(seq, radius, all_lengths)
        )
    for side in (1, 4, 11):
        assert_same_window(
            long_range_crossing_window(seq, side), reference_crossing(seq, side, all_lengths)
        )
    for x_extent, y_extent in (((0, 0), (0, 0)), ((0, 1), (0, 0)), ((-3, 4), (2, 3)), ((1, 2), (-6, 6))):
        assert_same_window(
            long_range_box_window(seq, x_extent, y_extent),
            reference_box(seq, x_extent, y_extent, all_lengths),
        )


@pytest.mark.parametrize("radius", [1, 2, 3, 7, 16, 31, 64])
@pytest.mark.parametrize("name", ["lacunary", "lacunary-background", "power-law"])
def test_radial_window_matches_loop_at_large_radii(name, radius):
    seq = SEQUENCES[name].truncate(8)
    assert_same_window(long_range_radial_window(seq, radius), reference_radial(seq, radius))


def test_untruncated_sequence_uses_the_window_span():
    seq = SEQUENCES["power-law"]
    assert_same_window(long_range_radial_window(seq, 4), reference_radial(seq, 4))
    assert_same_window(long_range_crossing_window(seq, 5), reference_crossing(seq, 5))


@pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
def test_nearest_neighbor_builders_match_loops(p):
    for dimension in (2, 3, 4):
        for size in (1, 2, 4):
            assert_same_window(
                lattice_window(dimension, p, size, "crossing"),
                reference_grid_crossing(dimension, p, size),
            )
            assert_same_window(
                lattice_window(dimension, p, size, "origin_boundary"),
                reference_grid_radial(dimension, p, size),
            )
            for thickness in (1, 2, 3):
                assert_same_window(
                    lattice_window(dimension, p, size, "crossing", thickness),
                    reference_slab_crossing(dimension, thickness, p, size),
                )
                assert_same_window(
                    lattice_window(dimension, p, size, "origin_boundary", thickness),
                    reference_slab_radial(dimension, thickness, p, size),
                )


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 0.5, 2, "crossing"), "dimension"),
        ((3, 0.5, 2, "crossing", 0), "thickness"),
        ((3, 0.5, 0, "origin_boundary"), "size"),
        ((3, 1.5, 2, "crossing"), "probability"),
        ((3, 0.5, 2, "theta"), "event"),
    ],
)
def test_lattice_window_rejects_bad_arguments(args, message):
    with pytest.raises(ConfigError, match=message):
        lattice_window(*args)


EMBEDDINGS = {
    (2, 2): (3,),
    (3, 1): (1, 3),
    (3, 2): (1, 4),
    (3, 3): (2, 9),
    (4, 2): (1, 4, 13),
}


@pytest.mark.parametrize("radius", [1, 2, 5, 8, 13, 32, 64])
@pytest.mark.parametrize("shape", sorted(EMBEDDINGS))
def test_embedded_window_matches_loop(shape, radius):
    dimension, thickness = shape
    params = SlabParameters(dimension, thickness)
    graph = EmbeddedGraph(params, ScaleVector(EMBEDDINGS[shape], thickness))
    for name in ("lacunary", "power-law"):
        seq = SEQUENCES[name].truncate(graph.scales.top)
        assert_same_window(
            embedded_radial_window(graph, seq, radius), reference_embedded(graph, seq, radius)
        )


class ShiftedGraph(EmbeddedGraph):
    """An embedding moved one step right, so that no vertex lands on the origin."""

    def encode(self, coord):
        x, y = super().encode(coord)
        return x + 1, y

    def encode_array(self, coords):
        return super().encode_array(coords) + np.array([1, 0])


def test_embedded_window_without_origin_is_rejected():
    graph = ShiftedGraph(SlabParameters(3, 2), ScaleVector((1, 4), 2))
    seq = SEQUENCES["lacunary"].truncate(4)
    with pytest.raises(ConfigError, match="origin"):
        reference_embedded(graph, seq, 6)
    with pytest.raises(ConfigError, match="origin"):
        embedded_radial_window(graph, seq, 6)
