from dataclasses import asdict
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunclab.embedding import (
    EmbeddedGraph,
    HypothesisNotWitnessed,
    ScaleVector,
    SlabCoord,
    SlabParameters,
    select_scales,
    verify_isomorphism,
)
from trunclab.sequences import ProbabilitySequence
from trunclab.windows import embedded_radial_window

from conftest import pairwise_verify_isomorphism, recursion_oracle


def graph_1_4_13() -> EmbeddedGraph:
    return EmbeddedGraph(SlabParameters(4, 2), ScaleVector((1, 4, 13), 2))


def window_coords(graph: EmbeddedGraph, bound: int) -> list[SlabCoord]:
    return [
        SlabCoord(confined, coarse, vertical)
        for coarse in range(-bound, bound + 1)
        for vertical in range(-bound, bound + 1)
        for confined in product(range(graph.params.thickness), repeat=graph.params.confined_axes)
    ]


def edge_list(graph: EmbeddedGraph, points) -> list[tuple[int, int, int]]:
    edges_u, edges_v, lengths = graph.edges_among(np.array(points, dtype=np.int64).reshape(-1, 2))
    return [(int(u), int(v), int(n)) for u, v, n in zip(edges_u, edges_v, lengths)]


class MovedVertexGraph(EmbeddedGraph):
    """``graph_1_4_13`` with the image of ``((0, 0), 1, 1)``, the point
    ``(13, 1)``, moved ``shift`` steps right through both coordinate maps."""

    shift = 0

    def encode(self, coord):
        x, y = super().encode(coord)
        return (x + self.shift, y) if coord.as_tuple() == (0, 0, 1, 1) else (x, y)

    def encode_array(self, coords):
        points = super().encode_array(coords)
        points[(np.asarray(coords) == (0, 0, 1, 1)).all(axis=1), 0] += self.shift
        return points


class KnockedOffGraph(MovedVertexGraph):
    shift = 2  # (15, 1) is no image point: 15 is not a digit sum of 1, 4, 13


class MergedGraph(MovedVertexGraph):
    shift = 1  # (14, 1) is the image of ((1, 0), 1, 1)


class TestScaleVector:
    def test_spacing_violation_rejected(self):
        with pytest.raises(ValueError):
            ScaleVector((1, 2, 13), 2)  # 2 <= 3 * 1

    def test_accepts_tight_spacing(self):
        ScaleVector((1, 4, 13), 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ScaleVector((), 2)

    def test_decomposition_bound_holds(self, rng):
        # Spacing implies (K-1) * sum of earlier scales < each scale.
        for _ in range(200):
            thickness = int(rng.integers(1, 5))
            scales = [int(rng.integers(1, 4))]
            for _ in range(int(rng.integers(1, 4))):
                scales.append((thickness + 1) * scales[-1] + int(rng.integers(1, 10)))
            vec = ScaleVector(tuple(scales), thickness)
            total = 0
            for scale in vec.scales:
                assert (thickness - 1) * total < scale
                total += scale


    def test_scale_vector_for_another_thickness_rejected(self):
        with pytest.raises(ValueError, match="thickness 2.*thickness 3"):
            EmbeddedGraph(SlabParameters(4, 3), ScaleVector((1, 4, 13), 2))


class TestSelectScales:
    def test_lacunary_example(self):
        seq = ProbabilitySequence.lacunary(0.4, base=10)
        vec = select_scales(seq, 0.2, SlabParameters(4, 2), 10**6)
        assert vec.scales == (1, 10, 100)

    def test_constant_example(self):
        vec = select_scales(ProbabilitySequence.constant(0.5), 0.2, SlabParameters(4, 2), 10**6)
        assert vec.scales == (1, 4, 13)

    def test_finite_support_fails_at_correct_step(self):
        # Qualifying lengths exist only at 5; the second step needs one above 15.
        seq = ProbabilitySequence.lacunary(0.9, support=(5,))
        with pytest.raises(HypothesisNotWitnessed) as excinfo:
            select_scales(seq, 0.45, SlabParameters(4, 2), 10**6)
        assert excinfo.value.step == 2
        assert excinfo.value.lower == 15

    def test_selected_scales_reach_level(self, rng):
        for _ in range(50):
            base = int(rng.integers(2, 8))
            value = float(rng.uniform(0.3, 1.0))
            seq = ProbabilitySequence.lacunary(value, base=base)
            epsilon = float(rng.uniform(0.05, value))
            params = SlabParameters(int(rng.integers(2, 6)), int(rng.integers(1, 4)))
            vec = select_scales(seq, epsilon, params, 10**6)
            assert all(seq.probability(n) >= epsilon for n in vec.scales)

    def test_matches_recursion_oracle(self, rng):
        for _ in range(60):
            base = int(rng.integers(2, 8))
            seq = ProbabilitySequence.lacunary(float(rng.uniform(0.3, 1.0)), base=base)
            epsilon = float(rng.uniform(0.05, 0.3))
            dimension = int(rng.integers(2, 6))
            thickness = int(rng.integers(1, 4))
            expected = recursion_oracle(seq, epsilon, thickness, dimension, 10**6)
            got = select_scales(seq, epsilon, SlabParameters(dimension, thickness), 10**6)
            assert list(got.scales) == expected


class TestCoordinateMaps:
    def test_encode_origin(self):
        assert graph_1_4_13().encode(SlabCoord((0, 0), 0, 0)) == (0, 0)

    def test_encode_mixed(self):
        assert graph_1_4_13().encode(SlabCoord((1, 0), 2, -1)) == (27, -1)

    def test_encode_larger_scales(self):
        graph = EmbeddedGraph(SlabParameters(4, 2), ScaleVector((1, 10, 100), 2))
        assert graph.encode(SlabCoord((1, 1), 1, 3)) == (111, 3)

    def test_encode_rejects_digit_out_of_range(self):
        with pytest.raises(ValueError):
            graph_1_4_13().encode(SlabCoord((2, 0), 0, 0))

    def test_decode_inverse_of_encode_example(self):
        assert graph_1_4_13().decode((27, -1)) == SlabCoord((1, 0), 2, -1)

    def test_decode_rejects_bad_digit(self):
        assert graph_1_4_13().decode((2, 0)) is None

    def test_decode_rejects_vertical_misalignment(self):
        graph = EmbeddedGraph(SlabParameters(4, 2), ScaleVector((2, 10, 50), 2))
        assert graph.decode((0, 5)) is None

    @given(
        thickness=st.integers(1, 4),
        dimension=st.integers(2, 6),
        coarse=st.integers(-50, 50),
        vertical=st.integers(-50, 50),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, thickness, dimension, coarse, vertical, data):
        scales = [data.draw(st.integers(1, 5))]
        for _ in range(dimension - 2):
            scales.append((thickness + 1) * scales[-1] + data.draw(st.integers(1, 7)))
        graph = EmbeddedGraph(
            SlabParameters(dimension, thickness), ScaleVector(tuple(scales), thickness)
        )
        confined = tuple(
            data.draw(st.integers(0, thickness - 1)) for _ in range(dimension - 2)
        )
        coord = SlabCoord(confined, coarse, vertical)
        assert graph.decode(graph.encode(coord)) == coord


class TestEdgeClassification:
    def test_horizontal_second_scale(self):
        assert edge_list(graph_1_4_13(), [(0, 0), (4, 0)]) == [(0, 1, 4)]

    def test_sum_of_scales_is_not_an_edge(self):
        assert edge_list(graph_1_4_13(), [(0, 0), (5, 0)]) == []

    def test_vertical_smallest_scale(self):
        assert edge_list(graph_1_4_13(), [(0, 0), (0, 1)]) == [(0, 1, 1)]

    def test_self_pair_is_not_an_edge(self):
        assert edge_list(graph_1_4_13(), [(0, 0)]) == []

    def test_slab_adjacency_matches_neighbor_enumeration(self):
        graph = graph_1_4_13()
        window = window_coords(graph, 2)
        edges = edge_list(graph, [graph.encode(c) for c in window])
        embedded = {frozenset((u, v)) for u, v, _ in edges}
        slab = {
            frozenset((i, j))
            for i, a in enumerate(window)
            for j, b in enumerate(window)
            if sum(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple())) == 1
        }
        assert len(edges) == len(embedded) == len(slab)
        assert embedded == slab

    def test_non_vertex_endpoint_is_not_an_edge(self):
        # Once (4, 0) is not among the points, no edge reaches it: the origin
        # loses its edge of length 4, and nothing else changes.
        graph = graph_1_4_13()
        points = graph.encode_array(np.array([c.as_tuple() for c in window_coords(graph, 2)]))
        kept = points[(points != (4, 0)).any(axis=1)]

        def point_pairs(pts):
            return {
                (tuple(pts[u].tolist()), tuple(pts[v].tolist()), n) for u, v, n in edge_list(graph, pts)
            }

        everything = point_pairs(points)
        assert ((0, 0), (4, 0), 4) in everything
        assert point_pairs(kept) == {edge for edge in everything if (4, 0) not in edge[:2]}


class TestVerifyIsomorphism:
    def test_passes_on_reference_graph(self):
        report = verify_isomorphism(graph_1_4_13(), 3, 3)
        assert report.passed
        assert report.max_edge_length == 13

    def test_degenerate_planar_case(self):
        # One scale: the embedded graph is the lattice rescaled by 7.
        graph = EmbeddedGraph(SlabParameters(2, 2), ScaleVector((7,), 2))
        report = verify_isomorphism(graph, 3, 3)
        assert report.passed
        assert report.max_edge_length == 7
        assert report.vertex_count == 49

    def test_probability_checks(self):
        seq = ProbabilitySequence.lacunary(0.4, base=10)
        graph = EmbeddedGraph(SlabParameters(4, 2), ScaleVector((1, 10, 100), 2))
        report = verify_isomorphism(graph, 2, 2, seq=seq, epsilon=0.2)
        assert report.passed
        assert report.min_edge_probability == 0.4
        failing = verify_isomorphism(graph, 2, 2, seq=seq, epsilon=0.5)
        assert not failing.passed
        assert not failing.checks["edge_probabilities_reach_level"]

    def test_detects_broken_coordinate_map(self):
        class BrokenGraph(EmbeddedGraph):
            def encode_array(self, coords):
                points = super().encode_array(coords)
                points[(np.asarray(coords) == (0, 0, 1, 1)).all(axis=1), 0] += 1  # knock one vertex off its slot
                return points

        broken = BrokenGraph(SlabParameters(4, 2), ScaleVector((1, 4, 13), 2))
        report = verify_isomorphism(broken, 2, 2)
        assert not report.passed
        assert report.counterexample is not None

    def test_window_bounds_validated(self):
        with pytest.raises(ValueError):
            verify_isomorphism(graph_1_4_13(), 0, 3)

    def test_small_windows_all_geometries(self, rng):
        for dimension in range(2, 6):
            for thickness in range(1, 4):
                base = int(rng.integers(2, 6))
                seq = ProbabilitySequence.lacunary(float(rng.uniform(0.4, 1.0)), base=base)
                params = SlabParameters(dimension, thickness)
                vec = select_scales(seq, 0.3, params, 10**7)
                report = verify_isomorphism(EmbeddedGraph(params, vec), 2, 2)
                assert report.passed, (dimension, thickness, vec.scales, report.counterexample)


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
@pytest.mark.parametrize("thickness", [1, 2, 3])
@pytest.mark.parametrize("dimension", [2, 3, 4, 5])
def test_matches_pairwise_reference(dimension, thickness, bound):
    seq = ProbabilitySequence.lacunary(0.8, base=2 + (dimension + thickness) % 4)
    params = SlabParameters(dimension, thickness)
    graph = EmbeddedGraph(params, select_scales(seq, 0.3, params, 10**7))
    # Unequal bounds catch a coarse/vertical mix-up; 5 - bound runs over 4..1.
    for level in ({}, {"seq": seq, "epsilon": 0.3}, {"seq": seq, "epsilon": 0.9}):
        report = asdict(verify_isomorphism(graph, bound, 5 - bound, **level))
        reference = asdict(pairwise_verify_isomorphism(graph, bound, 5 - bound, **level))
        assert list(report["checks"]) == list(reference["checks"])
        assert report == reference


@pytest.mark.parametrize(
    ("graph_class", "failing"), [(KnockedOffGraph, "adjacency_equivalence"), (MergedGraph, "injective")]
)
def test_broken_maps_fail_the_same_first_check_as_the_reference(graph_class, failing):
    graph = graph_class(SlabParameters(4, 2), ScaleVector((1, 4, 13), 2))
    for verifier in (verify_isomorphism, pairwise_verify_isomorphism):
        report = verifier(graph, 2, 2)
        assert not report.passed and report.counterexample
        assert [name for name, ok in report.checks.items() if not ok][:1] == [failing]
    assert asdict(verify_isomorphism(graph, 2, 2)) == asdict(pairwise_verify_isomorphism(graph, 2, 2))


def test_one_edge_rule_serves_verifier_and_window():
    class NoVerticalGraph(EmbeddedGraph):
        def edges_among(self, points):
            edges_u, edges_v, lengths = super().edges_among(points)
            level = points[edges_u, 1] == points[edges_v, 1]
            return edges_u[level], edges_v[level], lengths[level]

    graph = NoVerticalGraph(SlabParameters(4, 2), ScaleVector((1, 4, 13), 2))
    report = verify_isomorphism(graph, 2, 2)
    assert not report.passed
    assert report.checks["adjacency_equivalence"] is False
    window = embedded_radial_window(graph, ProbabilitySequence.constant(0.5), 20)
    assert window.n_edges > 0
    assert (window.coords[window.edges_u, 1] == window.coords[window.edges_v, 1]).all()


def test_embedded_process_is_truncation_measurable(rng):
    # The largest embedded edge equals the top scale, so truncating there
    # keeps every embedded edge's probability unchanged.
    for _ in range(20):
        thickness = int(rng.integers(1, 4))
        dimension = int(rng.integers(2, 6))
        seq = ProbabilitySequence.lacunary(0.8, base=int(rng.integers(2, 6)))
        params = SlabParameters(dimension, thickness)
        vec = select_scales(seq, 0.5, params, 10**7)
        graph = EmbeddedGraph(params, vec)
        report = verify_isomorphism(graph, 2, 2)
        assert report.max_edge_length == vec.top
        truncated = seq.truncate(vec.top)
        assert all(truncated.probability(n) == seq.probability(n) for n in vec.scales)
