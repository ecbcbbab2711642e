import math
import re

import numpy as np
import pytest

from trunclab.engine import (
    EnumerationLimitError,
    MAX_EXACT_EDGES,
    UnionFind,
    component_labels,
    crossing_estimate,
    exact_event_probability,
    mc_event_probability,
    origin_boundary_estimate,
    origin_radius_profile,
    propagation_labels,
    trial_open_mask,
)
from trunclab.rng import (
    coordinate_edge_keys,
    indexed_uniform_matrix,
    indexed_uniforms,
    keyed_uniforms,
    mix64,
)
from trunclab.sequences import ProbabilitySequence
from trunclab.windows import (
    ConfigError,
    lattice_window,
    long_range_box_window,
    long_range_crossing_window,
    long_range_radial_window,
)

from conftest import bfs_components, sample_and_cluster, scipy_union_labels

PS = ProbabilitySequence


def nn(p: float) -> ProbabilitySequence:
    return PS.constant(p).truncate(1)


class TestWindowConstruction:
    def test_two_by_two_box_has_four_edges(self):
        window = long_range_box_window(nn(0.5), (0, 1), (0, 1))
        assert window.n_edges == 4

    def test_three_site_row_with_level_two(self):
        window = long_range_box_window(PS.constant(0.5).truncate(2), (0, 2), (0, 0))
        pairs = {(u, v) for u, v, _ in window.edge_pairs()}
        assert pairs == {((0, 0), (1, 0)), ((1, 0), (2, 0)), ((0, 0), (2, 0))}

    def test_slab_box_matches_hand_count(self):
        # {0..2} x {0..1} x {0,1}: 8 x-edges, 6 y-edges, 6 confined edges.
        window = lattice_window(3, 0.5, 1, "crossing", thickness=2)
        assert window.n_vertices == 12
        assert window.n_edges == 20

    def test_crossing_rectangle_l1_has_seven_edges(self):
        assert long_range_crossing_window(nn(0.5), 1).n_edges == 7

    def test_truncation_bounds_edge_lengths(self):
        window = long_range_box_window(PS.constant(0.5).truncate(3), (0, 10), (0, 0))
        assert window.lengths.max() == 3

    def test_untruncated_window_spans_every_length(self):
        window = long_range_box_window(PS.constant(0.5), (0, 3), (0, 0))
        assert window.n_edges == 6  # every pair on the row
        assert set(window.lengths.tolist()) == {1, 2, 3}

    def test_zero_probability_edges_omitted_by_default(self):
        seq = PS.lacunary(0.5, base=2).truncate(4)
        window = long_range_box_window(seq, (0, 4), (0, 0))
        assert set(window.lengths) == {1, 2, 4}

    def test_deterministic_edge_order(self):
        a = long_range_radial_window(PS.constant(0.4).truncate(2), 3)
        b = long_range_radial_window(PS.constant(0.4).truncate(2), 3)
        assert np.array_equal(a.edges_u, b.edges_u)
        assert np.array_equal(a.edges_v, b.edges_v)
        assert np.array_equal(a.edge_keys, b.edge_keys)

    def test_slab_builder_rejects_dimension_one(self):
        with pytest.raises(ConfigError):
            lattice_window(1, 0.5, 2, "crossing", thickness=2)


class TestStreamContract:
    def test_matrix_rows_equal_per_trial_streams(self):
        matrix = indexed_uniform_matrix(7, 424242, 9)
        for trial in range(9):
            assert np.array_equal(matrix[trial], indexed_uniforms(7, 424242, trial))

    def test_trials_do_not_bleed_across_edge_counts(self):
        # Streams are block-aligned per window; same trial, same seed, same draws.
        assert np.array_equal(indexed_uniforms(5, 7, 3), indexed_uniform_matrix(5, 7, 4)[3])

    def test_keyed_uniforms_shared_across_windows(self):
        seq = PS.constant(0.5).truncate(2)
        small = long_range_box_window(seq, (0, 3), (0, 3))
        large = long_range_box_window(seq, (-2, 5), (-2, 5))
        small_pairs = {
            (u, v): k for (u, v, _), k in zip(small.edge_pairs(), small.edge_keys)
        }
        large_pairs = {
            (u, v): k for (u, v, _), k in zip(large.edge_pairs(), large.edge_keys)
        }
        shared = set(small_pairs) & set(large_pairs)
        assert shared
        for pair in shared:
            assert small_pairs[pair] == large_pairs[pair]
        u_small = keyed_uniforms(small.edge_keys, 99, 5)
        u_large = keyed_uniforms(large.edge_keys, 99, 5)
        index_small = {pair: i for i, (pair, _) in enumerate(zip(small_pairs, small.edge_keys))}
        for i, (u, v, _) in enumerate(small.edge_pairs()):
            for j, (uu, vv, _) in enumerate(large.edge_pairs()):
                if (u, v) == (uu, vv):
                    assert u_small[i] == u_large[j]

    def test_keyed_uniforms_in_unit_interval(self):
        keys = mix64(np.arange(1000, dtype=np.uint64))
        values = keyed_uniforms(keys, 5, 17)
        assert ((values >= 0) & (values < 1)).all()
        assert np.array_equal(values, keyed_uniforms(keys, 5, 17))
        assert not np.array_equal(values, keyed_uniforms(keys, 5, 18))

    def test_edge_keys_orientation_free_functions_of_coordinates(self):
        coords = np.array([[0, 0], [3, -2], [1, 0], [3, 5]])
        a = coordinate_edge_keys(coords, np.array([0, 1]), np.array([2, 3]))
        # The same edges over the vertex list reversed: keys follow the coordinates.
        b = coordinate_edge_keys(coords[::-1], np.array([3, 2]), np.array([1, 0]))
        assert np.array_equal(a, b)
        assert a[0] != a[1]


class TestSampling:
    def test_all_open_single_component(self):
        window = long_range_box_window(nn(1.0), (0, 3), (0, 3))
        state = sample_and_cluster(window, 1, 0)
        labels = state.forest.labels()
        assert len(set(labels.tolist())) == 1

    def test_all_closed_singletons(self):
        window = long_range_box_window(nn(0.0), (0, 3), (0, 3))
        state = sample_and_cluster(window, 1, 0)
        assert len(set(state.forest.labels().tolist())) == window.n_vertices
        assert state.open_edge_count() == 0

    def test_single_edge_binomial_concentration(self):
        window = long_range_box_window(nn(0.3), (0, 1), (0, 0))
        assert window.n_edges == 1
        trials = 10**5
        estimate = mc_event_probability(window, ("pair", 0, 1), trials, 2024)
        sigma = math.sqrt(0.3 * 0.7 / trials)
        assert abs(estimate.value - 0.3) <= 3 * sigma

    def test_estimate_invariants(self):
        window = long_range_crossing_window(nn(0.5), 2)
        estimate = crossing_estimate(window, 500, 7)
        assert estimate.value == estimate.successes / estimate.trials
        assert estimate.half_width == pytest.approx(
            1.96 * math.sqrt(estimate.value * (1 - estimate.value) / estimate.trials)
        )

    def test_determinism(self):
        window = long_range_crossing_window(nn(0.45), 4)
        first = crossing_estimate(window, 400, 123)
        second = crossing_estimate(window, 400, 123)
        assert first == second

    def test_batch_route_agrees_with_union_find_route(self):
        window = long_range_crossing_window(nn(0.5), 2)
        trials = 300
        batch = mc_event_probability(window, "crossing", trials, 55)
        left, right = window.terminals["left"], window.terminals["right"]
        successes = 0
        for trial in range(trials):
            state = sample_and_cluster(window, 55, trial)
            if any(state.same_component(int(a), int(b)) for a in left for b in right):
                successes += 1
        assert batch.successes == successes

    def test_scipy_labels_agree_with_union_find(self, rng):
        window = long_range_radial_window(PS.constant(0.5).truncate(2), 3)
        for trial in range(20):
            open_mask = trial_open_mask(window, 99, trial)
            scipy_labels = scipy_union_labels(window, open_mask[None, :])[0]
            forest = UnionFind(window.n_vertices)
            for e in np.nonzero(open_mask)[0]:
                forest.union(int(window.edges_u[e]), int(window.edges_v[e]))
            uf_labels = forest.labels()
            # Same partitions (labels may differ by renaming), and the kernel's too.
            for labels in (scipy_labels, component_labels(window, open_mask)):
                assert len(set(zip(labels.tolist(), uf_labels.tolist()))) == len(
                    set(labels.tolist())
                ) == len(set(uf_labels.tolist()))


class TestUnionFindAgainstBreadthFirstSearch:
    def test_exhaustive_small_window(self):
        window = long_range_box_window(PS.constant(0.5).truncate(2), (0, 2), (0, 1))
        assert window.n_edges <= 12
        m = window.n_edges
        for config in range(1 << m):
            open_edges = [
                (int(window.edges_u[e]), int(window.edges_v[e]))
                for e in range(m)
                if (config >> e) & 1
            ]
            forest = UnionFind(window.n_vertices)
            for u, v in open_edges:
                forest.union(u, v)
            labels = forest.labels()
            uf_parts = set()
            for root in set(labels.tolist()):
                uf_parts.add(frozenset(np.nonzero(labels == root)[0].tolist()))
            assert uf_parts == bfs_components(window.n_vertices, open_edges)


class TestExactOracle:
    def test_single_edge(self):
        window = long_range_box_window(nn(0.37), (0, 1), (0, 0))
        assert exact_event_probability(window, ("pair", 0, 1)) == pytest.approx(0.37)

    def test_two_edges_in_series(self):
        window = long_range_box_window(nn(0.4), (0, 2), (0, 0))
        u, v = (int(np.flatnonzero((window.coords == point).all(axis=1))[0]) for point in ((0, 0), (2, 0)))
        assert exact_event_probability(window, ("pair", u, v)) == pytest.approx(0.16)

    def test_crossing_half_by_duality(self):
        window = long_range_crossing_window(nn(0.5), 1)
        assert exact_event_probability(window, "crossing") == 0.5

    def test_refuses_large_windows(self):
        window = long_range_crossing_window(nn(0.5), 3)
        assert window.n_edges > MAX_EXACT_EDGES
        with pytest.raises(EnumerationLimitError):
            exact_event_probability(window, "crossing")

    def test_monte_carlo_within_four_sigma(self):
        window = long_range_crossing_window(nn(0.6), 2)
        exact = exact_event_probability(window, "crossing")
        trials = 10**5
        estimate = mc_event_probability(window, "crossing", trials, 31)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(estimate.value - exact) <= 4 * sigma


class TestMonotoneCoupling:
    def test_open_sets_nested_in_probability(self):
        low = long_range_crossing_window(nn(0.3), 3)
        high = long_range_crossing_window(nn(0.7), 3)
        for trial in range(50):
            open_low = trial_open_mask(low, 17, trial)
            open_high = trial_open_mask(high, 17, trial)
            assert not (open_low & ~open_high).any()

    def test_crossing_indicator_nondecreasing_in_probability(self):
        trials = 200
        values = []
        for p in (0.2, 0.5, 0.8):
            window = long_range_crossing_window(nn(p), 3)
            hits = []
            for trial in range(trials):
                labels = component_labels(window, trial_open_mask(window, 29, trial))
                left, right = window.terminals["left"], window.terminals["right"]
                hits.append(
                    bool(np.intersect1d(labels[left], labels[right]).size)
                )
            values.append(hits)
        for trial in range(trials):
            assert values[0][trial] <= values[1][trial] <= values[2][trial]

    def test_open_sets_nested_in_truncation(self):
        seq = PS.constant(0.5)
        narrow = long_range_box_window(seq.truncate(2), (0, 6), (0, 6))
        wide = long_range_box_window(seq.truncate(4), (0, 6), (0, 6))
        wide_index = {(u, v): e for e, (u, v, _) in enumerate(wide.edge_pairs())}
        mapping = np.array(
            [wide_index[(u, v)] for u, v, _ in narrow.edge_pairs()], dtype=np.int64
        )
        for trial in range(50):
            open_narrow = trial_open_mask(narrow, 43, trial, keyed=True)
            open_wide = trial_open_mask(wide, 43, trial, keyed=True)
            assert np.array_equal(open_narrow, open_wide[mapping])

    def test_reach_profile_nonincreasing_in_radius(self):
        window = long_range_radial_window(PS.constant(0.6).truncate(1), 6)
        estimates, indicators = origin_radius_profile(window, [2, 4, 6], 300, 77)
        assert (np.diff(indicators.astype(int), axis=1) <= 0).all()
        assert estimates[0].value >= estimates[1].value >= estimates[2].value

    @pytest.mark.parametrize("radii", [[16, 4], [4, 4], [0, 4], [-1]])
    def test_radii_below_one_or_out_of_order_are_refused(self, radii):
        # Decreasing radii would give indicator rows that increase along the radius axis.
        window = long_range_radial_window(PS.constant(0.2).truncate(2), 16)
        with pytest.raises(ValueError, match=re.escape(f"got {radii}")):
            origin_radius_profile(window, radii, 500, 3)


class TestOriginBoundary:
    @pytest.mark.parametrize(
        "build, p",
        [
            (lambda p: lattice_window(3, p, 3, "origin_boundary"), 0.3),
            (lambda p: lattice_window(3, p, 3, "origin_boundary", thickness=2), 0.3),
            (lambda p: long_range_radial_window(PS.constant(p).truncate(2), 6), 0.3),
            (lambda p: lattice_window(3, p, 2, "origin_boundary", thickness=3), 0.3),
            (lambda p: lattice_window(4, p, 2, "origin_boundary", thickness=4), 0.3),
            (lambda p: lattice_window(3, p, 1, "origin_boundary", thickness=3), 1.0),
        ],
        ids=["z3-r3", "slab-d3-k2-r3", "long-range-r6", "slab-d3-k3-r2", "slab-d4-k4-r2", "open-slab-d3-k3-r1"],
    )
    def test_reach_is_measured_on_the_free_axes_like_the_rim(self, build, p):
        # A slab's confined axes are no distance: on the same draws, reaching
        # the window radius is touching the rim, and nothing reaches beyond it.
        window = build(p)
        radius = window.meta["radius"]
        (at_rim, beyond), _ = origin_radius_profile(window, [radius, radius + 1], 4000, 11)
        assert at_rim.successes == origin_boundary_estimate(window, 4000, 11).successes
        assert beyond.successes == 0

    def test_certain_and_impossible(self):
        window = long_range_radial_window(nn(1.0), 3)
        assert origin_boundary_estimate(window, 50, 3).value == 1.0
        window = long_range_radial_window(nn(0.0), 3)
        assert origin_boundary_estimate(window, 50, 3).value == 0.0

    def test_window_without_origin_rejected(self):
        window = long_range_crossing_window(nn(0.5), 2)
        with pytest.raises(ValueError):
            origin_boundary_estimate(window, 10, 1)


def test_propagation_labels_match_scipy(rng):
    window = long_range_box_window(PS.constant(0.5).truncate(3), (0, 3), (0, 2))
    trials = 64
    uniforms = indexed_uniform_matrix(window.n_edges, 7, trials)
    open_matrix = uniforms < window.probs
    batch = propagation_labels(window.n_vertices, window.edges_u, window.edges_v, open_matrix)
    for t in range(trials):
        reference = scipy_union_labels(window, open_matrix[t : t + 1])[0]
        pairs = set(zip(batch[t].tolist(), reference.tolist()))
        assert len(pairs) == len(set(reference.tolist()))
