"""Route agreement for the block clustering route.

The batch estimators cluster a whole block of trials in one kernel call;
these tests pin that route to one trial at a time: 2-D against 1-D ``component_labels``, block-offset Philox matrices
against per-trial streams, and the block-wise containment pass (reaches and
containment) against per-trial reference loops.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from trunclab import engine
from trunclab.embedding import EmbeddedGraph, ScaleVector, SlabParameters
from trunclab.engine import (
    UnionFind,
    component_labels,
    exact_event_probability,
    mc_event_probability,
    origin_radius_profile,
    sample_and_cluster,
    trial_blocks,
    trial_open_mask,
)
from trunclab.harness import containment_check
from trunclab.rng import KEYED_STREAM_RULE, indexed_uniform_matrix, indexed_uniforms, keyed_uniforms
from trunclab.sequences import ProbabilitySequence as PS
from trunclab.windows import (
    GraphWindow,
    embedded_radial_window,
    long_range_crossing_window,
    long_range_radial_window,
    slab_crossing_window,
)

from conftest import bfs_components, scipy_union_labels


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Two label vectors describe the same partition (labels may differ by renaming)."""
    return len(set(zip(a.tolist(), b.tolist()))) == len(set(a.tolist())) == len(set(b.tolist()))


@pytest.fixture(scope="module")
def graph():
    return EmbeddedGraph(SlabParameters(3, 2), ScaleVector((1, 4), 2))


def radial_windows(graph, value):
    truncated = PS.lacunary(value, base=2).truncate(graph.scales.top)
    return embedded_radial_window(graph, truncated, 12), long_range_radial_window(truncated, 12)


@pytest.fixture(scope="module")
def radial_pair(graph):
    return radial_windows(graph, 0.9)


def route_windows(graph):
    truncated = PS.lacunary(0.6, base=2).truncate(graph.scales.top)
    return {
        "slab": slab_crossing_window(3, 2, 0.37, 8),
        "long-range": long_range_radial_window(PS.constant(0.3).truncate(3), 6),
        "embedded": embedded_radial_window(graph, truncated, 12),
        "small-crossing": long_range_crossing_window(PS.constant(0.5).truncate(1), 1),
    }


@pytest.mark.parametrize("kind", ["slab", "long-range", "embedded", "small-crossing"])
def test_block_labels_match_per_trial_labels(graph, kind):
    window = route_windows(graph)[kind]
    block = indexed_uniform_matrix(window.n_edges, 11, 13, 5) < window.probs
    labels = component_labels(window, block)
    assert labels.shape == (13, window.n_vertices)
    for row in range(13):
        single = component_labels(window, trial_open_mask(window, 11, 5 + row))
        assert same_partition(labels[row], single)
    # Labels never repeat across rows of one block.
    for row in range(1, 13):
        assert not np.intersect1d(labels[row - 1], labels[row]).size


@pytest.mark.parametrize("kind", ["slab", "long-range", "embedded", "small-crossing"])
def test_estimates_over_ragged_blocks_match_per_trial_loop(graph, kind, monkeypatch):
    window = route_windows(graph)[kind]
    monkeypatch.setattr(engine, "BLOCK_UNIFORMS", 7 * window.n_edges)
    trials = 45  # six blocks of 7 and one of 3
    assert [stop - start for start, stop in trial_blocks(trials, window)] == [7] * 6 + [3]
    event = "crossing" if kind in ("slab", "small-crossing") else "origin_boundary"
    left, right = engine.event_terminals(window, event)
    expected = 0
    for trial in range(trials):
        labels = component_labels(window, trial_open_mask(window, 23, trial))
        expected += bool(np.intersect1d(labels[left], labels[right]).size)
    assert mc_event_probability(window, event, trials, 23).successes == expected


def test_blocks_of_an_edgeless_window_fit_the_union_indices():
    # 14,641 vertices and no edge: a block is sized by its vertices, so the
    # labels of a block stay inside the kernel's 32-bit labels.
    window = long_range_radial_window(PS.constant(0.0), 60)
    assert window.n_edges == 0
    blocks = list(trial_blocks(200_000, window))
    assert blocks[0][0] == 0 and blocks[-1][1] == 200_000
    assert all(stop == next_start for (_, stop), (next_start, _) in zip(blocks, blocks[1:]))
    assert all((stop - start) * window.n_vertices <= engine.BLOCK_UNIFORMS for start, stop in blocks)
    assert mc_event_probability(window, "origin_boundary", 30, 1).successes == 0


def test_block_route_agrees_with_union_find():
    window = slab_crossing_window(3, 2, 0.4, 6)
    left, right = window.terminals["left"], window.terminals["right"]
    trials = 40
    successes = 0
    for trial in range(trials):
        labels = sample_and_cluster(window, 8, trial).forest.labels()
        successes += bool(np.intersect1d(labels[left], labels[right]).size)
    assert mc_event_probability(window, "crossing", trials, 8).successes == successes


def test_block_with_no_open_edge():
    window = slab_crossing_window(3, 2, 0.5, 4)
    closed = np.zeros((4, window.n_edges), dtype=bool)
    labels = component_labels(window, closed)
    assert len(np.unique(labels)) == 4 * window.n_vertices
    mixed = closed.copy()
    mixed[2] = True
    labels = component_labels(window, mixed)
    assert len(np.unique(labels[2])) == 1
    assert len(np.unique(labels[[0, 1, 3]])) == 3 * window.n_vertices
    assert np.array_equal(component_labels(window, closed[0]), np.arange(window.n_vertices))


def test_unsorted_edge_list():
    # A 6-cycle plus a chord, listed with edges_u out of order.
    edges = [(4, 5), (0, 1), (3, 4), (1, 2), (0, 5), (2, 3), (1, 4), (2, 5)]
    window = GraphWindow(
        family="hand",
        coords=np.arange(6, dtype=np.int64)[:, None],
        edges_u=np.array([u for u, _ in edges], dtype=np.int32),
        edges_v=np.array([v for _, v in edges], dtype=np.int32),
        probs=np.full(len(edges), 0.5),
        lengths=np.ones(len(edges), dtype=np.int32),
    )
    configs = np.arange(1 << len(edges))
    block = ((configs[:, None] >> np.arange(len(edges))) & 1).astype(bool)
    labels = component_labels(window, block)
    reference = scipy_union_labels(window, block)
    for row, mask in enumerate(block):
        open_edges = [edge for edge, is_open in zip(edges, mask) if is_open]
        parts = {frozenset(np.nonzero(labels[row] == label)[0].tolist()) for label in set(labels[row].tolist())}
        assert parts == bfs_components(6, open_edges)
        assert same_partition(component_labels(window, mask), labels[row])
        assert same_partition(reference[row], labels[row])
        forest = UnionFind(6)
        for u, v in open_edges:
            forest.union(u, v)
        assert same_partition(forest.labels(), labels[row])


def test_matrix_start_offsets_per_trial_streams():
    for n_edges in (5, 8, 61):
        matrix = indexed_uniform_matrix(n_edges, 97, 6, start=17)
        for t in range(6):
            assert np.array_equal(matrix[t], indexed_uniforms(n_edges, 97, 17 + t))
        assert np.array_equal(matrix, indexed_uniform_matrix(n_edges, 97, 23)[17:])


def test_radius_profile_matches_per_trial_reach(monkeypatch):
    window = long_range_radial_window(PS.constant(0.55).truncate(2), 8)
    monkeypatch.setattr(engine, "BLOCK_UNIFORMS", 9 * window.n_edges)
    radii = [2, 4, 8]
    _, indicators = origin_radius_profile(window, radii, 50, 3)
    norms = np.abs(window.coords).max(axis=1)
    for trial in range(50):
        labels = component_labels(window, trial_open_mask(window, 3, trial))
        reach = norms[labels == labels[window.origin_index]].max()
        assert indicators[trial].tolist() == [reach >= r for r in radii]


def per_trial_containment(embedded, full, trials, seed, corrupt_edge):
    """One trial at a time, with coordinate-tuple dictionaries for the maps."""
    full_edges = {
        (tuple(u.tolist()), tuple(v.tolist())): e
        for e, (u, v) in enumerate(zip(*full.edge_endpoint_coords()))
    }
    edge_map = np.array([full_edges[(tuple(u.tolist()), tuple(v.tolist()))]
                         for u, v in zip(*embedded.edge_endpoint_coords())])
    full_vertices = {tuple(c.tolist()): i for i, c in enumerate(full.coords)}
    vertex_map = np.array([full_vertices[tuple(c.tolist())] for c in embedded.coords])
    keys = embedded.edge_keys.copy()
    if corrupt_edge is not None:
        keys[corrupt_edge] ^= np.uint64(0x5DEECE66D)
    edge_violations = cluster_violations = 0
    first = None
    for trial in range(trials):
        open_embedded = keyed_uniforms(keys, seed, trial) < embedded.probs
        open_full = keyed_uniforms(full.edge_keys, seed, trial) < full.probs
        escaped = open_embedded & ~open_full[edge_map]
        if escaped.any():
            edge_violations += int(escaped.sum())
            e = int(np.nonzero(escaped)[0][0])
            first = first or {
                "kind": "edge-open-only-in-embedded",
                "trial": trial,
                "edge_index": e,
                "edge": [embedded.coords[embedded.edges_u[e]].tolist(),
                         embedded.coords[embedded.edges_v[e]].tolist()],
            }
            continue
        labels_emb = component_labels(embedded, open_embedded)
        labels_full = component_labels(full, open_full)
        cluster = np.nonzero(labels_emb == labels_emb[embedded.origin_index])[0]
        inside = labels_full[vertex_map[cluster]] == labels_full[full.origin_index]
        if not inside.all():
            cluster_violations += 1
            stray = cluster[np.nonzero(~inside)[0][0]]
            first = first or {
                "kind": "cluster-vertex-escapes",
                "trial": trial,
                "vertex": embedded.coords[stray].tolist(),
            }
    return edge_violations, cluster_violations, first


@pytest.mark.parametrize(
    "corrupt_edge, moved_origin",
    [(None, False), (3, False), (40, False), (None, True), (40, True)],
)
def test_containment_blocks_match_per_trial_reference(graph, corrupt_edge, moved_origin, monkeypatch):
    embedded, full = radial_windows(graph, 0.4)
    if moved_origin:
        # A full window whose origin sits on the rim: the embedded origin's
        # cluster escapes it whenever the two are not joined, which exercises
        # the cluster-violation path.
        full = dataclasses.replace(full, origin_index=int(full.terminals["boundary"][0]))
    monkeypatch.setattr(engine, "BLOCK_UNIFORMS", 6 * (embedded.n_edges + full.n_edges))
    trials = 80  # thirteen blocks of 6 and one of 2
    assert len(list(trial_blocks(trials, embedded, full))) == 14
    edge_violations, cluster_violations, first = per_trial_containment(
        embedded, full, trials, 9, corrupt_edge
    )
    # Reach trials beyond the containment trials must not change containment.
    for theta_trials in (0, 101):
        report = containment_check(
            embedded, full, trials, 9, corrupt_edge=corrupt_edge, theta_trials=theta_trials
        )
        assert report.edge_violations == edge_violations
        assert report.cluster_violations == cluster_violations
        assert report.first_violation == first
        assert report.passed == (first is None)
    # The reference saw the faults each case injects.
    assert (edge_violations > 0) == (corrupt_edge is not None)
    assert (cluster_violations > 0) == moved_origin


def test_missing_full_edge_is_unmapped(radial_pair):
    embedded, full = radial_pair
    lacking = 5
    u, v = (full.coords[full.edges_u], full.coords[full.edges_v])
    target = (embedded.coords[embedded.edges_u[lacking]], embedded.coords[embedded.edges_v[lacking]])
    drop = np.nonzero((u == target[0]).all(axis=1) & (v == target[1]).all(axis=1))[0]
    assert drop.size == 1
    keep = np.ones(full.n_edges, dtype=bool)
    keep[drop] = False
    trimmed = GraphWindow(
        family=full.family,
        coords=full.coords,
        edges_u=full.edges_u[keep],
        edges_v=full.edges_v[keep],
        probs=full.probs[keep],
        lengths=full.lengths[keep],
        terminals=full.terminals,
        origin_index=full.origin_index,
        edge_keys=full.edge_keys[keep],
        meta=full.meta,
    )
    report = containment_check(embedded, trimmed, 10, 9)
    assert not report.passed
    assert report.edge_violations == 1
    assert report.first_violation == {
        "kind": "unmapped-edge",
        "edge": [target[0].tolist(), target[1].tolist()],
    }



def per_trial_reach(window, keys, trials, seed):
    """Origin-to-boundary successes, one keyed trial and one 1-D clustering at a time."""
    boundary = window.terminals["boundary"]
    successes = 0
    for trial in range(trials):
        labels = component_labels(window, keyed_uniforms(keys, seed, trial) < window.probs)
        successes += bool(np.isin(labels[window.origin_index], labels[boundary]))
    return successes


@pytest.mark.parametrize("theta_trials", [20, 50, 77])
def test_pass_reaches_match_per_trial_loop(graph, theta_trials, monkeypatch):
    embedded, full = radial_windows(graph, 0.2)
    monkeypatch.setattr(engine, "BLOCK_UNIFORMS", 6 * (embedded.n_edges + full.n_edges))
    containment_trials = 50  # blocks of 6, the last one ragged in every case
    report = containment_check(embedded, full, containment_trials, 13, theta_trials=theta_trials)
    assert report.passed
    for window, estimate in ((embedded, report.embedded_reach), (full, report.full_reach)):
        successes = per_trial_reach(window, window.edge_keys, theta_trials, 13)
        assert 0 < successes < theta_trials  # neither reach is saturated
        assert estimate.successes == successes
        assert estimate.trials == theta_trials
        assert estimate.seed == 13
        assert estimate.stream_rule == KEYED_STREAM_RULE
    assert report.embedded_reach.label == "theta-embedded-r12"
    assert report.full_reach.label == "theta-full-r12"


def test_pass_without_theta_trials_reports_no_reach(radial_pair):
    report = containment_check(*radial_pair, 10, 9)
    assert report.embedded_reach is None and report.full_reach is None


def test_pass_reaches_agree_with_exact_enumeration():
    graph = EmbeddedGraph(SlabParameters(3, 1), ScaleVector((1, 3), 1))
    truncated = PS.constant(0.5).truncate(graph.scales.top)
    embedded = embedded_radial_window(graph, truncated, 1)
    full = long_range_radial_window(truncated, 1)
    assert full.n_edges <= engine.MAX_EXACT_EDGES
    trials = 10**5
    report = containment_check(embedded, full, 0, 31, theta_trials=trials)
    assert report.vacuous
    for window, estimate in ((embedded, report.embedded_reach), (full, report.full_reach)):
        exact = exact_event_probability(window, "origin_boundary")
        sigma = (exact * (1 - exact) / trials) ** 0.5
        assert abs(estimate.value - exact) <= 4 * sigma, (window.family, estimate.value, exact)
