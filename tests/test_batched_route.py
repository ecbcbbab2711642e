"""Route agreement for the block clustering route.

The batch estimators cluster a whole block of trials in one kernel call;
these tests pin that route to one trial at a time: 2-D against 1-D
``component_labels``, block-offset Philox matrices against per-trial streams,
and the reach profile on the certification windows against per-trial
reference loops.  The containment check reads only the structure of its
window pair; a per-trial reference that compares open edges and clusters
trial by trial tests that claim, on intact pairs and on pairs with one
injected fault each.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from trunclab import embedding, engine, harness, kernel
from trunclab.embedding import EmbeddedGraph, ScaleVector, SlabParameters
from trunclab.engine import (
    UnionFind,
    component_labels,
    exact_event_probability,
    mc_event_probability,
    origin_radius_profile,
    trial_open_mask,
)
from trunclab.harness import containment_check
from trunclab.rng import KEYED_STREAM_RULE, derive_seed, indexed_uniform_matrix, indexed_uniforms, keyed_uniforms
from trunclab.sequences import EpsilonCertificate
from trunclab.sequences import ProbabilitySequence as PS
from trunclab.thresholds import ThresholdSettings
from trunclab.windows import (
    GraphWindow,
    embedded_radial_window,
    lattice_window,
    long_range_crossing_window,
    long_range_radial_window,
)

from conftest import bfs_components, sample_and_cluster, scipy_union_labels


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
        "slab": lattice_window(3, 0.37, 8, "crossing", thickness=2),
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
    monkeypatch.setattr(engine, "HITS_PER_CALL", 7)
    trials = 45  # six calls of 7 trials and one of 3
    # The embedded window carries no boundary set; its event joins the origin
    # to the last vertex.
    event = {"slab": "crossing", "small-crossing": "crossing", "long-range": "origin_boundary",
             "embedded": ("pair", window.origin_index, window.n_vertices - 1)}[kind]
    left, right = engine.event_terminals(window, event)
    expected = 0
    for trial in range(trials):
        labels = component_labels(window, trial_open_mask(window, 23, trial))
        expected += bool(np.intersect1d(labels[left], labels[right]).size)
    assert mc_event_probability(window, event, trials, 23).successes == expected


def test_an_edgeless_window_never_reaches_its_boundary():
    window = long_range_radial_window(PS.constant(0.0), 60)
    assert window.n_edges == 0 and window.n_vertices == 14_641
    assert mc_event_probability(window, "origin_boundary", 30, 1).successes == 0


def test_block_route_agrees_with_union_find():
    window = lattice_window(3, 0.4, 6, "crossing", thickness=2)
    left, right = window.terminals["left"], window.terminals["right"]
    trials = 40
    successes = 0
    for trial in range(trials):
        labels = sample_and_cluster(window, 8, trial).forest.labels()
        successes += bool(np.intersect1d(labels[left], labels[right]).size)
    assert mc_event_probability(window, "crossing", trials, 8).successes == successes


def test_block_with_no_open_edge():
    window = lattice_window(3, 0.5, 4, "crossing", thickness=2)
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


def test_radius_profile_matches_per_trial_reach():
    window = long_range_radial_window(PS.constant(0.55).truncate(2), 8)
    radii = [2, 4, 8]
    _, indicators = origin_radius_profile(window, radii, 50, 3)
    norms = np.abs(window.coords).max(axis=1)
    for trial in range(50):
        labels = component_labels(window, trial_open_mask(window, 3, trial, keyed=True))
        reach = norms[labels == labels[window.origin_index]].max()
        assert indicators[trial].tolist() == [reach >= r for r in radii]


def test_theta_rows_are_the_profiles_of_the_pair(monkeypatch):
    # A run whose embedded theta rows are below 1, so the rows are not all alike.
    config = harness.PipelineConfig(
        sequence=PS.lacunary(0.5, base=2),
        certificate=EpsilonCertificate(0.45, evidence="0.5 on a geometric length set"),
        d_max=4,
        k_max=3,
        verify_coarse=2,
        verify_vertical=2,
        theta_radii=(4, 8, 12),
        theta_trials=200,
        containment_trials=100,
        thresholds=ThresholdSettings(l_schedule=(6, 12), bracket_tol=0.04, trials_per_probe=400, coarse_trials=150),
        master_seed=424242,
    )
    calls = []

    def counted(window, *args):
        calls.append((window.family, window.meta["radius"], *args))
        return kernel.keyed_reach(window, *args)

    def refused(*args):
        raise AssertionError("theta drew indexed hits")

    monkeypatch.setattr(engine, "keyed_reach", counted)
    monkeypatch.setattr(engine, "indexed_hits", refused)
    report = harness.run_pipeline(config)
    assert report.passed
    radii = list(config.theta_radii)
    radius = max(radii) + report.truncation
    seed = derive_seed(config.master_seed, "containment", radius)
    trials = config.theta_trials
    # One search per window of the pair, on the pair's stage seed.
    assert calls == [("embedded", radius, seed, 0, trials), ("z2-long-range", radius, seed, 0, trials)]
    truncated = config.sequence.truncate(report.truncation)
    thickness = report.slab["thickness"]
    graph = EmbeddedGraph(SlabParameters(report.slab["dimension"], thickness), ScaleVector(tuple(report.scales), thickness))
    windows = {
        "embedded": embedded_radial_window(graph, truncated, radius),
        "full": long_range_radial_window(truncated, radius),
    }
    for name, window in windows.items():
        reach = kernel.keyed_reach(window, seed, 0, trials)
        estimates, indicators = origin_radius_profile(window, radii, trials, seed, f"theta-{name}-")
        assert np.array_equal(indicators, reach[:, None] >= np.array(radii))
        for estimate, row in zip(estimates, report.theta):
            assert harness._estimate_dict(estimate) == row[name]
            assert estimate.label == f"theta-{name}-r{row['radius']}"
    assert [row["embedded"]["successes"] for row in report.theta] != [trials] * len(radii)


def per_trial_containment(embedded, full, trials, seed):
    """Containment violations counted one trial at a time, with coordinate-tuple
    dictionaries for the maps.  An embedded edge missing from the full window
    is closed there, and an embedded vertex missing from it lies outside the
    full origin's cluster.  A trial with an escaped edge counts its escaped
    edges only; its clusters are not compared."""
    full_edges = {
        (tuple(u.tolist()), tuple(v.tolist())): e
        for e, (u, v) in enumerate(zip(full.coords[full.edges_u], full.coords[full.edges_v]))
    }
    edge_map = np.array([full_edges.get((tuple(u.tolist()), tuple(v.tolist())), -1)
                         for u, v in zip(embedded.coords[embedded.edges_u], embedded.coords[embedded.edges_v])])
    full_vertices = {tuple(c.tolist()): i for i, c in enumerate(full.coords)}
    vertex_map = np.array([full_vertices.get(tuple(c.tolist()), -1) for c in embedded.coords])
    edge_violations = cluster_violations = 0
    for trial in range(trials):
        open_embedded = keyed_uniforms(embedded.edge_keys, seed, trial) < embedded.probs
        open_full = keyed_uniforms(full.edge_keys, seed, trial) < full.probs
        escaped = open_embedded & ~np.append(open_full, False)[edge_map]
        if escaped.any():
            edge_violations += int(escaped.sum())
            continue
        labels_emb = component_labels(embedded, open_embedded)
        labels_full = np.append(component_labels(full, open_full), -1)
        cluster = np.nonzero(labels_emb == labels_emb[embedded.origin_index])[0]
        if (labels_full[vertex_map[cluster]] != labels_full[full.origin_index]).any():
            cluster_violations += 1
    return edge_violations, cluster_violations


def check_against_reference(embedded, full, first_violation):
    """The structural check fails naming ``first_violation``, or passes when it
    is None.  A pass means the per-trial reference finds no violation in 80
    trials; every fault these tests inject is one the reference sees there."""
    report = containment_check(embedded, full, 80, 9)
    assert report.first_violation == first_violation
    assert report.passed == (first_violation is None)
    assert (sum(per_trial_containment(embedded, full, 80, 9)) == 0) == report.passed
    return report


def edge_coords(window, e):
    return [window.coords[window.edges_u[e]].tolist(), window.coords[window.edges_v[e]].tolist()]


@pytest.mark.parametrize(
    "corrupt_edge, moved_origin",
    [(None, False), (3, False), (40, False), (None, True), (40, True)],
)
def test_containment_blocks_match_per_trial_reference(graph, corrupt_edge, moved_origin):
    embedded, full = radial_windows(graph, 0.4)
    first = None
    if corrupt_edge is not None:
        keys = embedded.edge_keys.copy()
        keys[corrupt_edge] ^= np.uint64(0x5DEECE66D)
        embedded = dataclasses.replace(embedded, edge_keys=keys)
        first = {"kind": "edge-key-differs", "edge_index": corrupt_edge, "edge": edge_coords(embedded, corrupt_edge)}
    if moved_origin:
        # A full window whose origin sits on the rim: the embedded origin's
        # cluster escapes it whenever the two are not joined.
        full = dataclasses.replace(full, origin_index=int(full.terminals["boundary"][0]))
        first = {"kind": "origin-mismatch", "vertex": [0, 0], "full_origin": full.coords[full.origin_index].tolist()}
    report = check_against_reference(embedded, full, first)
    assert report.edge_violations == int(corrupt_edge is not None)
    assert report.cluster_violations == int(moved_origin)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
def test_edge_lookup_finds_the_first_directed_edge_in_every_chunk(radial_pair, chunk, monkeypatch):
    monkeypatch.setattr(embedding, "_LOOKUP_CHUNK", chunk)
    _, full = radial_pair
    # Repeating the first edges at the end gives those pairs two indices.
    window = dataclasses.replace(
        full, edges_u=np.concatenate([full.edges_u, full.edges_u[:20]]),
        edges_v=np.concatenate([full.edges_v, full.edges_v[:20]]),
    )
    rng = np.random.default_rng(5)
    picks = rng.integers(0, window.n_edges, size=200)
    heads = np.concatenate([window.edges_u[picks], window.edges_v[picks], rng.integers(-1, window.n_vertices, 200)])
    tails = np.concatenate([window.edges_v[picks], window.edges_u[picks], rng.integers(-1, window.n_vertices, 200)])
    first = {}
    for e, pair in enumerate(zip(window.edges_u.tolist(), window.edges_v.tolist())):
        first.setdefault(pair, e)
    expected = [first.get(pair, -1) for pair in zip(heads.tolist(), tails.tolist())]
    assert embedding._row_lookup((window.edges_u, window.edges_v), (heads, tails)).tolist() == expected
    assert expected[:20] != [-1] * 20 and expected[200:220] == [-1] * 20  # found forward, never reversed


def test_structural_check_ignores_trial_counts(radial_pair):
    # The check covers every trial and draws nothing: the counts and the seed are only recorded.
    rows = [containment_check(*radial_pair, trials, seed).to_dict() for trials, seed in ((0, 9), (1000, 9), (0, 7))]
    assert rows[0] == {**rows[1], "trials": 0} == {**rows[2], "seed": 9}


@pytest.mark.parametrize("change", ["raised", "lowered"])
def test_embedded_probability_above_its_image_is_named(graph, change):
    embedded, full = radial_windows(graph, 0.4)
    probs = embedded.probs.copy()
    probs[40] = 1.0 if change == "raised" else 0.1
    first = {"kind": "edge-threshold-exceeds-full", "edge_index": 40, "edge": edge_coords(embedded, 40)}
    # Lowering an embedded probability keeps containment: the edge opens on a
    # subset of the trials its image opens on.
    check_against_reference(dataclasses.replace(embedded, probs=probs), full, first if change == "raised" else None)


def test_stray_embedded_vertex_is_named(graph):
    embedded, full = radial_windows(graph, 0.4)
    coords = embedded.coords.copy()
    stray = int(embedded.edges_v[0])
    coords[stray] = [13, 13]  # outside the radius-12 full window, with its edges
    report = check_against_reference(
        dataclasses.replace(embedded, coords=coords), full, {"kind": "unmapped-vertex", "vertex": [13, 13]}
    )
    assert report.cluster_violations == 1
    assert report.edge_violations == np.count_nonzero((embedded.edges_u == stray) | (embedded.edges_v == stray))


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
    report = check_against_reference(embedded, trimmed, {
        "kind": "unmapped-edge",
        "edge_index": lacking,
        "edge": [target[0].tolist(), target[1].tolist()],
    })
    assert report.edge_violations == 1


def per_trial_reaches(window, keys, trials, seed):
    """Largest sup-norm in the origin's cluster, one keyed trial and one 1-D clustering at a time."""
    norms = np.abs(window.coords).max(axis=1)
    reaches = []
    for trial in range(trials):
        labels = component_labels(window, keyed_uniforms(keys, seed, trial) < window.probs)
        reaches.append(int(norms[labels == labels[window.origin_index]].max()))
    return np.array(reaches)


def window_reaches(window, trials, seed):
    """Each trial's reach read off the profile at every radius of the window, up to its own."""
    radii = list(range(1, window.meta["radius"] + 1))
    return origin_radius_profile(window, radii, trials, seed)[1].sum(axis=1)


@pytest.mark.parametrize("theta_trials", [20, 50, 77])
def test_profile_reaches_match_per_trial_loop(graph, theta_trials):
    embedded, full = radial_windows(graph, 0.2)
    assert containment_check(embedded, full, 50, 13).passed
    for name, window in (("embedded", embedded), ("full", full)):
        reaches = per_trial_reaches(window, window.edge_keys, theta_trials, 13)
        assert np.array_equal(window_reaches(window, theta_trials, 13), reaches)
        # The windows have radius 12 and the truncation level is 4, so every
        # radius up to 8 is decided exactly.
        estimates, _ = origin_radius_profile(window, [1, 2, 4, 8], theta_trials, 13, f"theta-{name}-")
        for rho, estimate in zip((1, 2, 4, 8), estimates):
            assert estimate.successes == int((reaches >= rho).sum())
            assert estimate.trials == theta_trials
            assert estimate.seed == 13
            assert estimate.stream_rule == KEYED_STREAM_RULE
            assert estimate.label == f"theta-{name}-r{rho}"
        # Neither profile is saturated at radius 4.
        assert 0 < estimates[2].successes < theta_trials


def test_moved_embedded_origin_is_named(graph):
    embedded, full = radial_windows(graph, 0.2)
    # The embedded origin moved to a rim vertex reaches the radius on every
    # trial, while the full origin's cluster rarely does.
    rim = int(np.argmax(np.abs(embedded.coords).max(axis=1)))
    moved = dataclasses.replace(embedded, origin_index=rim)
    report = check_against_reference(moved, full, {
        "kind": "origin-mismatch", "vertex": moved.coords[rim].tolist(), "full_origin": [0, 0],
    })
    assert report.cluster_violations == 1 and report.edge_violations == 0
    # The moved origin's reaches are still searched, and exceed the full ones.
    moved_reach = window_reaches(moved, 40, 13)
    assert np.array_equal(moved_reach, per_trial_reaches(moved, moved.edge_keys, 40, 13))
    assert (moved_reach > window_reaches(full, 40, 13)).any()


def test_profile_agrees_with_exact_enumeration():
    # (shape, scales, sequence, window radius): the full window of the first
    # case and the embedded windows of both are small enough to enumerate.
    cases = [
        ((3, 1), (1, 3), PS.constant(0.5), 1),
        ((3, 2), (1, 4), PS.lacunary(0.5, support=(1, 4)), 2),
    ]
    trials = 10**5
    checked = []
    for (dimension, thickness), scale_values, seq, radius in cases:
        graph = EmbeddedGraph(SlabParameters(dimension, thickness), ScaleVector(scale_values, thickness))
        truncated = seq.truncate(graph.scales.top)
        embedded = embedded_radial_window(graph, truncated, radius)
        full = long_range_radial_window(truncated, radius)
        for window in (embedded, full):
            if window.n_edges > engine.MAX_EXACT_EDGES:
                continue
            estimates, _ = origin_radius_profile(window, range(1, radius + 1), trials, 31)
            for rho, estimate in enumerate(estimates, 1):
                # The profile's event at rho: the origin reaches a vertex of norm >= rho.
                far = np.flatnonzero(np.abs(window.coords).max(axis=1) >= rho)
                target = dataclasses.replace(window, terminals={**window.terminals, "boundary": far})
                exact = exact_event_probability(target, "origin_boundary")
                sigma = (exact * (1 - exact) / trials) ** 0.5
                assert abs(estimate.value - exact) <= 4 * sigma, (window.describe(), rho, estimate.value, exact)
                checked.append((window.family, radius, rho))
    assert checked == [
        ("embedded", 1, 1), ("z2-long-range", 1, 1), ("embedded", 2, 1), ("embedded", 2, 2),
    ]
