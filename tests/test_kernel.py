"""The compiled union-find kernel against its references, and its build.

Every Monte Carlo estimate clusters through :mod:`trunclab.kernel`.  Its
labels must give the same partitions as scipy's ``connected_components``
(``scipy_union_labels``) and the pure-Python ``UnionFind`` on every window
family, and they must take the documented form: the smallest vertex index of
the component plus ``row * n_vertices``.  The indexed drawing entry point
must open exactly the edges numpy's Philox stream
(``indexed_uniform_matrix``) opens.  It returns labels only, so the draws
are checked on chain windows, where every edge is a bridge and its ends
share a label exactly when it is open (:func:`bridge_mask`), and on every
family window against ``mask_labels`` of the reference mask.  The
hand-built window with unsorted ``edges_u`` is checked against all three
references in ``test_batched_route.py``.  The search from the origin
(``keyed_reach``) must give, on every trial, the reach that
``origin_reach`` reads off the labels of the masks ``keyed_uniforms(keys,
seed, t) < probs``, a draw it does not share.  Each trial's crossing
bottleneck (``indexed_bottlenecks``) must equal the least of its uniforms
at which a bisection over them, clustered by scipy, finds a crossing.
"""

from __future__ import annotations

import dataclasses
import re
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunclab import engine, kernel
from trunclab.embedding import EmbeddedGraph, ScaleVector, SlabParameters, select_scales
from trunclab.engine import UnionFind, component_labels, origin_reach, trial_blocks
from trunclab.kernel import indexed_bottlenecks, indexed_labels, keyed_reach, mask_labels
from trunclab.rng import indexed_uniform_matrix, indexed_uniforms, keyed_uniforms, mix64, open_thresholds
from trunclab.sequences import ProbabilitySequence as PS
from trunclab.windows import (
    GraphWindow,
    embedded_radial_window,
    lattice_window,
    long_range_box_window,
    long_range_crossing_window,
    long_range_radial_window,
)

from conftest import bisection_bottleneck, scipy_union_labels


def smallest_member(reference: np.ndarray) -> np.ndarray:
    """Per vertex, the smallest vertex index carrying the same reference label."""
    first = np.full(int(reference.max()) + 1, reference.size, dtype=np.int64)
    np.minimum.at(first, reference, np.arange(reference.size))
    return first[reference]


def expected_labels(reference_block: np.ndarray) -> np.ndarray:
    """The kernel's labels for a block, derived from any reference labelling of it."""
    n = reference_block.shape[1]
    return np.stack(
        [smallest_member(row) + index * n for index, row in enumerate(reference_block)]
    )


def bridge_mask(window: GraphWindow, labels: np.ndarray) -> np.ndarray:
    """The open mask of each labelled trial of a window whose every edge is a
    bridge: such an edge is open iff its two ends share a label."""
    return labels[:, window.edges_u] == labels[:, window.edges_v]


def union_find_labels(window: GraphWindow, mask: np.ndarray) -> np.ndarray:
    forest = UnionFind(window.n_vertices)
    for e in np.nonzero(mask)[0]:
        forest.union(int(window.edges_u[e]), int(window.edges_v[e]))
    return forest.labels()


def family_windows():
    graph = EmbeddedGraph(SlabParameters(3, 2), ScaleVector((1, 4), 2))
    windows = {
        "long-range-box": long_range_box_window(PS.constant(0.4).truncate(3), (-2, 4), (0, 5)),
        "long-range-crossing": long_range_crossing_window(PS.lacunary(0.6, base=2).truncate(4), 5),
        "long-range-radial": long_range_radial_window(PS.constant(0.3).truncate(3), 6),
        "embedded": embedded_radial_window(graph, PS.lacunary(0.6, base=2).truncate(2), 12),
    }
    for d, side in ((2, 6), (3, 4), (4, 2)):
        windows[f"grid-crossing-d{d}"] = lattice_window(d, 0.45, side, "crossing")
        windows[f"grid-radial-d{d}"] = lattice_window(d, 0.45, side // 2 + 1, "origin_boundary")
        windows[f"slab-crossing-d{d}"] = lattice_window(d, 0.45, side, "crossing", thickness=2)
        windows[f"slab-radial-d{d}"] = lattice_window(d, 0.45, side // 2 + 1, "origin_boundary", thickness=2)
    return windows


FAMILIES = family_windows()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_kernel_scipy_and_union_find_agree_on_every_family(name):
    window = FAMILIES[name]
    block = indexed_uniform_matrix(window.n_edges, 5, 9, 3) < window.probs
    labels = mask_labels(window, block)
    reference = scipy_union_labels(window, block)
    assert labels.dtype == np.int32
    assert np.array_equal(labels, expected_labels(reference))
    for row, mask in enumerate(block):
        forest = union_find_labels(window, mask)
        assert np.array_equal(labels[row] - row * window.n_vertices, smallest_member(forest))
    # Labels never repeat across the rows of a block.
    assert len(np.unique(labels)) == sum(len(np.unique(row)) for row in labels)
    # The kernel's own draw of the same indexed trials gives the same block.
    assert np.array_equal(indexed_labels(window, 5, 3, 12), labels)


@pytest.mark.parametrize("name", ["slab-crossing-d3", "embedded", "long-range-radial"])
def test_ragged_blocks_match_scipy(name, monkeypatch):
    window = FAMILIES[name]
    monkeypatch.setattr(engine, "BLOCK_UNIFORMS", 4 * window.n_edges)
    trials = 11  # blocks of 4, 4 and 3
    opened = indexed_uniform_matrix(window.n_edges, 17, trials) < window.probs
    sizes = []
    for start, stop in trial_blocks(trials, window):
        sizes.append(stop - start)
        block = opened[start:stop]
        assert np.array_equal(mask_labels(window, block), expected_labels(scipy_union_labels(window, block)))
    assert sizes == [4, 4, 3]
    for trial in range(trials):
        assert np.array_equal(
            component_labels(window, opened[trial]),
            smallest_member(scipy_union_labels(window, opened[trial : trial + 1])[0]),
        )


def test_edgeless_window_with_many_vertices():
    window = long_range_radial_window(PS.constant(0.0), 60)
    assert window.n_edges == 0 and window.n_vertices == 14_641
    rows = 13
    labels = mask_labels(window, np.zeros((rows, 0), dtype=bool))
    assert np.array_equal(labels.ravel(), np.arange(rows * window.n_vertices))
    assert window.edge_keys.shape == (0,)
    assert np.array_equal(keyed_reach(window, 3, 40, 40 + rows), np.zeros(rows))
    assert np.array_equal(indexed_labels(window, 3, 40, 40 + rows), labels)


def with_probability(window: GraphWindow, p: float) -> GraphWindow:
    return dataclasses.replace(window, probs=np.full(window.n_edges, p))


@pytest.mark.parametrize("p", [1.0, 0.5, 5e-324, None])
@pytest.mark.parametrize("corrupt_edge", [None, 7])
def test_keyed_search_draws_the_keyed_uniforms(p, corrupt_edge):
    window = FAMILIES["embedded"] if p is None else with_probability(FAMILIES["long-range-radial"], p)
    keys = window.edge_keys.copy()
    if corrupt_edge is not None:
        keys[corrupt_edge] ^= np.uint64(0x5DEECE66D)
    window = dataclasses.replace(window, edge_keys=keys)
    # A chain searched from its first vertex reaches exactly as far as its
    # first closed edge, so each trial's search reads the keyed draws in order.
    chain = dataclasses.replace(chain_window(window.n_edges, window.probs), edge_keys=keys, origin_index=0)
    for seed, start, stop in ((13, 0, 6), (9223372037480117393, 57, 61)):
        reference = np.stack([keyed_uniforms(keys, seed, t) < window.probs for t in range(start, stop)])
        prefix = np.where(reference.all(axis=1), window.n_edges, np.argmin(reference, axis=1))
        assert np.array_equal(keyed_reach(chain, seed, start, stop), prefix)
        assert np.array_equal(keyed_reach(window, seed, start, stop), origin_reach(window, mask_labels(window, reference)))
    if p == 1.0:
        assert reference.all()
    if p == 5e-324:
        assert window.open_thresholds.tolist() == [1] * window.n_edges


def unmix64(word: int) -> int:
    """Inverse of the splitmix64 finalizer ``rng.mix64``."""

    def unshift(value, shift):
        result = value
        for _ in range(64 // shift + 1):
            result = value ^ (result >> shift)
        return result

    mask = (1 << 64) - 1
    word = unshift(word, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & mask
    word = unshift(word, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask
    return (unshift(word, 30) - 0x9E3779B97F4A7C15) & mask


@pytest.mark.parametrize("p", [0.5, 0.3, 1 / 3, 5e-324, 1.0])
def test_keyed_threshold_is_exact_at_the_boundary(p):
    # Keys chosen so that trial 4 draws the words just below and at the
    # integer threshold: the first edge must open, the second must not.
    seed, trial = 21, 4
    threshold = int(open_thresholds(np.array([p]))[0])
    stamp = int(mix64(np.uint64(seed) ^ mix64(np.uint64(trial) + np.uint64(1))))
    tops = [threshold - 1] + ([threshold] if threshold < 2**53 else [])
    keys = np.array([unmix64((top << 11) | 0x5A5) ^ stamp for top in tops], dtype=np.uint64)
    window = GraphWindow(
        family="hand",
        coords=np.arange(len(tops) + 1, dtype=np.int64)[:, None],
        edges_u=np.zeros(len(tops), dtype=np.int32),
        edges_v=np.arange(1, len(tops) + 1, dtype=np.int32),
        probs=np.full(len(tops), p),
        lengths=np.ones(len(tops), dtype=np.int32),
        edge_keys=keys,
    )
    assert (mix64(keys ^ np.uint64(stamp)) >> np.uint64(11)).tolist() == tops
    expected = [True, False][: len(tops)]
    assert (keyed_uniforms(keys, seed, trial) < window.probs).tolist() == expected
    # The search computes each threshold itself: from the centre, it reaches
    # the first leaf (norm 1) and not the second (norm 2).
    assert keyed_reach(dataclasses.replace(window, origin_index=0), seed, trial, trial + 1).tolist() == [1]


def chain_window(n_edges: int, probs) -> GraphWindow:
    """A path of ``n_edges`` edges with the given edge probabilities."""
    return GraphWindow(
        family="hand",
        coords=np.arange(n_edges + 1, dtype=np.int64)[:, None],
        edges_u=np.arange(n_edges, dtype=np.int32),
        edges_v=np.arange(1, n_edges + 1, dtype=np.int32),
        probs=np.broadcast_to(np.asarray(probs, dtype=np.float64), (n_edges,)).copy(),
        lengths=np.ones(n_edges, dtype=np.int32),
    )


@pytest.mark.parametrize("n_edges", [*range(1, 10), 54, 1000])
@pytest.mark.parametrize("seed", [0, 2**63 + 17, 2**64 - 1])
def test_indexed_masks_equal_numpy_philox(n_edges, seed):
    window = chain_window(n_edges, 0.5)
    # A start past 2^64 / ceil(E / 4) carries the Philox counter into its second word.
    for start, stop in ((0, 7), (13, 16), (2**62 + 5, 2**62 + 8)):
        labels = indexed_labels(window, seed, start, stop)
        reference = indexed_uniform_matrix(n_edges, seed, stop - start, start) < window.probs
        assert np.array_equal(bridge_mask(window, labels), reference)
        assert np.array_equal(labels, mask_labels(window, reference))


def test_indexed_threshold_is_exact_at_the_boundary():
    # Each edge's probability is its own uniform in trial 6 (which must stay
    # closed) or the next multiple of 2^-53 above it (which must open).
    seed, trial, n_edges = 23, 6, 10
    uniforms = indexed_uniform_matrix(n_edges, seed, 1, trial)[0]
    above = np.arange(n_edges) % 2 == 0
    window = chain_window(n_edges, uniforms + np.where(above, 2.0**-53, 0.0))
    thresholds = window.open_thresholds
    assert (thresholds - (uniforms * 2.0**53).astype(np.uint64)).tolist() == above.astype(int).tolist()
    opened = bridge_mask(window, indexed_labels(window, seed, trial, trial + 1))
    assert opened[0].tolist() == above.tolist()
    assert (indexed_uniforms(n_edges, seed, trial) < window.probs).tolist() == above.tolist()
    for p in (0.0, 1.0):
        certain = chain_window(n_edges, p)
        labels = indexed_labels(certain, seed, 0, 50)
        opened = bridge_mask(certain, labels)
        assert (opened == bool(p)).all()
        assert np.array_equal(labels, mask_labels(certain, opened))


def test_out_of_range_inputs_are_refused():
    window = FAMILIES["grid-crossing-d2"]
    bad = dataclasses.replace(window, edges_v=window.edges_v.copy())
    bad.edges_v[-1] = window.n_vertices
    with pytest.raises(ValueError, match="outside the window"):
        mask_labels(bad, np.ones((1, window.n_edges), dtype=bool))
    bad.edges_v[-1] = -1
    with pytest.raises(ValueError, match="outside the window"):
        mask_labels(bad, np.ones((1, window.n_edges), dtype=bool))
    with pytest.raises(ValueError, match="does not fit"):
        mask_labels(window, np.ones((1, window.n_edges + 1), dtype=bool))
    wide = long_range_radial_window(PS.constant(0.0), 127)  # 65,025 vertices
    with pytest.raises(ValueError, match="32-bit"):
        mask_labels(wide, np.zeros((2**31 // wide.n_vertices + 1, 0), dtype=bool))


def test_edges_are_checked_once_per_window_and_only_when_valid():
    window = FAMILIES["grid-crossing-d2"]
    window = dataclasses.replace(window, edges_v=window.edges_v.copy())
    last = window.edges_v[-1]
    window.edges_v[-1] = window.n_vertices
    block = np.ones((1, window.n_edges), dtype=bool)
    with pytest.raises(ValueError, match="outside the window"):
        mask_labels(window, block)
    assert "kernel_edges" not in vars(window)
    window.edges_v[-1] = last
    labels = mask_labels(window, block)
    checked = vars(window)["kernel_edges"]
    assert np.array_equal(mask_labels(window, block), labels)
    assert vars(window)["kernel_edges"] is checked


@pytest.mark.parametrize(
    "name, fault",
    [
        ("slab-radial-d3", None),
        ("long-range-radial", "probs"),
        ("embedded", "probs"),
        ("long-range-radial", "edge_keys"),
        ("embedded", "edge_keys"),
    ],
    ids=["keyless", "probs-long-range", "probs-embedded", "keys-long-range", "keys-embedded"],
)
def test_draws_refuse_a_window_whose_arrays_do_not_fit_naming_its_family(name, fault):
    window = FAMILIES[name]
    if fault is not None:
        window = dataclasses.replace(window, **{fault: getattr(window, fault)[:-1]})
    with pytest.raises(ValueError, match=re.escape(repr(window.family))):
        keyed_reach(window, 1, 0, 2)
    if fault == "probs":
        with pytest.raises(ValueError, match=re.escape(repr(window.family))):
            indexed_labels(window, 1, 0, 2)


def test_thresholds_are_computed_once_per_window_and_only_when_valid():
    valid = FAMILIES["long-range-radial"]
    window = dataclasses.replace(valid, probs=valid.probs[:-1])
    with pytest.raises(ValueError, match="one edge probability per edge"):
        indexed_labels(window, 1, 0, 2)
    assert "open_thresholds" not in vars(window)
    window.probs = valid.probs
    labels = indexed_labels(window, 1, 0, 2)
    cached = vars(window)["open_thresholds"]
    assert np.array_equal(cached, open_thresholds(valid.probs))
    assert np.array_equal(indexed_labels(window, 1, 0, 2), labels)
    assert vars(window)["open_thresholds"] is cached


def test_kernel_source_compiles_without_warnings(tmp_path):
    # A parameter left unused, such as a dropped output array, or a signed
    # and unsigned comparison fails here; the full optimising build also
    # runs the warnings that need the optimiser's analysis.
    command = [*kernel.COMPILER, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "kernel.so"), str(kernel.SOURCE)]
    result = subprocess.run(command, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_second_load_reuses_the_cached_library(monkeypatch):
    path = kernel.build()
    assert path.exists() and path.parent.name == "__pycache__"
    monkeypatch.setattr(kernel, "COMPILER", ("false",))
    kernel.library.cache_clear()
    try:
        assert kernel.build() == path
        window = FAMILIES["grid-crossing-d2"]
        assert mask_labels(window, np.zeros((1, window.n_edges), dtype=bool)).shape == (1, window.n_vertices)
    finally:
        kernel.library.cache_clear()


def test_changed_source_builds_a_new_file(tmp_path):
    source = tmp_path / "_kernel.c"
    shutil.copy(kernel.SOURCE, source)
    first = kernel.build(source)
    source.write_text(source.read_text() + "/* changed */\n")
    second = kernel.build(source)
    assert first.exists() and second.exists() and first != second
    assert first.name == kernel.build().name  # the same text names the same file
    assert sorted(p.name for p in second.parent.iterdir()) == sorted([first.name, second.name])


@pytest.mark.parametrize("compiler", [("false",), ("trunclab-no-such-compiler",)])
def test_failing_compiler_names_the_command(tmp_path, monkeypatch, compiler):
    source = tmp_path / "_kernel.c"
    source.write_text(kernel.SOURCE.read_text() + "/* never built */\n")
    monkeypatch.setattr(kernel, "COMPILER", compiler)
    with pytest.raises(RuntimeError, match=f"{compiler[0]} -o .* {re.escape(str(source))}"):
        kernel.build(source)
    assert list((tmp_path / "__pycache__").iterdir()) == []


def reference_reach(window: GraphWindow, seed: int, start: int, stop: int) -> np.ndarray:
    """The origin's reach from the whole window's labels of the numpy keyed draws."""
    masks = [keyed_uniforms(window.edge_keys, seed, t) < window.probs for t in range(start, stop)]
    if not masks:
        return np.zeros(0, dtype=np.int64)
    return origin_reach(window, mask_labels(window, np.stack(masks)))


def without_origin_edges(window: GraphWindow) -> GraphWindow:
    kept = (window.edges_u != window.origin_index) & (window.edges_v != window.origin_index)
    return dataclasses.replace(
        window, edges_u=window.edges_u[kept], edges_v=window.edges_v[kept], probs=window.probs[kept],
        lengths=window.lengths[kept], edge_keys=window.edge_keys[kept],
    )


@st.composite
def searched_windows(draw):
    """A small keyed window with an origin: long-range radial or embedded,
    at p 0, 1 or between, sometimes with its origin isolated or, for an
    embedded window, moved to another vertex."""
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95)))
    radius = draw(st.integers(2, 10))
    if draw(st.booleans()):
        window = long_range_radial_window(PS.constant(p).truncate(draw(st.integers(1, 3))), radius)
    else:
        dimension, thickness = draw(st.sampled_from([(3, 1), (3, 2), (4, 1)]))
        scales = (1, thickness + 2) if dimension == 3 else (1, 3, 7)
        graph = EmbeddedGraph(SlabParameters(dimension, thickness), ScaleVector(scales, thickness))
        window = embedded_radial_window(graph, PS.constant(p).truncate(scales[-1]), radius)
        if draw(st.booleans()):
            window = dataclasses.replace(window, origin_index=draw(st.integers(0, window.n_vertices - 1)))
    if draw(st.booleans()):
        window = without_origin_edges(window)
    return window


@given(
    window=searched_windows(),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**40),
    trials=st.integers(0, 12),
)
@settings(max_examples=150, deadline=None)
def test_search_reach_equals_the_whole_window_reference(window, seed, start, trials):
    reach = keyed_reach(window, seed, start, start + trials)
    assert reach.shape == (trials,)
    assert np.array_equal(reach, reference_reach(window, seed, start, start + trials))


def certification_pair(seq: PS, params: SlabParameters, scales: ScaleVector, radius: int):
    truncated = seq.truncate(scales.top)
    return embedded_radial_window(EmbeddedGraph(params, scales), truncated, radius), long_range_radial_window(
        truncated, radius
    )


def criterion_seven_pair():
    seq, params = PS.lacunary(0.9, base=2), SlabParameters(3, 2)
    scales = select_scales(seq, 0.45, params, 10**6)
    return certification_pair(seq, params, scales, 64 + scales.top)


SEARCHED_PAIRS = {
    # (the window pair, trials, whether only some trials reach the largest norm)
    "criterion-7": (criterion_seven_pair, 200, False),
    "sparse-support": (
        lambda: certification_pair(
            PS.lacunary(0.9, support=(10, 100, 1000, 10000)), SlabParameters(3, 2), ScaleVector((10, 100), 2), 164
        ),
        12,
        False,
    ),
    "near-critical-lacunary": (
        lambda: certification_pair(PS.lacunary(0.42, base=2), SlabParameters(3, 2), ScaleVector((1, 4), 2), 12),
        300,
        True,
    ),
    "near-critical-constant": (
        lambda: (long_range_radial_window(PS.constant(0.22).truncate(3), 12),) * 2,
        300,
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(SEARCHED_PAIRS))
def test_search_reach_equals_the_reference_on_the_certification_windows(name):
    build, trials, partial = SEARCHED_PAIRS[name]
    for window in build():
        reach = keyed_reach(window, 7, 0, trials)
        assert np.array_equal(reach, reference_reach(window, 7, 0, trials)), window.describe()
        if partial:
            # A search that stopped one norm early would still agree on every
            # trial that reaches the largest norm; here some trials do not.
            assert 0 < (reach == window.norms.max()).sum() < trials, window.describe()


@pytest.mark.parametrize("name", ["long-range-box", "long-range-crossing"])
def test_search_refuses_a_window_without_an_origin_naming_its_family(name):
    window = FAMILIES[name]
    assert window.origin_index is None and window.edge_keys is not None
    with pytest.raises(ValueError, match=re.escape(repr(window.family))):
        keyed_reach(window, 1, 0, 2)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_incidence_lists_each_vertex_edges_in_order(name):
    window = FAMILIES[name]
    offsets, incident = window.incidence
    assert offsets.dtype == incident.dtype == np.int32
    ends = np.concatenate([window.edges_u, window.edges_v])
    edges = np.tile(np.arange(window.n_edges), 2)
    order = np.lexsort((edges, ends))
    assert np.array_equal(incident, edges[order])
    assert np.array_equal(offsets, np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=window.n_vertices))]))
    assert window.incidence is vars(window)["incidence"]


BOTTLENECK_FAMILIES = {
    "z2": lambda side: lattice_window(2, 0.5, side, "crossing"),
    "z3": lambda side: lattice_window(3, 0.5, side, "crossing"),
    **{f"slab-d3-k{k}": (lambda side, k=k: lattice_window(3, 0.5, side, "crossing", thickness=k)) for k in (1, 2, 3)},
}


@pytest.mark.parametrize("side", [1, 2, 5, 16, 32])
@pytest.mark.parametrize("name", sorted(BOTTLENECK_FAMILIES))
def test_bottlenecks_equal_the_bisection_reference(name, side):
    window = BOTTLENECK_FAMILIES[name](side)
    seed, start, stop = 29 + side, 11, 14
    bottlenecks = indexed_bottlenecks(window, seed, start, stop)
    assert bottlenecks.dtype == np.uint64
    reference = [bisection_bottleneck(window, seed, t) for t in range(start, stop)]
    assert (bottlenecks * 2.0**-53).tolist() == reference
    # A trial range is a slice of any range that holds it.
    assert np.array_equal(indexed_bottlenecks(window, seed, 0, stop)[start:], bottlenecks)


@pytest.mark.parametrize("n_edges", [1, 4, 7, 54])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_chain_bottleneck_is_the_largest_word(n_edges, seed):
    # Every edge of a chain lies on its one crossing path, so the bottleneck
    # is the trial's largest word, read off numpy's Philox stream.
    window = dataclasses.replace(
        chain_window(n_edges, 0.5), terminals={"left": np.array([0]), "right": np.array([n_edges])}
    )
    for start, stop in ((0, 9), (2**62 + 5, 2**62 + 8)):
        uniforms = indexed_uniform_matrix(n_edges, seed, stop - start, start)
        expected = (uniforms.max(axis=1) * 2.0**53).astype(np.uint64)
        assert np.array_equal(indexed_bottlenecks(window, seed, start, stop), expected)


def test_bottleneck_of_joined_and_of_separated_terminals():
    chain = chain_window(3, 0.5)
    joined = dataclasses.replace(chain, terminals={"left": np.array([0, 2]), "right": np.array([2, 3])})
    assert indexed_bottlenecks(joined, 5, 0, 4).tolist() == [0] * 4
    cut = dataclasses.replace(chain, edges_u=chain.edges_u[:2], edges_v=chain.edges_v[:2], probs=chain.probs[:2],
                              lengths=chain.lengths[:2], terminals={"left": np.array([0]), "right": np.array([3])})
    assert indexed_bottlenecks(cut, 5, 0, 4).tolist() == [2**53] * 4


@pytest.mark.parametrize("name", ["grid-radial-d2", "long-range-box"])
def test_bottlenecks_refuse_a_window_without_crossing_terminals_naming_its_family(name):
    window = FAMILIES[name]
    with pytest.raises(ValueError, match=re.escape(repr(window.family))):
        indexed_bottlenecks(window, 1, 0, 2)
