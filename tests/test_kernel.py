"""The compiled union-find kernel against its references, and its build.

Every Monte Carlo estimate clusters through :mod:`trunclab.kernel`.  Its
labels must give the same partitions as scipy's ``connected_components``
(``scipy_union_labels``) and the pure-Python ``UnionFind`` on every window
family, and they must take the documented form: the smallest vertex index of
the component plus ``row * n_vertices``.  The keyed entry point must open
exactly the edges ``keyed_uniforms(keys, seed, t) < probs`` opens, and the
indexed one exactly the edges numpy's Philox stream
(``indexed_uniform_matrix``) opens.  The drawing entry points return labels
only, so the draws are checked on chain and star windows, where every edge
is a bridge and its ends share a label exactly when it is open
(:func:`bridge_mask`), and on every family window against ``mask_labels``
of the reference mask.  The hand-built window with unsorted
``edges_u`` is checked against all three references in
``test_batched_route.py``.
"""

from __future__ import annotations

import dataclasses
import re
import shutil
import subprocess

import numpy as np
import pytest

from trunclab import engine, kernel
from trunclab.embedding import EmbeddedGraph, ScaleVector, SlabParameters
from trunclab.engine import UnionFind, component_labels, trial_blocks
from trunclab.kernel import indexed_labels, keyed_labels, mask_labels
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

from conftest import scipy_union_labels


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
    assert np.array_equal(keyed_labels(window, 3, 40, 40 + rows), labels)
    assert np.array_equal(indexed_labels(window, 3, 40, 40 + rows), labels)


def with_probability(window: GraphWindow, p: float) -> GraphWindow:
    return dataclasses.replace(window, probs=np.full(window.n_edges, p))


@pytest.mark.parametrize("p", [1.0, 0.5, 5e-324, None])
@pytest.mark.parametrize("corrupt_edge", [None, 7])
def test_keyed_masks_equal_keyed_uniforms(p, corrupt_edge):
    window = FAMILIES["embedded"] if p is None else with_probability(FAMILIES["long-range-radial"], p)
    keys = window.edge_keys.copy()
    if corrupt_edge is not None:
        keys[corrupt_edge] ^= np.uint64(0x5DEECE66D)
    window = dataclasses.replace(window, edge_keys=keys)
    # A chain with the window's keys and probabilities draws the same mask,
    # and on a chain the labels give it back bit for bit.
    chain = dataclasses.replace(chain_window(window.n_edges, window.probs), edge_keys=keys)
    for seed, start, stop in ((13, 0, 6), (9223372037480117393, 57, 61)):
        reference = np.stack([keyed_uniforms(keys, seed, t) < window.probs for t in range(start, stop)])
        assert np.array_equal(bridge_mask(chain, keyed_labels(chain, seed, start, stop)), reference)
        assert np.array_equal(keyed_labels(window, seed, start, stop), mask_labels(window, reference))
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
    # Every edge of the star is a bridge.
    assert bridge_mask(window, keyed_labels(window, seed, trial, trial + 1))[0].tolist() == expected


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
        ("slab-crossing-d3", None),
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
        keyed_labels(window, 1, 0, 2)
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
    labels = keyed_labels(window, 1, 0, 2)
    cached = vars(window)["open_thresholds"]
    assert np.array_equal(cached, open_thresholds(valid.probs))
    assert np.array_equal(keyed_labels(window, 1, 0, 2), labels)
    indexed_labels(window, 1, 0, 2)
    assert vars(window)["open_thresholds"] is cached


def test_kernel_source_compiles_without_warnings():
    # A parameter left unused, such as a dropped output array, fails here.
    command = ["cc", "-O2", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(kernel.SOURCE)]
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
