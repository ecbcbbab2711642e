"""The compiled union-find kernel against its references, and its build.

Every Monte Carlo estimate clusters through :mod:`trunclab.kernel`.  Its
labels must give the same partitions as scipy's ``connected_components``
(``scipy_union_labels``) and the pure-Python ``UnionFind`` on every window
family, and they must take the documented form: the smallest vertex index of
the component plus ``row * n_vertices``.  The indexed hits must open exactly
the edges numpy's Philox stream (``indexed_uniform_matrix``) opens.  A hit
says only whether two terminal sets join, so the draws are checked on chain
windows, where every edge is a bridge and a hit from one of its ends to the
other says whether it is open (:func:`bridge_hits`), and on every family
window against the labels of the reference mask.  The
hand-built window with unsorted ``edges_u`` is checked against all three
references in ``test_batched_route.py``.  The search from the origin
(``keyed_reach``) must give, on every trial, the reach that
``origin_reach`` reads off the labels of the masks ``keyed_uniforms(keys,
seed, t) < probs``, a draw it does not share.  Each keyed trial's crossing
bottleneck (``keyed_bottlenecks``) must equal the least of its
``keyed_uniforms`` at which a bisection over them, clustered by scipy,
finds a crossing.
Each trial's hit (``indexed_hits``) must equal whether scipy's labels of the
numpy Philox masks join the event's terminal sets.  Both of these split a
long trial range across the usable cores, and every split is checked, for
each of them, against the one-core call and the one-trial calls.
"""

from __future__ import annotations

import ast
import ctypes
import dataclasses
import os
import re
import shutil
import subprocess
import sys
import threading
from collections.abc import Callable
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunclab import engine, harness, kernel, windows
from trunclab.embedding import EmbeddedGraph, ScaleVector, SlabParameters, select_scales
from trunclab.engine import UnionFind, component_labels
from trunclab.kernel import indexed_hits, keyed_bottlenecks, keyed_reach, mask_labels
from trunclab.rng import (
    coordinate_edge_keys,
    indexed_uniform_matrix,
    indexed_uniforms,
    keyed_uniforms,
    mix64,
    open_thresholds,
)
from trunclab.sequences import ProbabilitySequence as PS
from trunclab.windows import (
    GraphWindow,
    embedded_radial_window,
    lattice_window,
    long_range_box_window,
    long_range_crossing_window,
    long_range_radial_window,
)

from conftest import bisection_bottleneck, origin_reach, scipy_union_labels


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


def bridge_hits(window: GraphWindow, seed: int, start: int, stop: int) -> np.ndarray:
    """The open mask of indexed trials ``start .. stop - 1`` of a window whose
    every edge is a bridge: such an edge is open iff its two ends join."""
    return np.stack(
        [indexed_hits(window, [u], [v], seed, start, stop) for u, v in zip(window.edges_u, window.edges_v)], axis=1
    )


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
    # The kernel's own draw of the same indexed trials joins the pairs these labels join.
    n = window.n_vertices
    for a, b in ((0, n - 1), (n // 2, 1)):
        assert np.array_equal(indexed_hits(window, [a], [b], 5, 3, 12), labels[:, a] == labels[:, b])


@pytest.mark.parametrize("name", ["slab-crossing-d3", "embedded", "long-range-radial"])
def test_ragged_blocks_match_scipy(name):
    window = FAMILIES[name]
    trials = 11
    opened = indexed_uniform_matrix(window.n_edges, 17, trials) < window.probs
    for start, stop in ((0, 4), (4, 8), (8, 11)):
        block = opened[start:stop]
        assert np.array_equal(mask_labels(window, block), expected_labels(scipy_union_labels(window, block)))
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
    assert not indexed_hits(window, [window.origin_index], window.terminals["boundary"], 3, 40, 40 + rows).any()


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
        assert open_thresholds(window.probs).tolist() == [1] * window.n_edges


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
    """A path of ``n_edges`` edges with the given edge probabilities and coordinate keys."""
    coords = np.arange(n_edges + 1, dtype=np.int64)[:, None]
    edges_u, edges_v = np.arange(n_edges, dtype=np.int32), np.arange(1, n_edges + 1, dtype=np.int32)
    return GraphWindow(
        family="hand",
        coords=coords,
        edges_u=edges_u,
        edges_v=edges_v,
        probs=np.broadcast_to(np.asarray(probs, dtype=np.float64), (n_edges,)).copy(),
        lengths=np.ones(n_edges, dtype=np.int32),
        edge_keys=coordinate_edge_keys(coords, edges_u, edges_v),
    )


@pytest.mark.parametrize("n_edges", [*range(1, 10), 54, 1000])
@pytest.mark.parametrize("seed", [0, 2**63 + 17, 2**64 - 1])
def test_indexed_masks_equal_numpy_philox(n_edges, seed):
    window = chain_window(n_edges, 0.5)
    # A start past 2^64 / ceil(E / 4) carries the Philox counter into its second word.
    for start, stop in ((0, 7), (13, 16), (2**62 + 5, 2**62 + 8)):
        reference = indexed_uniform_matrix(n_edges, seed, stop - start, start) < window.probs
        assert np.array_equal(bridge_hits(window, seed, start, stop), reference)


def test_indexed_threshold_is_exact_at_the_boundary():
    # Each edge's probability is its own uniform in trial 6 (which must stay
    # closed) or the next multiple of 2^-53 above it (which must open).
    seed, trial, n_edges = 23, 6, 10
    uniforms = indexed_uniform_matrix(n_edges, seed, 1, trial)[0]
    above = np.arange(n_edges) % 2 == 0
    window = chain_window(n_edges, uniforms + np.where(above, 2.0**-53, 0.0))
    thresholds = open_thresholds(window.probs)
    assert (thresholds - (uniforms * 2.0**53).astype(np.uint64)).tolist() == above.astype(int).tolist()
    opened = bridge_hits(window, seed, trial, trial + 1)
    assert opened[0].tolist() == above.tolist()
    assert (indexed_uniforms(n_edges, seed, trial) < window.probs).tolist() == above.tolist()
    for p in (0.0, 1.0):
        assert (bridge_hits(chain_window(n_edges, p), seed, 0, 50) == bool(p)).all()


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


# Each kernel entry point on a window it can run on: a crossing window given an origin.
ENTRY_POINTS = {
    "mask_labels": lambda window: mask_labels(window, np.ones((1, window.n_edges), dtype=bool)),
    "indexed_hits": lambda window: indexed_hits(window, [0], [window.n_vertices - 1], 1, 0, 2),
    "keyed_reach": lambda window: keyed_reach(window, 1, 0, 2),
    "keyed_bottlenecks": lambda window: keyed_bottlenecks(window, 1, 0, 2),
}


def edited_edges(window: GraphWindow, fault: str | None) -> GraphWindow:
    """A copy of ``window`` whose edge arrays hold ``fault``, if any."""
    edges_u, edges_v = window.edges_u.copy(), window.edges_v.copy()
    if fault == "endpoint-past-the-end":
        edges_v[-1] = window.n_vertices
    elif fault == "negative-endpoint":
        edges_u[0] = -1
    elif fault == "wide-endpoint":  # wraps to vertex 1 in 32 bits
        edges_v = edges_v.astype(np.int64)
        edges_v[-1] = 2**32 + 1
    elif fault == "short-edges_u":
        edges_u = edges_u[:-1]
    elif fault == "short-edges_v":
        edges_v = edges_v[:-1]
    keep = slice(len(edges_u))  # the per-edge arrays follow edges_u, which sets n_edges
    return dataclasses.replace(
        window, edges_u=edges_u, edges_v=edges_v, probs=window.probs[keep], lengths=window.lengths[keep],
        edge_keys=window.edge_keys[keep],
    )


EDGE_FAULTS = {
    "endpoint-past-the-end": "an edge endpoint lies outside the window's vertices",
    "negative-endpoint": "an edge endpoint lies outside the window's vertices",
    "wide-endpoint": "an edge endpoint lies outside the window's vertices",
    "short-edges_u": "edges_u and edges_v differ in length",
    "short-edges_v": "edges_u and edges_v differ in length",
}


@pytest.mark.parametrize("fault", sorted(EDGE_FAULTS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_edges_that_leave_the_window_or_do_not_pair_up(entry, fault):
    window = dataclasses.replace(FAMILIES["grid-crossing-d2"], origin_index=0)
    call = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=re.escape(EDGE_FAULTS[fault])):
        call(edited_edges(window, fault))
    # A window holds no checked copy of its edges, so one edited in place
    # after a call is checked again on the next.
    window = edited_edges(window, None)
    call(window)
    window.edges_v[-1] = window.n_vertices
    with pytest.raises(ValueError, match="outside the window"):
        call(window)


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
    if fault is None:  # every builder attaches keys, so they are stripped here
        window = dataclasses.replace(window, edge_keys=None)
    else:
        window = dataclasses.replace(window, **{fault: getattr(window, fault)[:-1]})
    with pytest.raises(ValueError, match=re.escape(repr(window.family))):
        keyed_reach(window, 1, 0, 2)
    if fault == "probs":
        with pytest.raises(ValueError, match=re.escape(repr(window.family))):
            indexed_hits(window, [0], [1], 1, 0, 2)


@pytest.mark.parametrize("p", [float("nan"), -0.5, 1.5])
def test_searches_refuse_a_probability_outside_the_unit_interval_naming_the_family(p):
    # The kernel's integer threshold of a NaN or a negative p opened every edge,
    # where the numpy reference u < p opens none.
    window = FAMILIES["long-range-radial"]
    probs = window.probs.copy()
    probs[-1] = p
    window = dataclasses.replace(window, probs=probs)
    message = f"window family {window.family!r} has an edge probability outside [0, 1]"
    with pytest.raises(ValueError, match=re.escape(message)):
        keyed_reach(window, 1, 0, 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        indexed_hits(window, [window.origin_index], window.terminals["boundary"], 1, 0, 2)


def test_kernel_source_compiles_without_warnings(tmp_path):
    # A parameter left unused, such as a dropped output array, or a signed
    # and unsigned comparison fails here; the full optimising build also
    # runs the warnings that need the optimiser's analysis.
    command = [*kernel.COMPILER, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "kernel.so"), str(kernel.SOURCE)]
    result = subprocess.run(command, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# The ctypes declaration of each C parameter type: a scalar's ctypes type, or
# the element types an array of it may hold.
C_SCALARS = {"int32_t": ctypes.c_int32, "int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64}
C_ARRAYS = {
    "int32_t": {np.int32}, "int64_t": {np.int64}, "uint64_t": {np.uint64}, "uint8_t": {np.uint8, np.bool_},
    "double": {np.float64},
}


def test_every_exported_kernel_function_is_declared():
    # ctypes calls an entry point without argtypes by its default int
    # conversion, which silently truncates int64 arguments, and argtypes out
    # of step with the C parameter list pass each array to another parameter.
    source = kernel.SOURCE.read_text()
    exported = dict(re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(\w+)\(([^)]*)\)", source, re.MULTILINE))
    lib = kernel.library()
    declared = {name for name, entry in vars(lib).items() if isinstance(entry, lib._FuncPtr)}
    assert exported.keys() == declared
    # One labelling, one hit, one reach and one bottleneck entry point.
    assert len(exported) <= 4, sorted(exported)
    for name, parameters in exported.items():
        entry = getattr(lib, name)
        assert entry.argtypes is not None and entry.restype is None, name
        parameters = [" ".join(parameter.split()) for parameter in parameters.split(",")]
        assert len(entry.argtypes) == len(parameters), name
        for parameter, argtype in zip(parameters, entry.argtypes):
            ctype = parameter.removeprefix("const ").split()[0]
            if "*" in parameter:
                assert np.dtype(argtype._dtype_).type in C_ARRAYS[ctype], (name, parameter)
            else:
                assert argtype is C_SCALARS[ctype], (name, parameter)


@pytest.mark.parametrize("module", [windows, harness], ids=["windows", "harness"])
def test_module_imports_nothing_from_the_kernel(module):
    # A window is plain data; the kernel checks and derives what each call
    # reads.  The pipeline reaches the kernel only through the engine.
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported |= {module} | {f"{module.rstrip('.')}.{alias.name}" for alias in node.names}
    assert not [name for name in imported if "kernel" in name.split(".")], imported


def test_second_load_reuses_the_cached_library(monkeypatch):
    path = kernel.build()
    assert path.exists() and path.parent.name == "__pycache__"

    def compile_again(*args, **kwargs):
        raise AssertionError("the cached library was compiled again")

    monkeypatch.setattr(kernel.subprocess, "run", compile_again)
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
    assert first.name == kernel.build().name  # the same text names the same file
    other = first.parent / "other-0.so"  # another source's build stays
    other.write_bytes(b"")
    source.write_text(source.read_text() + "/* changed */\n")
    second = kernel.build(source)
    assert second.exists() and first != second
    assert sorted(p.name for p in second.parent.iterdir()) == sorted([other.name, second.name])


def test_a_stale_build_removed_by_another_process_is_skipped(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    shutil.copy(kernel.SOURCE, source)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = [cache / "_kernel-0.so", cache / "_kernel-1.so"]
    for path in stale:
        path.write_bytes(b"")
    unlink = Path.unlink

    def raced(path, missing_ok=False):
        # Another process removes the file between the listing and this call.
        os.remove(path)
        unlink(path, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", raced)
    # A stand-in compiler that only writes its output file.
    monkeypatch.setattr(kernel, "COMPILER", ("sh", "-c", 'touch "$2"', "sh"))
    built = kernel.build(source)
    assert [p.name for p in cache.iterdir()] == [built.name]


def test_changed_compiler_flags_build_a_new_file(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    shutil.copy(kernel.SOURCE, source)
    # A stand-in compiler that takes one flag and only writes its output file.
    monkeypatch.setattr(kernel, "COMPILER", ("sh", "-c", 'touch "$3"', "sh", "-O1"))
    first = kernel.build(source)
    assert kernel.build(source) == first
    monkeypatch.setattr(kernel, "COMPILER", ("sh", "-c", 'touch "$3"', "sh", "-O3"))
    second = kernel.build(source)
    assert second != first
    assert [p.name for p in second.parent.iterdir()] == [second.name]


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


# Every family window with an origin or terminals: both searches run on it.
SEARCHED_FAMILIES = sorted(
    name for name, window in FAMILIES.items() if window.origin_index is not None or window.terminals
)
EVENT_TERMINALS = {"crossing": {"left", "right"}, "origin_boundary": {"origin", "boundary"}}


@pytest.mark.parametrize("name", SEARCHED_FAMILIES)
def test_searches_equal_their_references_on_every_family(name):
    # Each search builds the window's incidence lists in the call, so a list
    # that missed an edge or listed a wrong end would part it from the
    # whole-window reference: the reach from the origin, and the hits of
    # each event the window carries, at its own probabilities and at half.
    window = FAMILIES[name]
    seed, start, stop = 19, 4, 204
    events = [event for event, keys in EVENT_TERMINALS.items() if keys <= window.terminals.keys()]
    assert window.origin_index is not None or events
    hits = {event: 0 for event in events}
    at_top = 0
    for scale in (1.0, 0.5):
        scaled = dataclasses.replace(window, probs=window.probs * scale)
        if window.origin_index is not None:
            reach = keyed_reach(scaled, seed, start, stop)
            assert np.array_equal(reach, reference_reach(scaled, seed, start, stop)), scale
            at_top += int((reach == window.norms.max()).sum())
        for event in events:
            left, right = engine.event_terminals(scaled, event)
            hit = indexed_hits(scaled, left, right, seed, start, stop)
            assert np.array_equal(hit, scipy_hits(scaled, left, right, seed, start, stop)), (event, scale)
            hits[event] += int(hit.sum())
    # Both outcomes occur, so a search that always or never arrived would fail.
    assert all(0 < count < 2 * (stop - start) for count in hits.values()), hits
    assert window.origin_index is None or 0 < at_top < 2 * (stop - start)


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
    bottlenecks = keyed_bottlenecks(window, seed, start, stop)
    assert bottlenecks.dtype == np.uint64
    reference = [bisection_bottleneck(window, seed, t) for t in range(start, stop)]
    assert (bottlenecks * 2.0**-53).tolist() == reference
    # A trial range is a slice of any range that holds it.
    assert np.array_equal(keyed_bottlenecks(window, seed, 0, stop)[start:], bottlenecks)


@pytest.mark.parametrize("n_edges", [1, 4, 7, 54])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_chain_bottleneck_is_the_largest_word(n_edges, seed):
    # Every edge of a chain lies on its one crossing path, so the bottleneck
    # is the trial's largest word, read off the numpy keyed stream.
    window = dataclasses.replace(
        chain_window(n_edges, 0.5), terminals={"left": np.array([0]), "right": np.array([n_edges])}
    )
    for start, stop in ((0, 9), (2**62 + 5, 2**62 + 8)):
        uniforms = np.stack([keyed_uniforms(window.edge_keys, seed, t) for t in range(start, stop)])
        expected = (uniforms.max(axis=1) * 2.0**53).astype(np.uint64)
        assert np.array_equal(keyed_bottlenecks(window, seed, start, stop), expected)


def test_bottleneck_of_joined_and_of_separated_terminals():
    chain = chain_window(3, 0.5)
    joined = dataclasses.replace(chain, terminals={"left": np.array([0, 2]), "right": np.array([2, 3])})
    cut = dataclasses.replace(chain, edges_u=chain.edges_u[:2], edges_v=chain.edges_v[:2], probs=chain.probs[:2],
                              lengths=chain.lengths[:2], edge_keys=chain.edge_keys[:2],
                              terminals={"left": np.array([0]), "right": np.array([3])})
    # Long calls too: after the first trial the band is [0, 1) or [2^53, 2^53 + 1).
    for stop in (4, 600):
        assert keyed_bottlenecks(joined, 5, 0, stop).tolist() == [0] * stop
        assert keyed_bottlenecks(cut, 5, 0, stop).tolist() == [2**53] * stop


# Windows on which a call sweeps each trial over the band of the bottlenecks before it.
BANDED = {
    **{f"slab-d3-k{k}-L{side}": (f"slab-d3-k{k}", side) for k in (1, 2, 3) for side in (16, 32)},
    "z2-L64": ("z2", 64),
}


def banded_call(name: str, trials: int = 500):
    """A window of :data:`BANDED`, its seed and first trial, and one call's bottlenecks."""
    family, side = BANDED[name]
    window = BOTTLENECK_FAMILIES[family](side)
    seed, start = 41 + side, 3
    return window, seed, start, keyed_bottlenecks(window, seed, start, start + trials)


def records(bottlenecks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The trials after the first whose bottleneck lies below every earlier
    one, and those whose bottleneck lies above: the trials a call sweeps
    again, as it sweeps its first."""
    low, high = np.minimum.accumulate(bottlenecks), np.maximum.accumulate(bottlenecks)
    return 1 + np.flatnonzero(low[1:] < low[:-1]), 1 + np.flatnonzero(high[1:] > high[:-1])


@pytest.mark.parametrize("name", sorted(BANDED))
def test_a_long_call_equals_its_one_trial_calls(name):
    window, seed, start, bottlenecks = banded_call(name)
    # A one-trial call sweeps its trial over the full band.
    alone = [keyed_bottlenecks(window, seed, t, t + 1)[0] for t in range(start, start + bottlenecks.size)]
    assert bottlenecks.tolist() == alone
    assert 0 < bottlenecks.min() and bottlenecks.max() < 2**53


@pytest.mark.parametrize("name", sorted(BANDED))
def test_record_trials_equal_the_bisection_reference(name):
    window, seed, start, bottlenecks = banded_call(name)
    lows, highs = records(bottlenecks)
    assert lows.size and highs.size  # both ways out of the band are taken
    redone = np.concatenate([[0], lows, highs])
    reference = [bisection_bottleneck(window, seed, start + int(t)) for t in redone]
    assert (bottlenecks[redone] * 2.0**-53).tolist() == reference


def crossing_hits(window: GraphWindow, seed: int, start: int, stop: int) -> np.ndarray:
    return indexed_hits(window, window.terminals["left"], window.terminals["right"], seed, start, stop)


def test_per_trial_entry_points_refuse_a_reversed_trial_range():
    radial, crossing = FAMILIES["long-range-radial"], FAMILIES["grid-crossing-d2"]
    for draw, window in ((keyed_reach, radial), (keyed_bottlenecks, crossing), (crossing_hits, crossing)):
        with pytest.raises(ValueError, match=re.escape("trial range [5, 3) ends before it starts")):
            draw(window, 1, 5, 3)
        assert draw(window, 1, 5, 5).shape[0] == 0


def test_keyed_search_refuses_a_negative_first_trial():
    window = FAMILIES["long-range-radial"]
    # The numpy keyed stream has no trial -3 either.
    with pytest.raises(OverflowError):
        keyed_uniforms(window.edge_keys, 5, -3)
    with pytest.raises(ValueError, match="trial indices start at 0, got -3"):
        keyed_reach(window, 5, -3, -1)


@pytest.mark.parametrize("name", ["grid-radial-d2", "long-range-box"])
def test_bottlenecks_refuse_a_window_without_crossing_terminals_naming_its_family(name):
    window = FAMILIES[name]
    with pytest.raises(ValueError, match=re.escape(repr(window.family))):
        keyed_bottlenecks(window, 1, 0, 2)


@pytest.mark.parametrize("fault", ["keyless", "short-keys"])
def test_bottlenecks_refuse_a_window_without_a_key_per_edge_naming_its_family(fault):
    window = FAMILIES["slab-crossing-d3"]
    keys = None if fault == "keyless" else window.edge_keys[:-1]
    with pytest.raises(ValueError, match=re.escape(repr(window.family))):
        keyed_bottlenecks(dataclasses.replace(window, edge_keys=keys), 1, 0, 2)


# Every oracle slot shape of the benchmark's oracle-small workload, and a slab
# crossing window, each with its event's terminal sets.
def hit_windows():
    constant, lacunary = PS.constant(0.5), PS.lacunary(0.5, base=2)
    windows = {
        **{f"crossing-{side}": (long_range_crossing_window(constant.truncate(1), side), "crossing")
           for side in (1, 2, 4)},
        **{f"radial-{radius}": (long_range_radial_window(constant.truncate(1), radius), "origin_boundary")
           for radius in (1, 2)},
        "box-3x1": (long_range_box_window(constant.truncate(2), (0, 3), (0, 1)), None),
        "box-5x2": (long_range_box_window(constant.truncate(1), (0, 5), (0, 2)), None),
        "lacunary-box-6x2": (long_range_box_window(lacunary.truncate(2), (0, 6), (0, 2)), None),
        "slab-crossing-d3": (lattice_window(3, 0.45, 4, "crossing", thickness=2), "crossing"),
    }
    events = {}
    for name, (window, event) in windows.items():
        n = window.n_vertices
        pairs = [("pair", 0, n - 1), ("pair", n // 2, 1), ("pair", n - 2, n // 3)]
        events[name] = (window, [event] if event else pairs)
    return events


HIT_WINDOWS = hit_windows()


@pytest.mark.parametrize("p", [0.0, None, 1.0], ids=["p0", "own-p", "p1"])
@pytest.mark.parametrize("name", sorted(HIT_WINDOWS))
def test_hits_equal_scipy_connections_of_the_numpy_draws(name, p):
    window, events = HIT_WINDOWS[name]
    if p is not None:
        window = with_probability(window, p)
    seed, start, trials = 29, 5, 300
    labels = scipy_union_labels(window, indexed_uniform_matrix(window.n_edges, seed, trials, start) < window.probs)
    for event in events:
        left, right = engine.event_terminals(window, event)
        expected = (labels[:, left][:, :, None] == labels[:, right][:, None, :]).any(axis=(1, 2))
        hits = indexed_hits(window, left, right, seed, start, start + trials)
        assert hits.dtype == np.bool_
        assert np.array_equal(hits, expected)
        if p == 0.0:
            assert not hits.any()
        if p is None:
            assert 0 < hits.sum() < trials


def scipy_hits(window: GraphWindow, left, right, seed: int, start: int, stop: int) -> np.ndarray:
    """Whether each indexed trial ``start .. stop - 1`` joins ``left`` to
    ``right`` in scipy's labels of the numpy Philox masks."""
    labels = scipy_union_labels(window, indexed_uniform_matrix(window.n_edges, seed, stop - start, start) < window.probs)
    return (labels[:, left][:, :, None] == labels[:, right][:, None, :]).any(axis=(1, 2))


@pytest.mark.parametrize("p", [0.0, None, 1.0], ids=["p0", "own-p", "p1"])
@pytest.mark.parametrize("start", [0, 37, 64, 1000])
@pytest.mark.parametrize("rows", [1, 63, 64, 65, 129, 777])
def test_every_lane_of_every_trial_group_equals_scipy(rows, start, p):
    # The kernel runs 64 trials to a word: a range may end inside a group and
    # start at any trial, and a terminal in both sets hits in every lane.
    window, _ = HIT_WINDOWS["crossing-2"]
    if p is not None:
        window = with_probability(window, p)
    left, right = engine.event_terminals(window, "crossing")
    hits = indexed_hits(window, left, right, 41, start, start + rows)
    assert np.array_equal(hits, scipy_hits(window, left, right, 41, start, start + rows))
    if p is None and rows >= 63:
        assert 0 < hits.sum() < rows
    assert indexed_hits(window, [1, 2], [2, 3], 41, start, start + rows).all()


def test_lanes_on_the_edgeless_r60_and_the_lacunary_r20_windows():
    edgeless = long_range_radial_window(PS.constant(0.0), 60)
    lacunary = long_range_radial_window(PS.lacunary(0.1, base=2).truncate(8), 20)
    assert (edgeless.n_edges, edgeless.n_vertices, lacunary.n_edges) == (0, 14_641, 12_218)
    for window in (edgeless, lacunary):
        origin = [window.origin_index]
        for far in (window.terminals["boundary"], np.flatnonzero(window.norms >= 3), origin):
            hits = indexed_hits(window, origin, far, 7, 1000, 1129)
            assert np.array_equal(hits, scipy_hits(window, origin, far, 7, 1000, 1129))
            if window is lacunary:
                assert 0 < hits.sum() < hits.size or far is origin


@pytest.mark.parametrize("name", ["box-5x2", "slab-crossing-d3"])
def test_a_pair_of_one_vertex_hits_on_every_trial(name):
    window, _ = HIT_WINDOWS[name]
    for p in (0.0, 0.5):
        at_p = with_probability(window, p)
        for vertex in (0, window.n_vertices - 1):
            assert indexed_hits(at_p, [vertex], [vertex], 3, 0, 40).all()
        # A vertex shared by two larger sets too.
        assert indexed_hits(at_p, [1, 2], [2, 3], 3, 0, 40).all()


@pytest.mark.parametrize("name", ["box-3x1", "crossing-2", "slab-crossing-d3"])
def test_a_long_hit_call_equals_its_one_trial_calls(name):
    window, events = HIT_WINDOWS[name]
    left, right = engine.event_terminals(window, events[0])
    seed, start = 61, 9
    hits = indexed_hits(window, left, right, seed, start, start + 500)
    alone = [indexed_hits(window, left, right, seed, t, t + 1)[0] for t in range(start, start + 500)]
    assert hits.tolist() == alone
    assert 0 < hits.sum() < 500


def test_hits_keep_no_labels_so_a_block_may_outgrow_the_32_bit_labels():
    wide = long_range_radial_window(PS.constant(0.0), 127)  # 65,025 vertices
    rows = 2**31 // wide.n_vertices + 1
    with pytest.raises(ValueError, match="32-bit"):
        mask_labels(wide, np.zeros((rows, 0), dtype=bool))
    # A vertex in both sets: every trial hits without touching the window.
    assert indexed_hits(wide, [0], [0], 1, 0, rows).all()


def test_hits_refuse_a_negative_start_and_a_terminal_outside_the_window():
    window = FAMILIES["grid-crossing-d2"]
    with pytest.raises(ValueError, match="trial indices start at 0, got -3"):
        crossing_hits(window, 5, -3, 2)
    n = window.n_vertices
    for outside in (-1, n):
        with pytest.raises(ValueError, match=f"terminal {outside} lies outside the window's {n} vertices"):
            indexed_hits(window, [0], [outside], 5, 0, 2)


def cores(monkeypatch, count):
    monkeypatch.setattr(kernel.os, "sched_getaffinity", lambda pid: set(range(count)))


@dataclasses.dataclass(frozen=True)
class Split:
    """A kernel entry point that splits its trial range, on one window:
    ``values(seed, start, stop)`` calls it, every piece but the last holds a
    multiple of ``word`` trials and at least ``least``, and ``lengths`` are
    ranges around the floor of two pieces."""

    values: Callable[[int, int, int], np.ndarray]
    least: int
    word: int
    lengths: tuple[int, ...]


def splits() -> dict[str, Split]:
    hit_window, _ = HIT_WINDOWS["crossing-2"]
    left, right = engine.event_terminals(hit_window, "crossing")
    hit_least = kernel._PIECE_TRIALS
    # A small window, so that a few thousand one-trial calls stay cheap.
    bottleneck_window = BOTTLENECK_FAMILIES["slab-d3-k1"](8)
    least = -(-kernel._PIECE_EDGE_TRIALS // bottleneck_window.n_edges)
    return {
        "indexed_hits": Split(
            lambda seed, start, stop: indexed_hits(hit_window, left, right, seed, start, stop), hit_least, 64,
            (1, 63, 64, 65, 129, 2 * hit_least - 1, 2 * hit_least + 1, 3 * hit_least + 65),
        ),
        "keyed_bottlenecks": Split(
            lambda seed, start, stop: keyed_bottlenecks(bottleneck_window, seed, start, stop), least, 1,
            (1, 2, least, 2 * least - 1, 2 * least, 3 * least + 1, 4 * least + 5),
        ),
    }


SPLITS = splits()


@pytest.mark.parametrize("entry", sorted(SPLITS))
def test_a_split_call_equals_a_one_core_call_and_its_one_trial_calls(monkeypatch, thread_starts, entry):
    # Every range starts inside a 64-trial word; the longer ranges are cut
    # into as many pieces as the cores and their length allow.
    split = SPLITS[entry]
    seed, start = 17, 37
    alone = np.concatenate([split.values(seed, t, t + 1) for t in range(start, start + max(split.lengths))])
    for length in split.lengths:
        cores(monkeypatch, 1)
        single = split.values(seed, start, start + length)
        assert np.array_equal(single, alone[:length]), length
        for count in (2, 3, 4):
            cores(monkeypatch, count)
            del thread_starts[:]
            assert np.array_equal(split.values(seed, start, start + length), single), (length, count)
            assert len(thread_starts) == max(1, min(count, length // split.least)) - 1
    assert np.unique(alone).size > 1


@pytest.mark.parametrize("entry", sorted(SPLITS))
def test_pieces_cover_the_range_contiguously(monkeypatch, entry):
    real = kernel.library()
    pieces = []

    class Recording:
        def __getattr__(self, name):
            def record(rows, *arguments):
                pieces.append((arguments[7], rows))  # the piece's first trial and length
                getattr(real, name)(rows, *arguments)

            return record

    monkeypatch.setattr(kernel, "library", Recording)
    split = SPLITS[entry]
    start, stop = 37, 37 + max(split.lengths)
    for count in (1, 2, 3, 4):
        cores(monkeypatch, count)
        del pieces[:]
        split.values(5, start, stop)
        pieces.sort()
        assert len(pieces) == min(count, (stop - start) // split.least)
        assert [first for first, _ in pieces] == [start] + [first + rows for first, rows in pieces[:-1]]
        assert sum(rows for _, rows in pieces) == stop - start
        assert all(rows % split.word == 0 for _, rows in pieces[:-1])
        assert all(rows >= split.least for _, rows in pieces)


@pytest.mark.parametrize("entry", sorted(SPLITS))
def test_one_usable_core_starts_no_thread(monkeypatch, thread_starts, entry):
    split = SPLITS[entry]
    monkeypatch.setattr(kernel.os, "sched_getaffinity", lambda pid: {0})
    split.values(3, 0, 8 * split.least)
    assert thread_starts == []


@pytest.mark.parametrize("entry", sorted(SPLITS))
def test_two_usable_cores_start_one_thread_and_calls_below_the_floor_none(monkeypatch, thread_starts, entry):
    split = SPLITS[entry]
    cores(monkeypatch, 2)
    split.values(3, 0, 8 * split.least)
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
    split.values(3, 0, 2 * split.least - 1)
    assert len(thread_starts) == 1


@pytest.mark.parametrize("entry", sorted(SPLITS))
def test_more_pieces_than_cores_under_a_short_switch_interval_equal_one_core(monkeypatch, thread_starts, entry):
    # Four pieces on this machine's cores, switching threads as often as the
    # interpreter allows: each piece writes only its own slice of the result.
    split = SPLITS[entry]
    stop = 4 * split.least + 100
    cores(monkeypatch, 1)
    single = split.values(5, 11, stop)
    cores(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert np.array_equal(split.values(5, 11, stop), single)
    finally:
        sys.setswitchinterval(interval)
    assert len(thread_starts) == 15 and not any(thread.is_alive() for thread in thread_starts)


@pytest.mark.parametrize("entry", sorted(SPLITS))
def test_a_failing_worker_fails_the_call(monkeypatch, thread_starts, entry):
    # A worker fills its slice of an uninitialised array, so its failure must
    # not pass silently.
    real = kernel.library()

    class WorkersFail:
        def __getattr__(self, name):
            def call(*arguments):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("the worker failed")
                getattr(real, name)(*arguments)

            return call

    monkeypatch.setattr(kernel, "library", WorkersFail)
    cores(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="the worker failed"):
        SPLITS[entry].values(3, 0, 8 * SPLITS[entry].least)
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
