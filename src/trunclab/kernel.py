"""The compiled kernel: union-find over a block of trials, the origin's reach
by search, and each trial's crossing bottleneck.

``_kernel.c`` is compiled with the system C compiler on first use into
``__pycache__/_kernel-<blake2b of the source>.so`` next to it, and loaded with
:mod:`ctypes`; later processes reuse the cached library.  The labelling
entry points label a ``(rows, n_vertices)`` block: a vertex's label is the
smallest vertex index of its component plus ``row * n_vertices``, so labels
never repeat across the rows of a block.  :func:`mask_labels` clusters given
open masks; :func:`indexed_labels` draws each trial's edges from the indexed
stream of :mod:`trunclab.rng` in the same loop, against the window's
``open_thresholds``, and returns the labels only.  :func:`keyed_reach`
returns only the origin's reach on keyed trials: a best-first search from
the origin draws the edges it examines, usually a few hundred of the
window's.  :func:`indexed_bottlenecks` returns, per indexed trial of a
crossing window, the least open probability at which it crosses, as a
53-bit word.
"""

from __future__ import annotations

import ctypes
import functools
import os
import subprocess
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .rng import blake2b

if TYPE_CHECKING:  # windows builds its incidence lists here
    from .windows import GraphWindow

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILER = ("cc", "-O2", "-shared", "-fPIC")


def build(source: Path = SOURCE) -> Path:
    """Path of the compiled ``source``, compiling it unless a build of the same text exists."""
    digest = blake2b(source.read_bytes(), digest_size=32).hexdigest()
    target = source.parent / "__pycache__" / f"{source.stem}-{digest}.so"
    if target.exists():
        return target
    target.parent.mkdir(exist_ok=True)
    handle, partial = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(handle)
    command = [*COMPILER, "-o", partial, str(source)]
    try:
        try:
            result = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise RuntimeError(f"cannot build the clustering kernel: {' '.join(command)}: {exc}") from None
        if result.returncode != 0:
            raise RuntimeError(
                f"cannot build the clustering kernel: {' '.join(command)} exited with "
                f"{result.returncode}:\n{result.stderr}"
            )
        os.replace(partial, target)  # atomic: a concurrent loader sees no partial file
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


def _array(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")


@functools.cache
def library() -> ctypes.CDLL:
    lib = ctypes.CDLL(str(build()))
    # rows, n, n_edges, edges_u, edges_v, listed
    edges = [ctypes.c_int64, ctypes.c_int32, ctypes.c_int64, _array(np.int32), _array(np.int32), _array(np.int32)]
    lib.mask_labels.argtypes = edges + [_array(np.bool_), _array(np.int32)]
    # thresholds, seed, start, words, labels
    lib.indexed_labels.argtypes = edges + [
        _array(np.uint64), ctypes.c_uint64, ctypes.c_int64, _array(np.uint64), _array(np.int32),
    ]
    # n, n_edges, edges_u, edges_v, offsets, incident
    lib.incidence.argtypes = [ctypes.c_int32, ctypes.c_int64, *[_array(np.int32)] * 4]
    # rows, n, edges_u, edges_v, offsets, incident, keys, probs, levels, top, origin,
    # seed, start, visited, next, heads, reach
    lib.keyed_reach.argtypes = [
        ctypes.c_int64, ctypes.c_int32, *[_array(np.int32)] * 4, _array(np.uint64), _array(np.float64),
        _array(np.int32), ctypes.c_int32, ctypes.c_int32, ctypes.c_uint64, ctypes.c_int64,
        _array(np.int64), _array(np.int32), _array(np.int32), _array(np.int32),
    ]
    # rows, n, n_edges, edges_u, edges_v, sides, seed, start, bits, words, order, counts,
    # parent, reached, bottleneck
    lib.indexed_bottlenecks.argtypes = [
        ctypes.c_int64, ctypes.c_int32, ctypes.c_int64, _array(np.int32), _array(np.int32), _array(np.uint8),
        ctypes.c_uint64, ctypes.c_int64, ctypes.c_int32, _array(np.uint64), _array(np.int32), _array(np.int64),
        _array(np.int32), _array(np.uint8), _array(np.uint64),
    ]
    for entry in (lib.mask_labels, lib.indexed_labels, lib.incidence, lib.keyed_reach, lib.indexed_bottlenecks):
        entry.restype = None
    return lib


def _edges(window: GraphWindow, rows: int) -> list:
    """The leading kernel arguments: the window's checked edge arrays and a
    scratch list of one slot per edge, owned by this call."""
    edges_u, edges_v = window.kernel_edges
    if rows * max(window.n_vertices, window.n_edges) > np.iinfo(np.int32).max:
        raise ValueError(f"a block of {rows} trials overflows the kernel's 32-bit labels")
    listed = np.empty(window.n_edges, dtype=np.int32)
    return [rows, window.n_vertices, window.n_edges, edges_u, edges_v, listed]


def mask_labels(window: GraphWindow, open_matrix: np.ndarray) -> np.ndarray:
    """Labels of each row of a boolean ``(rows, n_edges)`` open-edge block."""
    open_matrix = np.ascontiguousarray(open_matrix, dtype=np.bool_)
    if open_matrix.ndim != 2 or open_matrix.shape[1] != window.n_edges:
        raise ValueError(f"open block of shape {open_matrix.shape} does not fit {window.n_edges} edges")
    edges = _edges(window, open_matrix.shape[0])
    labels = np.empty((open_matrix.shape[0], window.n_vertices), dtype=np.int32)
    library().mask_labels(*edges, open_matrix, labels)
    return labels


def _keys(window: GraphWindow) -> np.ndarray:
    if window.edge_keys is None or window.edge_keys.shape != (window.n_edges,):
        raise ValueError(f"window family {window.family!r} needs one edge key per edge ({window.n_edges})")
    return np.ascontiguousarray(window.edge_keys, dtype=np.uint64)


def incidence(window: GraphWindow) -> tuple[np.ndarray, np.ndarray]:
    """The window's incidence lists in CSR form, as int32 ``(offsets, incident)``:
    the edges at vertex ``v`` are ``incident[offsets[v]:offsets[v + 1]]``, in
    increasing order.  Cached per window as :attr:`GraphWindow.incidence`."""
    edges_u, edges_v = window.kernel_edges
    if 2 * window.n_edges > np.iinfo(np.int32).max:
        raise ValueError(f"{window.n_edges} edges overflow the kernel's 32-bit incidence lists")
    offsets = np.zeros(window.n_vertices + 1, dtype=np.int32)
    incident = np.empty(2 * window.n_edges, dtype=np.int32)
    library().incidence(window.n_vertices, window.n_edges, edges_u, edges_v, offsets, incident)
    return offsets, incident


def keyed_reach(window: GraphWindow, seed: int, start: int, stop: int) -> np.ndarray:
    """The origin's reach, the largest :attr:`GraphWindow.norms` entry in its
    cluster, on each keyed trial ``start .. stop - 1``.

    Trial ``t`` opens the edges ``keyed_uniforms(window.edge_keys, seed, t)
    < window.probs`` opens, so the reach equals ``engine.origin_reach`` of
    those masks' labels; but it is found by a best-first search from the
    origin that draws only the edges it examines, and stops at the window's
    largest norm.  The kernel computes each examined edge's
    ``open_thresholds`` entry from its probability, so a window's search
    holds no threshold array.
    """
    if window.origin_index is None:
        raise ValueError(f"window family {window.family!r} has no origin to search from")
    if not 0 <= window.origin_index < window.n_vertices:
        raise ValueError(f"origin {window.origin_index} lies outside the window's {window.n_vertices} vertices")
    if window.probs.shape != (window.n_edges,):
        raise ValueError(f"window family {window.family!r} needs one edge probability per edge ({window.n_edges})")
    keys, probs = _keys(window), np.ascontiguousarray(window.probs, dtype=np.float64)
    edges_u, edges_v = window.kernel_edges
    offsets, incident = window.incidence
    # The search ranks norms, so its bucket queue has one list per distinct norm.
    norms = np.unique(window.norms)
    levels = np.searchsorted(norms, window.norms).astype(np.int32)
    n = window.n_vertices
    reach = np.empty(stop - start, dtype=np.int32)
    library().keyed_reach(
        reach.size, n, edges_u, edges_v, offsets, incident, keys, probs,
        levels, norms.size - 1, window.origin_index, seed & 0xFFFFFFFFFFFFFFFF, start,
        np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int32), np.empty(norms.size, dtype=np.int32), reach,
    )
    return norms[reach]


def _first_trial(start: int) -> None:
    if start < 0:
        raise ValueError(f"trial indices start at 0, got {start}")


def indexed_labels(window: GraphWindow, seed: int, start: int, stop: int) -> np.ndarray:
    """Labels of indexed trials ``start .. stop - 1``, drawn and clustered in one pass.

    The kernel computes the Philox words itself, so the trials open exactly
    the edges ``indexed_uniform_matrix(n_edges, seed, stop - start, start) <
    window.probs`` opens.
    """
    _first_trial(start)
    thresholds = window.open_thresholds
    rows = stop - start
    edges = _edges(window, rows)
    labels = np.empty((rows, window.n_vertices), dtype=np.int32)
    words = np.empty(window.n_edges, dtype=np.uint64)
    library().indexed_labels(*edges, thresholds, seed & 0xFFFFFFFFFFFFFFFF, start, words, labels)
    return labels


def indexed_bottlenecks(window: GraphWindow, seed: int, start: int, stop: int) -> np.ndarray:
    """Each indexed trial's bottleneck, for trials ``start .. stop - 1`` of a crossing window.

    A trial's bottleneck is the least ``b`` such that the edges whose 53-bit
    Philox words (those of :func:`indexed_labels`) are at most ``b`` join
    the left and right terminals, as uint64; ``2^53`` if all the window's
    edges together leave them apart.
    So trial ``t`` crosses at ``p`` exactly when its bottleneck is below
    ``ceil(p * 2^53)``, the kernel's integer open test, whatever
    ``window.probs`` holds, and ``bottleneck * 2^-53`` is the least of its
    ``indexed_uniforms`` at which it crosses.
    """
    _first_trial(start)
    if not {"left", "right"} <= window.terminals.keys():
        raise ValueError(f"window family {window.family!r} has no crossing terminals")
    edges_u, edges_v = window.kernel_edges
    n, n_edges = window.n_vertices, window.n_edges
    sides = np.zeros(n, dtype=np.uint8)
    sides[window.terminals["left"]] |= 1
    sides[window.terminals["right"]] |= 2
    # About one edge per bucket of the counting sort; int32 edge indices keep bits below 32.
    bits = max(1, n_edges.bit_length())
    bottleneck = np.empty(stop - start, dtype=np.uint64)
    library().indexed_bottlenecks(
        bottleneck.size, n, n_edges, edges_u, edges_v, sides, seed & 0xFFFFFFFFFFFFFFFF, start, bits,
        np.empty(n_edges, dtype=np.uint64), np.empty(n_edges, dtype=np.int32),
        np.empty((1 << bits) + 1, dtype=np.int64), np.empty(n, dtype=np.int32), np.empty(n, dtype=np.uint8),
        bottleneck,
    )
    return bottleneck
