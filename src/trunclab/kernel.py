"""The compiled clustering kernel: union-find over a block of trials.

``_kernel.c`` is compiled with the system C compiler on first use into
``__pycache__/_kernel-<sha256 of the source>.so`` next to it, and loaded with
:mod:`ctypes`; later processes reuse the cached library.  Every entry point
labels a ``(rows, n_vertices)`` block: a vertex's label is the smallest vertex
index of its component plus ``row * n_vertices``, so labels never repeat
across the rows of a block.  :func:`mask_labels` clusters given open masks;
:func:`keyed_labels` and :func:`indexed_labels` draw each trial's edges from
the keyed or the indexed stream of :mod:`trunclab.rng` in the same loop,
against the window's ``open_thresholds``, and return the labels only.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .windows import GraphWindow

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILER = ("cc", "-O2", "-shared", "-fPIC")


def build(source: Path = SOURCE) -> Path:
    """Path of the compiled ``source``, compiling it unless a build of the same text exists."""
    digest = hashlib.sha256(source.read_bytes()).hexdigest()
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
    # thresholds, seed, start, labels
    drawn = [_array(np.uint64), ctypes.c_uint64, ctypes.c_int64, _array(np.int32)]
    lib.mask_labels.argtypes = edges + [_array(np.bool_), _array(np.int32)]
    lib.keyed_labels.argtypes = edges + [_array(np.uint64), *drawn]
    lib.indexed_labels.argtypes = edges + drawn
    for entry in (lib.mask_labels, lib.keyed_labels, lib.indexed_labels):
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


def _drawn_labels(entry: str, window: GraphWindow, stream: list, seed: int, start: int, stop: int) -> np.ndarray:
    """Labels of trials ``start .. stop - 1`` from a drawing entry point."""
    thresholds = window.open_thresholds
    rows = stop - start
    edges = _edges(window, rows)
    labels = np.empty((rows, window.n_vertices), dtype=np.int32)
    getattr(library(), entry)(*edges, *stream, thresholds, seed & 0xFFFFFFFFFFFFFFFF, start, labels)
    return labels


def keyed_labels(window: GraphWindow, seed: int, start: int, stop: int) -> np.ndarray:
    """Labels of keyed trials ``start .. stop - 1``, drawn and clustered in one pass.

    Trial ``t`` opens exactly the edges ``keyed_uniforms(window.edge_keys,
    seed, t) < window.probs`` opens.
    """
    if window.edge_keys is None or window.edge_keys.shape != (window.n_edges,):
        raise ValueError(f"window family {window.family!r} needs one edge key per edge ({window.n_edges})")
    keys = np.ascontiguousarray(window.edge_keys, dtype=np.uint64)
    return _drawn_labels("keyed_labels", window, [keys], seed, start, stop)


def indexed_labels(window: GraphWindow, seed: int, start: int, stop: int) -> np.ndarray:
    """Labels of indexed trials ``start .. stop - 1``, drawn and clustered in one pass.

    The kernel computes the Philox words itself, so the trials open exactly
    the edges ``indexed_uniform_matrix(n_edges, seed, stop - start, start) <
    window.probs`` opens.
    """
    if start < 0:
        raise ValueError(f"trial indices start at 0, got {start}")
    return _drawn_labels("indexed_labels", window, [], seed, start, stop)
