"""The compiled clustering kernel: union-find over a block of trials.

``_kernel.c`` is compiled with the system C compiler on first use into
``__pycache__/_kernel-<sha256 of the source>.so`` next to it, and loaded with
:mod:`ctypes`; later processes reuse the cached library.  Both entry points
label a ``(rows, n_vertices)`` block: a vertex's label is the smallest vertex
index of its component plus ``row * n_vertices``, so labels never repeat
across the rows of a block.
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
    edges = [ctypes.c_int64, ctypes.c_int32, ctypes.c_int64, _array(np.int32), _array(np.int32)]
    lib.mask_labels.argtypes = edges + [_array(np.bool_), _array(np.int32)]
    lib.mask_labels.restype = None
    lib.keyed_labels.argtypes = edges + [
        _array(np.uint64),
        _array(np.uint64),
        ctypes.c_uint64,
        ctypes.c_int64,
        _array(np.bool_),
        _array(np.int32),
    ]
    lib.keyed_labels.restype = None
    return lib


def _edges(window: GraphWindow, rows: int) -> list:
    """The leading kernel arguments, after the checks that keep the kernel in bounds."""
    n = window.n_vertices
    edges_u = np.ascontiguousarray(window.edges_u, dtype=np.int32)
    edges_v = np.ascontiguousarray(window.edges_v, dtype=np.int32)
    if edges_v.shape != edges_u.shape:
        raise ValueError("edges_u and edges_v differ in length")
    if rows * max(n, edges_u.shape[0]) > np.iinfo(np.int32).max:
        raise ValueError(f"a block of {rows} trials overflows the kernel's 32-bit labels")
    # Negative endpoints wrap to large unsigned values, so one comparison checks both ends.
    if edges_u.size and max(edges_u.view(np.uint32).max(), edges_v.view(np.uint32).max()) >= n:
        raise ValueError("an edge endpoint lies outside the window's vertices")
    return [rows, n, edges_u.shape[0], edges_u, edges_v]


def mask_labels(window: GraphWindow, open_matrix: np.ndarray) -> np.ndarray:
    """Labels of each row of a boolean ``(rows, n_edges)`` open-edge block."""
    open_matrix = np.ascontiguousarray(open_matrix, dtype=np.bool_)
    if open_matrix.ndim != 2 or open_matrix.shape[1] != window.n_edges:
        raise ValueError(f"open block of shape {open_matrix.shape} does not fit {window.n_edges} edges")
    edges = _edges(window, open_matrix.shape[0])
    labels = np.empty((open_matrix.shape[0], window.n_vertices), dtype=np.int32)
    library().mask_labels(*edges, open_matrix, labels)
    return labels


def keyed_labels(
    window: GraphWindow,
    keys: np.ndarray,
    thresholds: np.ndarray,
    seed: int,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Open masks and labels of keyed trials ``start .. stop - 1``, drawn and clustered in one pass.

    ``thresholds`` comes from :func:`trunclab.rng.open_thresholds`, so the
    masks equal ``keyed_uniforms(keys, seed, t) < probs`` bit for bit.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    thresholds = np.ascontiguousarray(thresholds, dtype=np.uint64)
    if keys.shape != (window.n_edges,) or thresholds.shape != (window.n_edges,):
        raise ValueError(f"keys and thresholds must hold one entry per edge ({window.n_edges})")
    rows = stop - start
    edges = _edges(window, rows)
    open_matrix = np.empty((rows, window.n_edges), dtype=np.bool_)
    labels = np.empty((rows, window.n_vertices), dtype=np.int32)
    library().keyed_labels(*edges, keys, thresholds, seed & 0xFFFFFFFFFFFFFFFF, start, open_matrix, labels)
    return open_matrix, labels
