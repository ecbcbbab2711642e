"""The compiled kernel: union-find over a block of open masks, whether each
indexed trial joins two terminal sets, the origin's reach by search, and
each keyed trial's crossing bottleneck.

A window is plain data.  Each entry point here checks what its call reads
(the edges, probabilities, keys and terminals), so the C code indexes only
inside its arrays, and the searches build the window's incidence lists
inside the call; :func:`indexed_hits` passes the open thresholds
(``rng.open_thresholds``) computed once per call, and :func:`keyed_reach`
computes each examined edge's threshold as it reads it.

``_kernel.c`` is compiled with the system C compiler on first use into
``__pycache__/_kernel-<blake2b of COMPILER and the source>.so`` next to it,
and loaded with :mod:`ctypes`; later processes reuse the cached library,
and a new build removes the older builds.  :func:`mask_labels` labels a ``(rows,
n_vertices)`` block of given open masks: a vertex's label is the smallest
vertex index of its component plus ``row * n_vertices``, so labels never
repeat across the rows of a block.  :func:`indexed_hits` draws each trial's
edges from the indexed stream of :mod:`trunclab.rng` against the window's
``probs`` and returns only whether each trial joins two terminal sets: it
runs 64 trials to a machine word, one bit (lane) each, holding one word of
lanes per edge (the lanes that open it) and per vertex (the lanes in which
it joins a left terminal), and a frontier search from the left terminals
over the window's incidence lists spreads the lanes until every lane has
hit or the frontier is empty.  :func:`keyed_reach` returns only the
origin's reach on keyed trials, for theta and the radius profile: a
best-first search from the origin draws the edges it examines, usually a
few hundred of the window's.  :func:`keyed_bottlenecks` returns, per keyed trial of a crossing window,
the least open probability at which it crosses, as a 53-bit word, for the
threshold estimates; within one call it sorts only the edges whose words
lie in the band of the bottlenecks of the trials before.  So the pipeline
draws only keyed words: the indexed stream serves :func:`indexed_hits`, the
route of ``engine.mc_event_probability``, alone.

:func:`indexed_hits` and :func:`keyed_bottlenecks` split a long trial
range across the usable cores (``len(os.sched_getaffinity(0))``) through
one piece runner, ``_run_pieces``: one contiguous piece per core, the first
on the calling thread and each other on a :class:`threading.Thread`, every
piece a C call on its own slice of one result array with its own scratch;
ctypes releases the GIL for the call.  Each keeps its own cut:
:func:`indexed_hits` takes whole 64-trial words, at least ``_PIECE_TRIALS``
trials a piece, and :func:`keyed_bottlenecks` at least
``_PIECE_EDGE_TRIALS`` edge-trials (trials times the window's edges) a
piece; a call too short for two pieces starts no thread.  The Philox blocks
of trial ``t`` are a function of ``(seed, t)`` alone (a counter-based
generator: Salmon et al., SC 2011), a keyed word one of ``(key, seed, t)``,
and a trial's bottleneck does not depend on the band its call has learned,
so every value is bit-identical to the one-thread call's.
:func:`keyed_reach` stays on the calling thread: each piece would rebuild
the window's incidence lists, and a prototype of the same split on it, on
2 cores, made ``pipeline-warm`` ``wall_s`` about 15% slower (on its
110,696-edge window).
"""

from __future__ import annotations

import ctypes
import functools
import os
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from .rng import blake2b, open_thresholds
from .windows import GraphWindow

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILER = ("cc", "-O2", "-shared", "-fPIC")


def build(source: Path = SOURCE) -> Path:
    """Path of the compiled ``source``, compiling it unless a build of its text under ``COMPILER`` exists.

    A new build removes every other build of ``source`` from the cache,
    skipping one that another process removed first.
    """
    digest = blake2b(repr(COMPILER).encode() + source.read_bytes(), digest_size=32).hexdigest()
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
    for stale in target.parent.glob(f"{source.stem}-*.so"):
        if stale != target:
            stale.unlink(missing_ok=True)
    return target


def _array(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")


@functools.cache
def library() -> ctypes.CDLL:
    lib = ctypes.CDLL(str(build()))
    # rows, n, n_edges, edges_u, edges_v, listed, open, labels
    lib.mask_labels.argtypes = [
        ctypes.c_int64, ctypes.c_int32, ctypes.c_int64, *[_array(np.int32)] * 3, _array(np.bool_), _array(np.int32),
    ]
    # rows, n, n_edges, edges_u, edges_v, thresholds, sides, seed, start, offsets, incident,
    # planes, reach, pending, queue, hits
    lib.indexed_hits.argtypes = [
        ctypes.c_int64, ctypes.c_int32, ctypes.c_int64, *[_array(np.int32)] * 2, _array(np.uint64),
        _array(np.uint8), ctypes.c_uint64, ctypes.c_int64, *[_array(np.int32)] * 2, *[_array(np.uint64)] * 3,
        _array(np.int32), _array(np.bool_),
    ]
    # rows, n, n_edges, edges_u, edges_v, keys, probs, levels, top, origin, seed, start,
    # offsets, incident, visited, next, heads, reach
    lib.keyed_reach.argtypes = [
        ctypes.c_int64, ctypes.c_int32, ctypes.c_int64, *[_array(np.int32)] * 2, _array(np.uint64),
        _array(np.float64), _array(np.int32), ctypes.c_int32, ctypes.c_int32, ctypes.c_uint64, ctypes.c_int64,
        *[_array(np.int32)] * 2, _array(np.int64), *[_array(np.int32)] * 3,
    ]
    # rows, n, n_edges, edges_u, edges_v, keys, sides, seed, start, words, listed, order, counts,
    # parent, reached, bottleneck
    lib.keyed_bottlenecks.argtypes = [
        ctypes.c_int64, ctypes.c_int32, ctypes.c_int64, _array(np.int32), _array(np.int32), _array(np.uint64),
        _array(np.uint8), ctypes.c_uint64, ctypes.c_int64, _array(np.uint64), _array(np.int32), _array(np.int32),
        _array(np.int64), _array(np.int32), _array(np.uint8), _array(np.uint64),
    ]
    for entry in (lib.mask_labels, lib.indexed_hits, lib.keyed_reach, lib.keyed_bottlenecks):
        entry.restype = None
    return lib


def _edges(window: GraphWindow) -> tuple[np.ndarray, np.ndarray]:
    """``edges_u`` and ``edges_v`` as contiguous int32 arrays, checked on every
    call to pair up and to lie among the window's vertices."""
    edges_u, edges_v = np.asarray(window.edges_u), np.asarray(window.edges_v)
    if edges_v.shape != edges_u.shape:
        raise ValueError("edges_u and edges_v differ in length")
    # Checked before the cast, which would wrap a wider endpoint into range.
    n = window.n_vertices
    if edges_u.size and not (min(edges_u.min(), edges_v.min()) >= 0 and max(edges_u.max(), edges_v.max()) < n):
        raise ValueError("an edge endpoint lies outside the window's vertices")
    return np.ascontiguousarray(edges_u, dtype=np.int32), np.ascontiguousarray(edges_v, dtype=np.int32)


def _probs(window: GraphWindow) -> np.ndarray:
    probs = np.ascontiguousarray(window.probs, dtype=np.float64)
    if probs.shape != (window.n_edges,):
        raise ValueError(f"window family {window.family!r} needs one edge probability per edge ({window.n_edges})")
    # The kernel's integer threshold of a NaN or a negative p opens every edge;
    # written as "not (...)" so that a NaN is refused too.
    if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):
        raise ValueError(f"window family {window.family!r} has an edge probability outside [0, 1]")
    return probs


def _incidence_scratch(window: GraphWindow) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed ``offsets`` and room for ``incident``, into which a search builds
    the window's incidence lists in CSR form."""
    if 2 * window.n_edges > np.iinfo(np.int32).max:
        raise ValueError(f"{window.n_edges} edges overflow the kernel's 32-bit incidence lists")
    return np.zeros(window.n_vertices + 1, dtype=np.int32), np.empty(2 * window.n_edges, dtype=np.int32)


def mask_labels(window: GraphWindow, open_matrix: np.ndarray) -> np.ndarray:
    """Labels of each row of a boolean ``(rows, n_edges)`` open-edge block."""
    edges_u, edges_v = _edges(window)
    open_matrix = np.ascontiguousarray(open_matrix, dtype=np.bool_)
    if open_matrix.ndim != 2 or open_matrix.shape[1] != window.n_edges:
        raise ValueError(f"open block of shape {open_matrix.shape} does not fit {window.n_edges} edges")
    rows = open_matrix.shape[0]
    if rows * max(window.n_vertices, window.n_edges) > np.iinfo(np.int32).max:
        raise ValueError(f"a block of {rows} trials overflows the kernel's 32-bit labels")
    labels = np.empty((rows, window.n_vertices), dtype=np.int32)
    listed = np.empty(window.n_edges, dtype=np.int32)
    library().mask_labels(rows, window.n_vertices, window.n_edges, edges_u, edges_v, listed, open_matrix, labels)
    return labels


def _keys(window: GraphWindow) -> np.ndarray:
    if window.edge_keys is None or window.edge_keys.shape != (window.n_edges,):
        raise ValueError(f"window family {window.family!r} needs one edge key per edge ({window.n_edges})")
    return np.ascontiguousarray(window.edge_keys, dtype=np.uint64)


def _trial_count(start: int, stop: int) -> int:
    """The number of trials ``start .. stop - 1``; a negative first trial or a
    range that ends before it starts is refused."""
    if start < 0:
        raise ValueError(f"trial indices start at 0, got {start}")
    if stop < start:
        raise ValueError(f"trial range [{start}, {stop}) ends before it starts")
    return stop - start


def keyed_reach(window: GraphWindow, seed: int, start: int, stop: int) -> np.ndarray:
    """The origin's reach, the largest :attr:`GraphWindow.norms` entry in its
    cluster, on each keyed trial ``start .. stop - 1``.

    Trial ``t`` opens the edges ``keyed_uniforms(window.edge_keys, seed, t)
    < window.probs`` opens, so the reach is the largest norm that shares the
    origin's label in :func:`mask_labels` of those masks; but it is found by
    a best-first search from the origin that draws only the edges it
    examines, and stops at the window's largest norm.  The kernel computes
    each examined edge's ``open_thresholds`` entry from its probability.
    """
    rows = _trial_count(start, stop)
    if window.origin_index is None:
        raise ValueError(f"window family {window.family!r} has no origin to search from")
    if not 0 <= window.origin_index < window.n_vertices:
        raise ValueError(f"origin {window.origin_index} lies outside the window's {window.n_vertices} vertices")
    edges_u, edges_v = _edges(window)
    keys, probs = _keys(window), _probs(window)
    # The search ranks norms, so its bucket queue has one list per distinct norm.
    norms = np.unique(window.norms)
    levels = np.searchsorted(norms, window.norms).astype(np.int32)
    n = window.n_vertices
    reach = np.empty(rows, dtype=np.int32)
    library().keyed_reach(
        reach.size, n, window.n_edges, edges_u, edges_v, keys, probs, levels, norms.size - 1, window.origin_index,
        seed & 0xFFFFFFFFFFFFFFFF, start, *_incidence_scratch(window), np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int32), np.empty(norms.size, dtype=np.int32), reach,
    )
    return norms[reach]


def _sides(window: GraphWindow, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per vertex, bit 1 for a ``left`` terminal and bit 2 for a ``right``
    one; a terminal outside the window is refused, not wrapped."""
    n = window.n_vertices
    for terminals in (left, right):
        outside = terminals[(terminals < 0) | (terminals >= n)]
        if outside.size:
            raise ValueError(f"terminal {outside[0]} lies outside the window's {n} vertices")
    sides = np.zeros(n, dtype=np.uint8)
    sides[left] |= 1
    sides[right] |= 2
    return sides


def _cores() -> int:
    """The cores the process may use; one where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_pieces(entry, bounds: list[int], piece) -> None:
    """``entry(*piece(first, last))`` for every piece ``[first, last)``
    between consecutive ``bounds`` at once: the first piece on the calling
    thread and each other on a thread of its own, ctypes releasing the GIL
    for each call.  Every piece's arguments, its own scratch among them, are
    made before any thread starts.  A worker's exception is raised here once
    every piece is done."""
    calls = [piece(first, last) for first, last in zip(bounds, bounds[1:])]
    errors: list[BaseException] = []

    def work(arguments: tuple) -> None:
        try:
            entry(*arguments)
        except BaseException as exc:  # raised by the caller once every piece is done
            errors.append(exc)

    workers = [threading.Thread(target=work, args=(arguments,)) for arguments in calls[1:]]
    for worker in workers:
        worker.start()
    try:
        entry(*calls[0])
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]


# The fewest trials a piece of a split indexed_hits call takes, 128 words.
# On 2 cores a thread's start and join took about 76 us, a two-piece call
# 250-300 us more than half of the one-thread call, and one trial 34 ns on
# the cheapest oracle window (7 edges) to 245 ns (54 edges).  So on the
# cheapest window a piece this size costs about what the split does.
_PIECE_TRIALS = 8192


def indexed_hits(window: GraphWindow, left: np.ndarray, right: np.ndarray, seed: int, start: int,
                 stop: int) -> np.ndarray:
    """Whether each indexed trial ``start .. stop - 1`` joins a ``left``
    terminal to a ``right`` one, as bools.

    The kernel computes the Philox words itself, so the trials open exactly
    the edges ``indexed_uniform_matrix(n_edges, seed, stop - start, start) <
    window.probs`` opens, and trial ``t`` hits exactly when a left and a
    right terminal share a label in :func:`mask_labels` of its mask; but the
    kernel keeps no labels.  It takes the trials 64 at a time, one bit of a
    machine word each, and searches from the left terminals over the
    window's incidence lists in all 64 at once, stopping when every one has
    hit.  A vertex in both sets makes every trial hit.

    The range is cut into one piece of whole 64-trial words per usable core
    (``os.sched_getaffinity``), at most one per ``_PIECE_TRIALS`` trials;
    the first piece runs on the calling thread and each other on a thread of
    its own, writing its own slice of the result, and the kernel releases
    the GIL.  The edges, sides and open thresholds are checked and computed
    once and only read by every piece; each piece has its own scratch.
    Trial ``t``'s Philox blocks depend on ``(seed, t)`` alone, so every hit
    is bit-identical however the range is cut.  A worker's exception is
    raised here.
    """
    rows = _trial_count(start, stop)
    sides = _sides(window, np.asarray(left), np.asarray(right))
    edges_u, edges_v = _edges(window)
    thresholds = open_thresholds(_probs(window))
    n, n_edges = window.n_vertices, window.n_edges
    seed &= 0xFFFFFFFFFFFFFFFF
    hits = np.empty(rows, dtype=np.bool_)
    words = -(-rows // 64)
    pieces = max(1, min(_cores(), rows // _PIECE_TRIALS))
    bounds = [min(rows, 64 * (words * k // pieces)) for k in range(pieces + 1)]
    _run_pieces(library().indexed_hits, bounds, lambda first, last: (
        last - first, n, n_edges, edges_u, edges_v, thresholds, sides, seed, start + first,
        *_incidence_scratch(window), np.empty(n_edges, dtype=np.uint64), np.empty(n, dtype=np.uint64),
        np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.int32), hits[first:last],
    ))
    return hits


# The fewest edge-trials (trials times the window's edges) a piece of a split
# keyed_bottlenecks call takes.  A trial costs about 15-25 ns an edge on one
# core, and each piece sweeps about 2 ln(rows) of its trials over every edge
# while it learns its band.  On 2 cores, over the slab windows K1-K3 of sides
# 8, 16 and 32, a two-piece call took 0.94-1.42 of the one-thread call's time
# at about 50,000 edge-trials, 0.84-0.99 at 80,000 and 0.77-0.95 at 130,000.
_PIECE_EDGE_TRIALS = 1 << 16


def keyed_bottlenecks(window: GraphWindow, seed: int, start: int, stop: int) -> np.ndarray:
    """Each keyed trial's bottleneck, for trials ``start .. stop - 1`` of a crossing window.

    A trial's bottleneck is the least ``b`` such that the edges whose 53-bit
    keyed words (those of ``rng.keyed_uniforms(window.edge_keys, seed, t)``)
    are at most ``b`` join the left and right terminals, as uint64; ``2^53``
    if all the window's edges together leave them apart.
    So trial ``t`` crosses at ``p`` exactly when its bottleneck is below
    ``ceil(p * 2^53)``, the kernel's integer open test, whatever
    ``window.probs`` holds, and ``bottleneck * 2^-53`` is the least of its
    ``keyed_uniforms`` at which it crosses.

    The kernel unites, unsorted, the edges whose words lie below the least
    bottleneck found so far in the call, and sorts only those up to the
    largest; a trial whose bottleneck lies outside that band is swept again
    over every word, as the first trial is.  So a trial's value does not
    depend on the range it is drawn in.

    The range is cut into one piece per usable core, the pieces equal to
    within a trial and each of at least ``_PIECE_EDGE_TRIALS`` edge-trials
    (trials times the window's edges).  They run at once as
    :func:`indexed_hits`' do, each learning its own band from its first
    trial, and every value is bit-identical however the range is cut.  The
    edges, keys and sides are checked once and only read by every piece;
    each piece has its own scratch.  A worker's exception is raised here.
    """
    rows = _trial_count(start, stop)
    if not {"left", "right"} <= window.terminals.keys():
        raise ValueError(f"window family {window.family!r} has no crossing terminals")
    keys = _keys(window)
    edges_u, edges_v = _edges(window)
    n, n_edges = window.n_vertices, window.n_edges
    sides = _sides(window, window.terminals["left"], window.terminals["right"])
    # The counting sort takes about one bucket per edge it sorts, at most 2^bits.
    bits = max(1, n_edges.bit_length())
    seed &= 0xFFFFFFFFFFFFFFFF
    bottleneck = np.empty(rows, dtype=np.uint64)
    # The fewest trials a piece takes: enough for _PIECE_EDGE_TRIALS edge-trials.
    least = -(-_PIECE_EDGE_TRIALS // max(1, n_edges))
    pieces = max(1, min(_cores(), rows // least))
    _run_pieces(library().keyed_bottlenecks, [rows * k // pieces for k in range(pieces + 1)], lambda first, last: (
        last - first, n, n_edges, edges_u, edges_v, keys, sides, seed, start + first,
        np.empty(n_edges, dtype=np.uint64), np.empty(n_edges, dtype=np.int32), np.empty(n_edges, dtype=np.int32),
        np.empty((1 << bits) + 1, dtype=np.int64), np.empty(n, dtype=np.int32), np.empty(n, dtype=np.uint8),
        bottleneck[first:last],
    ))
    return bottleneck
