"""Deterministic random-stream derivation for reproducible Monte Carlo.

Two stream families are provided, both pure functions of integers so that
trials can run in any order (or in parallel) without changing a single draw:

* indexed streams -- trial ``t`` of a window with ``E`` edges reads its
  uniforms from a Philox4x64-10 counter stream keyed by ``(seed, 0)``: edge
  ``e`` takes word ``e % 4`` of counter block ``t * ceil(E / 4) + 1 + e // 4``
  (Philox emits four 64-bit words per block, and numpy's generator steps its
  counter before the first block).  The uniform for ``(seed, trial,
  edge_index)`` depends on nothing else.  Only
  :func:`trunclab.engine.mc_event_probability` uses them: the Monte Carlo
  side of the exact-oracle checks and ``trunclab estimate --event
  crossing``.

* keyed streams -- one uniform per ``(seed, trial, edge_key)`` triple,
  computed with a splitmix64 finalizer chain.  Edge keys are derived from
  lattice coordinates, so two different windows that share a lattice edge
  draw the *same* uniform for it.  So when two windows' shared edges carry
  the same keys and one window's open probabilities are at most the
  other's, its open edges are open in the other on every trial of every
  seed: the pipeline checks containment on that structure once
  (:func:`trunclab.harness.containment_check`).  The reach
  (theta) trials come from these streams too: since a draw depends on
  nothing else, the kernel's search from the origin
  (:func:`trunclab.kernel.keyed_reach`, behind
  :func:`trunclab.engine.origin_radius_profile`) draws each edge only when
  it examines it, in any order.  The threshold estimates' crossing
  bottlenecks (:func:`trunclab.kernel.keyed_bottlenecks`) read them as
  well, so a pipeline run draws from this stream rule alone.

Both streams turn a 64-bit ``word`` into the uniform ``u = (word >> 11) *
2^-53`` (numpy's Philox doubles are made the same way).  That product and
``p * 2^53`` are exact in binary floating point, so for an integer ``k =
word >> 11`` the test ``u < p`` is exactly ``k < ceil(p * 2^53)``
(:func:`open_thresholds`).  The compiled kernel (:mod:`trunclab.kernel`)
draws the words of either stream itself and compares them as integers with
the threshold it computes from each edge's probability as it reads it, so
the edges it opens, and clusters without keeping a mask, are exactly those
where ``keyed_uniforms(...) < probs`` or ``indexed_uniform_matrix(...) <
probs``.
The numpy functions here are the reference the kernel is tested against,
and the per-trial route of :func:`trunclab.engine.trial_open_mask`.
"""

from __future__ import annotations

# hashlib's blake2b is this built-in module's; importing hashlib would also
# load OpenSSL, about 3.5 MB resident in every process, which nothing here uses.
from _blake2 import blake2b

import numpy as np

INDEXED_STREAM_RULE = "philox/block-per-trial/v1"
KEYED_STREAM_RULE = "splitmix64/coordinate-keyed/v1"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def derive_seed(master_seed: int, *parts: object) -> int:
    """Derive a 64-bit stream seed from a master seed and a label path.

    Stable across platforms and runs (blake2b of the textual path), so every
    estimate's seed can be recorded and replayed.
    """
    digest = blake2b(digest_size=8)
    digest.update(str(int(master_seed)).encode())
    for part in parts:
        digest.update(b"\x1f")
        digest.update(str(part).encode())
    return int.from_bytes(digest.digest(), "big")


def _blocks_per_trial(n_edges: int) -> int:
    return (n_edges + 3) // 4


def indexed_uniforms(n_edges: int, seed: int, trial_index: int) -> np.ndarray:
    """Uniforms for one trial: doubles ``trial*ceil(E/4)*4 .. +E`` of the stream."""
    if n_edges == 0:
        return np.empty(0, dtype=np.float64)
    bit_gen = np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    bit_gen.advance(trial_index * _blocks_per_trial(n_edges))
    return np.random.Generator(bit_gen).random(n_edges)


def indexed_uniform_matrix(n_edges: int, seed: int, trials: int, start: int = 0) -> np.ndarray:
    """Trials ``start .. start + trials - 1`` at once; row ``t`` equals
    ``indexed_uniforms(n_edges, seed, start + t)``."""
    if n_edges == 0 or trials == 0:
        return np.empty((trials, n_edges), dtype=np.float64)
    width = 4 * _blocks_per_trial(n_edges)
    bit_gen = np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    bit_gen.advance(start * _blocks_per_trial(n_edges))
    block = np.random.Generator(bit_gen).random(trials * width).reshape(trials, width)
    return np.ascontiguousarray(block[:, :n_edges])


def mix64(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array, into ``out`` if given
    (which may be ``values``)."""
    with np.errstate(over="ignore"):
        # In place after the first step, so the mix holds one temporary at a time.
        z = np.add(values, _GOLDEN, out=out)
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        return z


def coordinate_edge_keys(coords: np.ndarray, edges_u: np.ndarray, edges_v: np.ndarray) -> np.ndarray:
    """64-bit keys for the edges ``coords[edges_u[e]] -- coords[edges_v[e]]``,
    a function of endpoint coordinates only.

    ``coords`` is an integer ``(n_vertices, dim)`` array; the lexicographically
    smaller endpoint must come first (window builders guarantee this), so the
    key is orientation-free.  The endpoints are gathered one coordinate column
    at a time, so no ``(n_edges, dim)`` endpoint array is ever built.
    """
    coords = np.asarray(coords, dtype=np.int64)
    keys = np.full(len(edges_u), np.uint64(0x8C2F1D4B5A6E7391), dtype=np.uint64)
    for column in range(coords.shape[1]):
        values = np.ascontiguousarray(coords[:, column]).view(np.uint64)
        for ends in (edges_u, edges_v):
            keys ^= values[ends]
            mix64(keys, out=keys)
    return keys


def keyed_uniforms(edge_keys: np.ndarray, seed: int, trial_index: int) -> np.ndarray:
    """One uniform in ``[0, 1)`` per edge key for the given ``(seed, trial)``."""
    stamp = mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ mix64(np.uint64(trial_index) + np.uint64(1)))
    words = mix64(edge_keys ^ stamp)
    return (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def open_thresholds(probs: np.ndarray) -> np.ndarray:
    """``ceil(p * 2^53)`` per edge: keyed word ``w`` opens the edge iff ``(w >> 11)``
    is below it, exactly when the edge's keyed uniform is below ``p``."""
    scaled = np.asarray(probs, dtype=np.float64) * 2.0**53
    return np.ceil(scaled, out=scaled).astype(np.uint64)
