"""Deterministic random-stream derivation for reproducible Monte Carlo.

Two stream families are provided, both pure functions of integers so that
trials can run in any order (or in parallel) without changing a single draw:

* indexed streams -- trial ``t`` of a window with ``E`` edges reads its
  uniforms from a Philox counter stream keyed by the run seed, starting at
  counter block ``t * ceil(E / 4)`` (Philox emits four 64-bit words per
  block).  The uniform for ``(seed, trial, edge_index)`` depends on nothing
  else.

* keyed streams -- one uniform per ``(seed, trial, edge_key)`` triple,
  computed with a splitmix64 finalizer chain.  Edge keys are derived from
  lattice coordinates, so two different windows that share a lattice edge
  draw the *same* uniform for it.  This is what makes monotone-coupling and
  containment assertions exact per trial instead of merely statistical.
"""

from __future__ import annotations

import hashlib

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
    digest = hashlib.blake2b(digest_size=8)
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


def mix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    with np.errstate(over="ignore"):
        z = values + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def coordinate_edge_keys(endpoints_a: np.ndarray, endpoints_b: np.ndarray) -> np.ndarray:
    """64-bit keys for lattice edges, a function of endpoint coordinates only.

    ``endpoints_a``/``endpoints_b`` are integer coordinate arrays of shape
    ``(n_edges, dim)``; the lexicographically smaller endpoint must come
    first (window builders guarantee this), so the key is orientation-free.
    """
    a = np.ascontiguousarray(endpoints_a, dtype=np.int64).view(np.uint64)
    b = np.ascontiguousarray(endpoints_b, dtype=np.int64).view(np.uint64)
    keys = np.full(a.shape[0], np.uint64(0x8C2F1D4B5A6E7391), dtype=np.uint64)
    for column in range(a.shape[1]):
        keys = mix64(keys ^ a[:, column])
        keys = mix64(keys ^ b[:, column])
    return keys


def keyed_uniforms(edge_keys: np.ndarray, seed: int, trial_index: int) -> np.ndarray:
    """One uniform in ``[0, 1)`` per edge key for the given ``(seed, trial)``."""
    stamp = mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ mix64(np.uint64(trial_index) + np.uint64(1)))
    words = mix64(edge_keys ^ stamp)
    return (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
