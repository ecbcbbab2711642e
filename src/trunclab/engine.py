"""Sampling, clustering, and event estimation over graph windows.

Per-trial randomness follows the stream contract in :mod:`trunclab.rng`:
the uniform for edge ``e`` of trial ``t`` is a pure function of
``(seed, t, e)`` (indexed mode) or of ``(seed, t, edge key)`` (keyed mode),
so estimates cannot depend on trial execution order and the same lattice
edge can be coupled across different windows.

Every Monte Carlo estimate here clusters a whole block of trials with one
call into the compiled union-find kernel (:mod:`trunclab.kernel`), which
also draws the trials: :func:`mc_event_probability` and
:func:`origin_radius_profile` take the labels of each block of indexed
trials from ``kernel.indexed_labels``, which computes the Philox words of
the indexed stream in the loop that clusters them and keeps no open masks.
The certification pass reads its keyed trials' reach from
``kernel.keyed_reach``, and the threshold estimates read each trial's
crossing bottleneck from ``kernel.indexed_bottlenecks``.
:func:`component_labels` labels an open-edge block given as masks.  There is
no second route in the package.  The tests keep scipy's
``connected_components``, a per-trial sampler on the pure-Python
:class:`UnionFind` and numpy's Philox generator as references the kernel
must agree with.
The exact oracle, :func:`exact_event_probability`, labels its enumerated
configurations with its own vectorized label-propagation sweep, so Monte
Carlo estimates are checked against connectivity code they do not share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .kernel import indexed_labels, mask_labels
# indexed_uniform_matrix is not called here (the kernel draws the indexed
# trials itself), but it stays bound: the benchmark's tracer wraps it by name
# in this namespace.
from .rng import (
    INDEXED_STREAM_RULE,
    indexed_uniform_matrix,  # noqa: F401
    indexed_uniforms,
    keyed_uniforms,
)
from .windows import GraphWindow

# Event descriptors are "crossing", "origin_boundary", or ("pair", i, j)
# with i, j vertex indices.

MAX_EXACT_EDGES = 22


class EnumerationLimitError(Exception):
    """Exact enumeration refused: the window exceeds the 2^22-configuration bound."""


class UnionFind:
    """Disjoint-set forest with union by rank and path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def labels(self) -> np.ndarray:
        """Canonical component label (root index) per element."""
        return np.array([self.find(i) for i in range(len(self.parent))], dtype=np.int64)


def trial_open_mask(window: GraphWindow, master_seed: int, trial_index: int, keyed: bool = False) -> np.ndarray:
    """Open/closed state of every edge for one trial (edge open iff u < p)."""
    if keyed:
        if window.edge_keys is None:
            raise ValueError(f"window family {window.family!r} carries no edge keys")
        uniforms = keyed_uniforms(window.edge_keys, master_seed, trial_index)
    else:
        uniforms = indexed_uniforms(window.n_edges, master_seed, trial_index)
    return uniforms < window.probs


def component_labels(window: GraphWindow, open_mask: np.ndarray) -> np.ndarray:
    """Component label per vertex of the open subgraph.

    ``open_mask`` is either one trial's ``(n_edges,)`` mask, giving
    ``(n_vertices,)`` labels, or a ``(batch, n_edges)`` block of trials,
    giving ``(batch, n_vertices)`` labels.  A label never repeats across
    rows: two vertices of any rows share a label iff they lie in the same
    trial and the same component.
    """
    open_mask = np.asarray(open_mask, dtype=bool)
    if open_mask.ndim == 1:
        return mask_labels(window, open_mask[None, :])[0]
    return mask_labels(window, open_mask)


def propagation_labels(
    n_vertices: int,
    edges_u: np.ndarray,
    edges_v: np.ndarray,
    open_matrix: np.ndarray,
) -> np.ndarray:
    """Component labels for a whole batch of configurations at once.

    ``open_matrix`` is boolean with shape ``(batch, n_edges)``.  Minimum-label
    propagation sweeps every edge until no label changes; on the small
    windows the exact oracle enumerates, a handful of sweeps suffice.
    """
    batch = open_matrix.shape[0]
    labels = np.broadcast_to(np.arange(n_vertices, dtype=np.int32), (batch, n_vertices)).copy()
    rows = np.arange(batch)
    while True:
        changed = False
        for e in range(edges_u.shape[0]):
            mask = open_matrix[:, e]
            if not mask.any():
                continue
            lu = labels[:, edges_u[e]]
            lv = labels[:, edges_v[e]]
            low = np.minimum(lu, lv)
            update = mask & ((lu != low) | (lv != low))
            if update.any():
                changed = True
                idx = rows[update]
                labels[idx, edges_u[e]] = low[update]
                labels[idx, edges_v[e]] = low[update]
        if not changed:
            return labels


def _connected_batch(labels: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-row connection test over ``(batch, n_vertices)`` label rows; terminal sets are small."""
    hit = np.zeros(labels.shape[0], dtype=bool)
    for s in left:
        for t in right:
            hit |= labels[:, s] == labels[:, t]
    return hit


def _union_hits(labels: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-row connection test on block labels (unique across rows).

    Marks the labels of every left terminal, then asks whether any right
    terminal carries a marked label.
    """
    marked = np.zeros(int(labels.max()) + 1, dtype=bool)
    marked[labels[:, left]] = True
    return marked[labels[:, right]].any(axis=1)


def event_terminals(window: GraphWindow, event) -> tuple[np.ndarray, np.ndarray]:
    """Resolve an event descriptor to its two terminal vertex sets."""
    if event == "crossing":
        try:
            return window.terminals["left"], window.terminals["right"]
        except KeyError:
            raise ValueError("window has no crossing terminals") from None
    if event == "origin_boundary":
        if window.origin_index is None or "boundary" not in window.terminals:
            raise ValueError("window has no origin/boundary terminals")
        return window.terminals["origin"], window.terminals["boundary"]
    if isinstance(event, tuple) and len(event) == 3 and event[0] == "pair":
        return (
            np.array([event[1]], dtype=np.int64),
            np.array([event[2]], dtype=np.int64),
        )
    raise ValueError(f"unknown event descriptor {event!r}")


def binomial_half_width(value: float, trials: int) -> float:
    """95% normal-approximation half-width of a Bernoulli mean."""
    return 1.96 * math.sqrt(value * (1.0 - value) / trials)


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo point estimate with trial count and seed provenance."""

    value: float
    trials: int
    successes: int
    half_width: float
    seed: int
    stream_rule: str
    label: str = ""

    def as_row(self) -> dict:
        return {
            "label": self.label,
            "value": repr(self.value),
            "half_width": repr(self.half_width),
            "trials": self.trials,
            "successes": self.successes,
            "seed": self.seed,
            "stream_rule": self.stream_rule,
        }


def _make_estimate(successes: int, trials: int, seed: int, rule: str, label: str) -> Estimate:
    value = successes / trials if trials else 0.0
    return Estimate(
        value=value,
        trials=trials,
        successes=int(successes),
        half_width=binomial_half_width(value, trials) if trials else 0.0,
        seed=seed,
        stream_rule=rule,
        label=label,
    )


# Edges drawn (or vertices labelled) per block of trials.  It sets the size
# of a block's labels (four bytes per vertex), the only matrix a drawn block
# holds: the kernel draws each word where it compares it and keeps neither
# uniforms nor open masks.  200k kept the pipeline benchmark's peak RSS
# below the per-trial loop's, 1M did not.
BLOCK_UNIFORMS = 200_000


def trial_blocks(trials: int, window: GraphWindow) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` trial ranges holding about BLOCK_UNIFORMS edge draws
    each of ``window``, and at least one trial.

    A trial weighs the window's edge or its vertex count, whichever is
    larger: a block's labels hold an entry per vertex of every trial, so a
    window with many vertices and few edges must not get a block that
    overflows the kernel's 32-bit labels.
    """
    per_trial = max(1, window.n_edges, window.n_vertices)
    rows = max(1, BLOCK_UNIFORMS // per_trial)
    for start in range(0, trials, rows):
        yield start, min(start + rows, trials)


def _indexed_blocks(window: GraphWindow, trials: int, master_seed: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(start, stop, labels)`` of each block of indexed trials, drawn and clustered by the kernel."""
    for start, stop in trial_blocks(trials, window):
        yield start, stop, indexed_labels(window, master_seed, start, stop)


def mc_event_probability(
    window: GraphWindow,
    event,
    trials: int,
    master_seed: int,
    label: str = "",
) -> Estimate:
    """Monte Carlo probability of an event under independent edge sampling."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    left, right = event_terminals(window, event)
    successes = 0
    for _, _, labels in _indexed_blocks(window, trials, master_seed):
        successes += int(_union_hits(labels, left, right).sum())
    return _make_estimate(successes, trials, master_seed, INDEXED_STREAM_RULE, label)


def crossing_estimate(
    window: GraphWindow,
    trials: int,
    master_seed: int,
    label: str = "",
) -> Estimate:
    return mc_event_probability(window, "crossing", trials, master_seed, label=label)


def origin_boundary_estimate(
    window: GraphWindow,
    trials: int,
    master_seed: int,
    label: str = "",
) -> Estimate:
    """Fraction of trials in which the origin's cluster touches the boundary set."""
    if window.origin_index is None:
        raise ValueError("window has no origin vertex")
    return mc_event_probability(window, "origin_boundary", trials, master_seed, label=label)


def origin_reach(window: GraphWindow, labels: np.ndarray) -> np.ndarray:
    """Largest sup-norm in the origin's cluster, per row of ``(rows, n_vertices)`` block labels.

    The origin's cluster leaves the open box ``{|x| < r}`` iff the reach is
    at least ``r``, so one reach per trial answers every radius at once.
    """
    cluster = labels == labels[:, [window.origin_index]]
    return np.where(cluster, window.norms, 0).max(axis=1)


def origin_radius_profile(
    window: GraphWindow,
    radii: list[int],
    trials: int,
    master_seed: int,
    label: str = "",
) -> tuple[list[Estimate], np.ndarray]:
    """Shared-trial estimates of reaching sup-norm distance >= r for several r.

    All radii are evaluated on the same sampled configurations, and they
    must be at least 1 and strictly increasing, so the per-trial indicator
    matrix (second return value) is nonincreasing along the radius axis by
    construction; the estimates inherit exact monotone coupling rather than
    merely statistical ordering.
    """
    if window.origin_index is None:
        raise ValueError("window has no origin vertex")
    radii = list(radii)
    if any(r < 1 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be at least 1 and strictly increasing, got {radii}")
    indicators = np.zeros((trials, len(radii)), dtype=bool)
    for start, stop, labels in _indexed_blocks(window, trials, master_seed):
        indicators[start:stop] = origin_reach(window, labels)[:, None] >= np.array(radii)
    estimates = [
        _make_estimate(int(indicators[:, i].sum()), trials, master_seed, INDEXED_STREAM_RULE,
                       label=f"{label}r{r}" if label else f"reach-r{r}")
        for i, r in enumerate(radii)
    ]
    return estimates, indicators


def exact_event_probability(window: GraphWindow, event) -> float:
    """Sum of product-Bernoulli weights over all configurations in the event.

    Exhaustive over all ``2^edges`` configurations, evaluated in vectorized
    batches; refuses windows beyond ``MAX_EXACT_EDGES`` edges.
    """
    m = window.n_edges
    if m > MAX_EXACT_EDGES:
        raise EnumerationLimitError(
            f"window has {m} edges; exact enumeration is capped at {MAX_EXACT_EDGES}"
        )
    left, right = event_terminals(window, event)
    total_configs = 1 << m
    batch_size = min(total_configs, 1 << 16)
    probs = window.probs
    batch_totals = []
    for start in range(0, total_configs, batch_size):
        configs = np.arange(start, min(start + batch_size, total_configs), dtype=np.uint32)
        open_matrix = np.zeros((configs.size, m), dtype=bool)
        weights = np.ones(configs.size, dtype=np.float64)
        for e in range(m):
            bit = (configs >> np.uint32(e)) & np.uint32(1)
            open_matrix[:, e] = bit.astype(bool)
            weights *= np.where(open_matrix[:, e], probs[e], 1.0 - probs[e])
        labels = propagation_labels(window.n_vertices, window.edges_u, window.edges_v, open_matrix)
        hit = _connected_batch(labels, left, right)
        batch_totals.append(float(weights[hit].sum()))
    return math.fsum(batch_totals)
