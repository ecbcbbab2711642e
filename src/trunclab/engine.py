"""Sampling, clustering, and event estimation over graph windows.

Per-trial randomness follows the stream contract in :mod:`trunclab.rng`:
the uniform for edge ``e`` of trial ``t`` is a pure function of
``(seed, t, e)`` (indexed mode) or of ``(seed, t, edge key)`` (keyed mode),
so estimates cannot depend on trial execution order and the same lattice
edge can be coupled across different windows.

Every indexed Monte Carlo estimate here reads ``kernel.indexed_hits``:
one call into the compiled kernel (:mod:`trunclab.kernel`) draws a range of
trials, computing the Philox words of the indexed stream as bit planes, 64
trials to a machine word, and returns only whether each trial joins two
terminal sets, found by a frontier search in all 64 trials at once; it
keeps no masks and no labels, and splits a long range across the usable
cores with hits bit-identical to one thread's.  :func:`mc_event_probability` sums those
hits.  :func:`origin_radius_profile` reads every radius off one keyed
``kernel.keyed_reach`` search, and the pipeline's theta rows are read
through it, one call per certification window; the threshold estimates read
each keyed trial's crossing bottleneck from ``kernel.keyed_bottlenecks``; so
the pipeline draws only keyed words, and the indexed stream serves
:func:`mc_event_probability` alone.
:func:`component_labels` labels an open-edge block given as masks.  There is
no second route in the package.  The tests keep scipy's
``connected_components``, a per-trial sampler on the pure-Python
:class:`UnionFind` and numpy's Philox generator as references the kernel
must agree with.
The exact oracle, :func:`exact_event_probability`, packs its enumerated
configurations 64 to a uint64 word, too, in numpy, and sweeps each vertex's
reached configurations to a fixpoint, so Monte Carlo estimates are checked
against connectivity code they do not share.  :func:`propagation_labels`
(minimum-label propagation over a batch of configurations) is not called
here: it is the tests' reference for the exact oracle, and the benchmark's
tracer wraps it by name in this namespace.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .kernel import indexed_hits, keyed_reach, mask_labels
# indexed_uniform_matrix is not called here (the kernel draws the indexed
# trials itself), but it stays bound: the benchmark's tracer wraps it by name
# in this namespace.
from .rng import (
    INDEXED_STREAM_RULE,
    KEYED_STREAM_RULE,
    indexed_uniform_matrix,  # noqa: F401
    indexed_uniforms,
    keyed_uniforms,
)
from .windows import GraphWindow

# Event descriptors are "crossing", "origin_boundary", or ("pair", i, j)
# with i, j vertex indices.

MAX_EXACT_EDGES = 22
# LANE_BITS[e] has bit l set when bit e of l is: lane l's configuration opens edge e.
LANE_BITS = tuple(np.uint64(sum(1 << lane for lane in range(64) if lane >> e & 1)) for e in range(6))


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

    ``open_matrix`` is boolean with shape ``(batch, n_edges)``; the result has
    shape ``(batch, n_vertices)`` and labels every vertex with the smallest
    vertex index of its component.  Minimum-label propagation sweeps every
    edge, giving both ends the smaller label in the rows where the edge is
    open and the labels differ, until no open edge joins two labels.  Each
    sweep settles at least one more step of every shortest path from a
    component's least vertex, so at most ``n_vertices`` sweeps change
    anything; on the small windows the exact oracle enumerates, a handful
    suffice.  The labels are kept vertex by vertex, as ``(n_vertices,
    batch)`` rows, so an edge updates two contiguous rows in place; the
    result is their transpose, a view.  An ``open_matrix`` that is itself
    the transpose of an ``(n_edges, batch)`` block is read one contiguous
    row per edge.
    """
    batch = open_matrix.shape[0]
    labels = np.repeat(np.arange(n_vertices, dtype=np.int32)[:, None], batch, axis=1)
    low = np.empty(batch, dtype=np.int32)
    differ = np.empty(batch, dtype=bool)
    for _ in range(n_vertices + 1):
        changed = False
        for e in range(edges_u.shape[0]):
            lu, lv = labels[edges_u[e]], labels[edges_v[e]]
            np.not_equal(lu, lv, out=differ)
            differ &= open_matrix[:, e]
            if not differ.any():
                continue
            changed = True
            np.minimum(lu, lv, out=low)
            np.copyto(lu, low, where=differ)
            np.copyto(lv, low, where=differ)
        if not changed:
            return labels.T
    raise RuntimeError(f"label propagation did not settle within {n_vertices + 1} sweeps")


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
        for vertex in event[1:]:
            if not 0 <= vertex < window.n_vertices:
                raise ValueError(f"pair vertex {vertex} lies outside the window's {window.n_vertices} vertices")
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
        """The :data:`ESTIMATE_COLUMNS` of the estimate's CSV row, floats by their repr."""
        row = {name: getattr(self, name) for name in ESTIMATE_COLUMNS}
        return {name: repr(value) if isinstance(value, float) else value for name, value in row.items()}


# The fields of an estimate's CSV row, in column order.
ESTIMATE_COLUMNS = ("label", "value", "half_width", "trials", "successes", "seed", "stream_rule")


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


# Trials per ``indexed_hits`` call.  It only caps the one hits array (one
# byte per trial) at 1 MB, since the trial count is user input; the kernel
# keeps no other per-trial state, and the pieces it splits a call into
# across the cores write slices of that array.
HITS_PER_CALL = 1 << 20


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
    for start in range(0, trials, HITS_PER_CALL):
        stop = min(start + HITS_PER_CALL, trials)
        successes += int(indexed_hits(window, left, right, master_seed, start, stop).sum())
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


def origin_radius_profile(
    window: GraphWindow,
    radii: list[int],
    trials: int,
    master_seed: int,
    label: str = "",
) -> tuple[list[Estimate], np.ndarray]:
    """Shared-trial estimates of reaching sup-norm distance >= r for several r.

    Trial ``t`` reaches ``r`` when its origin's cluster holds a vertex of
    sup-norm at least ``r``.  One keyed search (:func:`trunclab.kernel.keyed_reach`)
    finds every trial's reach, the largest such norm, and each radius is read
    off it, so all radii are evaluated on the same sampled configurations.
    They must be integers, at least 1 and strictly increasing, so the per-trial
    indicator matrix (second return value) is nonincreasing along the radius
    axis; the estimates inherit exact monotone coupling rather than merely
    statistical ordering.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if window.origin_index is None:
        raise ValueError("window has no origin vertex")
    radii = list(radii)
    for r in radii:
        if not isinstance(r, numbers.Integral):
            raise ValueError(f"radius {r!r} is not an integer")
    if any(r < 1 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be at least 1 and strictly increasing, got {radii}")
    reached = keyed_reach(window, master_seed, 0, trials)[:, None] >= np.array(radii, dtype=np.int64)
    estimates = [
        _make_estimate(
            int(hits), trials, master_seed, KEYED_STREAM_RULE, f"{label}r{r}" if label else f"reach-r{r}"
        )
        for r, hits in zip(radii, reached.sum(axis=0))
    ]
    return estimates, reached


def _joined_lanes(window: GraphWindow, planes: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The lanes in which a ``left`` terminal joins a ``right`` one, as one
    uint64 per word of ``planes``, whose row ``e`` holds the lanes that open
    edge ``e``.  ``reach[v]`` holds the lanes in which ``v`` joins a left
    terminal; an edge gives both ends the lanes open at it in which exactly
    one end is reached, sweeping every edge until a sweep adds none."""
    ends = list(zip(window.edges_u.tolist(), window.edges_v.tolist()))
    reach = np.zeros((window.n_vertices, planes.shape[1]), dtype=np.uint64)
    reach[left] = ~np.uint64(0)
    crossing = np.empty(planes.shape[1], dtype=np.uint64)
    changed = True
    while changed:
        changed = False
        for e, (u, v) in enumerate(ends):
            np.bitwise_xor(reach[u], reach[v], out=crossing)
            crossing &= planes[e]
            if crossing.any():
                reach[u] |= crossing
                reach[v] |= crossing
                changed = True
    return np.bitwise_or.reduce(reach[right], axis=0)


def exact_event_probability(window: GraphWindow, event) -> float:
    """Sum of product-Bernoulli weights over all configurations in the event.

    Exhaustive over all ``2^edges`` configurations, in batches of ``2^16``;
    refuses windows beyond ``MAX_EXACT_EDGES`` edges.  A batch packs 64
    configurations to a uint64 word, one bit (lane) each, with one bit plane
    per edge, and finds the configurations in the event by sweeping each
    vertex's reached lanes to a fixpoint (:func:`_joined_lanes`).
    """
    m = window.n_edges
    if m > MAX_EXACT_EDGES:
        raise EnumerationLimitError(
            f"window has {m} edges; exact enumeration is capped at {MAX_EXACT_EDGES}"
        )
    left, right = event_terminals(window, event)
    total_configs = 1 << m
    batch_size = min(total_configs, 1 << 16)
    low = batch_size.bit_length() - 1  # the edges whose bits vary within a batch
    probs = window.probs
    # The weight product of edges 0 .. low - 1, edge 0 first, at every pattern
    # of their bits: configuration c's entry is its product's value there.
    # Each batch multiplies on from edge low, so every weight takes the same
    # multiplications in the same order as a product taken edge by edge.
    prefix = np.ones(1)
    for e in range(low):
        prefix = np.concatenate([prefix * (1.0 - probs[e]), prefix * probs[e]])
    batch_totals = []
    for start in range(0, total_configs, batch_size):
        weights = prefix.copy()
        for e in range(low, m):
            weights *= probs[e] if start >> e & 1 else 1.0 - probs[e]
        # Configuration start + 64 w + l is lane l of word w, so edge e < 6
        # opens the lanes with bit e set, and edge e >= 6 every lane of the
        # words whose configurations have bit e set; the lanes of a batch
        # under 64 configurations past its end are dropped from the hits.
        word_index = np.arange(start >> 6, (start + batch_size + 63) >> 6, dtype=np.uint64)
        planes = np.empty((m, word_index.size), dtype=np.uint64)
        for e in range(m):
            planes[e] = LANE_BITS[e] if e < 6 else (word_index >> np.uint64(e - 6) & np.uint64(1)) * ~np.uint64(0)
        joined = _joined_lanes(window, planes, left, right)
        hit = np.unpackbits(joined.view(np.uint8), count=batch_size, bitorder="little").view(bool)
        batch_totals.append(float(weights[hit].sum()))
    return math.fsum(batch_totals)
