"""Shared independent oracles: deliberately naive implementations that the
package code is checked against."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from trunclab.embedding import EmbeddingReport, SlabCoord
from trunclab.engine import UnionFind, trial_open_mask
from trunclab.rng import indexed_uniforms
from trunclab.sequences import ProbabilitySequence
from trunclab.windows import GraphWindow


def term_probabilities(seq, lengths):
    """``seq.probability(n)`` for every ``n`` of the int64 array ``lengths``,
    each kind's rule written out over the array: a lacunary sequence is on
    its support at the listed lengths or at the powers of its base."""
    if seq.kind == "constant":
        values = np.full(lengths.shape, seq.value)
    elif seq.kind == "power_law":
        # Python's float power, term by term: numpy's vectorised power can differ in the last bit.
        values = np.array([min(1.0, seq.amplitude * float(n) ** -seq.exponent) for n in lengths.tolist()])
    elif seq.kind == "lacunary":
        if seq.base is not None:
            powers = [seq.base**k for k in range(int(lengths.max()).bit_length() + 1)]
            on_support = np.isin(lengths, powers)
        else:
            on_support = np.isin(lengths, seq.support)
        values = np.where(on_support, seq.value, seq.background)
    elif seq.kind == "table":
        table = np.append(np.asarray(seq.table, dtype=np.float64), seq.tail)
        values = table[np.minimum(lengths, table.size) - 1]
    else:
        raise ValueError(f"unknown sequence kind {seq.kind!r}")
    if seq.truncation is not None:
        values[lengths > seq.truncation] = 0.0
    return values


def linear_scan_oracle(seq, threshold, low, high):
    """Term-by-term reference for scan_support: every length of ``(low,
    high]`` in order, evaluated a chunk at a time."""
    chunk = 256
    while low < high:
        lengths = np.arange(low + 1, min(low + chunk, high) + 1, dtype=np.int64)
        hits = np.flatnonzero(term_probabilities(seq, lengths) >= threshold)
        if hits.size:
            return int(lengths[hits[0]])
        low, chunk = int(lengths[-1]), min(2 * chunk, 1 << 16)
    return None


def recursion_oracle(seq, epsilon, thickness, dimension, limit):
    """Term-by-term reference for the scale recursion; None if a step stalls."""
    scales = []
    previous = 0
    for _ in range(dimension - 1):
        lower = (thickness + 1) * previous
        found = linear_scan_oracle(seq, epsilon, lower, limit)
        if found is None:
            return None
        scales.append(found)
        previous = found
    return scales


def pairwise_verify_isomorphism(graph, coarse_bound, vertical_bound, seq=None, epsilon=None):
    """Reference for ``verify_isomorphism`` that decides every pair of window
    coordinates one row at a time: slab L1-adjacency against the
    scale-displacement rule (horizontal by any scale, vertical by the
    smallest) with both endpoints decodable, through the scalar
    ``encode``/``decode``."""
    if coarse_bound < 1 or vertical_bound < 1:
        raise ValueError("window bounds must be >= 1 so that every edge class occurs")
    report = EmbeddingReport(passed=False)
    coords = [
        SlabCoord(confined, coarse, vertical)
        for coarse in range(-coarse_bound, coarse_bound + 1)
        for vertical in range(-vertical_bound, vertical_bound + 1)
        for confined in product(range(graph.params.thickness), repeat=graph.params.confined_axes)
    ]
    points = [graph.encode(c) for c in coords]
    report.vertex_count = len(coords)
    seen = {}
    for coord, point in zip(coords, points):
        if point in seen:
            report.checks["injective"] = False
            report.counterexample = f"{seen[point]} and {coord} both map to {point}"
            return report
        seen[point] = coord
    report.checks["injective"] = True

    coord_matrix = np.array([c.as_tuple() for c in coords], dtype=np.int64)
    point_matrix = np.array(points, dtype=np.int64)
    decodable = np.array([graph.decode(p) is not None for p in points])
    scales = np.array(graph.scales.scales, dtype=np.int64)
    lengths = []
    lattice_edges = set()
    for i in range(len(coords) - 1):
        rest = slice(i + 1, None)
        adjacent = np.abs(coord_matrix[rest] - coord_matrix[i]).sum(axis=1) == 1
        dx = np.abs(point_matrix[rest, 0] - point_matrix[i, 0])
        dy = np.abs(point_matrix[rest, 1] - point_matrix[i, 1])
        displaced = ((dy == 0) & np.isin(dx, scales)) | ((dx == 0) & (dy == scales[0]))
        edge = displaced & decodable[i] & decodable[rest]
        wrong = np.flatnonzero(adjacent != edge)
        if wrong.size:
            j = i + 1 + int(wrong[0])
            report.checks["adjacency_equivalence"] = False
            report.checks["edge_lengths_are_scales"] = True
            report.counterexample = (
                f"pair {coords[i]} / {coords[j]}: slab adjacency {bool(adjacent[wrong[0]])} "
                f"but embedded edge {bool(edge[wrong[0]])} between {points[i]} and {points[j]}"
            )
            return report
        for offset in np.flatnonzero(edge):
            lengths.append(int(dx[offset] + dy[offset]))
            lattice_edges.add(frozenset((points[i], points[i + 1 + int(offset)])))
    report.checks["adjacency_equivalence"] = True
    report.checks["edge_lengths_are_scales"] = True

    report.edge_count = len(lengths)
    report.max_edge_length = max(lengths)
    report.checks["distinct_lattice_edges"] = len(lattice_edges) == len(lengths)
    if not report.checks["distinct_lattice_edges"]:
        report.counterexample = "two slab edges share a lattice edge"
        return report
    report.checks["top_scale_attained"] = report.max_edge_length == graph.scales.top
    if not report.checks["top_scale_attained"]:
        report.counterexample = (
            f"largest embedded edge length {report.max_edge_length} != top scale {graph.scales.top}"
        )
        return report
    if seq is not None and epsilon is not None:
        truncated = seq.truncate(graph.scales.top)
        probabilities = [s.probability(n) for s in (seq, truncated) for n in graph.scales.scales]
        report.min_edge_probability = min(probabilities)
        report.checks["edge_probabilities_reach_level"] = report.min_edge_probability >= epsilon
        if not report.checks["edge_probabilities_reach_level"]:
            report.counterexample = (
                f"minimum scale probability {report.min_edge_probability} below level {epsilon}"
            )
            return report
    report.passed = all(report.checks.values())
    return report


def bfs_components(n_vertices, edge_list):
    """Connected components of an undirected edge list, as frozensets."""
    adjacency = [[] for _ in range(n_vertices)]
    for u, v in edge_list:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = [False] * n_vertices
    components = set()
    for start in range(n_vertices):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        members = []
        while queue:
            node = queue.popleft()
            members.append(node)
            for other in adjacency[node]:
                if not seen[other]:
                    seen[other] = True
                    queue.append(other)
        components.add(frozenset(members))
    return components


@dataclass
class ClusterState:
    """One sampled configuration: open-edge mask plus its union-find forest."""

    window: GraphWindow
    open_mask: np.ndarray
    forest: UnionFind

    def same_component(self, a: int, b: int) -> bool:
        return self.forest.connected(a, b)

    def open_edge_count(self) -> int:
        return int(self.open_mask.sum())


def sample_and_cluster(window: GraphWindow, master_seed: int, trial_index: int) -> ClusterState:
    """Reference sampler: one indexed-stream trial, clustered edge by edge on a ``UnionFind``."""
    open_mask = trial_open_mask(window, master_seed, trial_index)
    forest = UnionFind(window.n_vertices)
    for e in np.nonzero(open_mask)[0]:
        forest.union(int(window.edges_u[e]), int(window.edges_v[e]))
    return ClusterState(window, open_mask, forest)


def scipy_union_labels(window, open_matrix):
    """Reference labels of a ``(batch, n_edges)`` block from scipy's ``connected_components``.

    Vertex ``i`` of trial ``t`` is vertex ``t * n + i`` of one disjoint-union
    graph, built straight as CSR: with the edges stably sorted by ``edges_u``,
    the open edges of one union row are contiguous in the flattened mask, so
    ``indptr`` is the running open-edge count read at each row's first edge.
    Labels are unique across rows.
    """
    n = window.n_vertices
    open_matrix = np.asarray(open_matrix, dtype=bool)
    batch = open_matrix.shape[0]
    order = np.argsort(window.edges_u, kind="stable")
    edges_u, edges_v = window.edges_u[order], window.edges_v[order]
    open_matrix = open_matrix[:, order]
    n_edges = edges_v.shape[0]
    row_starts = np.searchsorted(edges_u, np.arange(n, dtype=edges_u.dtype))
    open_before = np.zeros(batch * n_edges + 1, dtype=np.int64)
    np.cumsum(open_matrix.ravel(), out=open_before[1:])
    trial_starts = np.arange(batch, dtype=np.int64)[:, None] * n_edges
    indptr = np.empty(batch * n + 1, dtype=np.int64)
    indptr[:-1] = open_before[(trial_starts + row_starts).ravel()]
    indptr[-1] = open_before[-1]
    offsets = np.arange(batch, dtype=np.int64)[:, None] * n
    indices = (edges_v.astype(np.int64)[None, :] + offsets)[open_matrix]
    data = np.ones(indices.shape[0], dtype=np.float64)
    graph = csr_matrix((data, indices, indptr), shape=(batch * n, batch * n))
    return connected_components(graph, directed=False)[1].reshape(batch, n)


def bisection_bottleneck(window: GraphWindow, seed: int, trial: int) -> float:
    """The least of indexed trial ``trial``'s uniforms at which its crossing
    window crosses, or 1.0 if it never does: the trial's sorted uniforms
    bisected, each step opening the edges at or below one and clustering
    them with :func:`scipy_union_labels`."""
    uniforms = indexed_uniforms(window.n_edges, seed, trial)
    left, right = window.terminals["left"], window.terminals["right"]

    def crosses(open_mask):
        labels = scipy_union_labels(window, open_mask[None, :])[0]
        return np.intersect1d(labels[left], labels[right]).size > 0

    ranked = np.append(np.sort(uniforms), 1.0)  # the last slot stands for "never"
    lo, hi = 0, uniforms.size
    while lo < hi:
        mid = (lo + hi) // 2
        if crosses(uniforms <= ranked[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(ranked[lo])


def random_sequence(rng: np.random.Generator) -> ProbabilitySequence:
    """A random sequence of any kind, for law-level property tests."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return ProbabilitySequence.constant(float(rng.uniform(0, 1)))
    if kind == 1:
        return ProbabilitySequence.power_law(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.2, 3.0)))
    if kind == 2:
        if rng.integers(0, 2):
            return ProbabilitySequence.lacunary(
                float(rng.uniform(0, 1)),
                base=int(rng.integers(2, 8)),
                background=float(rng.choice([0.0, rng.uniform(0, 0.3)])),
            )
        support = tuple(sorted(set(int(v) for v in rng.integers(1, 400, size=rng.integers(1, 12)))))
        return ProbabilitySequence.lacunary(
            float(rng.uniform(0, 1)), support=support, background=float(rng.choice([0.0, rng.uniform(0, 0.3)]))
        )
    values = rng.uniform(0, 1, size=int(rng.integers(1, 30)))
    return ProbabilitySequence.from_table(values, tail=float(rng.choice([0.0, rng.uniform(0, 0.5)])))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)
