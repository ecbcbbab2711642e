"""Shared independent oracles: deliberately naive implementations that the
package code is checked against."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from trunclab.sequences import ProbabilitySequence


def linear_scan_oracle(seq, threshold, low, high):
    """Term-by-term reference for scan_support."""
    for length in range(low + 1, high + 1):
        if seq.probability(length) >= threshold:
            return length
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
