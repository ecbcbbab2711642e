"""Statistical checks of the keyed (splitmix64, coordinate-keyed) streams.

Theta and containment both read these streams, so their uniforms are tested
directly: 20 trials of every edge key of the r64 full window of the
acceptance pipeline (98,040 edges), at three seeds, one of them at or above
2^63.  Uniformity is checked with a 100-bin chi-square test and a
Kolmogorov-Smirnov test; independence with the correlation between
consecutive trials and between consecutive edge keys, against 5 standard
errors of a zero correlation.

The same checks run on two nearest-neighbour key sets in more dimensions: a
3-D slab (thickness 2, free axes [-64, 64], 82,689 edges) and a 4-D box of
Z^4 ([-6, 6]^4, 105,456 edges).  ``lattice_window`` attaches the keys
``coordinate_edge_keys`` computes from its coordinates, which is checked
first, and each set is checked to hold no repeated key.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from trunclab.rng import coordinate_edge_keys, keyed_uniforms
from trunclab.sequences import ProbabilitySequence
from trunclab.windows import lattice_window, long_range_radial_window

TRIALS = 20
SEEDS = (7, 20261018, 2**63 + 0x2545F491)
LATTICE_WINDOWS = {
    "slab-d3-k2": (lambda: lattice_window(3, 0.5, 64, "origin_boundary", thickness=2), 82_689),
    "z4": (lambda: lattice_window(4, 0.5, 6, "origin_boundary"), 105_456),
}


def keyed_draws(keys: np.ndarray, seed: int) -> np.ndarray:
    return np.stack([keyed_uniforms(keys, seed, t) for t in range(TRIALS)])


@pytest.fixture(scope="module")
def keys():
    window = long_range_radial_window(ProbabilitySequence.lacunary(0.9, base=2).truncate(4), 64)
    assert window.n_edges == 98_040
    return window.edge_keys


@pytest.fixture(scope="module", params=SEEDS)
def draws(request, keys):
    return keyed_draws(keys, request.param)


@pytest.fixture(scope="module", params=sorted(LATTICE_WINDOWS))
def lattice_keys(request):
    build, n_edges = LATTICE_WINDOWS[request.param]
    window = build()
    assert window.n_edges == n_edges
    assert np.array_equal(window.edge_keys, coordinate_edge_keys(window.coords, window.edges_u, window.edges_v))
    return window.edge_keys


@pytest.fixture(scope="module", params=SEEDS)
def lattice_draws(request, lattice_keys):
    return keyed_draws(lattice_keys, request.param)


def uniform_by_chi_square(draws):
    counts, _ = np.histogram(draws, bins=100, range=(0.0, 1.0))
    assert stats.chisquare(counts).pvalue > 1e-3


def uniform_by_kolmogorov_smirnov(draws):
    assert stats.kstest(draws.ravel(), "uniform").pvalue > 1e-3


def correlation_bound(pairs: int) -> float:
    return 5.0 / np.sqrt(pairs)


def consecutive_trials_uncorrelated(draws):
    earlier, later = draws[:-1].ravel(), draws[1:].ravel()
    assert abs(np.corrcoef(earlier, later)[0, 1]) < correlation_bound(earlier.size)


def consecutive_edge_keys_uncorrelated(draws):
    left, right = draws[:, :-1].ravel(), draws[:, 1:].ravel()
    assert abs(np.corrcoef(left, right)[0, 1]) < correlation_bound(left.size)


CHECKS = (
    uniform_by_chi_square,
    uniform_by_kolmogorov_smirnov,
    consecutive_trials_uncorrelated,
    consecutive_edge_keys_uncorrelated,
)


def test_uniform_by_chi_square(draws):
    uniform_by_chi_square(draws)


def test_uniform_by_kolmogorov_smirnov(draws):
    uniform_by_kolmogorov_smirnov(draws)


def test_consecutive_trials_uncorrelated(draws):
    consecutive_trials_uncorrelated(draws)


def test_consecutive_edge_keys_uncorrelated(draws):
    consecutive_edge_keys_uncorrelated(draws)


def test_lattice_keys_are_distinct(lattice_keys):
    assert np.unique(lattice_keys).size == lattice_keys.size


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_lattice_key_draws(lattice_draws, check):
    check(lattice_draws)
