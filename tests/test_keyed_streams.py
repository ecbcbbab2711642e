"""Statistical checks of the keyed (splitmix64, coordinate-keyed) streams.

Theta and containment both read these streams, so their uniforms are tested
directly: 20 trials of every edge key of the r64 full window of the
acceptance pipeline (98,040 edges), at three seeds, one of them at or above
2^63.  Uniformity is checked with a 100-bin chi-square test and a
Kolmogorov-Smirnov test; independence with the correlation between
consecutive trials and between consecutive edge keys, against 5 standard
errors of a zero correlation.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from trunclab.rng import keyed_uniforms
from trunclab.sequences import ProbabilitySequence
from trunclab.windows import long_range_radial_window

TRIALS = 20
SEEDS = (7, 20261018, 2**63 + 0x2545F491)


@pytest.fixture(scope="module")
def keys():
    window = long_range_radial_window(ProbabilitySequence.lacunary(0.9, base=2).truncate(4), 64)
    assert window.n_edges == 98_040
    return window.edge_keys


@pytest.fixture(scope="module", params=SEEDS)
def draws(request, keys):
    return np.stack([keyed_uniforms(keys, request.param, t) for t in range(TRIALS)])


def test_uniform_by_chi_square(draws):
    counts, _ = np.histogram(draws, bins=100, range=(0.0, 1.0))
    assert stats.chisquare(counts).pvalue > 1e-3


def test_uniform_by_kolmogorov_smirnov(draws):
    assert stats.kstest(draws.ravel(), "uniform").pvalue > 1e-3


def correlation_bound(pairs: int) -> float:
    return 5.0 / np.sqrt(pairs)


def test_consecutive_trials_uncorrelated(draws):
    earlier, later = draws[:-1].ravel(), draws[1:].ravel()
    assert abs(np.corrcoef(earlier, later)[0, 1]) < correlation_bound(earlier.size)


def test_consecutive_edge_keys_uncorrelated(draws):
    left, right = draws[:, :-1].ravel(), draws[:, 1:].ravel()
    assert abs(np.corrcoef(left, right)[0, 1]) < correlation_bound(left.size)
