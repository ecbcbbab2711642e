"""Golden output: a tiny pipeline whose artifacts must not change by accident.

The digests below were recorded before the disjoint-union clustering route
replaced the per-trial loop, and that change kept them.  A change that moves
these numbers on purpose (a new stream rule, a new estimator) updates the
digests and says why in CHANGES.md.
"""

import hashlib

from trunclab.harness import PipelineConfig, run_pipeline
from trunclab.sequences import EpsilonCertificate, ProbabilitySequence
from trunclab.thresholds import ThresholdSettings

DIGESTS = {
    "report.json": "623c798127b3900431b3358a8ba5de79dffed2d059db84602773423819c55e60",
    "estimates.csv": "d882d07dce49a2747a328cef2abd918972bf01d8ef87d9fc72af27a62138e74f",
    "calibration.csv": "187b5830a5097df2667036c77a0fb444ac1f1e9360e3ab0e074119523ba7f4b9",
}


def golden_config() -> PipelineConfig:
    return PipelineConfig(
        sequence=ProbabilitySequence.lacunary(0.9, base=2),
        certificate=EpsilonCertificate(0.45, evidence="level 0.9 on a geometric set of lengths"),
        margin=0.02,
        d_max=6,
        k_max=4,
        verify_coarse=2,
        verify_vertical=2,
        theta_radii=(16, 32),
        theta_trials=48,
        containment_trials=36,
        thresholds=ThresholdSettings(
            l_schedule=(8, 16), bracket_tol=0.03, trials_per_probe=120, coarse_trials=40
        ),
        master_seed=20261017,
    )


def test_tiny_pipeline_artifacts_match_recorded_digests(tmp_path):
    report = run_pipeline(golden_config(), tmp_path)
    assert report.passed
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert digests == DIGESTS
