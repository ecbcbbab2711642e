"""Golden output: a tiny pipeline whose artifacts must not change by accident.

The calibration digest was recorded before the disjoint-union clustering
route replaced the per-trial loop, and every change since has kept it.  The
report and estimates digests were re-recorded when theta moved from
per-window Philox streams onto the containment pass's keyed trials, which
changed only the theta rows (their seeds and stream rule).  A change that
moves these numbers on purpose (a new stream rule, a new estimator) updates
the digests and says why in CHANGES.md.
"""

import hashlib

from trunclab.harness import PipelineConfig, run_pipeline
from trunclab.sequences import EpsilonCertificate, ProbabilitySequence
from trunclab.thresholds import ThresholdSettings

DIGESTS = {
    "report.json": "823763de731d507396ef8f85d332308052ded79f9046c065837b21381ae328ab",
    "estimates.csv": "11899995e554df6d1a20a77babdda3ba5025c0fd2d27f92b83260b29d9302e5d",
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
