"""Golden output: a tiny pipeline whose artifacts must not change by accident.

The estimates digest was re-recorded when theta moved from per-window
Philox streams onto the containment pass's keyed trials, which changed only
the theta rows (their seeds and stream rule).  The report and calibration
digests were re-recorded when the threshold estimator moved to probes
coupled within each window side (method ``coupled-bisection/v2``) and the
calibration rows began to record every threshold setting; only the report's
``threshold`` entry and the calibration rows changed.  The report and
estimates digests were re-recorded again when certification moved to one
window pair of radius ``max(theta_radii) + top`` (36 here): the two
containment rows became one, with a ``reach_violations`` count, and all
theta rows now share that pass's seed; every theta value stayed 1.0.  The
report digest was re-recorded once more when containment became one
structural check on that window pair instead of a per-trial scoring: the
containment row lost its ``reach_violations``, ``vacuous`` and ``note``
fields, whose only sources went with the scoring, and nothing else changed.
The report and calibration digests were re-recorded again when thresholds
became the median of each trial's crossing bottleneck (method
``bottleneck-median/v3``) instead of a bisection on the crossing fraction:
the calibration rows and the report's ``threshold`` object (its ``p_hat``,
``uncertainty``, ``bracket`` and ``method``) changed, the uncertainty now
holding the largest drift of a smaller side's median from the top side's,
and the calibration file's first comment line says so; the slab (d3 K2),
the report's other fields and ``estimates.csv`` stayed as they were.

A change that moves these numbers on purpose (a new stream rule, a new
estimator) updates the digests and says why in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

import trunclab.thresholds as thresholds_module
from trunclab.harness import PipelineConfig, run_pipeline
from trunclab.sequences import EpsilonCertificate, ProbabilitySequence
from trunclab.thresholds import CalibrationTable, ThresholdSettings
from trunclab.windows import ConfigError

DIGESTS = {
    "report.json": "f118a94d7c4db8368a005c9e078f49cd86e839229aee6388513fa92bd18d257c",
    "estimates.csv": "3ac368e022760f66a130612798ffc37fe29d03f31bbd68bddce0f9f846dd8263",
    "calibration.csv": "17134d3fe66ae905a43f131d98a73d151cc83d83239757141d0f55d75d05007d",
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


def test_calibration_round_trip(tmp_path, monkeypatch):
    # A warm rerun reads every threshold from the cold run's table and
    # reproduces its report byte for byte without estimating anything.
    run_pipeline(golden_config(), tmp_path / "cold")
    table = tmp_path / "cold" / "calibration.csv"

    def refuse(*args, **kwargs):
        raise AssertionError("a warm run estimated a threshold")

    monkeypatch.setattr(thresholds_module, "estimate_pc", refuse)
    warm = dataclasses.replace(golden_config(), calibration_file=str(table))
    run_pipeline(warm, tmp_path / "warm")
    assert (tmp_path / "warm" / "report.json").read_bytes() == (tmp_path / "cold" / "report.json").read_bytes()

    # A row's family column must name the family its kind, dimension and
    # thickness describe; otherwise the row would serve the wrong family.
    lines = table.read_text().splitlines(keepends=True)
    row = next(number for number, line in enumerate(lines) if line.startswith("slab-d3-k1,"))
    lines[row] = lines[row].replace("slab-d3-k1,", "slab-d3-k2,", 1)
    table.write_text("".join(lines))
    with pytest.raises(ConfigError) as excinfo:
        CalibrationTable(table)
    assert f"{table}, line {row + 1}:" in str(excinfo.value)
