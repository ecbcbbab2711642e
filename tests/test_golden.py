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
The report and calibration digests were re-recorded again when the
bottleneck sweep moved from the indexed Philox words onto the keyed words
the certification pass draws (method ``bottleneck-median/v4``): the
calibration rows and the report's ``threshold`` object (its ``p_hat``,
``uncertainty``, ``bracket`` and ``method``) changed, and ``stream_rules``
lost its ``indexed`` entry, since a run now draws on the keyed rule alone;
the slab (d3 K2), the report's other fields and ``estimates.csv`` stayed as
they were.  The calibration digest was re-recorded once more when the slab
search began to take a thickness-1 slab, which is Z^2, from its exact
threshold 1/2 instead of estimating it: the ``slab-d3-k1`` row is gone and
every other byte of every artifact stayed as it was.

A change that moves these numbers on purpose (a new stream rule, a new
estimator) updates the digests and says why in CHANGES.md.
"""

import dataclasses
import hashlib
import sys

import pytest

import trunclab.thresholds as thresholds_module
from trunclab import kernel, rng
from trunclab.harness import PipelineConfig, run_pipeline
from trunclab.sequences import EpsilonCertificate, ProbabilitySequence
from trunclab.thresholds import CalibrationTable, ThresholdSettings
from trunclab.windows import ConfigError

DIGESTS = {
    "report.json": "b978605b555dd3b2b57424590a661ba92c6025684ffa65af1d89d516ec3cf1e0",
    "estimates.csv": "3ac368e022760f66a130612798ffc37fe29d03f31bbd68bddce0f9f846dd8263",
    "calibration.csv": "ed219fda445eab71b2a93c6248e1f7b6fec023d0b9b71e6a53407287bf695894",
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


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_tiny_pipeline_artifacts_match_recorded_digests(tmp_path, monkeypatch, thread_starts, cores):
    # The bottleneck sweeps split their trials over the usable cores, and no
    # cut may move a value: every artifact matches its digest, recorded on
    # one thread, whether the sweeps ran on one core or on several.
    monkeypatch.setattr(kernel.os, "sched_getaffinity", lambda pid: set(range(cores)))
    report = run_pipeline(golden_config(), tmp_path)
    assert report.passed
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert digests == DIGESTS
    assert (len(thread_starts) > 0) == (cores > 1)
    assert not any(thread.is_alive() for thread in thread_starts)


def test_the_pipeline_draws_no_indexed_word(tmp_path, monkeypatch):
    # Every entry point of the indexed stream raises, under every name a
    # package module binds it to; the run must still pass on keyed words alone.
    indexed = {kernel.indexed_hits, rng.indexed_uniforms, rng.indexed_uniform_matrix}

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline drew an indexed word")

    for name, module in list(sys.modules.items()):
        if name == "trunclab" or name.startswith("trunclab."):
            for attribute, value in list(vars(module).items()):
                if any(value is entry for entry in indexed):
                    monkeypatch.setattr(module, attribute, refuse)
    report = run_pipeline(golden_config(), tmp_path)
    assert report.passed
    assert report.stream_rules == {"keyed": rng.KEYED_STREAM_RULE}
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == DIGESTS["report.json"]


def test_calibration_round_trip(tmp_path, monkeypatch, thread_starts):
    # A warm rerun reads every threshold from the cold run's table and
    # reproduces its report byte for byte without estimating anything.  Only
    # the split kernels start threads, so it starts none on any number of
    # cores: it sweeps no bottleneck and never calls the hit kernel.
    monkeypatch.setattr(kernel.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    run_pipeline(golden_config(), tmp_path / "cold")
    table = tmp_path / "cold" / "calibration.csv"

    def refuse(*args, **kwargs):
        raise AssertionError("a warm run estimated a threshold")

    monkeypatch.setattr(thresholds_module, "estimate_pc", refuse)
    warm = dataclasses.replace(golden_config(), calibration_file=str(table))
    del thread_starts[:]
    run_pipeline(warm, tmp_path / "warm")
    assert thread_starts == []
    assert (tmp_path / "warm" / "report.json").read_bytes() == (tmp_path / "cold" / "report.json").read_bytes()

    # A row's family column must name the family its kind, dimension and
    # thickness describe; otherwise the row would serve the wrong family.
    lines = table.read_text().splitlines(keepends=True)
    row = next(number for number, line in enumerate(lines) if line.startswith("slab-d3-k2,"))
    lines[row] = lines[row].replace("slab-d3-k2,", "slab-d3-k1,", 1)
    table.write_text("".join(lines))
    with pytest.raises(ConfigError) as excinfo:
        CalibrationTable(table)
    assert f"{table}, line {row + 1}:" in str(excinfo.value)
