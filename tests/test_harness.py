import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from trunclab import harness
from trunclab.cli import _build_parser, _pc_settings, main
from trunclab.embedding import EmbeddedGraph, ScaleVector, SlabParameters
from trunclab.engine import origin_radius_profile
from trunclab.harness import (
    PipelineConfig,
    containment_check,
    load_config,
    run_pipeline,
)
from trunclab.rng import INDEXED_STREAM_RULE as INDEXED
from trunclab.rng import KEYED_STREAM_RULE as KEYED
from trunclab.sequences import EpsilonCertificate, ProbabilitySequence
from trunclab.thresholds import METHOD, CalibrationTable, LatticeFamily, ThresholdEstimate, ThresholdSettings
from trunclab.windows import ConfigError, embedded_radial_window, lattice_window, long_range_radial_window

from test_acceptance import _spec_pipeline_config

FAST_THRESHOLDS = ThresholdSettings(
    l_schedule=(6, 12), bracket_tol=0.04, trials_per_probe=400, coarse_trials=150
)


def small_config(**overrides) -> PipelineConfig:
    defaults = dict(
        sequence=ProbabilitySequence.lacunary(0.9, base=2),
        certificate=EpsilonCertificate(0.45, evidence="0.9 on a geometric length set"),
        margin=0.02,
        d_max=4,
        k_max=3,
        verify_coarse=2,
        verify_vertical=2,
        theta_radii=(8, 12),
        theta_trials=200,
        containment_trials=100,
        thresholds=FAST_THRESHOLDS,
        master_seed=424242,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


CONFIG_TEXT = """
[sequence]
kind = lacunary
base = 2
value = 0.9

[certificate]
epsilon = 0.45
evidence = geometric support at 0.9

[search]
margin = 0.02
d_max = 4
k_max = 3

[thresholds]
l_schedule = 6, 12
bracket_tol = 0.04
trials_per_probe = 400
coarse_trials = 150

[verify]
coarse_window = 2
vertical_window = 2

[theta]
radii = 8, 12
trials = 200
positivity_floor = 0.05

[containment]
trials = 100

[run]
master_seed = 424242

[embedding]
dimension = 3
thickness = 2
"""


class TestConfig:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT)
        config = load_config(path)
        assert config.certificate.epsilon == 0.45
        assert config.thresholds.l_schedule == (6, 12)
        assert config.theta_radii == (8, 12)
        assert config.master_seed == 424242
        assert config.sequence.probability(4) == 0.9
        assert config.embedding_dimension == 3
        assert config.raw_text == CONFIG_TEXT
        assert config == small_config(
            certificate=EpsilonCertificate(0.45, evidence="geometric support at 0.9"),
            embedding_dimension=3,
            embedding_thickness=2,
            raw_text=CONFIG_TEXT,
        )

    def test_unset_keys_keep_the_dataclass_defaults(self, tmp_path):
        text = "[sequence]\nkind = lacunary\nbase = 2\nvalue = 0.9\n\n[certificate]\nepsilon = 0.45\n"
        path = tmp_path / "exp.ini"
        path.write_text(text)
        expected = PipelineConfig(
            sequence=ProbabilitySequence.lacunary(0.9, base=2),
            certificate=EpsilonCertificate(0.45),
            raw_text=text,
        )
        assert load_config(path) == expected

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_bad_epsilon(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("epsilon = 0.45", "epsilon = 0.6"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_margin_must_stay_below_epsilon(self):
        with pytest.raises(ConfigError):
            small_config(margin=0.45)

    @pytest.mark.parametrize("counts", [dict(theta_trials=0), dict(containment_trials=-1)])
    def test_trial_counts_validated(self, counts):
        with pytest.raises(ConfigError):
            small_config(**counts)

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("theta_radii", dict(theta_radii=(0, 16))),
            ("theta_radii", dict(theta_radii=(-4, 8))),
            ("verify_coarse", dict(verify_coarse=0)),
            ("verify_vertical", dict(verify_vertical=0)),
        ],
        ids=["zero-radius", "negative-radius", "verify-coarse", "verify-vertical"],
    )
    def test_radii_and_verify_bounds_rejected_at_construction(self, field, overrides):
        # Caught later, these fail only after the slab search and leave no report.
        with pytest.raises(ConfigError, match=field):
            small_config(**overrides)

    def test_zero_radius_in_config_file_names_the_field(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("radii = 8, 12", "radii = 0, 12"))
        with pytest.raises(ConfigError, match="theta_radii"):
            load_config(path)

    @pytest.mark.parametrize(
        "old, new, section, key",
        [
            ("trials_per_probe = 400", "trials_per_prob = 400", "thresholds", "trials_per_prob"),
            ("radii = 8, 12", "radii = 8, 12\nradius = 8", "theta", "radius"),
            ("value = 0.9", "value = 0.9\nvalu = 0.8", "sequence", "valu"),
            ("[run]", "[runs]\nmaster_seed = 5\n\n[run]", "runs", "master_seed"),
        ],
        ids=["misspelt-threshold", "theta-radius", "sequence", "unknown-section"],
    )
    def test_unknown_keys_are_refused_naming_section_and_key(self, tmp_path, capsys, old, new, section, key):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace(old, new))
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in \[{section}\]"):
            load_config(path)
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"'{key}' in [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "sequence, message",
        [
            ("kind = constant\nvalue = 0.7\nexponent = 2", "kind constant does not read key 'exponent'"),
            ("kind = power_law\nexponent = 2\nbackground = 0.1", "kind power_law does not read key 'background'"),
            ("kind = table\nfile = table.txt\nvalue = 0.5", "kind table does not read key 'value'"),
            ("kind = constant", "kind constant needs key 'value'"),
            ("kind = power_law\namplitude = 0.5", "kind power_law needs key 'exponent'"),
            (
                "kind = lacunary\nvalue = 0.9\nsupport = 2, 4\nbase = 2",
                "kind lacunary takes key 'support' or key 'base', not both",
            ),
        ],
        ids=["constant-exponent", "power-law-background", "table-value", "constant-no-value",
             "power-law-no-exponent", "support-and-base"],
    )
    def test_sequence_keys_are_checked_against_the_kind(self, tmp_path, capsys, sequence, message):
        (tmp_path / "table.txt").write_text("1 0.5\n2 0.4\n")
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("kind = lacunary\nbase = 2\nvalue = 0.9", sequence))
        with pytest.raises(ConfigError, match=rf"^config {re.escape(str(path))}: \[sequence\] {re.escape(message)}$"):
            load_config(path)
        for command in (["pipeline", "--config", str(path), "--out", str(tmp_path / "out")],
                        ["scales", "--config", str(path)]):
            assert main(command) == 1
            assert f"config error: config {path}: [sequence] {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line, bad, message",
        [
            ("bracket_tol = 0.04", "bracket_tol = 0", "bracket_tol must be positive, got 0.0"),
            ("bracket_tol = 0.04", "bracket_tol = nan", "bracket_tol must be positive, got nan"),
            ("trials_per_probe = 400", "trials_per_probe = 0", "trials_per_probe must be positive, got 0"),
            ("coarse_trials = 150", "coarse_trials = 0", "coarse_trials must be positive, got 0"),
            ("margin = 0.02", "margin = 0.7", "margin must lie strictly between 0 and epsilon 0.45, got 0.7"),
            ("margin = 0.02", "margin = nan", "margin must lie strictly between 0 and epsilon 0.45, got nan"),
            ("positivity_floor = 0.05", "positivity_floor = 1.5", "positivity_floor must lie in [0, 1], got 1.5"),
            ("positivity_floor = 0.05", "positivity_floor = nan", "positivity_floor must lie in [0, 1], got nan"),
        ],
        ids=["tol-zero", "tol-nan", "probe-trials-zero", "coarse-trials-zero", "margin-above-epsilon", "margin-nan",
             "floor-above-one", "floor-nan"],
    )
    def test_a_refused_setting_names_the_file_the_key_and_the_value(self, tmp_path, capsys, line, bad, message):
        path = tmp_path / "exp.ini"
        assert CONFIG_TEXT.count(line) == 1
        path.write_text(CONFIG_TEXT.replace(line, bad))
        with pytest.raises(ConfigError, match=rf"^config {re.escape(str(path))}: {re.escape(message)}$"):
            load_config(path)
        for command in (["pipeline", "--config", str(path), "--out", str(tmp_path / "out")],
                        ["scales", "--config", str(path)]):
            assert main(command) == 1
            assert f"config error: config {path}: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_nan_sequence_parameter_is_refused_naming_the_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        sequence = "kind = power_law\nexponent = nan"
        path.write_text(CONFIG_TEXT.replace("kind = lacunary\nbase = 2\nvalue = 0.9", sequence))
        with pytest.raises(ConfigError, match=re.escape(f"invalid config {path}: exponent must be nonnegative")):
            load_config(path)

    def test_sequence_section_variants(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            CONFIG_TEXT.replace(
                "kind = lacunary\nbase = 2\nvalue = 0.9",
                "kind = constant\nvalue = 0.7\ntruncation = 3",
            )
        )
        config = load_config(path)
        assert config.sequence.probability(2) == 0.7
        assert config.sequence.probability(4) == 0.0

    @pytest.mark.parametrize("support", ["10 100 1000", "10, 100, 1000", "10,100 1000"])
    def test_support_reads_like_the_other_integer_lists(self, tmp_path, support):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("base = 2", f"support = {support}"))
        assert load_config(path).sequence.support == (10, 100, 1000)

    @pytest.mark.parametrize("level", ["0", "-1"])
    def test_truncation_level_below_one_is_refused(self, tmp_path, level):
        path = tmp_path / "exp.ini"
        path.write_text(
            CONFIG_TEXT.replace(
                "kind = lacunary\nbase = 2\nvalue = 0.9",
                f"kind = constant\nvalue = 0.7\ntruncation = {level}",
            )
        )
        with pytest.raises(ConfigError, match="truncation level"):
            load_config(path)


@pytest.fixture(scope="module")
def graph():
    return EmbeddedGraph(SlabParameters(3, 2), ScaleVector((1, 4), 2))


@pytest.fixture(scope="module")
def seq():
    return ProbabilitySequence.lacunary(0.9, base=2)


@pytest.fixture(scope="module")
def windows(graph, seq):
    truncated = seq.truncate(graph.scales.top)
    return embedded_radial_window(graph, truncated, 12), long_range_radial_window(truncated, 12)


class TestContainment:

    def test_containment_holds(self, windows):
        report = containment_check(*windows, trials=150, master_seed=9)
        assert report.passed
        assert report.trials == 150
        assert report.edge_violations == 0
        assert report.cluster_violations == 0
        assert report.first_violation is None

    def test_corrupted_edge_is_reported(self, windows):
        embedded, full = windows
        keys = embedded.edge_keys.copy()
        keys[3] ^= np.uint64(0x5DEECE66D)
        report = containment_check(dataclasses.replace(embedded, edge_keys=keys), full, trials=150, master_seed=9)
        assert not report.passed
        assert report.edge_violations == 1
        assert report.first_violation["kind"] == "edge-key-differs"
        assert report.first_violation["edge_index"] == 3

    def test_zero_trials_still_checks_the_structure(self, windows):
        embedded, full = windows
        assert containment_check(embedded, full, trials=0, master_seed=9).passed
        probs = embedded.probs.copy()
        probs[0] = 1.0
        report = containment_check(dataclasses.replace(embedded, probs=probs), full, trials=0, master_seed=9)
        assert not report.passed
        assert report.first_violation["kind"] == "edge-threshold-exceeds-full"


class TestPipeline:
    def test_small_run_passes_and_reproduces(self, tmp_path):
        config = small_config()
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        report_a = run_pipeline(config, out_a)
        report_b = run_pipeline(config, out_b)
        assert report_a.passed
        assert report_a.exit_code == 0
        assert report_a.truncation == report_a.scales[-1]
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        for name in ("report.json", "manifest.json", "estimates.csv", "calibration.csv"):
            assert (out_a / name).exists()
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["master_seed"] == config.master_seed
        assert sorted(manifest["versions"]) == ["numpy", "python", "trunclab"]

    def test_finite_support_fails_at_scale_selection(self, tmp_path):
        config = small_config(sequence=ProbabilitySequence.lacunary(0.9, support=(5,)))
        report = run_pipeline(config, tmp_path / "out")
        assert not report.passed
        assert report.failure_stage == "scale-selection"
        assert report.exit_code == 3
        assert "step 2" in report.error

    def test_unreachable_level_fails_at_slab_search(self, tmp_path):
        config = small_config(
            certificate=EpsilonCertificate(0.2, evidence="far below slab thresholds"),
            margin=0.01,
            d_max=3,
            k_max=1,
        )
        report = run_pipeline(config, tmp_path / "out")
        assert not report.passed
        assert report.failure_stage == "slab-search"
        assert report.exit_code == 3
        assert report.slab["shortfalls"]

    def test_report_records_theta_and_containment(self, tmp_path):
        report = run_pipeline(small_config(), tmp_path / "out")
        assert len(report.theta) == 2
        for row in report.theta:
            assert 0.0 <= row["embedded"]["value"] <= 1.0
            assert row["embedded"]["trials"] == 200
            # Both reaches come from the same trials and the embedded cluster
            # sits inside the full one on each, so the order is exact.
            assert row["full"]["successes"] >= row["embedded"]["successes"]
        # Reach is nonincreasing in the radius on every trial.
        near, far = report.theta
        for name in ("embedded", "full"):
            assert near[name]["successes"] >= far[name]["successes"]
        # One pass on one window pair of radius max(theta_radii) + top.
        assert len(report.containment) == 1
        assert report.containment[0]["radius"] == 12 + report.truncation
        assert report.containment[0]["passed"]

    def test_sparse_support_reaches_are_measured_in_order(self, tmp_path):
        # The support selects the scales (10, 100), so the top scale exceeds
        # both theta radii.
        config = small_config(
            sequence=ProbabilitySequence.lacunary(0.9, support=(10, 100, 1000, 10000)),
            theta_radii=(32, 64),
            theta_trials=100,
            containment_trials=50,
        )
        report = run_pipeline(config, tmp_path / "out")
        assert report.scales == [10, 100]
        for row in report.theta:
            assert row["embedded"]["successes"] <= row["full"]["successes"], row
            assert row["embedded"]["value"] == row["full"]["value"] == 1.0
        assert len(report.containment) == 1
        assert report.containment[0]["radius"] == 64 + 100
        assert report.containment[0]["passed"]
        assert report.passed

    def test_oversized_certification_is_refused_before_any_window(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(harness, "embedded_radial_window", lambda *args: built.append(args))
        monkeypatch.setattr(harness, "long_range_radial_window", lambda *args: built.append(args))
        config = small_config(sequence=ProbabilitySequence.lacunary(0.9, support=(10, 100000)))
        report = run_pipeline(config, tmp_path / "out")
        assert report.scales == [10, 100000]
        assert report.failure_stage == "certification"
        assert report.exit_code == 3
        assert str(harness.MAX_CERTIFICATION_EDGES) in report.error
        assert not built
        assert not report.theta and not report.containment
        saved = json.loads((tmp_path / "out" / "report.json").read_text())
        assert saved["failure_stage"] == "certification"

    def test_sparse_level_needs_the_slab_and_three_scales(self, tmp_path):
        # Criterion 7's p(1) = 0.9 lies above 1/2, the bond threshold of Z^2
        # (Kesten 1980), so its run percolates at N = 1 whatever the slab.
        # At level 0.3 on the powers of 10 every single length is a
        # subcritical copy of Z^2, so the run needs the slab and three scales,
        # and theta is not saturated.
        config = dataclasses.replace(
            _spec_pipeline_config(),
            sequence=ProbabilitySequence.lacunary(0.3, base=10),
            certificate=EpsilonCertificate(0.3, evidence="level 0.3 on the powers of 10"),
            margin=0.01,
        )
        report = run_pipeline(config, tmp_path / "out")
        assert report.exit_code == 0, (report.failure_stage, report.error)
        assert report.slab == {"dimension": 4, "thickness": 3}
        assert report.scales == [1, 10, 100]
        for row in report.theta:
            assert 0 < row["embedded"]["successes"] < config.theta_trials, row

    def test_manifest_times_the_pair_under_containment_and_the_searches_under_theta(self, tmp_path, monkeypatch):
        def slowed(function):
            def call(*args):
                time.sleep(0.02)
                return function(*args)
            return call

        monkeypatch.setattr(harness, "embedded_radial_window", slowed(embedded_radial_window))
        monkeypatch.setattr(harness, "origin_radius_profile", slowed(origin_radius_profile))
        run_pipeline(small_config(), tmp_path / "out")
        timings = json.loads((tmp_path / "out" / "manifest.json").read_text())["timings_seconds"]
        assert timings["containment"] >= 0.02
        assert timings["theta"] >= 0.04  # one search per window

    def test_fully_open_sequence_gives_tight_scales_and_certain_reach(self, tmp_path):
        config = small_config(
            sequence=ProbabilitySequence.constant(1.0),
            theta_radii=(6, 9),
            theta_trials=60,
            containment_trials=30,
        )
        outcome = run_pipeline(config, tmp_path / "out")
        assert outcome.passed
        thickness = outcome.slab["thickness"]
        expected = [1]
        for _ in range(outcome.slab["dimension"] - 2):
            expected.append((thickness + 1) * expected[-1] + 1)
        assert outcome.scales == expected
        assert all(row["embedded"]["value"] == 1.0 for row in outcome.theta)
        assert all(row["full"]["value"] == 1.0 for row in outcome.theta)


# Options a family does not read, set off their defaults: the family, the
# option and its value, and the scope the error names.
IGNORED_OPTIONS = [
    ("zd", "--K", "7", "slab family"),
    ("z2", "--K", "2", "slab family"),
    ("z2", "--d", "4", "zd and slab families"),
]


class TestCli:
    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--family", "nosuch", "--p", "0.5", "--L", "4"])
        assert excinfo.value.code == 1

    def test_estimate_row(self, capsys):
        code = main(
            ["estimate", "--family", "z2", "--p", "0.5", "--L", "4", "--trials", "200", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        fields = out.split(",")
        assert fields[0] == "z2"
        assert fields[2] == "crossing"
        assert 0.0 <= float(fields[3]) <= 1.0

    @pytest.mark.parametrize(
        "args, row",
        [
            ("z2 --p 0.3 --L 4 --N 2 crossing", f"z2,p=0.3;L=4;N=2,crossing,0.755,0.05960704488565089,{INDEXED}"),
            ("z2 --p 0.3 --L 4 --N 2 theta", f"z2,p=0.3;L=4;N=2,theta,0.88,0.04503737114885815,{KEYED}"),
            ("zd --d 2 --p 0.5 --L 4 crossing", f"zd,p=0.5;L=4;N=1;d=2,crossing,0.46,0.0690743599318879,{INDEXED}"),
            ("zd --d 2 --p 0.5 --L 4 theta", f"zd,p=0.5;L=4;N=1;d=2,theta,0.8,0.055437171645025325,{KEYED}"),
            ("zd --d 3 --p 0.3 --L 3 crossing", f"zd,p=0.3;L=3;N=1;d=3,crossing,0.595,0.06803416641658806,{INDEXED}"),
            ("zd --d 3 --p 0.3 --L 3 theta", f"zd,p=0.3;L=3;N=1;d=3,theta,0.77,0.058324409984156715,{KEYED}"),
            ("slab --d 3 --K 2 --p 0.4 --L 3 crossing",
             f"slab,p=0.4;L=3;N=1;d=3;K=2,crossing,0.69,0.0640982932690099,{INDEXED}"),
            ("slab --d 3 --K 2 --p 0.4 --L 3 theta",
             f"slab,p=0.4;L=3;N=1;d=3;K=2,theta,0.84,0.05080900707551762,{KEYED}"),
            ("slab --d 4 --K 1 --p 0.45 --L 3 crossing",
             f"slab,p=0.45;L=3;N=1;d=4;K=1,crossing,0.385,0.06743866991570935,{INDEXED}"),
            ("slab --d 4 --K 1 --p 0.45 --L 3 theta",
             f"slab,p=0.45;L=3;N=1;d=4;K=1,theta,0.735,0.061165661935435635,{KEYED}"),
        ],
    )
    def test_estimate_rows_are_pinned(self, args, row, capsys):
        # Crossing rows sum indexed kernel hits; theta rows read the keyed
        # reach of the radius profile, the route of the pipeline's theta rows.
        *options, event = args.split()
        argv = ["estimate", "--family", *options, "--event", event, "--trials", "200", "--seed", "3"]
        assert main(argv) == 0
        value, rule = row.rsplit(",", 1)
        assert capsys.readouterr().out == f"{value},200,3,{rule}\n"

    @pytest.mark.parametrize(
        "args, radius, window",
        [
            ("z2 --p 0.3 --N 2", 4, lambda: long_range_radial_window(ProbabilitySequence.constant(0.3).truncate(2), 4)),
            ("slab --d 3 --K 2 --p 0.45", 8, lambda: lattice_window(3, 0.45, 8, "origin_boundary", thickness=2)),
        ],
        ids=["z2", "slab"],
    )
    def test_estimate_theta_is_the_radius_profile_estimate(self, args, radius, window, capsys):
        argv = ["estimate", "--family", *args.split(), "--L", str(radius), "--event", "theta", "--trials", "500"]
        assert main([*argv, "--seed", "7"]) == 0
        fields = capsys.readouterr().out.strip().split(",")
        (profile,), _ = origin_radius_profile(window(), [radius], 500, 7)
        assert fields[3:] == [repr(profile.value), repr(profile.half_width), "500", "7", profile.stream_rule]
        assert profile.stream_rule == KEYED

    def test_estimate_theta_row(self, capsys):
        code = main(
            ["estimate", "--family", "slab", "--p", "0.6", "--L", "3", "--d", "3", "--K", "2",
             "--trials", "100", "--seed", "3", "--event", "theta"]
        )
        assert code == 0
        assert "theta" in capsys.readouterr().out

    @pytest.mark.parametrize("family", ["zd", "slab"])
    def test_estimate_rejects_truncation_level_for_nearest_neighbour_families(self, family, capsys):
        code = main(
            ["estimate", "--family", family, "--p", "0.6", "--L", "3", "--N", "4", "--trials", "10"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "--N" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("family, option, value, scope", IGNORED_OPTIONS)
    def test_estimate_rejects_options_the_family_ignores(self, family, option, value, scope, capsys):
        code = main(
            ["estimate", "--family", family, "--p", "0.3", "--L", "3", option, value, "--trials", "20"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert f"{option} applies to the {scope} only, not {family}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("family, option, value, scope", IGNORED_OPTIONS)
    def test_pc_rejects_options_the_family_ignores(self, family, option, value, scope, tmp_path, capsys):
        calib = tmp_path / "calib.csv"
        code = main(
            ["pc", "--family", family, option, value, "--L-schedule", "4", "--trials", "20",
             "--tol", "0.2", "--calib", str(calib)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert f"{option} applies to the {scope} only, not {family}" in captured.err
        assert captured.out == ""
        assert not calib.exists()

    def test_estimate_accepts_unit_truncation_level_for_slab(self, capsys):
        code = main(
            ["estimate", "--family", "slab", "--p", "0.6", "--L", "3", "--N", "1", "--trials", "10"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("slab,")

    def test_scales_command(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT)
        assert main(["scales", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "n_1 = 1" in out and "N = " in out

    def test_scales_hypothesis_failure_exits_three(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("base = 2", "support = 5"))
        assert main(["scales", "--config", str(path)]) == 3

    @pytest.mark.parametrize("command", ["scales", "verify-embedding"])
    def test_failed_scale_selection_exits_three_naming_the_stage(self, tmp_path, capsys, command):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("base = 2", "support = 5"))
        assert main([command, "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("scale selection failed: ")

    def test_verify_embedding(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT)
        assert main(["verify-embedding", "--config", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["verify-embedding", "--config", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_verify_embedding_needs_embedding_section(self, tmp_path):
        path = tmp_path / "exp.ini"
        text = CONFIG_TEXT.split("[embedding]")[0]
        path.write_text(text)
        assert main(["verify-embedding", "--config", str(path)]) == 1

    def test_pc_command(self, tmp_path, capsys):
        code = main(
            ["pc", "--family", "z2", "--L-schedule", "4,8", "--trials", "200",
             "--tol", "0.05", "--seed", "5", "--calib", str(tmp_path / "calib.csv")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family"] == "z2"
        assert (tmp_path / "calib.csv").exists()

    def test_pc_refuses_a_planar_zd_family(self, tmp_path, capsys):
        calib = tmp_path / "calib.csv"
        code = main(["pc", "--family", "zd", "--d", "2", "--L-schedule", "4", "--trials", "20", "--calib", str(calib)])
        assert code == 1
        assert "family zd needs dimension >= 3" in capsys.readouterr().err
        assert not calib.exists()

    def test_pc_defaults_are_the_threshold_settings(self):
        args = _build_parser().parse_args(["pc", "--family", "z2"])
        assert _pc_settings(args) == ThresholdSettings()

    def test_pc_row_is_reused_under_its_own_settings(self, tmp_path, capsys):
        calib = tmp_path / "calib.csv"
        code = main(
            ["pc", "--family", "z2", "--L-schedule", "4,8", "--trials", "200", "--coarse-trials", "40",
             "--tol", "0.05", "--seed", "5", "--calib", str(calib)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coarse_trials"] == 40 and payload["bracket_tol"] == 0.05
        settings = ThresholdSettings(l_schedule=(4, 8), bracket_tol=0.05, trials_per_probe=200, coarse_trials=40)
        table = CalibrationTable(calib)
        stored = table.rows["z2"]
        assert payload == json.loads(json.dumps(stored.to_dict()))
        assert stored.family.dimension == 2
        assert stored.mismatches(settings) == []
        assert table.ensure(LatticeFamily("z2"), settings, master_seed=99) is stored

    def test_pc_command_names_a_corrupted_calibration_file(self, tmp_path, capsys):
        calib = tmp_path / "calib.csv"
        calib.write_text("family,kind,dimension\nz2,z2,2\n")
        code = main(
            ["pc", "--family", "z2", "--L-schedule", "4,8", "--trials", "200",
             "--tol", "0.05", "--seed", "5", "--calib", str(calib)]
        )
        assert code == 1
        error = capsys.readouterr().err
        assert str(calib) in error and "method" in error

    def test_pipeline_refuses_a_stale_calibration_row(self, tmp_path, capsys):
        calib = tmp_path / "calib.csv"
        stale = ThresholdSettings(l_schedule=(6, 12, 24), bracket_tol=0.04, trials_per_probe=5000, coarse_trials=150)
        CalibrationTable(calib).put(
            ThresholdEstimate(LatticeFamily("slab", 3, 1), 0.49, 0.01, (0.48, 0.5), 0.005, stale, 7, METHOD)
        )
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.replace("coarse_trials = 150", f"coarse_trials = 150\ncalibration_file = {calib}"))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        error = capsys.readouterr().err
        assert "slab-d3-k1" in error and "l_schedule" in error and "trials_per_probe" in error

    def test_pipeline_command(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT)
        out_dir = tmp_path / "out"
        assert main(["pipeline", "--config", str(path), "--out", str(out_dir)]) == 0
        assert (out_dir / "report.json").exists()
        assert "PASS" in capsys.readouterr().out

    def test_pipeline_names_a_stray_embedded_vertex(self, tmp_path, capsys, monkeypatch):
        # An embedded vertex outside the full window fails the containment
        # check with exit code 2, where it used to stop the run with 1.
        def with_stray_vertex(graph, seq, radius):
            window = embedded_radial_window(graph, seq, radius)
            coords = window.coords.copy()
            coords[-1] = [radius + 1, radius + 1]
            return dataclasses.replace(window, coords=coords)

        monkeypatch.setattr(harness, "embedded_radial_window", with_stray_vertex)
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT)
        out_dir = tmp_path / "out"
        assert main(["pipeline", "--config", str(path), "--out", str(out_dir)]) == 2
        report = json.loads((out_dir / "report.json").read_text())
        stray = [report["containment"][0]["radius"] + 1] * 2
        assert report["containment"][0]["first_violation"] == {"kind": "unmapped-vertex", "vertex": stray}
        assert report["error"] == f"failed checks: containment (unmapped-vertex at {stray})"
        out = capsys.readouterr().out
        assert "FAIL (acceptance-checks)" in out and report["error"] in out

    def test_pipeline_names_a_failed_theta_floor(self, tmp_path):
        # Embedded reach at level 0.46 reads about 0.9, below a floor of 0.99.
        config = small_config(sequence=ProbabilitySequence.lacunary(0.46, base=2), positivity_floor=0.99)
        report = run_pipeline(config, tmp_path / "out")
        assert report.failure_stage == "acceptance-checks" and report.exit_code == 2
        assert report.error == "failed checks: theta_floor"


def test_the_package_runs_without_scipy():
    # scipy is a test dependency: the package and its command line never import it.
    code = "import sys, trunclab.harness, trunclab.cli; print('scipy' in sys.modules)"
    # The package's own directory first, so a run without PYTHONPATH finds it too.
    package_root = str(Path(harness.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "False"
