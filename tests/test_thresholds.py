import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trunclab.thresholds as thresholds_module
from trunclab.cli import _build_parser, _pc_settings, main
from trunclab.harness import load_config
from trunclab.kernel import keyed_bottlenecks
from trunclab.rng import derive_seed, keyed_uniforms, open_thresholds
from trunclab.sequences import ProbabilitySequence
from trunclab.thresholds import (
    METHOD,
    SETTING_READERS,
    CalibrationTable,
    LatticeFamily,
    ParametersNotFound,
    ThresholdEstimate,
    ThresholdSettings,
    choose_slab_parameters,
    estimate_pc,
    median_interval_rank,
)
from trunclab.windows import ConfigError, long_range_crossing_window

from conftest import bisection_bottleneck, scipy_union_labels

FAST = ThresholdSettings(l_schedule=(6, 12), bracket_tol=0.04, trials_per_probe=500, coarse_trials=200)


class TestLatticeFamily:
    def test_keys(self):
        assert LatticeFamily("z2").key == "z2"
        assert LatticeFamily("zd", 3).key == "z3"
        assert LatticeFamily("slab", 4, 2).key == "slab-d4-k2"

    def test_validation(self):
        with pytest.raises(ConfigError):
            LatticeFamily("nosuch")
        with pytest.raises(ConfigError):
            LatticeFamily("slab", 3, 0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (("zd", 3, 7), "no thickness"),
            (("z2", 2, 2), "no thickness"),
            (("z2", 3), "dimension 2"),
            (("zd", 2), "the plane is family z2"),
        ],
    )
    def test_fields_the_kind_ignores_are_refused(self, fields, message):
        # Each would share a key (z3, z2) with the family it is unequal to.
        with pytest.raises(ConfigError, match=message):
            LatticeFamily(*fields)

    def test_calibration_row_with_an_ignored_thickness_is_refused(self, tmp_path):
        path = tmp_path / "calib.csv"
        CalibrationTable(path).put(_fake_row(3, 2, 0.44))
        text = path.read_text()
        row = text.splitlines()[-1]
        stray = row.replace("slab-d3-k2,slab,3,2,", "z3,zd,3,7,")
        assert stray != row
        path.write_text(text.replace(row, stray))
        with pytest.raises(ConfigError, match=f"{path}, line {len(text.splitlines())}: family zd has no thickness"):
            CalibrationTable(path)

    def test_planar_zd_row_is_not_served_as_z2(self, tmp_path):
        # A zd row of dimension 2 carries the key z2; it must not load as the z2 family's row.
        path = tmp_path / "calib.csv"
        CalibrationTable(path).put(_fake_row(3, 2, 0.44))
        text = path.read_text()
        row = text.splitlines()[-1]
        path.write_text(text.replace(row, row.replace("slab-d3-k2,slab,3,2,", "z2,zd,2,1,")))
        with pytest.raises(ConfigError, match=f"{path}, line {len(text.splitlines())}: family zd needs dimension >= 3"):
            CalibrationTable(path)

    @pytest.mark.parametrize("side", [1, 4, 8, 32])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.99])
    def test_planar_probe_window_is_the_nearest_neighbour_long_range_window(self, p, side):
        window = LatticeFamily("z2").crossing_window(p, side)
        reference = long_range_crossing_window(ProbabilitySequence.constant(p).truncate(1), side)
        for name in ("coords", "edges_u", "edges_v", "probs", "lengths"):
            assert np.array_equal(getattr(window, name), getattr(reference, name)), name
        assert window.terminals.keys() == reference.terminals.keys()
        for name, vertices in reference.terminals.items():
            assert np.array_equal(window.terminals[name], vertices), name
        assert window.origin_index == reference.origin_index

    def test_thickness_one_slab_is_the_planar_lattice(self):
        slab = LatticeFamily("slab", 3, 1).crossing_window(0.5, 4)
        plane = LatticeFamily("z2").crossing_window(0.5, 4)
        assert slab.n_vertices == plane.n_vertices
        assert slab.n_edges == plane.n_edges
        assert np.array_equal(slab.coords[:, :2], plane.coords)
        assert np.array_equal(slab.edges_u, plane.edges_u)
        assert np.array_equal(slab.edges_v, plane.edges_v)


class TestSettings:
    def test_schedule_must_increase(self):
        with pytest.raises(ConfigError):
            ThresholdSettings(l_schedule=(8, 8))
        with pytest.raises(ConfigError):
            ThresholdSettings(l_schedule=())

    @pytest.mark.parametrize("sides", [(0, 8), (-3, 8), (0,)])
    def test_a_side_below_one_is_refused_naming_the_key_and_the_side(self, tmp_path, sides, capsys):
        message = f"l_schedule side {sides[0]} must be >= 1"
        with pytest.raises(ConfigError, match=message):
            ThresholdSettings(l_schedule=sides)
        schedule = " ".join(str(side) for side in sides)
        config = tmp_path / "exp.ini"
        config.write_text(
            f"[sequence]\nkind = constant\nvalue = 0.9\n\n[certificate]\nepsilon = 0.45\n\n[thresholds]\n"
            f"l_schedule = {schedule}\n"
        )
        with pytest.raises(ConfigError, match=message):
            load_config(config)
        calib = tmp_path / "calib.csv"
        assert main(["pc", "--family", "z2", "--L-schedule", schedule, "--trials", "20", "--calib", str(calib)]) == 1
        assert message in capsys.readouterr().err
        assert not calib.exists()

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("bracket_tol", "nan", "bracket_tol must be positive, got nan"),
            ("bracket_tol", "0", "bracket_tol must be positive, got 0.0"),
            ("trials_per_probe", "0", "trials_per_probe must be positive, got 0"),
            ("coarse_trials", "0", "coarse_trials must be positive, got 0"),
        ],
        ids=["tol-nan", "tol-zero", "probe-trials-zero", "coarse-trials-zero"],
    )
    def test_a_refused_setting_is_named_with_its_value(self, tmp_path, capsys, name, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ThresholdSettings(**{name: SETTING_READERS[name](value)})
        # Through `trunclab pc`, which printed "bracket_tol": NaN, not JSON, for --tol nan.
        flag = {"bracket_tol": "--tol", "trials_per_probe": "--trials", "coarse_trials": "--coarse-trials"}[name]
        calib = tmp_path / "calib.csv"
        assert main(["pc", "--family", "z2", "--L-schedule", "4 8", flag, value, "--calib", str(calib)]) == 1
        out, err = capsys.readouterr()
        assert f"config error: {message}\n" in err and out == ""
        assert not calib.exists()

    def test_tolerance_positive(self):
        with pytest.raises(ConfigError):
            ThresholdSettings(bracket_tol=0.0)

    @pytest.mark.parametrize("separator", [",", " "])
    def test_calibration_file_config_keys_and_pc_flags_read_alike(self, tmp_path, separator):
        settings = ThresholdSettings(l_schedule=(5, 9, 17), bracket_tol=0.0125, trials_per_probe=321, coarse_trials=45)
        schedule = separator.join(str(side) for side in settings.l_schedule)

        path = tmp_path / "calib.csv"
        CalibrationTable(path).put(dataclasses.replace(_fake_row(3, 2, 0.44), settings=settings))
        if separator == ",":
            # The file writes the side list with spaces; a quoted comma list reads the same.
            text = path.read_text()
            quoted = text.replace(",5 9 17,", ',"5,9,17",')
            assert quoted != text
            path.write_text(quoted)
        assert CalibrationTable(path).rows["slab-d3-k2"].settings == settings

        config = tmp_path / "exp.ini"
        config.write_text(
            "[sequence]\nkind = constant\nvalue = 0.9\n\n[certificate]\nepsilon = 0.45\n\n[thresholds]\n"
            f"l_schedule = {schedule}\nbracket_tol = 0.0125\ntrials_per_probe = 321\ncoarse_trials = 45\n"
        )
        assert load_config(config).thresholds == settings

        flags = ["pc", "--family", "z2", "--L-schedule", schedule, "--tol", "0.0125", "--trials", "321"]
        assert _pc_settings(_build_parser().parse_args([*flags, "--coarse-trials", "45"])) == settings


class TestEstimatePc:
    def test_planar_threshold_near_half(self):
        estimate = estimate_pc(LatticeFamily("z2"), FAST, 2024)
        assert 0.42 <= estimate.p_hat <= 0.58
        lo, hi = estimate.bracket
        assert lo <= estimate.p_hat <= hi
        assert estimate.uncertainty >= estimate.stat_term > 0

    def test_reproducible_from_seed(self):
        first = estimate_pc(LatticeFamily("z2"), FAST, 7)
        second = estimate_pc(LatticeFamily("z2"), FAST, 7)
        assert first == second
        # Probes are left out of equality, so they are compared here.
        assert first.probes and first.probes == second.probes

    def test_thickness_one_slab_agrees_with_planar(self):
        plane = estimate_pc(LatticeFamily("z2"), FAST, 31)
        slab = estimate_pc(LatticeFamily("slab", 3, 1), FAST, 32)
        assert abs(plane.p_hat - slab.p_hat) <= plane.uncertainty + slab.uncertainty + 0.02

    def test_three_dimensional_estimate_and_dimension_monotonicity(self):
        # The cubic-lattice threshold sits near 0.249 (literature anchor); at
        # L = 16 the crossing proxy must land in [0.22, 0.28] and below the
        # planar value (adding an axis only adds edges).
        settings = ThresholdSettings(
            l_schedule=(8, 16), bracket_tol=0.02, trials_per_probe=2000, coarse_trials=400
        )
        cubic = estimate_pc(LatticeFamily("zd", 3), settings, 41)
        assert 0.22 <= cubic.p_hat <= 0.28, cubic.p_hat
        plane = estimate_pc(LatticeFamily("z2"), FAST, 42)
        assert cubic.p_hat <= plane.p_hat + cubic.uncertainty + plane.uncertainty

    def test_one_probe_per_side_and_the_drift_over_every_side(self):
        family = LatticeFamily("slab", 3, 2)
        settings = dataclasses.replace(FAST, l_schedule=(4, 6, 12))
        estimate = estimate_pc(family, settings, 11)
        assert [pr.side for pr in estimate.probes] == [4, 6, 12]
        assert [pr.seed for pr in estimate.probes] == [derive_seed(11, "pc", family.key, side) for side in (4, 6, 12)]
        assert [pr.trials for pr in estimate.probes] == [FAST.coarse_trials, FAST.trials_per_probe, FAST.trials_per_probe]
        for probe in estimate.probes:
            assert probe.interval[0] <= probe.median <= probe.interval[1]
        first, second, top = estimate.probes
        assert (estimate.p_hat, estimate.bracket) == (top.median, top.interval)
        assert estimate.stat_term == max(top.median - top.interval[0], top.interval[1] - top.median)
        drift = max(abs(top.median - first.median), abs(top.median - second.median))
        assert estimate.uncertainty == estimate.stat_term + drift

    @pytest.mark.parametrize(
        "medians",
        [{6: 0.25, 12: 0.75}, {6: 0.75, 12: 0.25}, {4: 0.0625, 6: 0.375, 12: 0.25}, {4: 0.375, 6: 0.625, 12: 0.25}],
        ids=["rising", "falling", "first-farthest", "second-farthest"],
    )
    def test_drift_between_sides_enters_the_uncertainty(self, monkeypatch, medians):
        # Stub bottlenecks, one value per side: the interval is a point, so
        # the whole uncertainty is the largest drift of a side's median from the top's.
        def stub(window, seed, start, stop):
            return np.full(stop - start, int(medians[window.meta["L"]] * 2**53), dtype=np.uint64)

        def refuse(*args, **kwargs):
            raise AssertionError("the estimate probed a crossing probability")

        monkeypatch.setattr(thresholds_module, "keyed_bottlenecks", stub)
        monkeypatch.setattr(thresholds_module, "crossing_estimate", refuse)
        settings = dataclasses.replace(FAST, l_schedule=tuple(medians))
        estimate = estimate_pc(LatticeFamily("z2"), settings, 1)
        top = medians[12]
        assert estimate.p_hat == top and estimate.bracket == (top, top)
        assert estimate.stat_term == 0.0
        assert estimate.uncertainty == max(abs(top - median) for median in medians.values())
        # A schedule of one side has no drift.
        alone = estimate_pc(LatticeFamily("z2"), dataclasses.replace(FAST, l_schedule=(12,)), 1)
        assert alone.uncertainty == 0.0

    def test_estimate_is_the_median_of_the_reference_bottlenecks(self):
        # Trial t crosses at p iff its bottleneck b_t < p, so p_hat is the
        # ceil(n/2)-th smallest b_t and the bracket holds its order statistics.
        settings = ThresholdSettings(l_schedule=(4, 8), bracket_tol=0.01, trials_per_probe=101, coarse_trials=50)
        family = LatticeFamily("slab", 3, 2)
        estimate = estimate_pc(family, settings, 3)
        window = family.crossing_window(0.5, 8)
        seed = derive_seed(3, "pc", family.key, 8)
        ranked = sorted(bisection_bottleneck(window, seed, t) for t in range(settings.trials_per_probe))
        rank = median_interval_rank(settings.trials_per_probe)
        assert rank == 41
        assert estimate.p_hat == ranked[50]
        assert estimate.bracket == (ranked[rank - 1], ranked[101 - rank])

    @pytest.mark.parametrize("family", [LatticeFamily("slab", 3, k) for k in (1, 2, 3)], ids=lambda f: f.key)
    def test_bottlenecks_give_every_crossing_probe_bit_for_bit(self, family):
        # Bisection from [0, 1] to a tolerance of 0.015 or more, widened in
        # doubling steps, probes only multiples of 1/128: at each, the trials
        # whose bottleneck lies below ceil(p * 2^53) are those in which
        # scipy's labels of the keyed masks u < p join left to right.
        side, trials, seed = 16, 250, 5
        window = family.crossing_window(0.5, side)
        bottlenecks = keyed_bottlenecks(window, seed, 0, trials)
        uniforms = np.stack([keyed_uniforms(window.edge_keys, seed, t) for t in range(trials)])
        left, right = window.terminals["left"], window.terminals["right"]
        for k in range(1, 128):
            at_p = family.crossing_window(k / 128, side)
            labels = scipy_union_labels(at_p, uniforms < at_p.probs)
            # Labels are unique across trials, so a shared one names its trial.
            shared = np.intersect1d(labels[:, left], labels[:, right])
            crossed = np.isin(labels[:, left], shared).any(axis=1)
            assert np.array_equal(bottlenecks < open_thresholds(at_p.probs)[0], crossed), k

    @pytest.mark.parametrize("schedule", [(6, 12), (8, 16, 32)], ids=["two-sides", "default-sides"])
    def test_every_setting_changes_the_estimate_or_the_verdict(self, tmp_path, schedule):
        # Under the default three-side shape the first side, and with it
        # coarse_trials, reaches the estimate only through the drift.
        family = LatticeFamily("z2")
        settings = dataclasses.replace(FAST, l_schedule=schedule)
        base = estimate_pc(family, settings, 9)
        top_moved = (*schedule[:-1], schedule[-1] - 2)
        for change in ({"l_schedule": top_moved}, {"trials_per_probe": 400}, {"coarse_trials": 400}):
            other = estimate_pc(family, dataclasses.replace(settings, **change), 9)
            if "coarse_trials" in change and len(schedule) > 2:
                # Here the middle side's median lies farthest from the top's,
                # so the first side's trials move only its own probe, and the
                # drift reads it with every other side.
                assert [p.median for p in other.probes[1:]] == [p.median for p in base.probes[1:]]
                assert other.probes[0].median != base.probes[0].median
                farthest = max(abs(other.p_hat - probe.median) for probe in other.probes[:-1])
                assert farthest == abs(other.p_hat - other.probes[1].median)
                assert other.uncertainty == other.stat_term + farthest
                continue
            assert (other.p_hat, other.uncertainty, other.bracket) != (base.p_hat, base.uncertainty, base.bracket)
        # bracket_tol leaves the estimate alone and decides whether it may certify.
        params, row = choose_slab_parameters(0.45, 0.02, 3, 2, CalibrationTable(tmp_path / "a.csv"), settings, 1)
        width = row.bracket[1] - row.bracket[0]
        assert (params.thickness, row.family.key) == (2, "slab-d3-k2") and width <= settings.bracket_tol
        assert row.p_hat + row.uncertainty + 0.02 < 0.45
        narrow = dataclasses.replace(settings, bracket_tol=width / 2)
        with pytest.raises(ParametersNotFound) as excinfo:
            choose_slab_parameters(0.45, 0.02, 3, 2, CalibrationTable(tmp_path / "b.csv"), narrow, 1)
        shortfall = excinfo.value.shortfalls[-1]
        assert shortfall["family"] == "slab-d3-k2" and shortfall["bracket_width"] == width
        assert shortfall["shortfall"] == width - narrow.bracket_tol


class TestMedianIntervalRank:
    def test_ranks_match_the_binomial_quantile(self):
        binom = pytest.importorskip("scipy.stats").binom
        for n in [*range(1, 301), 1000, 2500, 3000, 10**4]:
            assert median_interval_rank(n) == int(binom.ppf(0.025, n, 0.5)), n

    def test_ranks_equal_the_sum_from_zero(self):
        # The sum that starts eight standard deviations low, against the
        # term-by-term tail from 0 it shortens.
        def summed_from_zero(trials):
            rank, below, term, total = 0, 0, 1, 1 << trials
            while 40 * (below + term) <= total:
                below += term
                rank += 1
                term = term * (trials - rank + 1) // rank
            return rank

        for n in [*range(1, 1201), 2500, 4099, 10**4]:
            assert median_interval_rank(n) == summed_from_zero(n), n

    def test_no_interval_below_six_trials(self):
        # 2 P(Binomial(n, 1/2) = 0) = 2^(1-n) exceeds 5% up to n = 5.
        assert [median_interval_rank(n) for n in range(1, 8)] == [0, 0, 0, 0, 0, 1, 1]
        settings = ThresholdSettings(l_schedule=(4,), trials_per_probe=5)
        assert estimate_pc(LatticeFamily("z2"), settings, 1).bracket == (0.0, 1.0)

    def test_the_package_never_imports_scipy_stats(self):
        # scipy.stats takes over a second to import, several times the
        # pipeline's own setup.
        code = "import sys, trunclab, trunclab.cli; print('scipy.stats' in sys.modules)"
        # The package's own directory first, so a run without PYTHONPATH finds it too.
        package_root = str(Path(thresholds_module.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert result.stdout.strip() == "False"


def _fake_row(dimension: int, thickness: int, p_hat: float) -> ThresholdEstimate:
    return ThresholdEstimate(
        family=LatticeFamily("slab", dimension, thickness),
        p_hat=p_hat,
        uncertainty=0.005,
        bracket=(p_hat - 0.005, p_hat + 0.005),
        stat_term=0.001,
        settings=FAST,
        seed=1,
        method=METHOD,
    )


class TestCalibrationTable:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "calib.csv"
        table = CalibrationTable(path)
        row = _fake_row(3, 2, 0.381234567890123)
        table.put(row)
        reloaded = CalibrationTable(path)
        assert reloaded.rows["slab-d3-k2"] == row

    def test_ensure_reuses_stored_rows(self, tmp_path, monkeypatch):
        calls = {"count": 0}
        real = thresholds_module.estimate_pc

        def counting(*args, **kwargs):
            calls["count"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(thresholds_module, "estimate_pc", counting)
        table = CalibrationTable(tmp_path / "calib.csv")
        family = LatticeFamily("z2")
        first = table.ensure(family, FAST, 5)
        second = table.ensure(family, FAST, 5)
        assert calls["count"] == 1
        assert first == second
        fresh = CalibrationTable(tmp_path / "calib.csv")
        assert fresh.ensure(family, FAST, 5) == first
        assert calls["count"] == 1

    def test_stale_rows_are_refused_naming_each_field(self, tmp_path):
        path = tmp_path / "calib.csv"
        family = LatticeFamily("z2")
        row = CalibrationTable(path).ensure(family, FAST, 5)
        # The seed is provenance, not part of the key.
        assert CalibrationTable(path).ensure(family, FAST, 6) == row
        other = ThresholdSettings(l_schedule=(6, 12, 24), bracket_tol=0.02, trials_per_probe=5000, coarse_trials=200)
        with pytest.raises(ConfigError) as excinfo:
            CalibrationTable(path).ensure(family, other, 5)
        message = str(excinfo.value)
        assert str(path) in message and "z2" in message
        for name in ("l_schedule", "bracket_tol", "trials_per_probe"):
            assert name in message
        assert "coarse_trials" not in message

        table = CalibrationTable(path)
        table.put(dataclasses.replace(row, method="bisection-on-crossing/v1"))
        with pytest.raises(ConfigError, match="method"):
            CalibrationTable(path).ensure(family, FAST, 5)

    def test_truncated_row_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "calib.csv"
        table = CalibrationTable(path)
        table.put(_fake_row(3, 1, 0.49))
        table.put(_fake_row(3, 2, 0.44))
        text = path.read_text()
        last_line = len(text.splitlines())
        row_start = text.rstrip("\n").rindex("\n") + 1
        # Cut the last row after each of its commas, and once inside a number.
        cuts = [i + 1 for i, char in enumerate(text) if char == "," and i > row_start]
        for cut in cuts + [cuts[4] + 3]:
            path.write_text(text[:cut])
            with pytest.raises(ConfigError) as excinfo:
                CalibrationTable(path)
            message = str(excinfo.value)
            assert str(path) in message and f"line {last_line}:" in message, text[:cut]

    def test_family_listed_twice_is_refused_naming_both_lines(self, tmp_path):
        path = tmp_path / "calib.csv"
        table = CalibrationTable(path)
        table.put(_fake_row(3, 1, 0.49))
        table.put(_fake_row(3, 2, 0.44))
        text = path.read_text()
        row = text.splitlines()[-1]
        first = len(text.splitlines())
        path.write_text(text + row.replace(",0.44,", ",0.2,") + "\n")
        with pytest.raises(ConfigError) as excinfo:
            CalibrationTable(path)
        assert str(excinfo.value) == (
            f"calibration file {path}, line {first + 1}: family slab-d3-k2 already listed on line {first}"
        )

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"p_hat": "1.2", "bracket_lo": "1.195", "bracket_hi": "1.205"}, "p_hat 1.2 outside [0, 1]"),
            # With this row the slab search would certify d3 K1 at level 0.45:
            # 0.49 - 0.3 + 0.02 < 0.45.
            ({"uncertainty": "-0.3"}, "uncertainty -0.3 must be >= 0"),
            ({"bracket_lo": "0.5", "bracket_hi": "0.6"}, "bracket [0.5, 0.6] does not hold p_hat 0.49"),
            ({"stat_term": "0.01"}, "stat_term 0.01 outside [0, uncertainty 0.005]"),
        ],
        ids=["p_hat", "uncertainty", "bracket", "stat_term"],
    )
    def test_out_of_range_row_names_the_file_and_line(self, tmp_path, changes, message):
        path = tmp_path / "calib.csv"
        CalibrationTable(path).put(_fake_row(3, 1, 0.49))
        lines = path.read_text().splitlines()
        header = lines.index(next(line for line in lines if line.startswith("family,")))
        columns = lines[header].split(",")
        values = dict(zip(columns, lines[-1].split(",")))
        lines[-1] = ",".join({**values, **changes}[name] for name in columns)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as excinfo:
            CalibrationTable(path)
        assert str(excinfo.value) == f"calibration file {path}, line {len(lines)}: {message}"

    def test_missing_column_names_the_file_and_column(self, tmp_path):
        path = tmp_path / "calib.csv"
        CalibrationTable(path).put(_fake_row(3, 2, 0.44))
        lines = path.read_text().splitlines()
        kept = [line.rsplit(",", 1)[0] if not line.startswith("#") else line for line in lines]
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(ConfigError) as excinfo:
            CalibrationTable(path)
        assert str(path) in str(excinfo.value)
        assert "method" in str(excinfo.value)

    def test_row_replays_from_recorded_seed(self, tmp_path):
        table = CalibrationTable(tmp_path / "calib.csv")
        family = LatticeFamily("slab", 3, 2)
        row = table.ensure(family, FAST, 77)
        replay = estimate_pc(family, FAST, row.seed)
        assert replay == row


class PlanarRefusingTable(CalibrationTable):
    """A table that fails the test when asked for a thickness-1 slab."""

    def ensure(self, family, settings, master_seed):
        if family.kind == "slab" and family.thickness == 1:
            raise AssertionError(f"the slab search asked the table for {family.key}")
        return super().ensure(family, settings, master_seed)


def _planar_shortfall(dimension: int, epsilon: float, margin: float) -> dict:
    # A thickness-1 slab is Z^2: threshold 1/2 exactly (Kesten 1980).
    return {
        "family": f"slab-d{dimension}-k1",
        "p_hat": 0.5,
        "uncertainty": 0.0,
        "required_below": epsilon - margin,
        "bracket_width": 0.0,
        "shortfall": 0.5 + margin - epsilon,
    }


class TestChooseSlabParameters:
    def test_thickness_one_is_planar_and_never_estimated(self, tmp_path):
        table = PlanarRefusingTable(tmp_path / "calib.csv")
        table.rows = {
            "slab-d3-k2": _fake_row(3, 2, 0.44),
            "slab-d3-k3": _fake_row(3, 3, 0.41),
            "slab-d4-k2": _fake_row(4, 2, 0.40),
        }
        params, row = choose_slab_parameters(0.45, 0.02, 4, 3, table, FAST, 1)
        assert (params.dimension, params.thickness, row.family.key) == (3, 3, "slab-d3-k3")

        # One record per candidate in scan order; the planar ones from the exact threshold.
        with pytest.raises(ParametersNotFound) as excinfo:
            choose_slab_parameters(0.30, 0.02, 4, 2, table, FAST, 1)
        shortfalls = excinfo.value.shortfalls
        assert [s["family"] for s in shortfalls] == ["slab-d3-k1", "slab-d3-k2", "slab-d4-k1", "slab-d4-k2"]
        assert shortfalls[0] == _planar_shortfall(3, 0.30, 0.02)
        assert shortfalls[2] == _planar_shortfall(4, 0.30, 0.02)
        assert shortfalls[1]["shortfall"] == pytest.approx(0.44 + 0.005 + 0.02 - 0.30)

        # `trunclab pc` and criterion 6(d) still estimate the planar slab.
        estimate = estimate_pc(LatticeFamily("slab", 3, 1), FAST, 32)
        assert estimate.family.key == "slab-d3-k1" and len(estimate.probes) == len(FAST.l_schedule)
        assert 0.42 <= estimate.p_hat <= 0.58 and estimate.uncertainty > 0

    def test_a_stale_planar_row_loads_but_is_never_read_or_stored(self, tmp_path):
        path = tmp_path / "calib.csv"
        stale = dataclasses.replace(FAST, trials_per_probe=FAST.trials_per_probe + 1)
        CalibrationTable(path).put(dataclasses.replace(_fake_row(3, 1, 0.49), settings=stale))
        params, row = choose_slab_parameters(0.45, 0.02, 3, 2, CalibrationTable(path), FAST, 1)
        assert row.family.key == "slab-d3-k2"
        # The stale row is kept as it was, and the search stored no planar row of its own.
        stored = CalibrationTable(path).rows
        assert sorted(stored) == ["slab-d3-k1", "slab-d3-k2"] and stored["slab-d3-k1"].settings == stale
        fresh = tmp_path / "fresh.csv"
        choose_slab_parameters(0.45, 0.02, 3, 2, CalibrationTable(fresh), FAST, 1)
        assert sorted(CalibrationTable(fresh).rows) == ["slab-d3-k2"]

    def test_picks_least_cost_qualifying_geometry(self, tmp_path):
        table = CalibrationTable(tmp_path / "calib.csv")
        table.rows = {
            "slab-d3-k1": _fake_row(3, 1, 0.49),
            "slab-d3-k2": _fake_row(3, 2, 0.44),
            "slab-d3-k3": _fake_row(3, 3, 0.41),
            "slab-d4-k1": _fake_row(4, 1, 0.49),
        }
        params, row = choose_slab_parameters(0.45, 0.02, 4, 3, table, FAST, 1)
        assert (params.dimension, params.thickness) == (3, 3)
        assert row.family.key == "slab-d3-k3"
        assert row.p_hat + row.uncertainty + 0.02 < 0.45  # inequality exactly as recorded

    def test_margin_validated(self, tmp_path):
        table = CalibrationTable(tmp_path / "calib.csv")
        with pytest.raises(ConfigError):
            choose_slab_parameters(0.45, 0.45, 4, 3, table, FAST, 1)
        with pytest.raises(ConfigError):
            choose_slab_parameters(0.45, 0.0, 4, 3, table, FAST, 1)
        # Above 1/2 the planar record would no longer be a shortfall.
        with pytest.raises(ConfigError, match="epsilon"):
            choose_slab_parameters(0.6, 0.02, 4, 3, table, FAST, 1)

    def test_budget_exhaustion_reports_shortfalls(self, tmp_path):
        table = CalibrationTable(tmp_path / "calib.csv")
        table.rows = {
            "slab-d3-k1": _fake_row(3, 1, 0.49),
            "slab-d3-k2": _fake_row(3, 2, 0.44),
        }
        with pytest.raises(ParametersNotFound) as excinfo:
            choose_slab_parameters(0.30, 0.02, 3, 2, table, FAST, 1)
        shortfalls = excinfo.value.shortfalls
        assert len(shortfalls) == 2
        best = min(shortfalls, key=lambda s: s["shortfall"])
        assert best["family"] == "slab-d3-k2"
        assert best["shortfall"] == pytest.approx(0.44 + 0.005 + 0.02 - 0.30)
