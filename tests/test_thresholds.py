import dataclasses
import math

import numpy as np
import pytest

import trunclab.thresholds as thresholds_module
from trunclab.cli import _build_parser, _pc_settings
from trunclab.engine import Estimate, component_labels
from trunclab.harness import load_config
from trunclab.rng import derive_seed, indexed_uniforms
from trunclab.sequences import ProbabilitySequence
from trunclab.thresholds import (
    METHOD,
    CalibrationTable,
    LatticeFamily,
    ParametersNotFound,
    ThresholdEstimate,
    ThresholdSettings,
    choose_slab_parameters,
    estimate_pc,
)
from trunclab.windows import ConfigError, long_range_crossing_window

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
        [(("zd", 3, 7), "no thickness"), (("z2", 2, 2), "no thickness"), (("z2", 3), "dimension 2")],
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
        assert hi - lo <= FAST.bracket_tol
        assert estimate.uncertainty > 0

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

    def test_probes_are_coupled_within_each_side(self):
        family = LatticeFamily("slab", 3, 2)
        estimate = estimate_pc(family, FAST, 11)
        values_at_top = {0.0: 0.0, 1.0: 1.0}
        for side in FAST.l_schedule:
            probes = sorted((pr for pr in estimate.probes if pr.side == side), key=lambda pr: pr.p)
            assert probes
            assert {pr.seed for pr in probes} == {derive_seed(11, "pc", family.key, side)}
            assert all(a.value <= b.value for a, b in zip(probes, probes[1:]))
            assert all(0.0 < pr.p < 1.0 for pr in probes)
            if side == FAST.l_schedule[-1]:
                values_at_top.update((pr.p, pr.value) for pr in probes)
        assert {pr.trials for pr in estimate.probes if pr.side == 6} == {FAST.coarse_trials}
        assert {pr.trials for pr in estimate.probes if pr.side == 12} == {FAST.trials_per_probe}
        low, high = estimate.bracket
        assert values_at_top[low] < 0.5 <= values_at_top[high]
        assert high - low <= FAST.bracket_tol

    @pytest.mark.parametrize("first, second", [(0.2, 0.8), (0.8, 0.2)])
    def test_drifted_response_is_transported(self, monkeypatch, first, second):
        # The step of a monotone stub response moves between the sides: the
        # carried bracket must widen until it straddles the new step, never
        # probing 0 or 1.
        steps = {6: first, 12: second}
        probed = []

        def drifting(window, trials, seed, label=""):
            p = float(window.probs[0])
            probed.append(p)
            value = 1.0 if p >= steps[window.meta["L"]] else 0.0
            return Estimate(value, trials, int(value * trials), 0.0, seed, "stub", label)

        monkeypatch.setattr(thresholds_module, "crossing_estimate", drifting)
        estimate = estimate_pc(LatticeFamily("z2"), FAST, 1)
        low, high = estimate.bracket
        assert low < second <= high
        assert high - low <= FAST.bracket_tol
        assert all(0.0 < p < 1.0 for p in probed)
        # Doubling steps cross the drift in logarithmically many probes.
        assert sum(pr.side == 12 for pr in estimate.probes) <= 12

    def test_bracket_holds_the_median_bottleneck_value(self):
        # Trial t crosses at p iff its bottleneck value b_t < p, so the final
        # bracket [low, high) must hold the ceil(n/2)-th smallest b_t.
        settings = ThresholdSettings(l_schedule=(4, 8), bracket_tol=0.01, trials_per_probe=101, coarse_trials=50)
        family = LatticeFamily("slab", 3, 2)
        estimate = estimate_pc(family, settings, 3)
        window = family.crossing_window(0.5, 8)
        left, right = window.terminals["left"], window.terminals["right"]
        seed = derive_seed(3, "pc", family.key, 8)

        def crosses(open_mask):
            labels = component_labels(window, open_mask)
            return np.intersect1d(labels[left], labels[right]).size > 0

        bottlenecks = []
        for trial in range(settings.trials_per_probe):
            uniforms = indexed_uniforms(window.n_edges, seed, trial)
            ranked = np.sort(uniforms)
            lo, hi = 0, len(ranked) - 1  # the all-open graph crosses
            while lo < hi:
                mid = (lo + hi) // 2
                if crosses(uniforms <= ranked[mid]):
                    hi = mid
                else:
                    lo = mid + 1
            bottlenecks.append(ranked[lo])
        median = sorted(bottlenecks)[math.ceil(settings.trials_per_probe / 2) - 1]
        low, high = estimate.bracket
        assert low <= median < high

    def test_every_setting_changes_the_probes(self):
        def probe_points(estimate):
            return [(pr.side, pr.p, pr.value) for pr in estimate.probes]

        family = LatticeFamily("z2")
        base = estimate_pc(family, FAST, 9)
        for change in (
            {"l_schedule": (6, 10)},
            {"bracket_tol": 0.02},
            {"trials_per_probe": 400},
            {"coarse_trials": 100},
        ):
            other = estimate_pc(family, dataclasses.replace(FAST, **change), 9)
            assert probe_points(other) != probe_points(base), change


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


class TestChooseSlabParameters:
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
