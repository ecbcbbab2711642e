import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunclab.sequences import EpsilonCertificate, ProbabilitySequence, scan_support

from conftest import linear_scan_oracle, random_sequence


class TestEvaluation:
    def test_constant(self):
        assert ProbabilitySequence.constant(0.3).probability(7) == 0.3

    def test_lacunary_powers_of_ten(self):
        seq = ProbabilitySequence.lacunary(0.4, base=10)
        assert seq.probability(100) == 0.4
        assert seq.probability(99) == 0.0
        assert seq.probability(1) == 0.4  # 10^0 is on the support

    def test_power_law(self):
        seq = ProbabilitySequence.power_law(1.0, 2.0)
        assert seq.probability(2) == 0.25
        assert seq.probability(1) == 1.0

    def test_power_law_caps_at_one(self):
        assert ProbabilitySequence.power_law(5.0, 1.0).probability(2) == 1.0

    def test_table(self):
        seq = ProbabilitySequence.from_table([0.1, 0.2, 0.3], tail=0.05)
        assert seq.probability(2) == 0.2
        assert seq.probability(4) == 0.05

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_nonpositive_length_rejected(self, bad):
        with pytest.raises(ValueError):
            ProbabilitySequence.constant(0.5).probability(bad)

    def test_values_in_unit_interval_and_deterministic(self, rng):
        for _ in range(50):
            seq = random_sequence(rng)
            for n in rng.integers(1, 500, size=20):
                value = seq.probability(int(n))
                assert 0.0 <= value <= 1.0
                assert seq.probability(int(n)) == value

    @pytest.mark.parametrize(
        "amplitude, exponent, message",
        [
            (float("nan"), 1.0, "amplitude must be nonnegative, got nan"),
            (1.0, float("nan"), "exponent must be nonnegative (probabilities may not grow), got nan"),
            (-0.5, 1.0, "amplitude must be nonnegative, got -0.5"),
        ],
        ids=["nan-amplitude", "nan-exponent", "negative-amplitude"],
    )
    def test_power_law_refuses_nan_and_negative_parameters(self, amplitude, exponent, message):
        # min(1, nan) is 1, so a NaN parameter would read p(n) = 1 for every n.
        with pytest.raises(ValueError, match=re.escape(message)):
            ProbabilitySequence.power_law(amplitude, exponent)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ProbabilitySequence.constant(1.2)
        with pytest.raises(ValueError):
            ProbabilitySequence.power_law(1.0, -0.5)
        with pytest.raises(ValueError):
            ProbabilitySequence.lacunary(0.5, base=1)
        with pytest.raises(ValueError):
            ProbabilitySequence.lacunary(0.5)
        with pytest.raises(ValueError):
            ProbabilitySequence.lacunary(0.5, base=2, support=(1, 2))


class TestTruncation:
    def test_constant_truncated(self):
        seq = ProbabilitySequence.constant(0.3).truncate(5)
        assert seq.probability(3) == 0.3
        assert seq.probability(7) == 0.0

    def test_level_one_boundary(self):
        assert ProbabilitySequence.constant(0.9).truncate(1).probability(2) == 0.0

    def test_lacunary_truncated(self):
        seq = ProbabilitySequence.lacunary(0.4, base=10).truncate(100)
        assert seq.probability(100) == 0.4
        assert seq.probability(1000) == 0.0

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            ProbabilitySequence.constant(0.5).truncate(0)

    def test_composition_keeps_minimum(self):
        seq = ProbabilitySequence.constant(0.5).truncate(5).truncate(10)
        assert seq.truncation == 5
        assert ProbabilitySequence.constant(0.5).truncate(10).truncate(5).truncation == 5

    def test_idempotent(self, rng):
        for _ in range(200):
            seq = random_sequence(rng)
            level = int(rng.integers(1, 300))
            once = seq.truncate(level)
            twice = once.truncate(level)
            for n in rng.integers(1, 600, size=10):
                assert once.probability(int(n)) == twice.probability(int(n))

    def test_monotone_in_level(self, rng):
        for _ in range(200):
            seq = random_sequence(rng)
            level_a = int(rng.integers(1, 300))
            level_b = int(rng.integers(level_a, 400))
            low, high = seq.truncate(level_a), seq.truncate(level_b)
            for n in rng.integers(1, 600, size=10):
                assert low.probability(int(n)) <= high.probability(int(n))

    @given(level=st.integers(1, 200), n=st.integers(1, 500), c=st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_truncation_law_pointwise(self, level, n, c):
        seq = ProbabilitySequence.constant(c)
        expected = c if n <= level else 0.0
        assert seq.truncate(level).probability(n) == expected


class TestScanSupport:
    def test_lacunary_example(self):
        seq = ProbabilitySequence.lacunary(0.4, base=10)
        assert scan_support(seq, 0.2, 3, 10**6) == 10

    def test_below_threshold_everywhere(self):
        assert scan_support(ProbabilitySequence.constant(0.1), 0.2, 0, 1000) is None

    def test_first_integer_above_low(self):
        assert scan_support(ProbabilitySequence.constant(0.5), 0.2, 4, 100) == 5

    def test_range_validation(self):
        seq = ProbabilitySequence.constant(0.5)
        with pytest.raises(ValueError):
            scan_support(seq, 0.2, 5, 5)
        with pytest.raises(ValueError):
            scan_support(seq, 0.2, -1, 5)

    def test_truncation_caps_the_scan(self):
        seq = ProbabilitySequence.lacunary(0.9, base=10).truncate(50)
        assert scan_support(seq, 0.5, 10, 10**6) is None

    def test_agrees_with_linear_scan(self, rng):
        # Module invariant: 1000 randomized instances against the naive scan.
        for _ in range(1000):
            seq = random_sequence(rng)
            if rng.integers(0, 3) == 0:
                seq = seq.truncate(int(rng.integers(1, 500)))
            threshold = float(rng.uniform(0, 1))
            low = int(rng.integers(0, 300))
            high = low + int(rng.integers(1, 1500))
            assert scan_support(seq, threshold, low, high) == linear_scan_oracle(
                seq, threshold, low, high
            )
            assert seq.supported_lengths(high) == [n for n in range(1, high + 1) if seq.probability(n) > 0]

    def test_sparse_support_is_listed_without_a_linear_scan(self, monkeypatch):
        seq = ProbabilitySequence.lacunary(0.9, support=(10, 10**6)).truncate(10**6)
        calls = []
        real = ProbabilitySequence.probability

        def counting(self, length):
            calls.append(length)
            return real(self, length)

        monkeypatch.setattr(ProbabilitySequence, "probability", counting)
        assert seq.supported_lengths(10**6) == [10, 10**6]
        assert len(calls) <= 24


class TestEpsilonCertificate:
    def test_valid_levels(self):
        assert EpsilonCertificate(0.45).epsilon == 0.45
        assert EpsilonCertificate(0.5, evidence="maximal").epsilon == 0.5

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.6, 1.0])
    def test_invalid_levels_rejected(self, bad):
        with pytest.raises(ValueError):
            EpsilonCertificate(bad)


class TestTableFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("# length probability\n1 0.5\n3 0.25\n2 1.0\n")
        seq = ProbabilitySequence.from_table_file(path, tail=0.1)
        assert seq.probability(1) == 0.5
        assert seq.probability(2) == 1.0
        assert seq.probability(3) == 0.25
        assert seq.probability(4) == 0.1

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1 0.5\n3 0.25\n")
        with pytest.raises(ValueError):
            ProbabilitySequence.from_table_file(path)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("1 0.5\n2 x\n", 2, "could not convert"),
            ("1 0.5\ny 0.25\n", 2, "invalid literal"),
            ("# header\n1 0.5\n1 0.7\n", 3, "listed twice"),
            ("0 0.9\n1 0.5\n", 1, "below 1"),
            ("1 0.5\n2 1.5\n", 2, r"\[0, 1\]"),
        ],
        ids=["value", "length", "duplicate", "zero-length", "out-of-range"],
    )
    def test_bad_row_named_by_path_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "seq.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as excinfo:
            ProbabilitySequence.from_table_file(path)
        assert str(excinfo.value).startswith(f"{path}:{line}: ")

    def test_far_gap_refused_without_listing_every_missing_length(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1 0.5\n1000000000 0.5\n")
        clock = time.perf_counter()
        with pytest.raises(ValueError) as excinfo:
            ProbabilitySequence.from_table_file(path)
        assert time.perf_counter() - clock < 1.0
        message = str(excinfo.value)
        assert "1..1000000000" in message
        assert "[2, 3, 4, 5, 6]" in message

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1 0.5 extra\n")
        with pytest.raises(ValueError):
            ProbabilitySequence.from_table_file(path)


def test_supported_lengths_match_pointwise(rng):
    for _ in range(50):
        seq = random_sequence(rng)
        cap = int(rng.integers(1, 200))
        expected = [n for n in range(1, cap + 1) if seq.probability(n) > 0]
        assert seq.supported_lengths(cap) == expected
