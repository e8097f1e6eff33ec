"""Inequality registry: spot checks, domain validation, harness output."""

import math

import numpy as np
import pytest

from secrecy.lemmas import (CHECK_TOL, RULES, InequalityReport, csv_text,
                            run_harness, verify_inequality, write_csv)
from secrecy.quantum import (DensityOperator, ValidationError, basis_state,
                             classical_state, product_state, random_density)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _pure_product_with(sigma_diag=(0.6, 0.4)):
    return product_state(basis_state(0, 2), classical_state(sigma_diag))


class TestRegistry:
    def test_rule_names(self):
        assert RULES == ("DataProcessingMin", "DataProcessingMax",
                         "ChainMaxUpper", "ChainMaxLower",
                         "MinMaxConversion", "MaxMinConversion",
                         "QuasiConcavity", "AepMin", "AepMax")

    def test_unknown_rule_lists_valid_names(self):
        state = random_density((2, 2), _rng())
        with pytest.raises(ValidationError, match="DataProcessingMin"):
            verify_inequality("NoSuchRule", state, {"eps": 0.1})

    def test_dimension_cap(self):
        state = DensityOperator(np.eye(16, dtype=complex) / 16, (4, 4))
        with pytest.raises(ValidationError, match="capped"):
            verify_inequality("MinMaxConversion", state,
                              {"eps": 0.1, "delta": 0.1})


class TestSpotChecks:
    def test_min_max_conversion_equality_on_pure_product(self):
        state = _pure_product_with()
        rep = verify_inequality("MinMaxConversion", state,
                                {"eps": 0.0, "delta": 0.0})
        assert rep.lhs == pytest.approx(0.0, abs=1e-6)
        assert rep.rhs == pytest.approx(0.0, abs=1e-6)
        assert rep.holds

    def test_min_max_conversion_sharp_angles(self):
        state = random_density((2, 2), _rng(5), rank=3)
        rep = verify_inequality("MinMaxConversion", state,
                                {"alpha": 0.3, "beta": 0.2})
        assert rep.holds
        assert set(rep.params) == {"alpha", "beta"}

    def test_data_processing_equality_when_independent(self):
        # A independent of BC: discarding C moves nothing, both sides equal
        state = product_state(classical_state([0.7, 0.3]),
                              random_density((2, 2), _rng(3), rank=2))
        rep = verify_inequality("DataProcessingMin", state, {"eps": 0.0})
        assert rep.lhs == pytest.approx(-math.log2(0.7), abs=1e-6)
        assert rep.slack == pytest.approx(0.0, abs=2e-6)

    def test_quasi_concavity_trivial_mixture_is_tight(self):
        state = random_density((2, 2), _rng(9), rank=2)
        eye = np.eye(2, dtype=complex)
        rep = verify_inequality("QuasiConcavity", state,
                                {"eps": 0.0, "mix": [(1.0, eye, eye)]})
        assert rep.slack == pytest.approx(0.0, abs=2e-6)
        assert rep.holds

    def test_chain_upper_holds_on_random_pure(self):
        state = random_density((2, 2, 2), _rng(11), rank=1)
        rep = verify_inequality(
            "ChainMaxUpper", state,
            {"eps": 0.1, "delta": 0.1, "eta": 0.1})
        assert rep.holds

    def test_aep_reports_record_n(self):
        state = random_density((2, 2), _rng(13), rank=2)
        rep = verify_inequality("AepMin", state, {"eps": 0.3, "n": 2})
        assert rep.params["n"] == 2
        assert rep.holds
        rep = verify_inequality("AepMax", state, {"eps": 0.3, "n": 2})
        assert rep.params["n"] == 2
        assert rep.holds


class TestDomains:
    def setup_method(self):
        self.tri = random_density((2, 2, 2), _rng(1), rank=2)
        self.bi = random_density((2, 2), _rng(2), rank=2)

    def test_missing_parameter(self):
        with pytest.raises(ValidationError, match="eps"):
            verify_inequality("DataProcessingMin", self.tri, {})

    def test_eps_out_of_range(self):
        with pytest.raises(ValidationError):
            verify_inequality("DataProcessingMax", self.tri, {"eps": 1.0})

    def test_chain_budget_exceeds_one(self):
        with pytest.raises(ValidationError):
            verify_inequality("ChainMaxUpper", self.tri,
                              {"eps": 0.4, "delta": 0.3, "eta": 0.05})

    def test_eta_must_be_positive(self):
        with pytest.raises(ValidationError):
            verify_inequality("ChainMaxLower", self.tri,
                              {"eps": 0.1, "delta": 0.1, "eta": 0.0})

    def test_conversion_sum_cap(self):
        with pytest.raises(ValidationError):
            verify_inequality("MinMaxConversion", self.bi,
                              {"eps": 0.6, "delta": 0.4})

    def test_angles_cap(self):
        with pytest.raises(ValidationError):
            verify_inequality("MinMaxConversion", self.bi,
                              {"alpha": 1.0, "beta": 0.6})

    def test_max_min_needs_open_interval(self):
        for delta in (0.0, 1.0):
            with pytest.raises(ValidationError):
                verify_inequality("MaxMinConversion", self.bi,
                                  {"delta": delta})

    def test_quasi_concavity_rejects_bad_mixture(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError):
            verify_inequality("QuasiConcavity", self.bi,
                              {"eps": 0.1, "mix": [(0.7, eye, eye)]})
        with pytest.raises(ValidationError):
            verify_inequality("QuasiConcavity", self.bi,
                              {"eps": 0.1,
                               "mix": [(1.0, 2 * eye, eye)]})

    def test_aep_needs_positive_eps(self):
        with pytest.raises(ValidationError):
            verify_inequality("AepMin", self.bi, {"eps": 0.0, "n": 1})


class TestReportSemantics:
    def test_slack_orientation_and_boundary(self):
        rep = InequalityReport("DataProcessingMin", 1.0, 2.5, {"eps": 0.1})
        assert rep.slack == pytest.approx(1.5)
        assert InequalityReport("r", 0.0, -CHECK_TOL, {}).holds
        assert not InequalityReport("r", 0.0, -1.01 * CHECK_TOL, {}).holds


class TestHarness:
    def test_one_trial_per_rule_all_hold(self):
        rows = run_harness(trials=1, seed=7)
        assert len(rows) == len(RULES)
        assert [rep.rule for _, rep in rows] == list(RULES)
        assert all(rep.holds for _, rep in rows)

    @pytest.mark.parametrize("grid", [(), [0.1, 1.0], (0.2, -0.1),
                                      (0.1, float("nan"))])
    def test_rejects_bad_grid(self, grid):
        with pytest.raises(ValidationError):
            run_harness(rules=("MinMaxConversion",), trials=1, grid=grid)

    def test_csv_byte_reproducible(self):
        pick = ("DataProcessingMin", "MaxMinConversion")
        first = csv_text(run_harness(rules=pick, trials=2, seed=42))
        second = csv_text(run_harness(rules=pick, trials=2, seed=42))
        assert first == second

    def test_csv_header_and_shape(self, tmp_path):
        rows = run_harness(rules=("MinMaxConversion",), trials=2, seed=3)
        text = csv_text(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "rule,seed,params,lhs,rhs,slack,holds"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 7
            assert cells[0] == "MinMaxConversion"
            assert float(cells[5]) == float(cells[4]) - float(cells[3])
        out = tmp_path / "report.csv"
        write_csv(out, rows)
        assert out.read_text(encoding="ascii") == text
