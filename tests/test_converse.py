"""Tests for region geometry, type classes, one-shot and finite-n converses."""

import math

import numpy as np
import pytest

from secrecy.channels import (bsc_wiretap_channel, check_degraded,
                              copy_eve_channel, noiseless_trivial_eve_channel,
                              structure_from_map)
from secrecy.codes import BUDGET_ENV, WiretapCode, evaluate_code
from secrecy.converse import (FiniteBlocklengthBound, OutsideConverseRegion,
                              RegionVerdict, TypeClass,
                              audit_privacy_bound_chain, classify_region,
                              finite_n_converse, finite_n_terms,
                              trivial_converse_bound, type_class_check)
from secrecy.entropy import EntropyQuery, h_max_smooth
from secrecy.quantum import QuantumChannel, ValidationError, cq_state


def _perfect_bit_code() -> WiretapCode:
    return WiretapCode(m=2, n=1, alphabet_size=2, encoder=np.eye(2))


def _trivial_eve_structure():
    ch = noiseless_trivial_eve_channel(2)
    trace_map = QuantumChannel([np.array([[1.0, 0.0]]),
                                np.array([[0.0, 1.0]])])
    return ch, structure_from_map(ch, trace_map)


class TestClassifyRegion:
    @pytest.mark.parametrize("eps,delta,label", [
        (0.2, 0.3, "Converse"),
        (0.95, 0.4, "NoGo"),
        (0.5, 0.4, "Gap"),
        (0.0, 0.0, "Converse"),
        (1.0, 0.0, "NoGo"),
        (0.0, 1.0, "NoGo"),
    ])
    def test_reference_points(self, eps, delta, label):
        assert classify_region(eps, delta).label == label

    def test_line_boundary_open(self):
        # just inside the line: converse; exactly on it: gap
        assert classify_region(1.0 - 1e-9, 0.0).label == "Converse"
        assert classify_region(0.2, 0.4).label == "Gap"
        assert classify_region(0.2, (1.0 - 0.2 - 1e-9) / 2).label == "Converse"

    def test_circle_boundary_closed(self):
        eps = 0.6
        delta = math.sqrt(1.0 - eps * eps)
        assert classify_region(eps, delta).label == "NoGo"
        assert classify_region(eps, delta - 1e-6).label == "Gap"

    def test_curve_values_reported(self):
        v = classify_region(0.5, 0.4)
        assert isinstance(v, RegionVerdict)
        assert v.line == pytest.approx(1.3)
        assert v.circle == pytest.approx(0.41)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            classify_region(-0.1, 0.2)
        with pytest.raises(ValidationError):
            classify_region(0.2, 1.1)


class TestTypeClass:
    def test_balanced_binary_pair(self):
        tc = type_class_check(2, [0.5, 0.5], 2)
        assert isinstance(tc, TypeClass)
        assert tc.size == 2
        assert set(tc.members) == {(0, 1), (1, 0)}
        assert tc.member_prob == pytest.approx(0.5)
        assert tc.factor * tc.product_prob == pytest.approx(9.0 / 4.0)
        assert tc.holds

    def test_point_mass(self):
        tc = type_class_check(3, [1.0, 0.0], 2)
        assert tc.size == 1
        assert tc.members == ((0, 0, 0),)
        assert tc.product_prob == pytest.approx(1.0)
        assert tc.holds

    def test_three_quarters(self):
        tc = type_class_check(4, [0.75, 0.25], 2)
        assert tc.size == 4
        assert tc.counts == (3, 1)
        assert all(xs.count(0) == 3 for xs in tc.members)
        # 1/4 <= 5^2 * (27/256)
        assert tc.member_prob == pytest.approx(0.25)
        assert tc.factor * tc.product_prob == pytest.approx(25.0 * 27.0 / 256.0)
        assert tc.holds

    def test_ternary_alphabet(self):
        tc = type_class_check(3, [1 / 3, 1 / 3, 1 / 3], 3)
        assert tc.size == 6
        assert tc.holds

    def test_rejects_non_integral_type(self):
        with pytest.raises(ValidationError, match="not a type"):
            type_class_check(3, [0.5, 0.5], 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            type_class_check(0, [1.0, 0.0], 2)
        with pytest.raises(ValidationError):
            type_class_check(2, [0.7, 0.7], 2)
        with pytest.raises(ValidationError):
            type_class_check(2, [0.5, 0.25, 0.25], 2)


class TestTrivialConverseBound:
    def test_perfect_bit_trivial_eve_is_tight(self):
        ch, _ = _trivial_eve_structure()
        bound = trivial_converse_bound(_perfect_bit_code(), ch)
        assert bound == pytest.approx(1.0, abs=1e-5)

    def test_single_message_nonnegative(self):
        ch, _ = _trivial_eve_structure()
        code = WiretapCode(m=1, n=1, alphabet_size=2,
                           encoder=np.array([[1.0, 0.0]]))
        assert trivial_converse_bound(code, ch) >= -1e-9

    def test_random_stochastic_code_sound(self):
        ch = bsc_wiretap_channel(0.05, 0.45)
        rng = np.random.default_rng(3)
        code = WiretapCode(m=2, n=1, alphabet_size=2,
                           encoder=rng.dirichlet(np.ones(2), size=2))
        assert trivial_converse_bound(code, ch) >= 1.0 - 1e-5

    def test_leaky_copy_eve_code_sound(self):
        # delta* = 1/sqrt(2): a large smoothing radius, still sound
        ch = copy_eve_channel(2)
        bound = trivial_converse_bound(_perfect_bit_code(), ch)
        assert bound >= 1.0 - 1e-5


class TestAuditChain:
    RULES = ("PrivacyDecodabilityBound", "DegradedSubstitution",
             "ChainSplitUpper", "ChainSplitLower", "ConditionerProcessing",
             "AssembledPrivacyBound")

    def test_trivial_eve_perfect_code(self):
        ch, st = _trivial_eve_structure()
        reports = audit_privacy_bound_chain(_perfect_bit_code(), ch, st, 0.05)
        assert tuple(r.rule for r in reports) == self.RULES
        assert all(r.holds for r in reports)
        sub = reports[1]
        # E and E' are both trivial here: substitution is an identity
        assert abs(sub.slack) < 1e-6
        assert sub.params["state_gap"] == pytest.approx(0.0, abs=1e-9)
        # decodability makes the first line an equality
        assert reports[0].slack == pytest.approx(0.0, abs=1e-6)

    def test_noisy_classical_channel_deterministic(self):
        ch = bsc_wiretap_channel(0.05, 0.45)
        st = check_degraded(ch)
        reports = audit_privacy_bound_chain(_perfect_bit_code(), ch, st, 0.05)
        assert all(r.slack >= -1e-6 for r in reports)
        for r in reports:
            assert set(("eps", "delta", "eta")) <= set(r.params)

    def test_noisy_classical_channel_stochastic(self):
        ch = bsc_wiretap_channel(0.05, 0.45)
        st = check_degraded(ch)
        code = WiretapCode(m=2, n=1, alphabet_size=2,
                           encoder=np.array([[0.95, 0.05], [0.08, 0.92]]))
        reports = audit_privacy_bound_chain(code, ch, st, 0.05)
        assert all(r.slack >= -1e-6 for r in reports)

    def test_isometric_invariance_of_decodability_term(self):
        # H_max^eps(U|E'F) computed through the dilation must match
        # H_max^eps(U|B) computed directly on the receiver's block.
        ch = bsc_wiretap_channel(0.05, 0.45)
        st = check_degraded(ch)
        code = _perfect_bit_code()
        perf = evaluate_code(code, ch)
        reports = audit_privacy_bound_chain(code, ch, st, 0.05)
        line1 = reports[0]
        hmin_minus_hmax = line1.rhs
        from secrecy.codes import encoder_output_states
        states = encoder_output_states(code, ch)
        rho_ub = cq_state([0.5, 0.5], [s.partial_trace([0]) for s in states])
        rho_ue = cq_state([0.5, 0.5], [s.partial_trace([1]) for s in states])
        from secrecy.entropy import h_min_smooth
        direct = (h_min_smooth(EntropyQuery(rho_ue, (0,), (1,),
                                            perf.delta_star))
                  - h_max_smooth(EntropyQuery(rho_ub, (0,), (1,),
                                              perf.eps_star)))
        assert hmin_minus_hmax == pytest.approx(direct, abs=1e-4)

    def test_rejects_nonpositive_eta(self):
        ch, st = _trivial_eve_structure()
        with pytest.raises(ValidationError):
            audit_privacy_bound_chain(_perfect_bit_code(), ch, st, 0.0)
        # NaN is caught by the same up-front check, not by a later one
        with pytest.raises(ValidationError, match="eta must be positive"):
            audit_privacy_bound_chain(_perfect_bit_code(), ch, st, math.nan)

    def test_rejects_exhausted_smoothing_budget(self):
        ch = copy_eve_channel(2)
        kraus = [np.diag([1.0, 0.0]).astype(complex),
                 np.diag([0.0, 1.0]).astype(complex)]
        st = structure_from_map(ch, QuantumChannel(kraus))
        with pytest.raises(ValidationError, match="budget"):
            audit_privacy_bound_chain(_perfect_bit_code(), ch, st, 0.05)

    def test_dimension_guard(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV, "8")
        ch = bsc_wiretap_channel(0.05, 0.45)
        st = check_degraded(ch)
        with pytest.raises(ValidationError, match="budget"):
            audit_privacy_bound_chain(_perfect_bit_code(), ch, st, 0.05)


class TestFiniteBlocklength:
    def _copy_eve(self):
        ch = copy_eve_channel(2)
        kraus = [np.diag([1.0, 0.0]).astype(complex),
                 np.diag([0.0, 1.0]).astype(complex)]
        return ch, structure_from_map(ch, QuantumChannel(kraus))

    def test_outside_region_raises(self):
        ch, st = self._copy_eve()
        with pytest.raises(OutsideConverseRegion) as exc:
            finite_n_converse(ch, st, 10, 0.5, 0.3)
        assert exc.value.line == pytest.approx(1.1)
        # boundary included
        with pytest.raises(OutsideConverseRegion):
            finite_n_converse(ch, st, 10, 0.5, 0.25)

    def test_rejects_bad_parameters(self):
        ch, st = self._copy_eve()
        with pytest.raises(ValidationError):
            finite_n_converse(ch, st, 0, 0.1, 0.1)
        with pytest.raises(ValidationError):
            finite_n_converse(ch, st, 10, -0.1, 0.1)
        with pytest.raises(ValidationError):
            finite_n_terms(ch, None, 10, 0.1, 0.1)
        for eps, delta in ((math.nan, 0.1), (0.1, math.nan), (math.inf, 0.1),
                           (0.1, math.inf)):
            with pytest.raises(ValidationError, match="finite"):
                finite_n_terms(ch, st, 10, eps, delta, capacity=1.0)
        for capacity in (math.nan, math.inf, -5.0):
            with pytest.raises(ValidationError, match="capacity"):
                finite_n_terms(ch, st, 10, 0.1, 0.1, capacity=capacity)
            with pytest.raises(ValidationError, match="capacity"):
                finite_n_converse(ch, st, 10, 0.1, 0.1, capacity=capacity)

    def test_dominates_capacity_term(self):
        ch, st = self._copy_eve()
        for n in (1, 10, 1000):
            t = finite_n_terms(ch, st, n, 0.1, 0.1, capacity=1.0)
            assert t.total >= t.capacity_term

    def test_pure_letters_have_zero_width(self):
        ch, st = self._copy_eve()
        t = finite_n_terms(ch, st, 100, 0.1, 0.1, capacity=1.0)
        assert t.mu_star == 0.0
        assert t.aep_upper_width == 0.0
        assert t.aep_lower_width == 0.0
        assert t.total > 100.0  # chain + type + hashing costs remain

    def test_smoothing_budget_identity(self):
        ch, st = self._copy_eve()
        t = finite_n_terms(ch, st, 50, 0.1, 0.1, capacity=1.0)
        s = 1.0 - 0.1 - 2 * 0.1
        assert t.theta == pytest.approx(s / 12)
        assert t.eta == pytest.approx(s / 12)
        # widened figures of merit exhaust the budget up to eta exactly
        assert t.lam == pytest.approx(
            (0.1 + 2 * t.theta) + 2 * (0.1 + 2 * t.theta) + 5 * t.eta)
        assert t.lam == pytest.approx(1.0 - t.eta)
        assert t.lam_hat == pytest.approx(t.lam * math.sqrt(2 - t.lam ** 2))
        assert t.lam_hat < 1.0

    def test_constant_type_variant(self):
        ch, st = self._copy_eve()
        g = finite_n_terms(ch, st, 100, 0.1, 0.1, capacity=1.0)
        c = finite_n_terms(ch, st, 100, 0.1, 0.1, constant_type=True,
                           capacity=1.0)
        assert c.theta == 0.0
        assert c.eta == pytest.approx((1.0 - 0.3) / 6)
        assert c.type_cost == 0.0 and c.hashing_cost == 0.0
        assert g.type_cost > 0.0 and g.hashing_cost > 0.0
        assert c.total < g.total

    def test_normalized_overhead_decreases_and_fits(self):
        ch = bsc_wiretap_channel(0.1, 0.2)
        st = check_degraded(ch)
        t = finite_n_terms(ch, st, 100, 0.1, 0.1)
        assert t.mu_star > 0.0
        cap = t.capacity
        ns = [100, 1000, 10000]
        vals = [(finite_n_converse(ch, st, n, 0.1, 0.1, capacity=cap)
                 - n * cap) / n for n in ns]
        assert vals[0] > vals[1] > vals[2]
        x = np.array([math.sqrt(math.log(n) / n) for n in ns])
        v = np.array(vals)
        c = float(x @ v / (x @ x))
        resid = v - c * x
        assert np.linalg.norm(resid) / np.linalg.norm(v) < 0.10

    def test_default_capacity_path(self):
        ch, st = _trivial_eve_structure()
        t = finite_n_terms(ch, st, 10, 0.1, 0.1)
        assert t.capacity == pytest.approx(1.0, abs=1e-5)
        assert t.total >= 10.0 * 1.0 - 1e-6

    def test_terms_dataclass_contents(self):
        ch, st = self._copy_eve()
        t = finite_n_terms(ch, st, 100, 0.1, 0.1, capacity=1.0)
        assert isinstance(t, FiniteBlocklengthBound)
        assert t.total == pytest.approx(
            t.capacity_term + t.aep_upper_width + t.aep_lower_width
            + t.chain_cost + t.type_cost + t.hashing_cost)
        assert t.smoothing_upper == pytest.approx(
            t.eta ** 2 / (32.0 * 101 ** 2))
