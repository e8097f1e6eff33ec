"""Capacity optimizers against closed forms and independent grid scans."""

import math

import numpy as np
import pytest

from secrecy.capacity import (_aux_objective, _degraded_objective,
                              _difference, _holevo_objective,
                              bsc_wiretap_capacity_formula,
                              classical_capacity_cq, grid_search_binary,
                              holevo_of, p1_general_lower_bound,
                              private_capacity_degraded,
                              two_pure_state_capacity_formula)
from secrecy.channels import (bsc_wiretap_channel, check_degraded,
                              random_degraded_channel, structure_from_map,
                              two_pure_state_channel)
from secrecy.quantum import ValidationError, basis_state


class TestBinarySymmetric:
    def test_matches_closed_form(self):
        res = private_capacity_degraded(bsc_wiretap_channel(0.1, 0.2))
        assert res.value == pytest.approx(
            bsc_wiretap_capacity_formula(0.1, 0.2), abs=1e-6)
        assert res.certified
        assert res.distribution == pytest.approx([0.5, 0.5], abs=1e-5)

    def test_other_parameters(self):
        for p, r in ((0.05, 0.3), (0.2, 0.1)):
            res = private_capacity_degraded(bsc_wiretap_channel(p, r))
            assert res.value == pytest.approx(
                bsc_wiretap_capacity_formula(p, r), abs=1e-6)


class TestTwoPureStates:
    def test_private_equals_classical_equals_grid(self):
        s = 2 ** -0.5
        ch = two_pure_state_channel(s)
        bobs = [ch.bob_marginal(0), ch.bob_marginal(1)]
        private = private_capacity_degraded(ch)
        classical = classical_capacity_cq(bobs)
        grid_v, grid_p = grid_search_binary(holevo_of(bobs))
        formula = two_pure_state_capacity_formula(s)
        assert private.value == pytest.approx(formula, abs=1e-6)
        assert classical.value == pytest.approx(formula, abs=1e-6)
        assert grid_v == pytest.approx(formula, abs=1e-6)
        assert grid_p == pytest.approx(0.5, abs=1e-3)

    def test_orthogonal_states_give_one_bit(self):
        ch = two_pure_state_channel(0.0)
        res = private_capacity_degraded(ch)
        assert res.value == pytest.approx(1.0, abs=1e-6)


class TestLowerBoundAgreement:
    def test_matches_private_capacity_when_degraded(self):
        rng = np.random.default_rng(77)
        for k in range(4):
            ch, _ = random_degraded_channel(
                rng, family=("pure", "classical")[k % 2])
            st = check_degraded(ch)
            private = private_capacity_degraded(ch, structure=st)
            lower = p1_general_lower_bound(ch)
            assert lower.value == pytest.approx(private.value, abs=1e-6)
            assert private.gradient_residual <= 1e-6
            assert lower.gradient_residual <= 1e-6

    def test_aux_size_equal_to_alphabet_is_same_path(self):
        ch = bsc_wiretap_channel(0.1, 0.2)
        a = p1_general_lower_bound(ch)
        b = p1_general_lower_bound(ch, aux_size=2)
        assert a.value == b.value

    def test_larger_aux_recovers_identity_strategy(self):
        ch = bsc_wiretap_channel(0.1, 0.2)
        base = p1_general_lower_bound(ch)
        aux = p1_general_lower_bound(ch, aux_size=3)
        assert aux.value == pytest.approx(base.value, abs=1e-6)

    def test_aux_size_must_be_positive(self):
        with pytest.raises(ValidationError):
            p1_general_lower_bound(bsc_wiretap_channel(0.1, 0.2), aux_size=0)


class TestOptimizerMachinery:
    def test_grid_search_finds_interior_peak(self):
        value, weight = grid_search_binary(lambda p: -(p[0] - 0.3) ** 2)
        assert value == pytest.approx(0.0, abs=1e-7)
        assert weight == pytest.approx(0.3, abs=1e-4)

    def test_grid_step_validation(self):
        with pytest.raises(ValidationError):
            grid_search_binary(lambda p: 0.0, step=0.7)

    def test_vertex_optimum_with_duplicate_state(self):
        # two copies of one signal plus its orthogonal complement: the
        # optimum sits on a face of the simplex (total weight 1/2 each side)
        states = [basis_state(0, 2), basis_state(0, 2), basis_state(1, 2)]
        res = classical_capacity_cq(states)
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.distribution[2] == pytest.approx(0.5, abs=1e-4)

    def test_classical_capacity_input_validation(self):
        with pytest.raises(ValidationError):
            classical_capacity_cq([basis_state(0, 2)])
        with pytest.raises(ValidationError):
            classical_capacity_cq([basis_state(0, 2), basis_state(0, 3)])

    def test_degraded_requirement_enforced(self):
        # non-degraded channel: formula path must refuse
        from secrecy.channels import CqqWiretapChannel
        from secrecy.quantum import (DensityOperator, product_state,
                                     random_channel, random_pure)
        rng = np.random.default_rng(9)
        noisy = random_channel(2, 2, 4, rng)
        states = []
        for _ in range(2):
            eve = random_pure(2, rng)
            bob = DensityOperator(noisy.apply_matrix(eve.mat), (2,),
                                  validate=False)
            states.append(product_state(bob, eve))
        rev = CqqWiretapChannel(("0", "1"), 2, 2, states)
        with pytest.raises(ValidationError, match="not degraded"):
            private_capacity_degraded(rev)


def _central_difference(fg, p, h=1e-6):
    """Oracle gradient of the value returned by ``fg``, in every coordinate."""
    g = np.zeros_like(p)
    for i in range(len(p)):
        e = np.zeros_like(p)
        e[i] = h
        g[i] = (fg(p + e)[0] - fg(p - e)[0]) / (2.0 * h)
    return g


class TestExactGradients:
    """Each analytic gradient against central differences at seeded
    interior points."""

    def _channels(self):
        rng = np.random.default_rng(11)
        for k in range(4):
            ch, dmap = random_degraded_channel(
                rng, family=("pure", "classical")[k % 2])
            yield ch, dmap, rng.dirichlet(np.ones(ch.size))

    def test_degraded(self):
        for ch, dmap, p in self._channels():
            fg = _degraded_objective(ch, structure_from_map(ch, dmap))
            assert fg(p)[1] == pytest.approx(_central_difference(fg, p),
                                             abs=1e-6)

    def test_holevo(self):
        # the exact derivative carries the constant -1/ln 2 that the
        # ascent drops
        for ch, _, p in self._channels():
            fg = _holevo_objective([ch.bob_marginal(x).mat
                                    for x in range(ch.size)])
            assert fg(p)[1] - 1.0 / math.log(2.0) == pytest.approx(
                _central_difference(fg, p), abs=1e-6)

    def test_p1(self):
        for ch, _, p in self._channels():
            fg = _difference(
                _holevo_objective([ch.bob_marginal(x).mat
                                   for x in range(ch.size)]),
                _holevo_objective([ch.eve_marginal(x).mat
                                   for x in range(ch.size)]))
            assert fg(p)[1] == pytest.approx(_central_difference(fg, p),
                                             abs=1e-6)

    def test_aux_branch(self):
        rng = np.random.default_rng(12)
        for ch, _, _ in self._channels():
            bob = np.array([ch.bob_marginal(x).mat for x in range(ch.size)])
            eve = np.array([ch.eve_marginal(x).mat for x in range(ch.size)])
            for k in (2, 3):
                fg = _aux_objective(bob, eve, k)
                theta = np.concatenate(
                    [rng.dirichlet(np.ones(k))]
                    + list(rng.dirichlet(np.ones(ch.size), size=k)))
                assert fg(theta)[1] == pytest.approx(
                    _central_difference(fg, theta), abs=1e-6)


class TestFlatObjectives:
    """A near-zero capacity and a channel whose step search used to
    overshoot: both reach the closed form in a few iterations."""

    @pytest.mark.parametrize("p,r", [(0.45, 0.01), (0.058, 0.331)])
    def test_closed_form_in_few_iterations(self, p, r):
        ch = bsc_wiretap_channel(p, r)
        formula = bsc_wiretap_capacity_formula(p, r)
        for res in (private_capacity_degraded(ch), p1_general_lower_bound(ch)):
            assert res.value == pytest.approx(formula, abs=1e-6)
            assert res.certified
            assert res.iterations <= 500


class TestUpperBound:
    """The Frank-Wolfe bound of the concave objectives brackets the closed
    form; the non-concave lower bound carries none."""

    def _check(self, res, formula):
        assert res.upper >= formula - 1e-9
        assert res.upper - res.value <= 1e-6

    def test_bsc_family(self):
        for p, r in ((0.1, 0.2), (0.05, 0.3), (0.2, 0.1), (0.45, 0.01),
                     (0.058, 0.331)):
            ch = bsc_wiretap_channel(p, r)
            self._check(private_capacity_degraded(ch),
                        bsc_wiretap_capacity_formula(p, r))
            assert p1_general_lower_bound(ch).upper is None

    def test_two_pure_state_family(self):
        for s in (0.0, 0.3, 2 ** -0.5, 0.9):
            ch = two_pure_state_channel(s)
            formula = two_pure_state_capacity_formula(s)
            self._check(private_capacity_degraded(ch), formula)
            self._check(classical_capacity_cq(
                [ch.bob_marginal(0), ch.bob_marginal(1)]), formula)
