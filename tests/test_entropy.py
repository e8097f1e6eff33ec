"""Conditional-entropy engine: exact values, smoothing, duality, AEP bounds.

Closed-form anchors used throughout (all independently derivable from
eigenvalues alone):
  * pure bipartite psi with Schmidt spectrum lambda:
        H_min(A|B) = -2 log2 (sum_i sqrt(lambda_i))
        H_max(A|B) =  log2 (max_i lambda_i)
  * maximally entangled two-qubit state: both equal -1.
  * product (I/2) (x) sigma_B: both equal +1.
  * smoothing the maximally entangled state at radius eps:
        H_min^eps = -1 + log2(1/(1-eps^2))
    (lower bound: rho' = (1-eps^2) Phi lies in the ball; upper bound:
    the overlap <Phi|rho'|Phi> >= 1-eps^2 forces tr sigma >= 2(1-eps^2)).
"""

import math

import numpy as np
import pytest

from oracles import hmax_cross_checked
from secrecy.quantum import (DensityOperator, Isometry, ValidationError,
                             apply_isometry, basis_state, classical_state,
                             cq_state, fidelity, maximally_entangled,
                             pure_state, random_density, random_pure,
                             random_unitary)
from secrecy.entropy import (EntropyQuery, aep_bounds, h_max, h_min,
                             h_min_smooth, h_max_smooth)
from secrecy.entropy import _hmin_generic, _lifted_basis, _smooth_program

TOL = 1e-6


def _q(state, a=(0,), b=(1,), eps=0.0):
    return EntropyQuery(state, tuple(a), tuple(b), eps)


def _two_qubit(mat):
    return DensityOperator(np.asarray(mat, dtype=complex), (2, 2))


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20202)


# ---------------------------------------------------------------------------
# Exact values
# ---------------------------------------------------------------------------

class TestExactValues:
    def test_hmin_maximally_entangled(self):
        assert h_min(_q(maximally_entangled(2))) == pytest.approx(-1.0, abs=TOL)

    def test_hmin_product_uniform(self, rng):
        sig = random_density((2,), rng)
        rho = _two_qubit(np.kron(np.eye(2) / 2, sig.mat))
        assert h_min(_q(rho)) == pytest.approx(1.0, abs=TOL)

    def test_hmin_pure_marginal_product(self, rng):
        sig = random_density((2,), rng)
        rho = _two_qubit(np.kron(basis_state(0, 2).mat, sig.mat))
        assert h_min(_q(rho)) == pytest.approx(0.0, abs=TOL)

    def test_hmax_maximally_entangled(self):
        assert hmax_cross_checked(_q(maximally_entangled(2))) \
            == pytest.approx(-1.0, abs=TOL)

    def test_hmax_product_uniform(self, rng):
        sig = random_density((2,), rng)
        rho = _two_qubit(np.kron(np.eye(2) / 2, sig.mat))
        assert hmax_cross_checked(_q(rho)) == pytest.approx(1.0, abs=TOL)

    def test_hmax_classically_correlated(self):
        rho = _two_qubit(classical_state(np.array([0.5, 0, 0, 0.5])).mat)
        assert hmax_cross_checked(_q(rho)) == pytest.approx(0.0, abs=TOL)

    def test_pure_state_closed_forms(self, rng):
        for _ in range(8):
            psi = random_pure((2, 2), rng)
            lam = np.linalg.eigvalsh(psi.partial_trace([0]).mat)
            lam = np.clip(lam, 0.0, None)
            want_min = -2.0 * math.log2(float(np.sum(np.sqrt(lam))))
            want_max = math.log2(float(lam.max()))
            assert h_min(_q(psi)) == pytest.approx(want_min, abs=TOL)
            assert hmax_cross_checked(_q(psi)) \
                == pytest.approx(want_max, abs=TOL)

    def test_min_below_max_on_mixed_states(self, rng):
        for _ in range(5):
            rho = random_density((2, 2), rng)
            assert h_min(_q(rho)) <= h_max(_q(rho)) + TOL

    def test_split_traces_out_the_rest(self, rng):
        rho = random_density((2, 2, 2), rng)
        marg = rho.partial_trace([0, 1])
        assert h_min(_q(rho, a=(0,), b=(1,))) \
            == pytest.approx(h_min(_q(marg)), abs=TOL)
        assert h_max(_q(rho, a=(0,), b=(1,))) \
            == pytest.approx(h_max(_q(marg)), abs=TOL)


class TestDualityAgreement:
    def test_paths_agree_on_random_states(self, rng):
        for _ in range(10):
            rho = random_density((2, 2), rng)
            hmax_cross_checked(_q(rho))  # asserts agreement to 1e-5


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

class TestSmoothedMin:
    def test_eps_zero_collapses_to_exact(self, rng):
        for state in (maximally_entangled(2), random_density((2, 2), rng)):
            assert h_min_smooth(_q(state)) \
                == pytest.approx(h_min(_q(state)), abs=TOL)

    def test_maximally_entangled_ball_value(self):
        eps = 0.1
        got = h_min_smooth(_q(maximally_entangled(2), eps=eps))
        want = -1.0 + math.log2(1.0 / (1.0 - eps ** 2))
        assert got == pytest.approx(want, abs=TOL)

    def test_randomized_ball_search_cannot_beat_sdp(self, rng):
        """10^4 random states in the eps-ball all have H_min <= the SDP value."""
        eps = 0.1
        phi = maximally_entangled(2)
        val = h_min_smooth(_q(phi, eps=eps))
        best = h_min(_q(phi))
        gen = np.random.default_rng(808)
        tried = 0
        for _ in range(10_000):
            t = gen.uniform(0.0, 2 * eps ** 2)
            w = random_density((2, 2), gen, rank=int(gen.integers(1, 5)))
            cand = (1.0 - t) * phi.mat + t * w.mat
            cand *= gen.uniform(1.0 - 1.5 * eps ** 2, 1.0)
            overlap = float(np.real(np.trace(phi.mat @ cand)))
            froot = math.sqrt(max(overlap, 0.0))  # fidelity to a pure state
            if froot < math.sqrt(1.0 - eps ** 2):
                continue  # outside the ball
            tried += 1
            cand_val = _hmin_generic(cand, 2, 2, 0.0)
            best = max(best, cand_val)
        assert tried > 1000  # the sampler genuinely explores the ball
        assert best <= val + TOL
        # and the search does discover an improvement over the exact value
        assert best > h_min(_q(phi)) + 1e-3

    def test_privacy_floor(self, rng):
        """Uniform classical U against an independent conditioner: >= log M."""
        sig = random_density((2,), rng)
        rho = cq_state([0.5, 0.5], [sig, sig])
        for eps in (0.0, 0.1, 0.3):
            assert h_min_smooth(_q(rho, eps=eps)) >= 1.0 - TOL

    def test_monotone_in_eps(self, rng):
        rho = random_density((2, 2), rng)
        grid = [0.0, 0.05, 0.1, 0.2, 0.4]
        vals = [h_min_smooth(_q(rho, eps=e)) for e in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - TOL

    def test_subnormalized_input(self, rng):
        rho = random_density((2, 2), rng)
        sub = DensityOperator(0.9 * rho.mat, (2, 2))
        exact = h_min(_q(sub))
        smooth = h_min_smooth(_q(sub, eps=0.2))
        assert smooth >= exact - TOL


class TestSmoothedMax:
    def test_eps_zero_collapses_to_exact(self, rng):
        rho = random_density((2, 2), rng)
        assert h_max_smooth(_q(rho)) == pytest.approx(h_max(_q(rho)), abs=1e-5)

    def test_correlated_stays_nonpositive(self):
        rho = _two_qubit(classical_state(np.array([0.5, 0, 0, 0.5])).mat)
        for eps in (0.0, 0.2, 0.5):
            assert h_max_smooth(_q(rho, eps=eps)) <= TOL

    def test_monotone_in_eps(self, rng):
        rho = random_density((2, 2), rng)
        grid = [0.0, 0.05, 0.1, 0.2, 0.4]
        vals = [h_max_smooth(_q(rho, eps=e)) for e in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo + TOL
        assert vals[1] >= vals[3] - TOL  # the 0.05 vs 0.2 comparison


class TestSmoothingLayout:
    """Blocks of the smoothing program in the documented order: [dom],
    [fid] and [psd] per block (no [psd] at full rank), then [cap], [req]
    and, for subnormalized input only, [gen]."""

    @pytest.mark.parametrize("rank, mass, dims", [
        (4, 1.0, [4, 8, 1, 1]),
        (2, 1.0, [4, 4, 4, 1, 1]),
        (4, 0.9, [4, 8, 1, 1, 2]),
    ])
    def test_generic_block_order(self, rank, mass, dims):
        rho = mass * random_density((2, 2), np.random.default_rng(31),
                                    rank=rank).mat
        program = _smooth_program([rho], [[_lifted_basis(2, 2)]], [1], [1],
                                  0.2)
        assert program.problem.block_dims == dims

    def test_empty_support_is_rejected(self):
        zero = DensityOperator(np.zeros((4, 4)), (2, 2), validate=False)
        with pytest.raises(ValidationError,
                           match="state has numerically empty support"):
            h_min_smooth(_q(zero, eps=0.2))


class TestIsometryInvariance:
    def test_embedding_changes_nothing(self, rng):
        rho = random_density((2, 2), rng)
        emb = Isometry(random_unitary(3, rng)[:, :2], (3,))
        for target, a, b in ((1, (0,), (1,)), (0, (0,), (1,))):
            big = apply_isometry(rho, emb, target)
            for fn in (h_min, h_max):
                assert fn(EntropyQuery(big, a, b)) \
                    == pytest.approx(fn(_q(rho)), abs=TOL)
            for fn in (h_min_smooth, h_max_smooth):
                assert fn(EntropyQuery(big, a, b, 0.1)) \
                    == pytest.approx(fn(_q(rho, eps=0.1)), abs=2e-6)


# ---------------------------------------------------------------------------
# Finite-n product-state estimates
# ---------------------------------------------------------------------------

class TestAepBounds:
    def test_pure_product_is_tight_zero(self):
        rho = _two_qubit(np.kron(basis_state(0, 2).mat, basis_state(0, 2).mat))
        lo, hi = aep_bounds(rho, [0], [1], 3, 0.3)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.0, abs=1e-12)

    def test_uniform_qubit_explicit_value(self):
        rho = DensityOperator(np.eye(2) / 2, (2, 1))
        lo, hi = aep_bounds(rho, [0], [1], 4, 0.5)
        want = math.sqrt(4 * math.log(4.0))
        assert lo == pytest.approx(4.0 - want, abs=1e-9)
        assert hi == pytest.approx(4.0 + want, abs=1e-9)

    def test_single_copy_brackets_the_smooth_entropies(self, rng):
        eps = 0.3
        for _ in range(4):
            rho = random_density((2, 2), rng)
            lo, hi = aep_bounds(rho, [0], [1], 1, eps)
            assert h_min_smooth(_q(rho, eps=eps)) >= lo - TOL
            assert h_max_smooth(_q(rho, eps=eps)) <= hi + TOL

    def test_width_grows_like_sqrt_n(self, rng):
        rho = random_density((2, 2), rng)
        mid = lambda n: aep_bounds(rho, [0], [1], n, 0.3)
        widths = [(mid(n)[1] - mid(n)[0]) for n in (1, 4, 16)]
        assert widths[1] == pytest.approx(2 * widths[0], rel=1e-9)
        assert widths[2] == pytest.approx(4 * widths[0], rel=1e-9)

    def test_rejects_bad_parameters(self):
        rho = DensityOperator(np.eye(2) / 2, (2, 1))
        with pytest.raises(ValidationError):
            aep_bounds(rho, [0], [1], 2, 0.0)
        with pytest.raises(ValidationError):
            aep_bounds(rho, [0], [1], 0, 0.3)
        sub = DensityOperator(np.eye(2) / 4, (2, 1))
        with pytest.raises(ValidationError):
            aep_bounds(sub, [0], [1], 2, 0.3)


# ---------------------------------------------------------------------------
# Query validation
# ---------------------------------------------------------------------------

class TestQueryValidation:
    def test_rejects_overlapping_split(self, rng):
        rho = random_density((2, 2), rng)
        with pytest.raises(ValidationError):
            EntropyQuery(rho, (0,), (0,))

    def test_rejects_out_of_range_index(self, rng):
        rho = random_density((2, 2), rng)
        with pytest.raises(ValidationError):
            EntropyQuery(rho, (0,), (5,))

    def test_rejects_empty_a_side(self, rng):
        rho = random_density((2, 2), rng)
        with pytest.raises(ValidationError):
            EntropyQuery(rho, (), (0,))

    def test_rejects_eps_out_of_range(self, rng):
        rho = random_density((2, 2), rng)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValidationError):
                EntropyQuery(rho, (0,), (1,), bad)

    def test_exact_entropies_want_unsmoothed_queries(self, rng):
        rho = random_density((2, 2), rng)
        with pytest.raises(ValidationError):
            h_min(_q(rho, eps=0.1))
        with pytest.raises(ValidationError):
            h_max(_q(rho, eps=0.1))
