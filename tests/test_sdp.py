"""Solver unit tests: closed-form values, duality, certificates, rejection."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from oracles import (positive_part_trace, rand_herm, rand_pd,
                     strictly_feasible_sdp)
from secrecy import sdp as sdp_mod
from secrecy.entropy import _lifted_basis, _smooth_program
from secrecy.quantum import random_density, tensor
from secrecy.symmetry import SymmetricBlocks, _conditioner_maps
from secrecy.sdp import (
    LmiBuilder, SdpError, SdpProblem, SdpStatus, SdpTolerances,
    check_feasibility, herm_basis, solve,
)


def lmi_min_trace_above(a: np.ndarray):
    """min tr X s.t. X >= A, X >= 0 as an LMI program."""
    d = a.shape[0]
    lb = LmiBuilder()
    x = lb.herm_var("X", d)
    b1 = lb.new_block(d)
    lb.add_herm(b1, x)
    lb.add_const(b1, -a)
    b2 = lb.new_block(d)
    lb.add_herm(b2, x)
    lb.minimize(x.trace_real_coeffs())
    return lb.build().solve()


def test_scalar_lmi_value():
    # min t with [[t,1],[1,t]] PSD: smallest eigenvalue t-1 => t*=1
    lb = LmiBuilder()
    t = lb.real_var("t")
    blk = lb.new_block(2)
    lb.add_scalar(blk, t, np.eye(2))
    lb.add_const(blk, np.array([[0.0, 1.0], [1.0, 0.0]]))
    lb.minimize([(t.offset, 1.0)])
    sol = lb.build().solve()
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-7)
    assert sol.vars["t"] == pytest.approx(1.0, abs=1e-7)


def test_positive_part_example():
    a = np.diag([2.0, -1.0]).astype(complex)
    sol = lmi_min_trace_above(a)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.value == pytest.approx(2.0, abs=1e-7)


def test_positive_part_random_family():
    rng = np.random.default_rng(21)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        a = rand_herm(d, rng)
        sol = lmi_min_trace_above(a)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.value == pytest.approx(positive_part_trace(a), abs=1e-7)
        # the minimizer is the positive part of A
        x = sol.vars["X"]
        vals = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
        vecs = np.linalg.eigh(0.5 * (a + a.conj().T))[1]
        apos = (vecs * np.clip(vals, 0, None)) @ vecs.conj().T
        assert np.max(np.abs(x - apos)) < 1e-5


def test_diagonal_sdp_matches_lp():
    # diagonal data makes the SDP an LP; compare to scipy's solver
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, m = 5, 3
        c = rng.normal(size=n)
        a_eq = rng.normal(size=(m, n))
        x_interior = rng.uniform(0.5, 1.5, size=n)
        # a total-mass row keeps the feasible polytope (and the LP) bounded
        a_eq = np.vstack([a_eq, np.ones(n)])
        m += 1
        b_eq = a_eq @ x_interior
        res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n,
                      method="highs")
        assert res.status == 0
        prob = SdpProblem([n], [np.diag(c).astype(complex)])
        for i in range(m):
            prob.add_constraint({0: np.diag(a_eq[i]).astype(complex)}, b_eq[i])
        # force off-diagonals to zero so the SDP is exactly the LP
        for i in range(n):
            for j in range(i + 1, n):
                e_re = np.zeros((n, n), dtype=complex)
                e_re[i, j] = e_re[j, i] = 1.0
                prob.add_constraint({0: e_re}, 0.0)
                e_im = np.zeros((n, n), dtype=complex)
                e_im[i, j] = 1j
                e_im[j, i] = -1j
                prob.add_constraint({0: e_im}, 0.0)
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.primal_value == pytest.approx(res.fun, abs=1e-6)


def test_strictly_feasible_family_gap_and_verification():
    rng = np.random.default_rng(11)
    for k in range(60):
        prob = strictly_feasible_sdp(rng, block_dims=(3, 2),
                                     m=int(rng.integers(2, 7)))
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL, f"instance {k}: {sol.message}"
        rel = abs(sol.primal_value - sol.dual_value) / (
            1 + abs(sol.primal_value) + abs(sol.dual_value))
        assert rel <= 1e-8
        # weak duality: dual never exceeds primal (minimization)
        assert sol.dual_value <= sol.primal_value + 1e-9 * (1 + abs(sol.primal_value))
        # independent re-verification results recorded on the solution
        scale = 1 + abs(sol.primal_value)
        assert sol.primal_residual <= 1e-6 * scale
        assert sol.min_eig_primal >= -1e-8 * scale
        assert sol.min_eig_slack >= -1e-8 * scale


def test_feasibility_trivial_and_witness():
    prob = SdpProblem([4])
    prob.add_constraint({0: np.eye(4)}, 1.0)
    res = check_feasibility(prob)
    assert res.feasible is True
    w = res.witness[0]
    assert np.trace(w).real == pytest.approx(1.0, abs=1e-7)
    assert np.linalg.eigvalsh(w)[0] >= -1e-9


def test_feasibility_infeasible_certificate():
    # X >= I forces tr X >= 2, contradicting tr X = 0.5
    prob = SdpProblem([2, 2])
    basis = [np.array([[1, 0], [0, 0]]), np.array([[0, 0], [0, 1]]),
             np.array([[0, 0.5], [0.5, 0]]), np.array([[0, 0.5j], [-0.5j, 0]])]
    rhs = [1.0, 1.0, 0.0, 0.0]
    for mat, r in zip(basis, rhs):
        prob.add_constraint({0: mat.astype(complex),
                             1: -mat.astype(complex)}, r)
    prob.add_constraint({0: np.eye(2)}, 0.5)
    res = check_feasibility(prob)
    assert res.feasible is False
    cert = res.certificate
    assert cert["kind"] == "farkas_dual"
    # certificate says: sum y_i A_i is (approx) negative semidefinite with b.y = 1
    for blk in cert["slack_blocks"]:
        assert np.linalg.eigvalsh(blk)[0] >= -1e-6


def test_unbounded_reports_dual_infeasible():
    # minimize -x22 subject only to x11 = 1: unbounded below
    prob = SdpProblem([2], [np.diag([0.0, -1.0]).astype(complex)])
    prob.add_constraint({0: np.diag([1.0, 0.0]).astype(complex)}, 1.0)
    sol = solve(prob)
    assert sol.status is SdpStatus.DUAL_INFEASIBLE
    ray = sol.certificate["blocks"][0]
    assert np.linalg.eigvalsh(ray)[0] >= -1e-8   # ray is PSD
    assert np.real(np.trace(np.diag([0.0, -1.0]) @ ray)) < 0


def test_complex_entries_drive_solution():
    # minimize <C,X> over density-like X: optimum is the min eigenvalue
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = rand_herm(4, rng)
        prob = SdpProblem([4], [c])
        prob.add_constraint({0: np.eye(4)}, 1.0)
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.primal_value == pytest.approx(
            np.linalg.eigvalsh(c)[0], abs=1e-7)


def test_determinism():
    rng = np.random.default_rng(9)
    prob = strictly_feasible_sdp(rng, block_dims=(3,), m=3)
    s1 = solve(prob)
    s2 = solve(prob)
    assert s1.primal_value == s2.primal_value
    assert s1.iterations == s2.iterations
    assert np.array_equal(s1.dual_y, s2.dual_y)


def test_malformed_rejected():
    with pytest.raises(SdpError):
        SdpProblem([2], [np.array([[0, 1], [0, 0]], dtype=complex)])  # not Herm
    prob = SdpProblem([2])
    with pytest.raises(SdpError):
        prob.add_constraint({0: np.array([[0, 1], [0, 0]], dtype=complex)}, 0.0)
    with pytest.raises(SdpError):
        prob.add_constraint({0: np.zeros((2, 2), dtype=complex)}, 1.0)
    with pytest.raises(SdpError):
        prob.add_constraint({0: np.eye(3, dtype=complex)}, 1.0)  # wrong shape
    with pytest.raises(SdpError):
        prob.add_constraint({3: np.eye(2, dtype=complex)}, 1.0)  # no such block
    with pytest.raises(SdpError):
        prob.add_constraint({0: np.eye(2, dtype=complex)}, 1.0 + 1j)
    lb = LmiBuilder()
    lb.herm_var("X", 2)  # never placed anywhere
    lb.new_block(2)
    lb.add_const(0, np.eye(2))
    with pytest.raises(SdpError):
        lb.build()
    lb = LmiBuilder()
    t = lb.real_var("t")
    blk = lb.new_block(2)
    lb.add_param_term(blk, t.offset, [[0, 1], [0, 0]])  # not Hermitian
    with pytest.raises(SdpError, match="not Hermitian"):
        lb.build()
    lb = LmiBuilder()
    t = lb.real_var("t")
    blk = lb.new_block(1)
    lb.add_scalar(blk, t, [[1.0]])
    lb.add_scalar(blk, t, [[-1.0]])  # the row cancels to zero
    with pytest.raises(SdpError, match="identically zero"):
        lb.build()


def test_non_finite_data_rejected():
    """NaN or inf in C, in b or in a constraint entry is malformed data (it
    used to run to the iteration limit), also through the LMI builder."""
    with pytest.raises(SdpError, match="not finite"):
        SdpProblem([2], [np.diag([1.0, np.nan])])
    for blocks, rhs in (({0: np.eye(2)}, np.nan),
                        ({0: np.diag([1.0, np.inf])}, 1.0),
                        ({0: np.array([[1.0, np.nan], [np.nan, 0.0]])}, 1.0)):
        prob = SdpProblem([2])
        with pytest.raises(SdpError, match="not finite"):
            prob.add_constraint(blocks, rhs)
        assert prob.num_constraints == 0
    lb = LmiBuilder()
    t = lb.real_var("t")
    lb.add_scalar(lb.new_block(1), t, [[np.inf]])
    with pytest.raises(SdpError, match="not finite"):
        lb.build()


def _lp(c, rows, rhs):
    """The LP min c.x s.t. rows @ x = rhs, x >= 0, with one 1x1 block per
    variable."""
    prob = SdpProblem([1] * len(c), [[[ci]] for ci in c])
    for row, r in zip(rows, rhs):
        prob.add_constraint({j: [[a]] for j, a in enumerate(row) if a}, r)
    return prob


def test_pure_lp_on_the_linear_cone():
    """min c.x s.t. sum x = 1 over 1x1 blocks alone: the value is min c_i,
    taken at that vertex, and the dual is y = min c_i; blocks come back one
    per original block, complex and 1x1."""
    c = [0.7, -0.4, 1.3, -0.1, 2.0]
    prob = _lp(c, [[1.0] * 5], [1.0])
    rc = prob.compile()
    rc.scale()
    assert [d for d, _ in rc.classes] == [1] and rc.lin[0].shape == (1, 5)
    sol = solve(prob)
    assert sol.status is SdpStatus.OPTIMAL, sol.message
    assert sol.primal_value == pytest.approx(-0.4, abs=1e-8)
    assert sol.dual_value == pytest.approx(-0.4, abs=1e-8)
    assert sol.dual_y[0] == pytest.approx(-0.4, abs=1e-8)
    x = np.array([blk[0, 0] for blk in sol.primal_blocks])
    assert all(blk.shape == (1, 1) and blk.dtype == complex
               for blk in sol.primal_blocks + sol.dual_slack_blocks)
    assert np.allclose(x.real, [0, 1, 0, 0, 0], atol=1e-7)


def test_infeasible_lp_farkas_certificate():
    """x1 + x2 = 1 and x1 + x2 + x3 = 1/2 force x3 = -1/2: the Farkas
    certificate y has b.y = 1 and sum_i y_i A_i <= 0 on every original
    block."""
    rows, rhs = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]), [1.0, 0.5]
    sol = solve(_lp([0.0, 0.0, 0.0], rows, rhs))
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE, sol.message
    y = sol.certificate["y"]
    assert float(np.dot(rhs, y)) == pytest.approx(1.0, abs=1e-12)
    assert np.all(y @ rows <= 1e-6 * np.max(np.abs(y)))
    for blk, col in zip(sol.certificate["slack_blocks"], y @ rows):
        assert blk[0, 0].real == pytest.approx(-col, abs=1e-12)


def test_unbounded_lp_improving_ray():
    """min -x1 s.t. x1 - x2 = 0: the ray x1 = x2 improves without bound;
    the certificate is that ray with <C, X> = -1."""
    sol = solve(_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0]))
    assert sol.status is SdpStatus.DUAL_INFEASIBLE, sol.message
    ray = np.array([blk[0, 0].real for blk in sol.certificate["blocks"]])
    assert np.all(ray >= -1e-8)
    assert ray[0] == pytest.approx(1.0, abs=1e-8)
    assert ray[0] - ray[1] == pytest.approx(0.0, abs=1e-7)


def test_mixed_program_with_a_slack_block():
    """min <C, X> s.t. tr X + t = 1 with a 1x1 slack t: for C with only
    negative eigenvalues the optimum is lambda_min(C), at t = 0 and X the
    projector on its eigenvector."""
    rng = np.random.default_rng(29)
    for _ in range(5):
        h = rand_herm(4, rng)
        c = h - (np.linalg.eigvalsh(h)[-1] + 0.5) * np.eye(4)
        prob = SdpProblem([4, 1], [c, np.zeros((1, 1))])
        prob.add_constraint({0: np.eye(4), 1: [[1.0]]}, 1.0)
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL, sol.message
        vals, vecs = np.linalg.eigh(c)
        assert sol.primal_value == pytest.approx(vals[0], abs=1e-7)
        assert sol.dual_value == pytest.approx(vals[0], abs=1e-7)
        assert abs(sol.primal_blocks[1][0, 0]) <= 1e-7
        proj = np.outer(vecs[:, 0], vecs[:, 0].conj())
        assert np.max(np.abs(sol.primal_blocks[0] - proj)) <= 1e-4


def test_program_without_a_linear_cone():
    """Blocks of size 3 and 2 under one trace row: no linear cone, and the
    value is the smaller lambda_min of the two objectives."""
    rng = np.random.default_rng(31)
    c = [rand_herm(3, rng), rand_herm(2, rng)]
    prob = SdpProblem([3, 2], c)
    prob.add_constraint({0: np.eye(3), 1: np.eye(2)}, 1.0)
    rc = prob.compile()
    rc.scale()
    assert rc.lin is None and [d for d, _ in rc.classes] == [2, 3]
    sol = solve(prob)
    assert sol.status is SdpStatus.OPTIMAL, sol.message
    want = min(np.linalg.eigvalsh(cj)[0] for cj in c)
    assert sol.primal_value == pytest.approx(want, abs=1e-7)
    assert sol.dual_value == pytest.approx(want, abs=1e-7)


def test_stacked_scaling_matches_stacks_of_one():
    """The NT scaling of a class of k blocks equals, bit for bit, that of
    each block as a stack of one, on matrix classes and on the linear cone;
    permuting blocks of equal size moves a program's value by <= 1e-9."""
    rng = np.random.default_rng(37)
    for d in (1, 2, 4):
        x, s = (np.stack([rand_pd(d, rng) for _ in range(3)]) for _ in "xs")
        whole = sdp_mod._nt_block(x, s)
        for i in range(3):
            one = sdp_mod._nt_block(x[i:i + 1], s[i:i + 1])
            for field in ("W", "R", "Ri", "lam", "lv", "lQ"):
                assert np.array_equal(getattr(whole, field)[i:i + 1],
                                      getattr(one, field)), (d, field)
    dims, m = [3, 2, 3, 1, 2, 1], 5
    x0, s0 = [rand_pd(d, rng) for d in dims], [rand_pd(d, rng) for d in dims]
    rows = [[rand_herm(d, rng) for d in dims] for _ in range(m)]
    y0 = rng.normal(size=m)
    c = [s0[j] + sum(y * a[j] for y, a in zip(y0, rows))
         for j in range(len(dims))]
    rhs = [sum(np.trace(a[j] @ x0[j]).real for j in range(len(dims)))
           for a in rows]
    values = []
    for perm in ([0, 1, 2, 3, 4, 5], [2, 4, 0, 5, 1, 3]):
        assert [dims[j] for j in perm] == dims
        prob = SdpProblem(dims, [c[j] for j in perm])
        for a, r in zip(rows, rhs):
            prob.add_constraint({k: a[j] for k, j in enumerate(perm)}, r)
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL, sol.message
        values.append(sol.dual_value)
    assert abs(values[0] - values[1]) <= 1e-9


def test_builder_compile_and_scaling_match_loop_reference():
    """Vectorised placement, embedding and row scaling against plain loops."""
    rng = np.random.default_rng(21)
    lb = LmiBuilder()
    t, h, x = lb.real_var("t"), lb.herm_var("H", 2), lb.cplx_var("X", 2, 1)
    dims = [3, 2]
    for d in dims:
        lb.new_block(d)
    ref = [[np.zeros((d, d), dtype=complex) for d in dims]
           for _ in range(lb.nparams)]
    f0 = [rand_herm(d, rng) for d in dims]
    for blk, mat in enumerate(f0):
        lb.add_const(blk, mat)

    def pair(blk, pre, pim, r, c, coeff):
        ref[pre][blk][r, c] += coeff
        ref[pre][blk][c, r] += coeff
        ref[pim][blk][r, c] += coeff * 1j
        ref[pim][blk][c, r] += coeff * (-1j)

    for blk, at, coeff in ((0, 0, 0.7), (0, 1, -1.3), (1, 0, 1.0)):
        lb.add_herm(blk, h, at=at, coeff=coeff)
        for i in range(2):
            ref[h.param("diag", i)][blk][at + i, at + i] += coeff
        pair(blk, h.param("re", 0, 1), h.param("im", 0, 1), at, at + 1, coeff)
    lb.add_cplx(0, x, at=(0, 2), coeff=0.4)
    for i in range(2):
        pair(0, x.param("re", i, 0), x.param("im", i, 0), i, 2, 0.4)
    for _ in range(3):  # three sums on the same entries
        mat = rand_herm(3, rng)
        lb.add_scalar(0, t, mat)
        ref[t.offset][0] += mat
    mat = rand_herm(2, rng)
    lb.add_param_term(1, t.offset, mat)
    ref[t.offset][1] += mat
    params = np.array([h.param("diag", 1), t.offset, x.param("im", 1, 0)])
    stack = np.array([rand_herm(2, rng) for _ in params])
    lb.add_param_term(0, params, stack, at=(1, 1))   # one stacked placement
    for k, img in zip(params, stack):
        ref[k][0][1:, 1:] += img
    obj = dict([(t.offset, 1.0)] + h.trace_real_coeffs())
    lb.minimize(obj.items())

    got = lb.build().problem.compile()
    want = SdpProblem(dims, f0)
    for k in range(lb.nparams):
        want.add_constraint(dict(enumerate(-m for m in ref[k])),
                            -obj.get(k, 0.0))
    want = want.compile()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got.A, attr), getattr(want.A, attr))
    assert np.array_equal(got.b, want.b)
    assert np.array_equal(got.c_vec, want.c_vec)

    a = got.A.copy()
    row_scale, _, _ = got.scale()
    norms = [max(float(np.linalg.norm(a.data[a.indptr[i]:a.indptr[i + 1]])),
                 1e-12) for i in range(a.shape[0])]
    assert np.array_equal(row_scale, norms)
    assert np.array_equal(got.A.toarray(),
                          a.toarray() * (1.0 / row_scale)[:, None])


def test_herm_basis_follows_param_order():
    for d in range(1, 5):
        var = LmiBuilder().herm_var("H", d)
        want = np.zeros((d * d, d, d), dtype=complex)
        for i in range(d):
            want[var.param("diag", i), i, i] = 1.0
            for j in range(i + 1, d):
                want[var.param("re", i, j), [i, j], [j, i]] = 1.0
                want[var.param("im", i, j), [i, j], [j, i]] = [1j, -1j]
        assert np.array_equal(herm_basis(d), want)
        ks = np.arange(d * d)[::-2]
        assert np.array_equal(herm_basis(d, ks), want[ks])


def test_tolerances_respected():
    rng = np.random.default_rng(13)
    prob = strictly_feasible_sdp(rng, block_dims=(3, 2), m=4)
    loose = solve(prob, SdpTolerances(gap=1e-4, feas=1e-4))
    tight = solve(prob, SdpTolerances(gap=1e-9, feas=1e-9))
    assert loose.status is SdpStatus.OPTIMAL
    assert tight.status is SdpStatus.OPTIMAL
    assert loose.iterations <= tight.iterations
    relt = abs(tight.primal_value - tight.dual_value) / (1 + abs(tight.primal_value))
    assert relt <= 1e-9


def test_unreachable_gap_returns_the_fallback_iterate():
    """A gap below rounding stalls; the run returns the first iterate that
    met the tightest fallback target, bit for bit what a solve at that
    target returns.  It counts the iterations it ran, and its message names
    the iteration of the returned iterate."""
    prob = strictly_feasible_sdp(np.random.default_rng(13))
    stalled = solve(prob, SdpTolerances(gap=1e-16, feas=1e-16))
    direct = solve(prob, SdpTolerances(gap=1e-7, feas=1e-7))
    assert stalled.status is SdpStatus.OPTIMAL, stalled.message
    assert stalled.gap_target == 1e-7
    assert direct.gap_target == 1e-7
    assert stalled.iterations > direct.iterations
    assert f"iteration {direct.iterations} " in stalled.message
    assert stalled.dual_value == direct.dual_value
    assert stalled.primal_value == direct.primal_value
    assert np.array_equal(stalled.dual_y, direct.dual_y)
    for a, b in zip(stalled.primal_blocks, direct.primal_blocks, strict=True):
        assert np.array_equal(a, b)


def _spy_ipm(monkeypatch):
    """Record (dtype, rows) of every interior-point run."""
    runs, ipm = [], sdp_mod._ipm

    def spy(rc, tol, descale):
        runs.append((rc.A.dtype, rc.m))
        return ipm(rc, tol, descale)

    monkeypatch.setattr(sdp_mod, "_ipm", spy)
    return runs


def _real_program_with_imaginary_rows(rng):
    """Real blocks of size 3 and 2, strictly feasible on both sides: five
    real rows, then the three imaginary herm_basis rows of block 0 and one
    imaginary row over both blocks, all with b = 0.  Returns the problem
    and its objective, rows (block -> matrix) and right-hand sides."""
    dims = [3, 2]

    def sym(d):
        g = rng.normal(size=(d, d))
        return g + g.T

    def pd(d):
        g = rng.normal(size=(d, d))
        return g @ g.T + 0.5 * np.eye(d)

    x0, s0 = [pd(d) for d in dims], [pd(d) for d in dims]
    rows = [{j: sym(d) for j, d in enumerate(dims)} for _ in range(5)]
    rhs = [sum(np.trace(a[j] @ x0[j]) for j in a) for a in rows]
    y0 = rng.normal(size=5)
    c = [s0[j] + sum(y * a[j] for y, a in zip(y0, rows))
         for j in range(len(dims))]
    flip = np.array([[0, 1j], [-1j, 0]])
    rows += [{0: b} for b in herm_basis(3)[4::2]] \
        + [{0: herm_basis(3)[4], 1: flip}]
    rhs += [0.0] * 4
    prob = SdpProblem(dims, c)
    for a, r in zip(rows, rhs):
        prob.add_constraint(a, float(r))
    return prob, c, rows, rhs


def test_real_program_runs_real_on_its_real_rows(monkeypatch):
    """A real program and its twin, every block conjugated by a fixed
    complex unitary, have the same optimum; only the real one runs in
    float64, on its five real rows, with zero duals on the others and
    complex Hermitian blocks returned."""
    rng = np.random.default_rng(23)
    prob, c, rows, rhs = _real_program_with_imaginary_rows(rng)
    u = [np.linalg.qr(g[0] + 1j * g[1])[0]
         for g in (rng.normal(size=(2, d, d)) for d in prob.block_dims)]
    twin = SdpProblem(prob.block_dims,
                      [uj @ cj @ uj.conj().T for uj, cj in zip(u, c)])
    for a, r in zip(rows, rhs):
        twin.add_constraint({j: u[j] @ m @ u[j].conj().T
                             for j, m in a.items()}, r)
    runs = _spy_ipm(monkeypatch)
    real, cplx = solve(prob), solve(twin)
    assert runs == [(np.float64, 5), (np.complex128, 9)]
    for sol in (real, cplx):
        assert sol.status is SdpStatus.OPTIMAL, sol.message
        assert sol.primal_residual <= 1e-7 and sol.dual_residual <= 1e-7
    assert real.dual_value == pytest.approx(cplx.dual_value, rel=1e-7)
    assert real.primal_value == pytest.approx(cplx.primal_value, rel=1e-7)
    assert np.all(real.dual_y[5:] == 0)
    for blk in real.primal_blocks + real.dual_slack_blocks:
        assert blk.dtype == complex
        assert np.array_equal(blk, blk.conj().T)


def test_imaginary_row_with_nonzero_rhs_stays_complex(monkeypatch):
    """min <sigma_z, X> s.t. tr X = 1, <sigma_y, X> = 1/2: the Bloch vector
    has y = 1/2, so the optimum is -sqrt(3)/2 (dropping the sigma_y row
    would give -1)."""
    prob = SdpProblem([2], [np.diag([1.0, -1.0])])
    prob.add_constraint({0: np.eye(2)}, 1.0)
    prob.add_constraint({0: np.array([[0, -1j], [1j, 0]])}, 0.5)
    runs = _spy_ipm(monkeypatch)
    sol = solve(prob)
    assert runs == [(np.complex128, 2)]
    assert sol.status is SdpStatus.OPTIMAL, sol.message
    assert sol.primal_value == pytest.approx(-np.sqrt(0.75), abs=1e-7)
    assert sol.dual_value == pytest.approx(-np.sqrt(0.75), abs=1e-7)


def test_real_infeasible_program_certificate_on_all_rows(monkeypatch):
    """tr X = 1 and X_00 = 2 on a 2x2 block, with the imaginary row
    Im X_01 = 0: the real path finds the Farkas certificate, returned over
    all three rows and checked against the original ones."""
    mats = [np.eye(2), np.diag([1.0, 0.0]), herm_basis(2)[3]]
    rhs = np.array([1.0, 2.0, 0.0])
    prob = SdpProblem([2])
    for a, r in zip(mats, rhs):
        prob.add_constraint({0: a}, r)
    runs = _spy_ipm(monkeypatch)
    sol = solve(prob)
    assert runs == [(np.float64, 2)]
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE, sol.message
    y = sol.certificate["y"]
    assert y.shape == (3,) and y[2] == 0
    assert float(rhs @ y) == pytest.approx(1.0, abs=1e-12)
    combo = sum(yi * a for yi, a in zip(y, mats))
    assert np.linalg.eigvalsh(combo)[-1] <= 1e-6 * np.max(np.abs(y))


def _schur_program(rng):
    """Blocks of size 3, 2 and 1 with dense rows on non-contiguous active
    sets, and two blocks of size 16 large enough for the index formulas.
    Block 3 skips every twentieth row and holds herm_basis unit rows in basis
    order (diagonal, real and imaginary pairs), dense rows and a row with
    two diagonal entries; block 4 runs over every row from 7 on: two dense
    rows, a row with two diagonal entries and a complex off-diagonal row,
    then shuffled unit rows."""
    dims = [3, 2, 1, 16, 16]
    basis = herm_basis(16)
    prob = SdpProblem(dims, [rand_herm(d, rng) for d in dims])
    for i in range(7):
        # block 1 is active on rows 0, 2, 4, 6 and block 2 on rows 1 and 4
        touched = [0] + [1] * (i % 2 == 0) + [2] * (i in (1, 4))
        prob.add_constraint({j: rand_herm(dims[j], rng) for j in touched},
                            float(rng.normal()))
    two_diag = np.diag([0.0] * 2 + [0.7] + [0.0] * 4 + [-1.3] + [0.0] * 8)
    pair = np.zeros((16, 16), dtype=complex)
    pair[3, 9], pair[9, 3] = 0.4 - 1.1j, 0.4 + 1.1j
    shuffled = iter(rng.permutation(len(basis)))
    in_order = iter(range(len(basis)))
    for k in range(260):
        row = {4: {0: rand_herm(16, rng), 1: rand_herm(16, rng),
                   2: two_diag, 3: pair}.get(k)}
        if row[4] is None:
            row[4] = rng.choice([-1.7, 0.6, 2.3]) * basis[next(shuffled)]
        if k % 20 != 5:
            row[3] = {3: rand_herm(16, rng), 50: rand_herm(16, rng),
                      90: rand_herm(16, rng), 20: -two_diag}.get(k)
            if row[3] is None:
                row[3] = rng.choice([-0.8, 1.0, 3.1]) * basis[next(in_order)]
        prob.add_constraint(row, float(rng.normal()))
    return prob


def test_schur_matches_dense_trace_formula(monkeypatch):
    """Schur complement tr(A_i W A_k W) against dense products of the
    compiled rows, for both assembly paths: dense rows (F1) in one chunk
    and in chunks of a few rows, and gathered unit rows, through slices and
    through index arrays.  Only unit rows are index rows; rows with two
    coordinates take the F1 product."""
    rng = np.random.default_rng(17)
    prob = _schur_program(rng)
    rc = prob.compile()
    rc.scale()
    assert rc.arrow is None     # the dense layout averages both triangles
    scals = _class_scals(rc, lambda d: rand_pd(d, rng))
    want = _dense_schur(rc, scals)
    # the Schur views are those of the blocks of size >= 2 (blocks 0, 1, 3
    # and 4): the first two are all dense rows, the last two take both
    # paths; the size-1 block 2 is the linear cone, active on rows 1 and 4
    blocks = rc.schur
    assert [b.at for b in blocks] == [rc.where[j] for j in (0, 1, 3, 4)]
    assert all(b.gather is None for b in blocks[:2])
    for b in blocks[2:]:
        assert b.gather is not None and b.chunks
    al, ix = rc.lin
    assert al.shape == (2, 1) and rc.classes[0][0] == 1
    assert [list(i.ravel()) for i in ix] == [[1, 4], [1, 4]]
    act = [np.unique(rc.A[:, rc.offs[j]:rc.offs[j + 1]].tocoo().row)
           for j in range(len(prob.block_dims))]
    assert not np.array_equal(act[1], np.arange(act[1][0], act[1][-1] + 1))
    assert not np.array_equal(act[3], np.arange(act[3][0], act[3][-1] + 1))
    assert np.array_equal(act[4], np.arange(7, rc.m))
    # block 3 has its two-diagonal row, block 4 that and its pair row
    _assert_unit_index_rows(rc, blocks[2], 3, act[3], 1)
    _assert_unit_index_rows(rc, blocks[3], 4, act[4], 2)
    # block 3 gathers K through slices and writes through index arrays,
    # block 4 the other way round
    assert isinstance(blocks[2].gather[0][0], slice)
    assert not isinstance(blocks[2].gather[3][0], slice)
    assert not isinstance(blocks[3].gather[0][0], slice)
    assert isinstance(blocks[3].gather[3][0], slice)
    one_chunk = sdp_mod._schur(rc, scals)
    # 36 entries: blocks of size 3, 2 and 16 take 4, 9 and 1 rows a chunk,
    # so block 0 has two chunks and block 3 one per F1 row: its three dense
    # rows and its two-diagonal row
    monkeypatch.setattr(sdp_mod, "_SCHUR_CHUNK", 36)
    rc = prob.compile()
    rc.scale()
    assert len(rc.schur[0].chunks) == 2 and len(rc.schur[2].chunks) == 4
    chunked = sdp_mod._schur(rc, scals)
    for got in (one_chunk, chunked):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(got, got.T)
    # a real program runs on its real rows, and its 16 x 16 block takes the
    # index formulas on the compact K: the diagonal and real-part
    # coordinates, d(d+1)/2 = 136 of them
    orig = _real_schur_program(rng).compile()
    keep = sdp_mod._real_rows(orig)
    assert len(keep) == 252
    rc = sdp_mod._Conic(orig.dims, orig.offs, orig.c_vec.real,
                        orig.A[keep].real, orig.b[keep])
    rc.scale()

    def real_pd(d):
        g = rng.normal(size=(d, d))
        return g @ g.T + 0.3 * np.eye(d)

    scals = _class_scals(rc, real_pd)
    assert all(sc.W.dtype == np.float64 for sc in scals)
    assert sdp_mod._wxw(scals[1].W[0]).shape == (136, 136)
    blk = rc.schur[1]
    assert blk.gather is not None and blk.chunks
    act = np.unique(rc.A[:, rc.offs[1]:rc.offs[2]].tocoo().row)
    _assert_unit_index_rows(rc, blk, 1, act, 2)
    got = sdp_mod._schur(rc, scals)
    want = _dense_schur(rc, scals)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(got, got.T)


def _assert_unit_index_rows(rc, blk, j, act, n_two):
    """Every index row of block j (active rows act) is a unit row, with one
    real coordinate over herm_basis, and none of its n_two rows with two
    coordinates is an index row."""
    d = rc.dims[j]
    a = rc.A[act, rc.offs[j]:rc.offs[j + 1]].toarray().reshape(-1, d, d)
    i, k = np.triu_indices(d, 1)
    up = a[:, i, k]
    q = (np.count_nonzero(np.diagonal(a, axis1=1, axis2=2), axis=1)
         + np.count_nonzero(up.real, axis=1)
         + np.count_nonzero(up.imag, axis=1))
    index = np.zeros(len(act), dtype=bool)
    index[blk.index_rows] = True
    assert index.any() and np.all(q[index] == 1)
    assert np.sum(q == 2) == n_two and not index[q == 2].any()


def _class_scals(rc, pd):
    """NT scalings of one stack of pd(d) pairs per size class of rc."""
    return [sdp_mod._nt_block(*(np.stack([pd(d) for _ in idx])
                                for _ in range(2)))
            for d, idx in rc.classes]


def _dense_schur(rc, scals):
    """tr(A_i W A_k W) by dense products, each block's W read off the
    size-class scalings; row i of the compiled matrix is conj(vec A_i)."""
    rows = rc.A.toarray().conj()
    want = np.zeros((rc.m, rc.m))
    for j, (c, p) in enumerate(rc.where):
        w = scals[c].W[p]
        a = rows[:, rc.offs[j]:rc.offs[j + 1]].reshape(rc.m, *w.shape)
        want += np.einsum("iab,kba->ik", a, w @ a @ w).real
    return want


def _real_schur_program(rng):
    """A real program with blocks of size 2 and 16.  On the 16 block: two
    dense rows, a row with two diagonal entries and one with two real
    off-diagonal pairs, then the unit rows of every diagonal and real-part
    coordinate in shuffled order; every tenth row is an imaginary unit row
    with b = 0, which the real path drops."""
    def sym(d):
        g = rng.normal(size=(d, d))
        return g + g.T

    basis = herm_basis(16)
    real_units = np.r_[0:16, 16:256:2]
    units = iter(np.concatenate([rng.permutation(real_units)] * 2))
    two_diag = np.diag([0.0] * 2 + [0.7] + [0.0] * 4 + [-1.3] + [0.0] * 8)
    pairs = np.zeros((16, 16))
    pairs[3, 9] = pairs[9, 3] = 0.4
    pairs[2, 5] = pairs[5, 2] = -1.1
    prob = SdpProblem([2, 16], [sym(2), sym(16)])
    for k in range(280):
        if k % 10 == 9:
            prob.add_constraint({1: basis[17 + 2 * (k // 10)]}, 0.0)
            continue
        row = {1: {0: sym(16), 1: sym(16), 2: two_diag, 3: pairs}.get(k)}
        if row[1] is None:
            row[1] = rng.choice([-1.7, 0.6, 2.3]) * basis[next(units)]
        if k % 3 == 0:
            row[0] = sym(2)
        prob.add_constraint(row, float(rng.normal()))
    return prob


def _tensor_power_program():
    """The smoothed H_min program of rho^(x)3 at eps = 0.25 in S_3 blocks,
    on a seeded rank-2 two-qubit state: m = 860."""
    rho = random_density((2, 2), np.random.default_rng(15), rank=2)
    sab, sb = SymmetricBlocks(4, 3), SymmetricBlocks(2, 3)
    return _smooth_program(sab.compress(tensor(*[rho.mat] * 3)),
                           _conditioner_maps(sab, sb, 2, 2, 3),
                           sb.weights, sab.weights, 0.25).problem


def _groups(rc):
    """`sdp._row_groups` on the stored entries of a scaled program."""
    dims = np.asarray(rc.dims)
    row = np.repeat(np.arange(rc.m), np.diff(rc.A.indptr))
    blk = np.repeat(np.arange(len(dims)), dims * dims)[rc.A.indices]
    return sdp_mod._row_groups(row, blk, dims, rc.m)


def test_row_groups_of_symmetric_and_generic_programs():
    """The n = 3 program splits into two irrep groups of 408 and 386 rows
    and a border of 66: the 20 conditioner rows, which touch the [dom]
    block of every irrep, and the rows that touch the 1x1 [cap] and [req]
    blocks; a generic smoothing program of about the same size is one
    group, and stays dense."""
    rc = _tensor_power_program().compile()
    rc.scale()
    groups = _groups(rc)
    assert sorted(np.bincount(groups[groups >= 0])) == [386, 408]
    assert np.sum(groups < 0) == 66 and np.all(groups[:20] < 0)
    assert [len(g) for g in rc.arrow.groups] \
        == np.bincount(groups[groups >= 0]).tolist()
    assert np.array_equal(rc.arrow.border, np.flatnonzero(groups < 0))
    rho = random_density((2, 8), np.random.default_rng(5))
    rc = _smooth_program([rho.mat], [[_lifted_basis(2, 8)]], [1], [1],
                         0.25).problem.compile()
    rc.scale()
    groups = _groups(rc)
    touches_1x1 = np.zeros(rc.m, dtype=bool)
    for j in np.flatnonzero(np.asarray(rc.dims) == 1):
        col = rc.offs[j]
        touches_1x1[rc.A[:, col].nonzero()[0]] = True
    assert set(groups[~touches_1x1]) == {0}
    assert np.all(groups[touches_1x1] < 0) and touches_1x1.any()
    assert rc.m == 832 and rc.arrow is None


def test_arrow_solve_matches_dense(monkeypatch):
    """On a Schur matrix of the n = 3 program, exactly zero between its
    groups, the block-arrow solve agrees with the dense Cholesky to 1e-10
    relative, and whole solves through either path agree."""
    rng = np.random.default_rng(29)
    prob = _tensor_power_program()
    rc = prob.compile()
    rc.scale()
    big = sdp_mod._schur(rc, _class_scals(rc, lambda d: rand_pd(d, rng)))
    g0, g1 = rc.arrow.groups
    assert not big[np.ix_(g0, g1)].any() and not big[np.ix_(g1, g0)].any()
    dense = big.copy()
    sdp_mod._symmetrize(dense)
    blocked, full = sdp_mod._make_solver(big, rc.arrow), \
        sdp_mod._make_solver(dense)
    for r in rng.normal(size=(3, rc.m)):
        want = full(r)
        assert np.linalg.norm(blocked(r) - want) \
            <= 1e-10 * np.linalg.norm(want)
    calls, arrow_solver = [], sdp_mod._arrow_solver
    monkeypatch.setattr(sdp_mod, "_arrow_solver",
                        lambda *a: calls.append(1) or arrow_solver(*a))
    sol = solve(prob)
    monkeypatch.setattr(sdp_mod, "_ARROW_CALL", math.inf)
    ref = solve(prob)
    assert len(calls) == sol.iterations - 1
    for s in (sol, ref):
        assert s.status is SdpStatus.OPTIMAL and s.gap_target == 1e-8
    assert abs(sol.iterations - ref.iterations) <= 1
    assert sol.dual_value == pytest.approx(ref.dual_value, abs=1e-8)


def test_arrow_factor_failure_falls_back_to_the_dense_ladder():
    """A group tile that is not positive definite (rank 1) fails the
    block-arrow Cholesky: the whole matrix is then averaged in place and
    takes the jittered dense Cholesky, which still solves a consistent
    system."""
    rng = np.random.default_rng(31)
    arrow = sdp_mod._Arrow([np.array([0, 2, 5]), np.array([1, 4])],
                           np.array([3, 6]))
    order = np.concatenate(arrow.groups + [arrow.border])
    # L lower triangular in arrow order, zero between the groups, with a
    # rank-1 diagonal block for the first group
    low = np.tril(rng.normal(size=(7, 7))) + 3 * np.eye(7)
    low[3:5, :3] = 0.0
    low[:3, :3] = np.outer(rng.normal(size=3), [1.0, 0.0, 0.0])
    big = np.empty((7, 7))
    big[np.ix_(order, order)] = low @ low.T
    want = big.copy()
    big[0, 2] += 1e-13             # the triangles differ, as assembled
    assert sdp_mod._arrow_solver(big, arrow) is None
    solver = sdp_mod._make_solver(big, arrow)
    assert np.array_equal(big, big.T)
    assert big[0, 2] == big[2, 0] == pytest.approx(want[0, 2], abs=1e-12)
    r = want @ rng.normal(size=7)
    assert np.linalg.norm(want @ solver(r) - r) <= 1e-8 * np.linalg.norm(r)
