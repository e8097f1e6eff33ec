"""Solver unit tests: closed-form values, duality, certificates, rejection."""

import numpy as np
import pytest
from scipy.optimize import linprog

from oracles import positive_part_trace, rand_herm, strictly_feasible_sdp
from secrecy.sdp import (
    LmiBuilder, SdpError, SdpProblem, SdpStatus, SdpTolerances,
    check_feasibility, solve,
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
    embedded = [np.concatenate([np.block([[-m.real, m.imag], [-m.imag, -m.real]])
                                .ravel() for m in row]) for row in ref]
    assert np.array_equal(got.A.toarray(), np.array(embedded))

    a = got.A.copy()
    row_scale, _, _ = got.scale()
    norms = [max(float(np.linalg.norm(a.data[a.indptr[i]:a.indptr[i + 1]])),
                 1e-12) for i in range(a.shape[0])]
    assert np.array_equal(row_scale, norms)
    assert np.array_equal(got.A.toarray(),
                          a.toarray() * (1.0 / row_scale)[:, None])


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
