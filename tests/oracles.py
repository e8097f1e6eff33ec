"""Shared test fixtures: constructive SDP instances and small closed forms.

The strictly feasible SDP generator builds an instance *from* a known
interior primal/dual pair, so feasibility (and strong duality) is guaranteed
by construction rather than by trusting the solver under test.
"""

import math

import numpy as np

from secrecy.entropy import (EntropyQuery, _lifted_basis, _solved,
                             _support_factors, _trace_row, h_max)
from secrecy.sdp import LmiBuilder, SdpProblem


def rand_herm(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + g.conj().T)


def rand_pd(d: int, rng: np.random.Generator, floor: float = 0.3) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g @ g.conj().T + floor * np.eye(d)


def strictly_feasible_sdp(rng: np.random.Generator,
                          block_dims=(3, 2), m: int = 4) -> SdpProblem:
    """Random SDP with strictly feasible primal AND dual built constructively.

    Primal witness: random PD blocks X0 with b := A(X0).
    Dual witness: random y0 and PD slack S0 with C := sum y0_i A_i + S0.
    Both problems then have interior points, so strong duality holds and the
    solver must close the gap.
    """
    block_dims = list(block_dims)
    x0 = [rand_pd(d, rng) for d in block_dims]
    s0 = [rand_pd(d, rng) for d in block_dims]
    y0 = rng.normal(size=m)
    rows = []
    for _ in range(m):
        rows.append({j: rand_herm(d, rng) for j, d in enumerate(block_dims)})
    c_blocks = []
    for j, d in enumerate(block_dims):
        acc = s0[j].copy()
        for i in range(m):
            acc += y0[i] * rows[i][j]
        c_blocks.append(acc)
    prob = SdpProblem(block_dims, c_blocks)
    for i in range(m):
        rhs = sum(float(np.real(np.trace(rows[i][j] @ x0[j])))
                  for j in range(len(block_dims)))
        prob.add_constraint(rows[i], rhs)
    return prob


def positive_part_trace(a: np.ndarray) -> float:
    """Closed form for min tr X s.t. X >= A, X >= 0: sum of positive eigenvalues."""
    vals = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return float(np.sum(vals[vals > 0]))


def hmax_direct(query: EntropyQuery) -> float:
    """H_max(A|B) = max 2 log2 F(rho, 1 (x) sigma) over tr sigma <= 1, by
    the direct fidelity program on rho's support: a path independent of the
    purification identity `h_max` takes."""
    rho, da, db = query.reduced()
    big, vee = _support_factors([rho])[0]
    r = big.shape[0]
    bld = LmiBuilder()
    x = bld.cplx_var("x", r, r)
    sig = bld.herm_var("sigma", db)
    blk = bld.new_block(2 * r)
    bld.add_const(blk, big)
    bld.add_cplx(blk, x, at=(0, r))
    bld.add_param_term(blk, sig.params,
                       vee.conj().T @ (_lifted_basis(da, db) @ vee), at=(r, r))
    # The compressed corner sees only V^dag (1 (x) sigma) V, so positivity
    # of sigma itself is a separate requirement (without it, signed parts
    # invisible to the compression could cheat the trace cap).
    spos = bld.new_block(db)
    bld.add_herm(spos, sig)
    cap = bld.new_block(1)
    bld.add_const(cap, np.array([[1.0]]))
    bld.add_param_term(cap, *_trace_row(sig, -1.0))
    bld.minimize([(p, -w) for p, w in x.trace_real_coeffs()])
    froot = -_solved(bld.build()).value
    assert froot > 0, f"nonpositive fidelity optimum {froot}"
    return 2.0 * math.log2(froot)


def hmax_cross_checked(query: EntropyQuery) -> float:
    """h_max(query), once it agrees with `hmax_direct` to 1e-5."""
    value = h_max(query)
    direct = hmax_direct(query)
    assert abs(direct - value) <= 1e-5, \
        f"max-entropy paths disagree: duality {value:.8f} vs direct {direct:.8f}"
    return value
