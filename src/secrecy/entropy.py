"""One-shot conditional entropies of bipartite states, by semidefinite program.

All logarithms are base 2.  For a (possibly subnormalized) state rho on A x B:

* ``h_min``   -- conditional min-entropy
                 H_min(A|B) = -log2 min{ tr(sigma) : 1_A (x) sigma >= rho_AB }.
* ``h_max``   -- conditional max-entropy, via the purification identity
                 H_max(A|B)_rho = -H_min(A|C)_psi for any purification psi on
                 A x B x C.
* ``h_min_smooth`` / ``h_max_smooth`` -- smoothed variants, where the
  optimization runs over all subnormalized states rho' within purified
  distance eps of rho (equivalently, generalized fidelity >= sqrt(1-eps^2)).
* ``aep_bounds`` -- explicit finite-n two-sided estimates for the smoothed
  entropies of n-fold product states, anchored at n*S(A|B).

Smoothing program layout (`_smooth_program`, one joint SDP, solved as one
LMI).  The state rho arrives as blocks R_lam with trace weights t_lam, the
conditioner as maps L_mu with objective weights w_mu.  ``h_min_smooth`` and
``h_max_smooth`` pass the one block rho, t = w = 1 and L(sigma) = 1_A (x)
sigma; the tensor-power functions of `secrecy.symmetry` pass one block per
irrep of S_n.  The exact program (`_hmin_program`) is the same without rho'.

    variables   S_mu    Hermitian          (the conditioner certificates)
                T_lam   Hermitian          (the smoothed state rho', per block)
                X_lam   complex r x r      (fidelity certificate, per block)
                y       real scalar        (only for subnormalized input)
    per block   [dom]   sum_mu L_mu(S_mu)_lam - T_lam          >= 0
                [fid]   [[R_lam, X_lam], [X_lam^dag, T_lam]]   >= 0
                [psd]   T_lam                                  >= 0
    then        [cap]   1 - sum_lam t_lam tr T_lam             >= 0
                [req]   sum_lam t_lam Re tr X_lam (+ y) - sqrt(1-eps^2) >= 0
                [gen]   [[1 - tr rho, y], [y, 1 - tr rho']]    >= 0  (y only)
    objective   minimize sum_mu w_mu tr S_mu;  value = -log2(optimum).

Variables come in the order S..., T..., X..., y, and each block brings
[dom], [fid], [psd] in turn.  A block where rho has no weight has no T_lam
or X_lam and keeps [dom] alone, on the S terms: T_lam = 0 is optimal there,
since it only spends trace and tightens [dom].

The [fid] block makes Re tr X a lower bound on the root fidelity
F(rho, rho') = ||sqrt(rho) sqrt(rho')||_1, with equality attainable, and the
[gen] block extends it to the generalized fidelity
F(rho, rho') + sqrt((1 - tr rho)(1 - tr rho')) for subnormalized input.
The fidelity of block-diagonal operators is the t-weighted sum of blockwise
fidelities.  Positivity of sigma follows from [dom] (partial trace over A of
the ordering).

Fidelity blocks are written on the support of R_lam: with R_lam = V R V^dag
(R positive definite on the rank-r support, V an isometry),
F(R_lam, Q) = F(R, V^dag Q V) exactly, so [fid] shrinks to size 2r and -- the
point -- its fixed diagonal corner R is full rank, which keeps the program
strictly feasible even for pure or otherwise rank-deficient input states.
The compressed corner sees only V^dag T_lam V, so positivity of T_lam needs
[psd]; a full-rank block places R_lam and T_lam directly instead, and [fid]
then implies T_lam >= 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quantum import (DensityOperator, ValidationError, conditional_entropy,
                      purify)
from .sdp import LmiBuilder, LmiSolution, SdpError, VarRef, herm_basis

__all__ = [
    "EntropyQuery",
    "h_min",
    "h_max",
    "h_min_smooth",
    "h_max_smooth",
    "aep_bounds",
]

#: Below this smoothing parameter the ball degenerates to {rho} and the
#: smoothed programs fall back to their exact counterparts (the fidelity
#: constraint would otherwise pin the optimum to the boundary F = 1, which
#: has no interior point for the solver to traverse).
_EPS_COLLAPSE = 1e-9

_EIG_CUTOFF = 1e-12

#: Relative eigenvalue cutoff deciding the numerical support of a state in
#: the fidelity-block compression.  Well above eigh noise on true zeros
#: (~1e-15) and far below any genuine eigenvalue met in practice; dropped
#: mass m perturbs a fidelity by at most sqrt(m).
_RANK_CUTOFF = 1e-13


@dataclass(frozen=True)
class EntropyQuery:
    """A conditional-entropy question: which state, which split, how smooth.

    ``a_sys`` and ``b_sys`` list disjoint subsystem indices of the state; every
    other subsystem is traced out before the entropy is evaluated.  ``eps`` is
    the smoothing radius in purified distance (ignored by the exact
    operations, which require it to be zero).
    """

    state: DensityOperator
    a_sys: tuple[int, ...]
    b_sys: tuple[int, ...]
    eps: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a_sys", tuple(int(i) for i in self.a_sys))
        object.__setattr__(self, "b_sys", tuple(int(i) for i in self.b_sys))
        n = len(self.state.dims)
        seen = set()
        for idx in self.a_sys + self.b_sys:
            if not 0 <= idx < n:
                raise ValidationError(f"subsystem index {idx} out of range")
            if idx in seen:
                raise ValidationError(f"subsystem index {idx} repeated")
            seen.add(idx)
        if not self.a_sys:
            raise ValidationError("the A side of the split is empty")
        if not 0.0 <= self.eps < 1.0:
            raise ValidationError("smoothing parameter must lie in [0, 1)")

    def reduced(self) -> tuple[np.ndarray, int, int]:
        """Trace out everything outside the split; return (rho_AB, d_A, d_B)."""
        red = self.state.partial_trace(list(self.a_sys) + list(self.b_sys))
        da = int(np.prod([self.state.dims[i] for i in self.a_sys]))
        db = int(np.prod([self.state.dims[i] for i in self.b_sys], dtype=int)) \
            if self.b_sys else 1
        return red.mat, da, db


def _require_exact(query: EntropyQuery, name: str) -> None:
    if query.eps != 0.0:
        raise ValidationError(
            f"{name} is the unsmoothed entropy; use the _smooth variant "
            f"for eps > 0")


def _solved(program) -> LmiSolution:
    """Solve once; raise unless the program reached optimality.

    A run that stalls returns its iterate at a fallback gap target of at
    most 1e-6 (recorded as ``sol.sdp.gap_target``), an order below every
    tolerance asserted on entropy values downstream.
    """
    sol = program.solve()
    if sol.value is None:
        raise SdpError(f"entropy SDP did not reach optimality: "
                       f"{sol.sdp.status.value} ({sol.sdp.message})")
    return sol


def _lifted_basis(da: int, db: int) -> np.ndarray:
    """herm_basis(db) lifted to 1_{da} (x) E_k."""
    return np.kron(np.eye(da), herm_basis(db))


def _trace_row(var: VarRef, coeff: float):
    """(params, 1 x 1 images) placing coeff * Re tr(var) in a scalar entry."""
    params, weights = zip(*var.trace_real_coeffs())
    return list(params), coeff * np.array(weights)[:, None, None]


def _place_corner(bld: LmiBuilder, blk: int, var: VarRef,
                  vee: np.ndarray) -> None:
    """Place V^dag H V, for the Hermitian variable H, at diagonal offset r
    (the fidelity corner beside an r x r support block), d basis images at
    a time so the stack stays at d^3 entries."""
    d, r = vee.shape
    vh = vee.conj().T
    for k0 in range(0, d * d, d):
        ks = np.arange(k0, k0 + d)
        bld.add_param_term(blk, var.params[ks], vh @ herm_basis(d, ks) @ vee,
                           at=(r, r))


def _support_factors(blocks: Sequence[np.ndarray]):
    """Support decompositions B = V R V^dag, R diagonal positive definite,
    of blocks with one eigenvalue floor, relative to their largest
    eigenvalue; a block without weight gets r = 0."""
    eigs = [np.linalg.eigh((b + b.conj().T) / 2) for b in blocks]
    top = max(float(vals[-1]) for vals, _ in eigs)
    floor = _RANK_CUTOFF * max(top, _RANK_CUTOFF)
    out = [(np.diag(vals[vals > floor]).astype(complex), vecs[:, vals > floor])
           for vals, vecs in eigs]
    if not any(len(big) for big, _ in out):
        raise ValidationError("state has numerically empty support")
    return out


# ---------------------------------------------------------------------------
# Min-entropy programs
# ---------------------------------------------------------------------------

def _hmin_program(rblocks: Sequence[np.ndarray],
                  stacks: Sequence[Sequence[np.ndarray]],
                  weights: Sequence[float]):
    """min sum_mu w_mu tr S_mu  s.t.  sum_mu L_mu(S_mu)_lam >= R_lam per block.

    stacks[mu][lam] holds the images in block lam of the herm_basis
    parameters of S_mu.  h_min is the one-block case L(S) = 1_A (x) S; the
    tensor-power program has one block per irrep of S_n.
    """
    bld = LmiBuilder()
    svars = [bld.herm_var(f"S_{mu}", math.isqrt(len(st[0])))
             for mu, st in enumerate(stacks)]
    for lam, rblock in enumerate(rblocks):
        blk = bld.new_block(rblock.shape[0])
        bld.add_const(blk, -rblock)
        for var, st in zip(svars, stacks):
            bld.add_param_term(blk, var.params, st[lam])
    bld.minimize([(p, float(w) * c) for var, w in zip(svars, weights)
                  for p, c in var.trace_real_coeffs()])
    return bld.build()


def _smooth_program(rblocks: Sequence[np.ndarray],
                    stacks: Sequence[Sequence[np.ndarray]],
                    sweights: Sequence[float], tweights: Sequence[float],
                    eps: float):
    """_hmin_program with R smoothed: the same objective over rho' = (T_lam)
    within purified distance eps of rho = (R_lam), with T_lam in place of
    R_lam in each block; traces and fidelities weight block lam by
    tweights[lam].  See the module docstring for the layout."""
    factors = _support_factors(rblocks)
    mass = sum(w * float(np.trace(rb).real)
               for w, rb in zip(tweights, rblocks))
    ranks = [len(big) for big, _ in factors]
    live = [lam for lam, r in enumerate(ranks) if r]

    bld = LmiBuilder()
    svars = [bld.herm_var(f"S_{mu}", math.isqrt(len(st[0])))
             for mu, st in enumerate(stacks)]
    tvars = {lam: bld.herm_var(f"T_{lam}", rblocks[lam].shape[0])
             for lam in live}
    xvars = {lam: bld.cplx_var(f"X_{lam}", ranks[lam], ranks[lam])
             for lam in live}
    for lam, rblock in enumerate(rblocks):
        d = rblock.shape[0]
        dom = bld.new_block(d)
        for var, st in zip(svars, stacks):
            bld.add_param_term(dom, var.params, st[lam])
        if lam not in tvars:
            continue
        t = tvars[lam]
        bld.add_herm(dom, t, coeff=-1.0)
        big, vee = factors[lam]
        r = ranks[lam]
        fid = bld.new_block(2 * r)
        bld.add_cplx(fid, xvars[lam], at=(0, r))
        if r == d:
            bld.add_const(fid, rblock)
            bld.add_herm(fid, t, at=r)
        else:
            bld.add_const(fid, big)
            _place_corner(bld, fid, t, vee)
            psd = bld.new_block(d)
            bld.add_herm(psd, t)

    cap = bld.new_block(1)
    bld.add_const(cap, np.array([[1.0]]))
    for lam, t in tvars.items():
        bld.add_param_term(cap, *_trace_row(t, -tweights[lam]))

    req = bld.new_block(1)
    bld.add_const(req, np.array([[-math.sqrt(max(0.0, 1.0 - eps * eps))]]))
    for lam, x in xvars.items():
        bld.add_param_term(req, *_trace_row(x, tweights[lam]))

    if mass < 1.0 - 1e-12:
        y = bld.real_var("y_gen")
        bld.add_scalar(req, y, np.array([[1.0]]))
        gen = bld.new_block(2)
        bld.add_const(gen, np.array([[1.0 - mass, 0.0], [0.0, 1.0]]))
        bld.add_scalar(gen, y, np.array([[0.0, 1.0], [1.0, 0.0]]))
        for lam, t in tvars.items():
            bld.add_param_term(gen, *_trace_row(t, -tweights[lam]),
                               at=(1, 1))

    bld.minimize([(p, float(w) * c) for var, w in zip(svars, sweights)
                  for p, c in var.trace_real_coeffs()])
    return bld.build()


def _hmin_blocks(rblocks: Sequence[np.ndarray],
                 stacks: Sequence[Sequence[np.ndarray]],
                 sweights: Sequence[float], tweights: Sequence[float],
                 eps: float) -> float:
    """-log2 of the optimum of the exact program, or of the smoothing
    program once eps reaches _EPS_COLLAPSE."""
    if eps < _EPS_COLLAPSE:
        program = _hmin_program(rblocks, stacks, sweights)
    else:
        program = _smooth_program(rblocks, stacks, sweights, tweights, eps)
    sol = _solved(program)
    if sol.value <= 0:
        raise SdpError("nonpositive conditioner mass in min-entropy SDP")
    return -math.log2(sol.value)


def _hmin_generic(rho: np.ndarray, da: int, db: int, eps: float) -> float:
    """H_min^eps(A|B) of rho on A x B: the one-block programs."""
    return _hmin_blocks([rho], [[_lifted_basis(da, db)]], [1], [1], eps)


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------

def h_min(query: EntropyQuery) -> float:
    """Conditional min-entropy H_min(A|B) of the queried split."""
    _require_exact(query, "h_min")
    rho, da, db = query.reduced()
    return _hmin_generic(rho, da, db, 0.0)


def h_max(query: EntropyQuery) -> float:
    """Conditional max-entropy H_max(A|B), computed through a purification."""
    _require_exact(query, "h_max")
    rho, da, db = query.reduced()
    return _hmax_by_duality(rho, da, db, 0.0)


def _hmax_by_duality(rho: np.ndarray, da: int, db: int, eps: float) -> float:
    """-H_min^eps(A|C) on the A,C marginal of a purification of rho_AB."""
    psi = purify(DensityOperator(rho, (da, db), validate=False))
    rho_ac = psi.partial_trace([0, 2])
    return -_hmin_generic(rho_ac.mat, da, rho_ac.dims[1], eps)


def h_min_smooth(query: EntropyQuery) -> float:
    """Smoothed min-entropy: best H_min(A|B) within purified distance eps."""
    rho, da, db = query.reduced()
    return _hmin_generic(rho, da, db, query.eps)


def h_max_smooth(query: EntropyQuery) -> float:
    """Smoothed max-entropy, as -H_min^eps(A|C) through a purification."""
    rho, da, db = query.reduced()
    return _hmax_by_duality(rho, da, db, query.eps)


# ---------------------------------------------------------------------------
# Finite-n product-state estimates
# ---------------------------------------------------------------------------

def _support_floor(marginal: DensityOperator) -> float:
    """-log2 of the smallest nonzero eigenvalue (generalized-inverse norm)."""
    eigs = marginal.eigvals()
    support = eigs[eigs > _EIG_CUTOFF]
    return -math.log2(float(support.min()))


def _check_block_length(n: int) -> None:
    """A block length is a positive integer; numpy integers count."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValidationError(
            f"block length n must be a positive integer, got {n!r}")


def aep_bounds(state: DensityOperator, a_sys: Sequence[int],
               b_sys: Sequence[int], n: int, eps: float) -> tuple[float, float]:
    """Finite-n bounds on the smoothed entropies of the n-fold product.

    Returns ``(lo, hi)`` with
    H_min^eps(A^n|B^n) >= lo = n*S(A|B) - (mu_B + mu_C) * sqrt(n ln(2/eps))
    and H_max^eps(A^n|B^n) <= hi, the mirror-image value above n*S(A|B).
    mu_B and mu_C are spectral floors of the marginals of a purification
    psi on A x B x C, finite on their supports.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError("aep_bounds needs eps strictly inside (0, 1)")
    _check_block_length(n)
    query = EntropyQuery(state, tuple(a_sys), tuple(b_sys))
    rho, da, db = query.reduced()
    rho_do = DensityOperator(rho, (da, db), validate=False)
    if abs(rho_do.trace() - 1.0) > 1e-9:
        raise ValidationError("finite-n estimates need a normalized state")
    s_cond = conditional_entropy(rho_do, [0], [1])
    psi = purify(rho_do)
    mu_b = _support_floor(psi.partial_trace([1]))
    mu_c = _support_floor(psi.partial_trace([2]))
    width = (mu_b + mu_c) * math.sqrt(n * math.log(2.0 / eps))
    return n * s_cond - width, n * s_cond + width
