"""Permutation-symmetric compression for tensor-power entropy programs.

The smoothing programs for H_min^eps(A^n|B^n) on an n-fold product state
rho^(x)n are invariant under simultaneously permuting the n copies: averaging
any feasible point over the permutation group preserves feasibility (the
domination constraint conjugates covariantly, fidelity is jointly concave,
traces are unchanged) without changing the objective, so an optimal solution
exists among invariant ones.  An invariant operator decomposes into one
Hermitian block per irreducible representation of S_n, with sizes given by
the multiplicity spaces -- e.g. 64-dimensional operators on ((C^4))^(x)3
shrink to blocks of sizes 20, 4 and 20.

``SymmetricBlocks`` carries the compression data for the diagonal action on
(C^d)^(x)n, built numerically from the group algebra's matrix units: for each
irrep with representation matrices D(pi) (real orthogonal here), the operator
  p = (dim_irrep / n!) * sum_pi D(pi)[0,0] U_pi
is a Hermitian idempotent whose range is one copy of the multiplicity space;
an orthonormal basis W of that range extracts the block M = W^dag T W of an
invariant T, and the partial isometries C_k = e_k1 W (with e_k1 the matrix
units moving row 1 to row k) reconstruct T = sum_k C_k M C_k^dag.  Traces
weight each block by the irrep dimension.

``h_min_smooth_power`` / ``h_max_smooth_power`` evaluate the smoothed
entropies of rho^(x)n for n <= 3 through these blocks.  They hand the
compressed blocks of rho^(x)n, the compressed images of each sigma irrep's
parameters (`_conditioner_maps`) and the irrep dimensions as weights to the
one exact or smoothing program of `secrecy.entropy`, which is written
blockwise: every matrix constraint splits into per-irrep blocks, fidelity is
handled on the support of each compressed block, and an irrep where
rho^(x)n has no weight keeps only its [dom] block, on sigma alone.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .quantum import DensityOperator, ValidationError, purify
from .sdp import herm_basis
from .entropy import EntropyQuery, _hmin_blocks, h_max_smooth, h_min_smooth

__all__ = ["SymmetricBlocks", "h_min_smooth_power", "h_max_smooth_power"]

_MAX_COPIES = 3


def _perm_unitary(d: int, n: int, perm: tuple[int, ...]) -> np.ndarray:
    """Unitary sending the vector in tensor slot k to slot perm[k]."""
    dims = [d] * n
    size = d ** n
    cols = np.arange(size)
    digits = np.array(np.unravel_index(cols, dims))       # digits[k] of input
    out_digits = np.empty_like(digits)
    for k in range(n):
        out_digits[perm[k]] = digits[k]
    rows = np.ravel_multi_index(list(out_digits), dims)
    mat = np.zeros((size, size))
    mat[rows, cols] = 1.0
    return mat


def _irreps(n: int):
    """(name, dimension, {perm: real orthogonal matrix}) for S_n, n <= 3."""
    perms = list(itertools.permutations(range(n)))
    if n == 2:
        return [("sym", 1, {p: np.array([[1.0]]) for p in perms}),
                ("anti", 1, {p: np.array([[_sign(p)]]) for p in perms})]
    if n == 3:
        f = np.array([[1 / math.sqrt(2), 1 / math.sqrt(6)],
                      [-1 / math.sqrt(2), 1 / math.sqrt(6)],
                      [0.0, -2 / math.sqrt(6)]])
        std = {}
        for p in perms:
            p3 = np.zeros((3, 3))
            for k in range(3):
                p3[p[k], k] = 1.0
            std[p] = f.T @ p3 @ f
        return [("sym", 1, {p: np.array([[1.0]]) for p in perms}),
                ("anti", 1, {p: np.array([[_sign(p)]]) for p in perms}),
                ("mixed", 2, std)]
    raise ValidationError(f"no irrep table for n={n}")


def _sign(perm: tuple[int, ...]) -> float:
    sgn, seen = 1.0, set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sgn = -sgn
    return sgn


class SymmetricBlocks:
    """Isotypic block structure of the diagonal S_n action on (C^d)^(x)n."""

    def __init__(self, d: int, n: int):
        if not 2 <= n <= _MAX_COPIES:
            raise ValidationError(f"block compression supports 2 <= n <= "
                                  f"{_MAX_COPIES}, got {n}")
        self.d, self.n = d, n
        self.full_dim = d ** n
        perms = list(itertools.permutations(range(n)))
        order = len(perms)
        us = {p: _perm_unitary(d, n, p) for p in perms}
        self.irreps: list[dict] = []
        covered = 0
        for name, dlam, dmap in _irreps(n):
            unit = sum((dlam / order) * dmap[p][0, 0] * us[p] for p in perms)
            if np.linalg.norm(unit @ unit - unit) > 1e-10 \
                    or np.linalg.norm(unit - unit.T.conj()) > 1e-10:
                raise ValidationError("matrix-unit construction failed")
            mult = int(round(np.trace(unit).real))
            covered += dlam * mult
            if mult == 0:
                continue
            vals, vecs = np.linalg.eigh(unit)
            w = vecs[:, vals > 0.5]
            isoms = []
            for k in range(dlam):
                ek1 = sum((dlam / order) * dmap[p][k, 0] * us[p]
                          for p in perms)
                isoms.append(ek1 @ w)
            self.irreps.append({"name": name, "dim": dlam, "mult": mult,
                                "w": w, "isoms": isoms})
        if covered != self.full_dim:
            raise ValidationError("isotypic dimensions do not add up")

    @property
    def weights(self) -> list[int]:
        return [ir["dim"] for ir in self.irreps]

    def compress(self, full: np.ndarray) -> list[np.ndarray]:
        """Blocks of an invariant operator (one per stored irrep); a stack
        of operators gives a stack of blocks per irrep."""
        return [ir["w"].conj().T @ full @ ir["w"] for ir in self.irreps]

    def reconstruct(self, blocks: list[np.ndarray]) -> np.ndarray:
        full = np.zeros((self.full_dim, self.full_dim), dtype=complex)
        for ir, blk in zip(self.irreps, blocks):
            for c in ir["isoms"]:
                full += c @ blk @ c.conj().T
        return full


def _interleave_conditioner(sig: np.ndarray, da: int, db: int,
                            n: int) -> np.ndarray:
    """Lift a stack of sigma on B^n to 1_{A^n} (x) sigma in per-copy (AB)^n
    ordering."""
    big = np.kron(np.eye(da ** n), sig)
    dims = [da] * n + [db] * n
    order = [k for pair in ((i, n + i) for i in range(n)) for k in pair]
    axes = [0] + [1 + k for k in order] + [1 + 2 * n + k for k in order]
    size = (da * db) ** n
    return big.reshape([len(sig)] + dims + dims).transpose(axes) \
        .reshape(len(sig), size, size)


def _power_matrix(rho: np.ndarray, n: int) -> np.ndarray:
    out = rho
    for _ in range(n - 1):
        out = np.kron(out, rho)
    return out


def _check_bipartite_normalized(state: DensityOperator) -> tuple[int, int]:
    if len(state.dims) != 2:
        raise ValidationError("tensor-power entropies need a two-part state; "
                              "group subsystems into (A, B) first")
    if abs(state.trace() - 1.0) > 1e-9:
        raise ValidationError("tensor-power entropies need a normalized state")
    return state.dims[0], state.dims[1]


def _conditioner_maps(sab: SymmetricBlocks, sb: SymmetricBlocks,
                      da: int, db: int, n: int) -> list[list[np.ndarray]]:
    """Per sigma irrep mu: the herm_basis stack of its block parameters,
    lifted to 1_{A^n} (x) sigma and compressed into every AB irrep block
    (out[mu][lam] has shape (mult_mu^2, mult_lam, mult_lam))."""
    out = []
    for ir in sb.irreps:
        basis = herm_basis(ir["mult"])
        full = np.zeros((len(basis), sb.full_dim, sb.full_dim), dtype=complex)
        for c in ir["isoms"]:
            full += c @ basis @ c.conj().T
        out.append(sab.compress(_interleave_conditioner(full, da, db, n)))
    return out


def h_min_smooth_power(state: DensityOperator, n: int, eps: float) -> float:
    """H_min^eps(A^n|B^n) on the n-fold product of a bipartite state."""
    da, db = _check_bipartite_normalized(state)
    if not 0.0 <= eps < 1.0:
        raise ValidationError("smoothing parameter must lie in [0, 1)")
    if n == 1:
        return h_min_smooth(EntropyQuery(state, (0,), (1,), eps))
    sab, sb = SymmetricBlocks(da * db, n), SymmetricBlocks(db, n)
    return _hmin_blocks(sab.compress(_power_matrix(state.mat, n)),
                        _conditioner_maps(sab, sb, da, db, n), sb.weights,
                        sab.weights, eps)


def h_max_smooth_power(state: DensityOperator, n: int, eps: float) -> float:
    """H_max^eps(A^n|B^n) on the n-fold product, as -H_min^eps(A^n|C^n)."""
    da, db = _check_bipartite_normalized(state)
    if n == 1:
        return h_max_smooth(EntropyQuery(state, (0,), (1,), eps))
    psi = purify(state)
    rho_ac = psi.partial_trace([0, 2])
    return -h_min_smooth_power(
        DensityOperator(rho_ac.mat, rho_ac.dims, validate=False),
        n, eps)
