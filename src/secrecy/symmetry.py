"""Permutation-symmetric compression for tensor-power entropy programs.

The smoothing programs for H_min^eps(A^n|B^n) on an n-fold product state
rho^(x)n are invariant under simultaneously permuting the n copies: averaging
any feasible point over the permutation group preserves feasibility (the
domination constraint conjugates covariantly, fidelity is jointly concave,
traces are unchanged) without changing the objective, so an optimal solution
exists among invariant ones.  An invariant operator decomposes into one
Hermitian block per irreducible representation of S_n, with sizes given by
the multiplicity spaces -- e.g. 64-dimensional operators on ((C^4))^(x)3
shrink to blocks of sizes 20, 20 and 4.

``SymmetricBlocks`` carries the compression data for the diagonal action on
(C^d)^(x)n, for any n >= 2, read off the Jucys-Murphy elements
X_k = sum_{i<k} (i k) (Okounkov & Vershik, Selecta Math. 2, 1996).  They
commute, and their joint eigenvalues are the content vectors of standard
Young tableaux: one eigendecomposition of sum_k (2n)^k X_k separates them,
since every content is an integer in (-n, n).  The joint eigenspace of a
tableau T is one copy of the multiplicity space of its shape; an orthonormal
basis W_T of it extracts the block M = W_T^dag A W_T of an invariant A.
Young's orthogonal form reaches every other tableau of the shape through
adjacent transpositions s_i with axial distance r = c_{i+1} - c_i, |r| >= 2:
  W_{s_i T} = (U_{s_i} W_T - W_T / r) / sqrt(1 - 1/r^2),
and these isometries reconstruct A = sum_T W_T M W_T^dag.  Traces weight
each block by the number of tableaux, the irrep dimension.

``h_min_smooth_power`` / ``h_max_smooth_power`` evaluate the smoothed
entropies of rho^(x)n for n <= 4 through these blocks: the interior point
holds its Schur complement as one m x m matrix, of which it fills and
factors the irrep tiles and a border, and n = 5 on qubit pairs would have
m = 15,504 constraints.  They hand the compressed blocks of rho^(x)n, the
compressed images of each sigma irrep's parameters (`_conditioner_maps`)
and the irrep dimensions as weights to the one exact or smoothing program of
`secrecy.entropy`, which is written blockwise: every matrix constraint
splits into per-irrep blocks, fidelity is handled on the support of each
compressed block, and an irrep where rho^(x)n has no weight keeps only its
[dom] block, on sigma alone.
"""

from __future__ import annotations

import math

import numpy as np

from .quantum import DensityOperator, ValidationError, purify, tensor
from .sdp import herm_basis
from .entropy import (EntropyQuery, _check_block_length, _hmin_blocks,
                      h_max_smooth, h_min_smooth)

__all__ = ["SymmetricBlocks", "h_min_smooth_power", "h_max_smooth_power"]

# The interior point holds the Schur complement as one m x m matrix, filled
# only in its irrep tiles and border: n = 5 on qubit pairs gives m = 15,504
# constraints, a 1.9 GB matrix.
_MAX_COPIES = 4


def _perm_unitary(d: int, n: int, perm: tuple[int, ...]) -> np.ndarray:
    """Unitary sending the vector in tensor slot k to slot perm[k]."""
    size = d ** n
    # row digit perm[k] of each column is its digit k
    axes = [*np.argsort(perm), n]
    return np.eye(size).reshape([d] * n + [size]).transpose(axes) \
        .reshape(size, size)


def _shape(contents: tuple[int, ...]) -> tuple[int, ...]:
    """Partition of the standard tableau with these contents: box k ends the
    row r whose next content, len(row r) - r, equals contents[k]."""
    rows: list[int] = []
    for c in contents:
        r = next((r for r, length in enumerate(rows + [0])
                  if length - r == c), None)
        if r is None:
            raise ValidationError(f"{contents} is no tableau's content vector")
        if r == len(rows):
            rows.append(0)
        rows[r] += 1
    return tuple(rows)


class SymmetricBlocks:
    """Isotypic block structure of the diagonal S_n action on (C^d)^(x)n."""

    def __init__(self, d: int, n: int):
        if n < 2:
            raise ValidationError(f"block compression needs n >= 2, got {n}")
        self.d, self.n = d, n
        self.full_dim = d ** n
        swap = {(i, k): _perm_unitary(d, n, tuple({i: k, k: i}.get(j, j)
                                                  for j in range(n)))
                for k in range(n) for i in range(k)}
        jm = [sum(swap[i, k] for i in range(k)) for k in range(1, n)]
        _, vecs = np.linalg.eigh(sum((2 * n) ** k * x
                                     for k, x in enumerate(jm)))
        contents = np.array([np.einsum("ij,ij->j", vecs, x @ vecs)
                             for x in jm])
        rounded = np.rint(contents)
        if np.max(np.abs(contents - rounded)) > 1e-8:
            raise ValidationError("Jucys-Murphy contents are not integers")
        spaces: dict[tuple[int, ...], list[np.ndarray]] = {}
        for c, v in zip(rounded.T.astype(int).tolist(), vecs.T):
            spaces.setdefault((0, *c), []).append(v)
        shapes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for c in spaces:
            shapes.setdefault(_shape(c), []).append(c)
        self.irreps: list[dict] = []
        for shape in sorted(shapes, reverse=True):
            start = max(shapes[shape])       # the row-by-row tableau
            bases = {start: np.array(spaces[start]).T}
            walk = [start]
            for c in walk:                   # grows while it is walked
                for i in range(n - 1):
                    r = c[i + 1] - c[i]
                    t = c[:i] + (c[i + 1], c[i]) + c[i + 2:]
                    if abs(r) >= 2 and t not in bases:
                        bases[t] = (swap[i, i + 1] @ bases[c] - bases[c] / r) \
                            / math.sqrt(1.0 - 1.0 / r ** 2)
                        walk.append(t)
            w = bases[start]
            self.irreps.append({"name": shape, "dim": len(bases),
                                "mult": w.shape[1], "w": w,
                                "isoms": list(bases.values())})
        if sum(ir["dim"] * ir["mult"] for ir in self.irreps) != self.full_dim:
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


def _check_copies(n: int) -> None:
    _check_block_length(n)
    if n > _MAX_COPIES:
        raise ValidationError(f"tensor-power entropies support n <= "
                              f"{_MAX_COPIES}, got {n}")


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
    _check_copies(n)
    if not 0.0 <= eps < 1.0:
        raise ValidationError("smoothing parameter must lie in [0, 1)")
    if n == 1:
        return h_min_smooth(EntropyQuery(state, (0,), (1,), eps))
    sab, sb = SymmetricBlocks(da * db, n), SymmetricBlocks(db, n)
    return _hmin_blocks(sab.compress(tensor(*[state.mat] * n)),
                        _conditioner_maps(sab, sb, da, db, n), sb.weights,
                        sab.weights, eps)


def h_max_smooth_power(state: DensityOperator, n: int, eps: float) -> float:
    """H_max^eps(A^n|B^n) on the n-fold product, as -H_min^eps(A^n|C^n)."""
    _check_bipartite_normalized(state)
    _check_copies(n)
    if n == 1:
        return h_max_smooth(EntropyQuery(state, (0,), (1,), eps))
    psi = purify(state)
    rho_ac = psi.partial_trace([0, 2])
    return -h_min_smooth_power(
        DensityOperator(rho_ac.mat, rho_ac.dims, validate=False),
        n, eps)
