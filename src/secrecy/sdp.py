"""Dense interior-point solver for small complex Hermitian semidefinite programs.

Primal standard form over Hermitian PSD blocks X = (X_1, ..., X_k):

    minimize    sum_j <C_j, X_j>
    subject to  sum_j <A_ij, X_j> = b_i   (i = 1..m),   X_j >= 0,

with <A, B> = tr(A B) (real for Hermitian pairs).  The dual is

    maximize    b^T y
    subject to  sum_i y_i A_ij + S_j = C_j,   S_j >= 0.

The blocks are solved as they are, complex Hermitian, by a homogeneous
self-dual Mehrotra predictor-corrector method with Nesterov-Todd scaling
(as Tutuncu, Toh & Todd, Math. Program. 95 (2003), run it on Hermitian
data, with conjugate transposes).  The compiled constraint matrix is one
complex CSR whose row i is conj(vec A_i), so Re(A x)_i = <A_i, X> and
conj(A^T y) = vec(sum_i y_i A_i); inner products of blocks are Re vdot.
Infeasibility is reported through Farkas-type certificates extracted from
the homogeneous iterate.

The cone is held by block size, as SDPT3 splits a program into "s" blocks
and one "l" block: the blocks of each size d >= 2 form one (k, d, d) stack
(each matrix keeps its own eigenvalue floor), and the 1x1 blocks one
nonnegative vector, the linear cone, scaled by w = sqrt(x/s), lam =
sqrt(x s), stepped by a ratio test with no eigensolver and entered in the
Schur complement as one product A_l diag(w^2) A_l^T.  Each step of an
iteration runs once per size class, in the per-block order of operations,
so iterates are those of a loop over blocks, bit for bit, except where the
cone's Schur share meets another block's out of block order.

Real data runs in real arithmetic over its real rows; results keep their
types.  A program is real when C is real, each row is all real or all
imaginary, and b = 0 on every imaginary row (exact tests, `_real_rows`).
Its imaginary rows decouple and their duals are zero by conjugation
symmetry, so the same interior-point loop runs in float64 on the real rows
alone; `solve` scatters y back with zeros on the imaginary rows, returns
complex-typed blocks and verifies them against every original row.

The Schur complement H_ik = Re tr(A_i W A_k W) is assembled per block along
one of two paths, chosen once per solve from the compiled rows by a cost
rule on the block size d and the block's active rows, unit rows and
nonzeros (`_index_rows`; no setting).  Unit rows, whose Hermitian part is
a multiple of one `herm_basis` element, read their entries between each
other off the real d^2 x d^2 matrix K of X -> W X W (on a real block, its
d(d+1)/2-square quarter over the diagonal and real-part coordinates),
built from the entries of W alone (the index formulas of Fujisawa, Kojima
& Nakata, Math. Program. 79 (1997)) as one scaled gather.  Every other row
takes the F1 product W A_k W against every active row.  A column computed
once is written as a column and as a row, a block writes through slices
where its rows run, and both triangles are kept and averaged in place.
Everything is dense and deterministic: fixed starting point, fixed
iteration schedule, no randomization.

The Schur matrix is factored whole, or as a block arrow when that costs
fewer flops (the block-angular algebra of Gondzio & Grothey, Comput. Manag.
Sci. 6 (2009)).  `scale` reads the layout off the row pattern alone, the
blocks each row touches (`_row_groups`): patterns by descending row count
join the group whose blocks they touch, and one that touches a 1x1 block,
or the blocks of two groups that already hold rows, goes to the border.
Rows of two groups share no block, so H is exactly zero between them; on
the symmetric programs the groups are the irreps.  Each iteration factors
each group's tile, forms Z = L^-1 H_gb against the border, and factors the
border's complement H_bb - sum Z^T Z.  It reads one triangle of each tile,
so nothing is averaged and the tiles between groups are never read; when
any factor fails, the whole matrix is averaged and takes the dense ladder.
The layout is kept when its flops plus a per-tile call cost (`_ARROW_CALL`;
no setting) undercut the dense Cholesky (`_arrow_layout`).  One group with a border costs the
dense flops exactly, so a generic program stays dense, bit for bit.

Each program is solved once.  A run keeps the first iterate meeting each
fallback gap target (1e-7, 1e-6) looser than the requested gap, with both
residuals at most max(feas, target); if it stalls short of the requested gap
without a certificate, it returns the tightest kept iterate as OPTIMAL;
`SdpSolution.gap_target` records the gap the returned solution met,
`iterations` the iterations run and the message the returned iterate's
iteration.  Solver settings are fixed: only `solve` and `check_feasibility`
take `SdpTolerances`.

Every constraint is stored as (row, block, r, c, value) triplets.  Rows
arrive one at a time through `SdpProblem.add_constraint`, or all at once from
the LMI layer (`LmiBuilder`), which phrases problems as

    minimize c^T y  subject to  F_0 + sum_k y_k F_k >= 0  (blockwise)

(the form of the smooth-entropy, fidelity and decoder programs elsewhere in
this package).  The builder records each placement as triplets tagged by
parameter; `build` maps them onto the standard form above (A_k = -F_k,
b_k = -c_k, C = F_0) and validates all rows in one vectorised pass.
`compile` writes the triplets into that complex matrix in one pass.

A linear image of a Hermitian variable is placed as one stack: `herm_basis`
gives the unit contribution of each real parameter of a d x d Hermitian
matrix, in `VarRef.param` order, the caller maps that (k, d, d) stack by
batched matrix products, and `LmiBuilder.add_param_term` places image k for
parameter k in one call.  `herm_equality_rows` states a Hermitian matrix
equality X = T as real equality rows over the same basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lapack
import scipy.sparse as sp


class SdpError(ValueError):
    """Malformed problem data (non-Hermitian matrices, bad dimensions...)."""


class SdpStatus(Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass
class SdpTolerances:
    """Stopping tolerances for the interior-point loop."""

    gap: float = 1e-8          # relative duality gap
    feas: float = 1e-8         # relative primal/dual residuals
    max_iter: int = 200


#: Quality required of an infeasibility certificate, in the loop and once
#: the loop has ended without a verdict.
_CERT_QUALITY, _LATE_CERT_QUALITY = 1e-9, 1e-7
#: Fallback gap targets of a stalled run, tightest first (module docstring).
_FALLBACK_GAPS = (1e-7, 1e-6)
#: Iterations a run goes on for after keeping its tightest fallback iterate.
_FALLBACK_PATIENCE = 12


class SdpProblem:
    """Primal-standard-form SDP with complex Hermitian blocks.

    block_dims lists one PSD block dimension per variable block; the
    objective is given per block, and each equality constraint is a mapping
    from block index to a Hermitian matrix (blocks omitted from the mapping
    count as zero) together with a real right-hand side.
    """

    def __init__(self, block_dims: Sequence[int],
                 c_blocks: Sequence[np.ndarray] | None = None):
        self.block_dims = [int(d) for d in block_dims]
        if any(d <= 0 for d in self.block_dims):
            raise SdpError("block dimensions must be positive")
        if c_blocks is None:
            c_blocks = [np.zeros((d, d), dtype=complex) for d in self.block_dims]
        self.c_blocks = [np.array(c, dtype=complex) for c in c_blocks]
        if len(self.c_blocks) != len(self.block_dims):
            raise SdpError("one objective block per variable block required")
        for d, c in zip(self.block_dims, self.c_blocks):
            if c.shape != (d, d):
                raise SdpError("objective block shape mismatch")
            if not np.isfinite(c).all():
                raise SdpError("objective block is not finite")
            if np.max(np.abs(c - c.conj().T)) > 1e-8:
                raise SdpError("objective block is not Hermitian")
        # (row, block, r, c, value) arrays, one tuple per batch of rows
        self._triplets: list[tuple[np.ndarray, ...]] = []
        self._rhs: list[float] = []

    @property
    def num_constraints(self) -> int:
        return len(self._rhs)

    def add_constraint(self, blocks: dict[int, object], rhs: float) -> None:
        """Add  sum_j <blocks[j], X_j> = rhs."""
        if not blocks:
            raise SdpError("constraint touches no block")
        parts = []
        for j, mat in blocks.items():
            j = int(j)
            if j < 0 or j >= len(self.block_dims):
                raise SdpError(f"constraint references unknown block {j}")
            mat = np.asarray(mat, dtype=complex)
            r, c = np.nonzero(mat)
            v = mat[r, c]
            if mat.shape != (self.block_dims[j],) * 2:
                raise SdpError("constraint block shape mismatch")
            parts.append((np.full(len(v), j), r, c, v))
        blk, r, c, v = (np.concatenate(a) for a in zip(*parts))
        self._add_rows(np.zeros(len(v), dtype=int), blk, r, c, v, [rhs])

    def _add_rows(self, row, blk, r, c, val, rhs) -> None:
        """Validate rows of triplets and store them.

        `row` counts from 0 within the batch and `rhs` holds one entry per
        row.  Repeated (row, block, r, c) entries are summed in the order
        given; every row must be finite, Hermitian in each block and not all
        zero.
        """
        rhs = np.asarray(rhs, dtype=complex)
        if not (np.isfinite(val).all() and np.isfinite(rhs).all()):
            raise SdpError("constraint data is not finite")
        nb = len(self.block_dims)
        bad = (blk < 0) | (blk >= nb)
        if bad.any():
            raise SdpError(f"constraint references unknown block {blk[bad][0]}")
        d = np.asarray(self.block_dims)[blk]
        if ((r < 0) | (r >= d) | (c < 0) | (c >= d)).any():
            raise SdpError("constraint block shape mismatch")
        n = max(self.block_dims, default=1)
        key, inv = np.unique(((row * nb + blk) * n + r) * n + c,
                             return_inverse=True)
        val_sum = np.zeros(len(key), dtype=complex)
        np.add.at(val_sum, inv, val)
        row, blk = key // (nb * n * n), key // (n * n) % nb
        r, c = key // n % n, key % n
        # each entry against the conjugate of its mirror (r, c) -> (c, r)
        mirror_key = key + (c - r) * (n - 1)
        pos = np.minimum(np.searchsorted(key, mirror_key), len(key) - 1)
        mirror = np.where(key[pos] == mirror_key, val_sum[pos], 0.0)
        if (np.abs(val_sum - mirror.conj()) > 1e-8).any():
            raise SdpError("constraint block is not Hermitian")
        live = val_sum != 0
        if (np.bincount(row[live], minlength=len(rhs)) == 0).any():
            raise SdpError("constraint matrix is identically zero")
        if (np.abs(rhs.imag) > 1e-10).any():
            raise SdpError("right-hand side must be real")
        self._triplets.append((row[live] + len(self._rhs), blk[live], r[live],
                               c[live], val_sum[live]))
        self._rhs.extend(rhs.real.tolist())

    def compile(self) -> "_Conic":
        """The constraint rows as one complex CSR, row i = conj(vec A_i)."""
        if not self._rhs:
            raise SdpError("problem has no constraints")
        dims = list(self.block_dims)
        offs = np.concatenate([[0], np.cumsum([d * d for d in dims])])
        c_vec = np.concatenate([cb.reshape(-1) for cb in self.c_blocks])
        row, blk, r, c, v = (np.concatenate(a) for a in zip(*self._triplets))
        cols = offs[blk] + r * np.asarray(dims)[blk] + c
        a = sp.coo_matrix((v.conj(), (row, cols)),
                          shape=(len(self._rhs), int(offs[-1]))).tocsr()
        return _Conic(dims, list(offs), c_vec, a, np.array(self._rhs))


@dataclass
class SdpSolution:
    status: SdpStatus
    primal_value: float | None = None
    dual_value: float | None = None
    gap: float | None = None
    iterations: int = 0                # iterations run
    primal_blocks: list[np.ndarray] | None = None
    dual_y: np.ndarray | None = None
    dual_slack_blocks: list[np.ndarray] | None = None
    primal_residual: float | None = None
    dual_residual: float | None = None
    min_eig_primal: float | None = None
    min_eig_slack: float | None = None
    certificate: dict | None = None
    message: str = ""
    gap_target: float | None = None    # the relative gap the result met


# ---------------------------------------------------------------------------
# Hermitian conic core
# ---------------------------------------------------------------------------

class _Conic:
    """Compiled Hermitian problem; `scale` adds the size classes and the
    Schur-assembly views."""

    def __init__(self, dims, offs, c_vec, a, b):
        self.dims = dims
        self.offs = offs
        self.c_vec = c_vec
        self.A, self.AT = a, a.T   # the transpose shares A's arrays
        self.b = b
        self.m = len(b)

    def scale(self) -> tuple[np.ndarray, float, float]:
        """Pre-scale in place and lay out the size classes and views.

        Rows of A and b are divided by the row norms of A, then b and c by
        their norms (when above 1); returns (row norms, b scale, c scale).
        """
        a = self.A
        lens = np.diff(a.indptr)
        # Re.Re + Im.Im per row, as np.linalg.norm takes it (on the strided
        # real and imaginary views), batched by row length
        sq = np.zeros(self.m)
        for k in np.unique(lens):
            rows = np.flatnonzero(lens == k)
            seg = a.data[a.indptr[rows, None] + np.arange(k)]
            re, im = seg.real, seg.imag
            sq[rows] = (re[:, None, :] @ re[:, :, None]
                        + im[:, None, :] @ im[:, :, None]).ravel()
        row_scale = np.maximum(np.sqrt(sq), 1e-12)
        # the scaled rows are stored in descending column order: it sets the
        # summation order of every A x in the interior-point loop, and so the
        # last bits of every reported value
        rev = np.repeat(a.indptr[:-1] + a.indptr[1:] - 1, lens) \
            - np.arange(a.nnz)
        self.A = sp.csr_matrix((a.data[rev] * np.repeat(1.0 / row_scale, lens),
                                a.indices[rev], a.indptr.copy()), shape=a.shape)
        self.AT = self.A.T
        b_s = self.b / row_scale
        sb = max(1.0, float(np.linalg.norm(b_s)))
        sc = max(1.0, float(np.linalg.norm(self.c_vec)))
        self.b = b_s / sb
        self.c_vec = self.c_vec / sc
        # size classes, ascending (the linear cone first): their positions
        # in the full vector, and each block's (class, index)
        dims = np.asarray(self.dims)
        sizes = np.unique(dims)
        self.classes, pos = [], np.zeros(len(dims), dtype=int)
        for d in sizes:
            js = np.flatnonzero(dims == d)
            pos[js] = np.arange(len(js))
            self.classes.append((int(d), np.asarray(self.offs)[js, None]
                                 + np.arange(d * d)))
        self.where = list(zip(np.searchsorted(sizes, dims).tolist(),
                              pos.tolist()))
        # one pass over the entries, by block in stored order: a Schur view
        # per block of size d >= 2, dense columns for the linear cone
        row = np.repeat(np.arange(self.m), lens)
        blk = np.repeat(np.arange(len(dims)), dims * dims)[self.A.indices]
        self.arrow = _arrow_layout(row, blk, dims, self.m)
        order = np.argsort(blk, kind="stable")
        cuts = np.searchsorted(blk[order], np.arange(len(dims) + 1))
        parts = [order[cuts[j]:cuts[j + 1]] for j in range(len(dims))]
        self.schur = [_schur_block(row[e], self.A.indices[e] - self.offs[j],
                                   self.A.data[e], int(dims[j]), self.where[j])
                      for j, e in enumerate(parts) if dims[j] > 1]
        self.lin = None
        if sizes[0] == 1:
            e = np.flatnonzero(dims[blk] == 1)
            act, rows = np.unique(row[e], return_inverse=True)
            al = np.zeros((len(act), len(self.classes[0][1])), self.A.dtype)
            al[rows, pos[blk[e]]] = self.A.data[e]
            self.lin = (al, _ix(act, act))
        return row_scale, sb, sc

    def op(self, x: np.ndarray) -> np.ndarray:
        """(<A_i, X>)_i."""
        return (self.A @ x).real

    def adj(self, y: np.ndarray) -> np.ndarray:
        """vec(sum_i y_i A_i)."""
        return (self.AT @ y).conj()

    def vec(self, blocks: list[np.ndarray]) -> np.ndarray:
        return np.concatenate([bl.reshape(-1) for bl in blocks])

    def unvec(self, v: np.ndarray) -> list[np.ndarray]:
        return [v[self.offs[j]:self.offs[j + 1]].reshape(d, d)
                for j, d in enumerate(self.dims)]

    def stacks(self, v: np.ndarray) -> list[np.ndarray]:
        """The size-class (k, d, d) stacks of a full vector (after `scale`)."""
        return [v[idx].reshape(-1, d, d) for d, idx in self.classes]

    def flat(self, stacks: list[np.ndarray]) -> np.ndarray:
        """The full vector of size-class stacks."""
        out = np.empty(self.offs[-1], dtype=np.result_type(*stacks))
        for (_, idx), st in zip(self.classes, stacks):
            out[idx] = st.reshape(idx.shape)
        return out


def _ct(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _ct(m))


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Re <u, v>: tr(U V) for Hermitian blocks."""
    return float(np.vdot(u, v).real)


def _eigh_floor(mat: np.ndarray):
    """eigh of a stack, each matrix's eigenvalues floored at 1e-14 of its
    largest and at 1e-300."""
    vals, vecs = np.linalg.eigh(mat)
    return np.maximum(vals, np.maximum(1e-14 * vals[..., -1:], 1e-300)), vecs


@dataclass
class _Scal:
    """NT scaling of one size class, as (k, d, d) stacks (lv: (k, d))."""
    W: np.ndarray
    R: np.ndarray
    Ri: np.ndarray
    lam: np.ndarray
    lv: np.ndarray
    lQ: np.ndarray


def _nt_block(x: np.ndarray, s: np.ndarray) -> _Scal:
    """NT scaling of a size class; on the linear cone w = sqrt(x/s) and
    lam = sqrt(x s), evaluated as the 1x1 case of the matrix formulas, in
    their order of operations (a 1x1 eigh gives the entry and 1)."""
    if x.shape[-1] == 1:
        x, s = x.real, s.real
        s_half = np.sqrt(np.maximum(s, 1e-300))
        s_mh = 1.0 / s_half
        w = s_mh * np.sqrt(np.maximum(s_half * x * s_half, 1e-300)) * s_mh
        r = np.sqrt(np.maximum(w, 1e-300))
        lam = 0.5 * ((1.0 / r) * x * (1.0 / r) + r * s * r)
        return _Scal(w, r, 1.0 / r, lam, np.maximum(lam, 1e-300)[..., 0],
                     np.ones_like(lam))
    sv, sq = _eigh_floor(s)
    sqh = _ct(sq)
    s_half = (sq * np.sqrt(sv)[..., None, :]) @ sqh
    s_mh = (sq / np.sqrt(sv)[..., None, :]) @ sqh
    t = _herm(s_half @ x @ s_half)
    tv, tq = _eigh_floor(t)
    t_half = (tq * np.sqrt(tv)[..., None, :]) @ _ct(tq)
    w = _herm(s_mh @ t_half @ s_mh)
    wv, wq = _eigh_floor(w)
    wqh = _ct(wq)
    r = (wq * np.sqrt(wv)[..., None, :]) @ wqh
    ri = (wq / np.sqrt(wv)[..., None, :]) @ wqh
    lam = _herm(0.5 * (ri @ x @ ri + r @ s @ r))
    lv, lq = _eigh_floor(lam)
    return _Scal(w, r, ri, lam, lv, lq)


def _lyap(scal: _Scal, t: np.ndarray) -> np.ndarray:
    """Solve lam o U = T (o = symmetrized product) in lam's eigenbasis."""
    qh = _ct(scal.lQ)
    tt = qh @ t @ scal.lQ
    u = 2.0 * tt / (scal.lv[..., :, None] + scal.lv[..., None, :])
    return scal.lQ @ u @ qh


def _alpha_psd(scal: _Scal, dt: np.ndarray) -> float:
    """Largest alpha with lam + alpha*dt >= 0 for every dt of a class's
    (..., k, d, d) stack (in scaled space); a ratio test on the 1x1 class."""
    rs = 1.0 / np.sqrt(scal.lv)
    if dt.shape[-1] == 1:
        emin = float(np.min(dt.real[..., 0] * rs * rs))
    else:
        a = _ct(scal.lQ) @ dt @ scal.lQ
        emin = float(np.linalg.eigvalsh(
            _herm(a * rs[..., :, None] * rs[..., None, :]))[..., 0].min())
    return math.inf if emin >= -1e-16 else 1.0 / (-emin)


_SCHUR_CHUNK = 1_500_000  # complex entries per assembly chunk
#: Costs of the assembly rule (`_index_rows`), in complex multiply-adds of
#: the F1 product: one entry of K, building K at all, one gathered entry
_K_ENTRY, _K_FIXED, _GATHER = 12.0, 1e5, 2.5
#: Cost of the factorization rule (`_arrow_layout`), in flops of the
#: Cholesky: the calls of one tile of a block-arrow factorization (its
#: gathers, factor, triangular solves and their dispatch), about 50 us at a
#: single-thread dpotrf's 20 Gflop/s.  On a 2-vCPU VM a 166-row program
#: with groups of 105 and 31 rows and a 30-row border (0.58 of the dense
#: flops) factored and solved three times in 0.24 ms blocked, 0.20 ms dense
_ARROW_CALL = 1e6


def _run(idx: np.ndarray):
    """idx as a slice when it is one increasing run of consecutive indices."""
    if len(idx) and np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx))):
        return slice(int(idx[0]), int(idx[0]) + len(idx))
    return idx


def _ix(rows: np.ndarray, cols: np.ndarray):
    """Index of the rows x cols submatrix: slices where the indices run."""
    r, c = _run(rows), _run(cols)
    if isinstance(r, slice) or isinstance(c, slice):
        return r, c
    return np.ix_(r, c)


def _wxw(w: np.ndarray) -> np.ndarray:
    """K[p, q] = <B_p, W B_q W> over the `herm_basis` B_p of size d, from the
    entries of W alone: with B_p = a_p E_rs + conj(a_p) E_sr (a = 1/2 on the
    diagonal, 1 and i for the pair of r < s), K[p, q] = 2 Re(a_p a_q Z1 +
    a_p conj(a_q) Z2), Z1 = W_{s r'} W_{s' r} and Z2 = W_{s s'} W_{r' r}
    for the positions (r, s) of p and (r', s') of q.  A real W gives the
    d(d+1)/2-square quarter of K on the diagonal and real-part coordinates,
    in that order (`_schur_block`)."""
    d = w.shape[0]
    i, j = np.triu_indices(d, 1)            # positions in herm_basis order
    r = np.concatenate([np.arange(d), i])
    s = np.concatenate([np.arange(d), j])
    # doubling is exact (2 Z1, 2 Z2); the operand order of each product sets
    # the last bits of K, and so of every reported value
    w2, wt = w + w, w.T
    z1 = w2.T.take(r, 0).take(s, 1)
    z1 *= w.take(s, 0).take(r, 1)
    z2 = w2.take(s, 0).take(s, 1)
    z2 *= wt.take(r, 0).take(r, 1)
    zs = z1 + z2
    if not np.iscomplexobj(zs):
        zs[:d, :d] *= 0.25
        zs[:d, d:] *= 0.5
        zs[d:, :d] *= 0.5
        return zs
    z2 -= z1
    k = np.empty((d * d, d * d))
    k[:d, :d] = 0.25 * zs.real[:d, :d]
    k[:d, d::2] = 0.5 * zs.real[:d, d:]
    k[:d, d + 1::2] = 0.5 * z2.imag[:d, d:]
    k[d::2, :d] = 0.5 * zs.real[d:, :d]
    k[d + 1::2, :d] = -0.5 * zs.imag[d:, :d]
    k[d::2, d::2] = zs.real[d:, d:]
    k[d::2, d + 1::2] = z2.imag[d:, d:]
    np.negative(zs.imag[d:, d:], out=k[d + 1::2, d::2])
    k[d + 1::2, d + 1::2] = z2.real[d:, d:]
    return k


def _index_rows(q: np.ndarray, d: int, nnz: int) -> np.ndarray:
    """The assembly rule of one block: which active rows take the index
    formulas, from q, each row's count of Hermitian-basis coordinates, and
    nnz, the block's nonzeros.  A dense row costs its F1 product W A_k W
    and one dot with every active row; a unit row (q = 1) costs its
    gathered row of K.  The block gathers its unit rows when the F1 work
    they save pays for building K."""
    unit = q == 1
    n = unit.sum()
    if n * (d ** 3 + nnz) <= (_K_FIXED + _K_ENTRY * d ** 4
                              + _GATHER * len(q) * n):
        unit[:] = False
    return unit


@dataclass
class _SchurBlock:
    """One block's share of the Schur complement (`_schur`).

    `gather` holds (K index, row weights, column weights, Schur index) for
    the unit rows that take the index formulas; `chunks` holds (stacked
    A_k, column index, mirror index) per chunk of the other rows, each
    taking the F1 product, and `index_rows` picks the gathered rows out of
    such a column; W is scals[at[0]].W[at[1]]."""

    acol: sp.csr_matrix
    gather: tuple | None
    index_rows: object
    chunks: list
    at: tuple


def _schur_block(row, col, data, d: int, at: tuple) -> _SchurBlock:
    """Split the active rows of one block's entries (rows conj(vec A_i))
    by `_index_rows`, and lay out both paths; `at` locates its W."""
    act, rows = np.unique(row, return_inverse=True)
    n = len(act)
    # entries by row, then by column: the CSR layout of acol and atall
    o = np.lexsort((col, rows))
    rows, col, data = rows[o], col[o], data[o]
    acol = _csr(data, col, rows, n, d * d)
    index = np.zeros(n, dtype=bool)
    gather = None
    # real coordinates of the Hermitian part of each A_i over herm_basis
    # (the diagonal, then Re and Im of each entry above it; a real block
    # keeps the diagonal and Re, the compact K of `_wxw`), unless building
    # K costs more than the F1 product of every row
    if n * (d ** 3 + len(data)) > _K_FIXED + _K_ENTRY * d ** 4:
        r, c = np.divmod(col, d)
        lo, hi = np.minimum(r, c), np.maximum(r, c)
        pair = 2 if np.iscomplexobj(data) else 1
        pos = np.where(lo == hi, lo, d + pair * (lo * d - lo * (lo + 1) // 2
                                                 + hi - lo - 1))
        a = data.conj()                    # the entries A_i[r, c]
        off = lo != hi
        im = off & (a.imag != 0)
        coords = sp.csr_matrix(
            (np.concatenate([np.where(off, 0.5, 1.0) * a.real,
                             (0.5 * np.sign(c - r) * a.imag)[im]]),
             (np.concatenate([rows, rows[im]]),
              np.concatenate([pos, pos[im] + 1]))),
            shape=(n, d + pair * (d * (d - 1) // 2)))
        coords.eliminate_zeros()
        q = np.diff(coords.indptr)
        index = _index_rows(q, d, len(data))
    idx, dense = np.flatnonzero(index), np.flatnonzero(~index)
    if len(idx):
        p = coords.indices[coords.indptr[idx]]
        x = coords.data[coords.indptr[idx]]
        gather = (_ix(p, p), x[:, None], x, _ix(act[idx], act[idx]))
    # the dense rows' stacked A_k, (n_dense * d, d), cut into chunks
    pick = np.full(n, -1)
    pick[dense] = np.arange(len(dense))
    keep = pick[rows] >= 0
    atall = _csr(data[keep].conj(), col[keep] % d,
                 pick[rows[keep]] * d + col[keep] // d, len(dense) * d, d)
    rows_per = max(1, _SCHUR_CHUNK // (d * d))
    chunks = []
    for c0 in range(0, len(dense), rows_per):
        c1 = min(c0 + rows_per, len(dense))
        cols = act[dense[c0:c1]]
        chunks.append((atall if c1 - c0 == len(dense) else atall[c0 * d:c1 * d],
                       _ix(act, cols),
                       _ix(cols, act[idx]) if len(idx) else None))
    return _SchurBlock(acol, gather, _run(idx), chunks, at)


@dataclass
class _Arrow:
    """A block-arrow layout of the Schur matrix (`_arrow_layout`): the rows
    of each group, between which H is zero, and those of the border."""

    groups: list[np.ndarray]
    border: np.ndarray


def _row_groups(row: np.ndarray, blk: np.ndarray, dims: np.ndarray,
                m: int) -> np.ndarray:
    """Each row's group, -1 on the border, from the row pattern alone: the
    blocks each row touches (entries (row, blk)).

    Patterns are taken by descending row count.  One that touches a 1x1
    block, or blocks of two groups that already hold rows, goes to the
    border; any other joins its blocks to the group it touches, or opens
    one.  Two groups share no block, so H is zero between them."""
    inc = np.zeros((m, len(dims)), dtype=bool)
    inc[row, blk] = True
    pats, inv, count = np.unique(inc, axis=0, return_inverse=True,
                                 return_counts=True)
    label = np.full(len(dims), -1)          # each block's group
    group = np.full(len(pats), -1)          # each pattern's
    for p in np.argsort(-count, kind="stable"):
        js = np.flatnonzero(pats[p])
        held = np.unique(label[js])
        held = held[held >= 0]
        if len(held) < 2 and (dims[js] > 1).all():
            group[p] = label[js] = held[0] if len(held) else group.max() + 1
    return group[inv.reshape(-1)]


def _arrow_layout(row: np.ndarray, blk: np.ndarray, dims: np.ndarray,
                  m: int) -> _Arrow | None:
    """The block-arrow layout of `_row_groups`, or None to factor H dense.
    It is kept when its flops and `_ARROW_CALL` per group and for the
    border cost less than the dense Cholesky: one group with a border takes
    the dense flops exactly, so a program needs two groups to leave the
    dense path."""
    if m ** 3 / 3 <= 3 * _ARROW_CALL:      # the least two groups can cost
        return None
    of_row = _row_groups(row, blk, dims, m)
    sizes = np.bincount(of_row[of_row >= 0])
    n, nb = sizes.astype(float), float(m - sizes.sum())
    cost = float(np.sum(n ** 3 / 3 + n * n * nb + n * nb * nb)) \
        + nb ** 3 / 3 + _ARROW_CALL * (len(n) + 1)
    if cost >= m ** 3 / 3:
        return None
    return _Arrow([np.flatnonzero(of_row == g) for g in range(len(n))],
                  np.flatnonzero(of_row < 0))


def _csr(data, cols, rows, n: int, width: int) -> sp.csr_matrix:
    """The n x width CSR of entries sorted by row, then by column."""
    ptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_matrix((data, cols, ptr), shape=(n, width))


def _schur(rc: _Conic, scals: list[_Scal]) -> np.ndarray:
    """H_ik = Re tr(A_i W A_k W): each block of size >= 2 along the paths
    `_schur_block` laid out (module docstring), then the linear cone's
    A_l (W A_l W)^T; both triangles are kept and averaged in place, except
    on a blocked layout, whose factorization reads one of them."""
    big = np.zeros((rc.m, rc.m))
    for blk in rc.schur:
        c, p = blk.at
        w = scals[c].W[p]
        d = w.shape[0]
        if blk.gather is not None:
            kix, xl, xr, ix = blk.gather
            term = _wxw(w)[kix] * xl
            term *= xr
            big[ix] += term
        for ta, cols, mirror in blk.chunks:
            nc = ta.shape[0] // d
            t1 = ta @ w                                    # stacked A_k W
            # laid out (a, c, k): the product is G^T, (d*d, nc), C-ordered
            t2 = w @ t1.reshape(nc, d, d).transpose(1, 2, 0).reshape(d, d * nc)
            contrib = (blk.acol @ t2.reshape(d * d, nc)).real   # (n_act, nc)
            big[cols] += contrib
            if mirror is not None:
                big[mirror] += contrib[blk.index_rows].T
    if rc.lin is not None:     # the linear cone is class 0
        al, ix = rc.lin
        w = scals[0].W.reshape(-1)
        big[ix] += (al @ (w * (al.conj() * w)).T).real
    if rc.arrow is None:
        _symmetrize(big)
    return big


def _symmetrize(big: np.ndarray) -> None:
    """big <- (big + big^T) / 2 in place, 128 rows at a time."""
    m = big.shape[0]
    for i in range(0, m, 128):
        j = min(i + 128, m)
        avg = 0.5 * (big[i:j, i:] + big[i:, i:j].T)
        big[i:j, i:] = avg
        big[i:, i:j] = avg.T


def _w_apply(rc: _Conic, scals: list[_Scal], v: np.ndarray) -> np.ndarray:
    """vec(W V W), one stacked product per size class."""
    return rc.flat([sc.W @ st @ sc.W for sc, st in zip(scals, rc.stacks(v))])


def _make_solver(big: np.ndarray, arrow: _Arrow | None = None
                 ) -> Callable[[np.ndarray], np.ndarray]:
    """A solver of big x = r: the block-arrow Cholesky on a blocked layout,
    whose big arrives with its triangles not averaged (`_schur`); else, or
    when one of its factors fails, the dense Cholesky up a jitter ladder,
    and eigh last."""
    if arrow is not None:
        solve = _arrow_solver(big, arrow)
        if solve is not None:
            return solve
        _symmetrize(big)
    tr = float(np.trace(big)) / max(1, big.shape[0])
    for jitter in (0.0, 1e-13 * tr, 1e-10 * tr, 1e-7 * tr):
        shifted = big + jitter * np.eye(big.shape[0]) if jitter else big
        chol, info = lapack.dpotrf(shifted, lower=1, clean=0)
        if info == 0:
            return lambda r: lapack.dpotrs(chol, r, lower=1)[0]
    vals, vecs = np.linalg.eigh(big)
    inv = np.where(vals > 1e-14 * max(vals[-1], 1e-300), 1.0 / vals, 0.0)
    return lambda r: vecs @ (inv * (vecs.T @ r))


def _arrow_solver(big: np.ndarray, arrow: _Arrow
                  ) -> Callable[[np.ndarray], np.ndarray] | None:
    """Block-arrow Cholesky: L_g L_g^T = H_gg and Z_g = L_g^-1 H_gb per
    group g, and L_b L_b^T = H_bb - sum_g Z_g^T Z_g on the border b; None
    when one of them fails.  It gathers each group's rows once and reads
    one triangle of each diagonal tile, with H_gb from the group's rows, so
    no entry is averaged and the tiles between groups are never read."""
    b = arrow.border
    hbb, parts = big.take(b, 0).take(b, 1), []
    for g in arrow.groups:
        rows = big.take(g, 0)
        chol, info = lapack.dpotrf(rows.take(g, 1), lower=1, clean=0)
        if info:
            return None
        z = lapack.dtrtrs(chol, rows.take(b, 1), lower=1)[0]
        hbb -= z.T @ z
        parts.append((g, chol, z))
    cb, info = lapack.dpotrf(hbb, lower=1, clean=0)
    if info:
        return None

    def solve(r):
        us = [lapack.dtrtrs(chol, r[g], lower=1)[0] for g, chol, _ in parts]
        xb = r[b] - sum(z.T @ u for (_, _, z), u in zip(parts, us))
        if len(b):                  # LAPACK rejects an empty border
            xb = lapack.dpotrs(cb, xb, lower=1)[0]
        x = np.empty_like(r)
        x[b] = xb
        for (g, chol, z), u in zip(parts, us):
            x[g] = lapack.dtrtrs(chol, u - z @ xb, lower=1, trans=1)[0]
        return x
    return solve


@dataclass
class _RawResult:
    status: SdpStatus
    x: list[np.ndarray]
    y: np.ndarray
    s: list[np.ndarray]
    tau: float
    kappa: float
    iterations: int
    message: str
    gap_target: float | None


def _step(scals: list[_Scal], dxs, dss, tau, kap, dtau, dkap,
          cap: float, damp: float):
    """Step length min(1, damp * alpha), alpha <= cap the largest step that
    keeps X, S, tau and kappa in their cones; also returns the directions
    in the scaled space, as size-class stacks."""
    dxt = [_herm(sc.Ri @ dx @ sc.Ri) for sc, dx in zip(scals, dxs)]
    dst = [_herm(sc.R @ ds @ sc.R) for sc, ds in zip(scals, dss)]
    alpha = min([cap] + [_alpha_psd(sc, np.stack([t, u]))
                         for sc, t, u in zip(scals, dxt, dst)])
    if dtau < 0:
        alpha = min(alpha, -tau / dtau)
    if dkap < 0:
        alpha = min(alpha, -kap / dkap)
    return min(1.0, damp * alpha), dxt, dst


def _ipm(rc: _Conic, tol: SdpTolerances, descale: tuple) -> _RawResult:
    """The interior-point loop on a scaled `_Conic`, over size classes."""
    nu = float(sum(rc.dims))
    xs = [np.broadcast_to(np.eye(d, dtype=rc.c_vec.dtype), (len(idx), d, d))
          .copy() for d, idx in rc.classes]
    ss = [st.copy() for st in xs]
    y = np.zeros(rc.m)
    tau, kap = 1.0, 1.0
    c, b = rc.c_vec, rc.b
    # convergence is judged on the original (un-scaled) data magnitudes
    row_scale, scale_b, scale_c, normb, normc = descale
    status, msg = None, ""
    it = 0
    stall = 0
    rungs = [g for g in _FALLBACK_GAPS if g > tol.gap]
    kept = {}   # rung -> first iterate meeting it: (x, y, s, tau, kappa, it)

    def try_certificates(quality: float) -> SdpStatus | None:
        by = float(b @ y)
        if by > 1e-12:
            z = -rc.adj(y / by)
            scale = max(1.0, float(np.max(np.abs(z))))
            emin = min(float(np.linalg.eigvalsh(_herm(zc))[:, 0].min())
                       for zc in rc.stacks(z))
            if emin >= -quality * scale:
                return SdpStatus.PRIMAL_INFEASIBLE
        x = rc.flat(xs)
        cx = _dot(c, x)
        if cx < -1e-12:
            wv = x / (-cx)
            if float(np.max(np.abs(rc.op(wv)))) <= quality * max(1.0, float(np.max(np.abs(wv)))):
                return SdpStatus.DUAL_INFEASIBLE
        return None

    for it in range(1, tol.max_iter + 1):
        x = rc.flat(xs)
        s = rc.flat(ss)
        ax, aty = rc.op(x), rc.adj(y)
        mu = (_dot(x, s) + tau * kap) / (nu + 1.0)

        # de-homogenized optimality test, in original data units
        if tau > 1e-10:
            obj = scale_b * scale_c
            pv = _dot(c, x) / tau * obj
            dv = float(b @ y) / tau * obj
            pres = scale_b * float(np.linalg.norm(
                (ax / tau - b) * row_scale)) / normb
            dres = scale_c * float(np.linalg.norm(
                c - aty / tau - s / tau)) / normc
            gap = abs(pv - dv) / (1.0 + abs(pv) + abs(dv))
            if pres <= tol.feas and dres <= tol.feas and gap <= tol.gap:
                status, msg = SdpStatus.OPTIMAL, "converged"
                break
            for g in rungs:
                if gap <= g and max(pres, dres) <= max(tol.feas, g):
                    kept.setdefault(g, (xs, y, ss, tau, kap, it))
        if rungs and rungs[0] in kept \
                and it - kept[rungs[0]][-1] >= _FALLBACK_PATIENCE:
            break

        cert = try_certificates(_CERT_QUALITY)
        if cert is not None:
            status, msg = cert, "certificate found"
            break
        if tau < 1e-12 * max(1.0, kap) or mu < 1e-18:
            break

        # Nesterov-Todd scaling and Schur factorization
        scals = [_nt_block(xc, sc) for xc, sc in zip(xs, ss)]
        big = _schur(rc, scals)
        solver = _make_solver(big, rc.arrow)
        wc = _w_apply(rc, scals, c)
        awc = rc.op(wc)
        cwc = _dot(c, wc)
        u1 = solver(awc + b)
        bmawc = b - awc
        den = float(bmawc @ u1) + cwc + kap / tau

        def directions(rhs_p, rhs_d, rhs_g, rhs_tk, us):
            lt = rc.flat([sc.R @ u @ sc.R for sc, u in zip(scals, us)])
            wrd = _w_apply(rc, scals, rhs_d)
            rhs1 = rhs_p - rc.op(lt) - rc.op(wrd)
            rhs2 = rhs_g + _dot(c, lt) + _dot(wc, rhs_d) + rhs_tk / tau
            u2 = solver(rhs1)
            dtau = (rhs2 - float(bmawc @ u2)) / den if abs(den) > 1e-300 else 0.0
            dy = u2 + dtau * u1
            ds = -rc.adj(dy) + c * dtau - rhs_d
            dx = lt - _w_apply(rc, scals, ds)
            dkap = (rhs_tk - kap * dtau) / tau
            return dx, dy, ds, dtau, dkap

        rp = ax - b * tau
        rd = -aty + c * tau - s
        rg = float(b @ y) - _dot(c, x) - kap

        # affine (predictor) direction
        us_aff = [-sc.lam for sc in scals]
        dxa, dya, dsa, dta, dka = directions(-rp, -rd, -rg, -tau * kap, us_aff)
        alpha_aff, dxt_a, dst_a = _step(scals, rc.stacks(dxa), rc.stacks(dsa),
                                        tau, kap, dta, dka, 1.0, 0.98)

        mu_aff = ((_dot(x + alpha_aff * dxa, s + alpha_aff * dsa)
                   + (tau + alpha_aff * dta) * (kap + alpha_aff * dka))
                  / (nu + 1.0))
        sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # combined (corrector) direction
        us = [_lyap(sc, _herm(sigma * mu * np.eye(sc.lam.shape[-1])
                              - sc.lam @ sc.lam - _herm(dxt @ dst)))
              for sc, dxt, dst in zip(scals, dxt_a, dst_a)]
        f = 1.0 - sigma
        dx, dy, ds, dta2, dka2 = directions(
            -f * rp, -f * rd, -f * rg,
            sigma * mu - tau * kap - dta * dka, us)
        dxs, dss = rc.stacks(dx), rc.stacks(ds)
        step, _, _ = _step(scals, dxs, dss, tau, kap, dta2, dka2,
                           1.0 / 0.98, 0.98)

        stall = stall + 1 if step < 1e-8 else 0
        if stall >= 3:
            msg = "step size collapsed"
            break

        xs = [_herm(xc + step * dxc) for xc, dxc in zip(xs, dxs)]
        ss = [_herm(sc + step * dsc) for sc, dsc in zip(ss, dss)]
        y = y + step * dy
        tau += step * dta2
        kap += step * dka2

    target = tol.gap if status is SdpStatus.OPTIMAL else None
    if status is None:
        cert = try_certificates(_LATE_CERT_QUALITY)
        if cert is not None:
            status, msg = cert, "certificate found after iteration limit"
        elif kept:
            target = min(kept)
            xs, y, ss, tau, kap, at = kept[target]
            status = SdpStatus.OPTIMAL
            msg = (f"stalled; returned the iterate of iteration {at} "
                   f"at gap target {target:g}")
        else:
            status = SdpStatus.NUMERICAL_FAILURE
            msg = msg or "iteration limit reached"
    xb, sb = ([st[c][p] for c, p in rc.where] for st in (xs, ss))
    return _RawResult(status, xb, y, sb, tau, kap, it, msg, target)


# ---------------------------------------------------------------------------
# public driver
# ---------------------------------------------------------------------------

def solve(problem: SdpProblem,
          tolerances: SdpTolerances | None = None) -> SdpSolution:
    """Solve a primal-standard-form Hermitian SDP.

    On status OPTIMAL the returned blocks satisfy the constraints and PSD
    conditions within the tolerances, re-verified here outside the solver
    loop; infeasible statuses carry an improving-ray certificate.  Real
    data runs in real arithmetic over its real rows (`_real_rows`); results
    keep their types: complex blocks and one dual entry per row, zero on the
    imaginary rows.
    """
    tol = tolerances or SdpTolerances()
    orig = problem.compile()   # unscaled, for certificates and _verify
    b, c = orig.b, orig.c_vec
    keep = _real_rows(orig)
    if keep is None:
        rc = _Conic(orig.dims, orig.offs, c, orig.A, b)
    else:
        rc = _Conic(orig.dims, orig.offs, c.real, orig.A[keep].real, b[keep])
    row_scale, sb, sc = rc.scale()
    raw = _ipm(rc, tol, descale=(row_scale, sb, sc,
                                 1.0 + float(np.linalg.norm(b)),
                                 1.0 + float(np.linalg.norm(c))))
    if keep is not None:
        # zero duals on the imaginary rows; blocks keep their complex type
        y, rs = np.zeros(orig.m), np.ones(orig.m)
        y[keep], rs[keep] = raw.y, row_scale
        raw.y, row_scale = y, rs
        raw.x = [blk.astype(complex) for blk in raw.x]
        raw.s = [blk.astype(complex) for blk in raw.s]

    sol = SdpSolution(status=raw.status, iterations=raw.iterations,
                      message=raw.message, gap_target=raw.gap_target)
    if raw.status is SdpStatus.OPTIMAL:
        tau = raw.tau
        sol.primal_blocks = [sb * blk / tau for blk in raw.x]
        sol.dual_y = sc * (raw.y / row_scale) / tau
        slk = [sc * blk / tau for blk in raw.s]
        sol.primal_value = _dot(c, orig.vec(sol.primal_blocks))
        sol.dual_value = float(b @ sol.dual_y)
        _verify(orig, sol, solver_slack=slk)
    elif raw.status is SdpStatus.PRIMAL_INFEASIBLE:
        y = sc * (raw.y / row_scale)
        byv = float(b @ y)
        y = y / byv if abs(byv) > 1e-300 else y
        sol.certificate = {
            "kind": "farkas_dual",
            "y": y,
            "slack_blocks": [_herm(zj) for zj in orig.unvec(-orig.adj(y))],
            "note": "sum_i y_i A_i <= 0 (approx) with b.y = 1",
        }
        sol.dual_y = y
    elif raw.status is SdpStatus.DUAL_INFEASIBLE:
        cx = _dot(c, orig.vec(raw.x) * sb)
        scale = -cx if cx < -1e-300 else 1.0
        blocks = [blk * sb / scale for blk in raw.x]
        sol.certificate = {
            "kind": "improving_ray",
            "blocks": blocks,
            "note": "A(X) = 0 (approx), X >= 0, <C,X> = -1",
        }
        sol.primal_blocks = blocks
    return sol


def _real_rows(rc: _Conic) -> np.ndarray | None:
    """The rows a real program is solved on: its real rows, when C is real,
    each row is all real or all imaginary and b = 0 on the imaginary rows
    (exact tests).  Those rows decouple, and their duals are zero by
    conjugation symmetry.  None for any other program, or one with no real
    row."""
    if rc.c_vec.imag.any():
        return None
    row = np.repeat(np.arange(rc.m), np.diff(rc.A.indptr))
    has_re = np.bincount(row, rc.A.data.real != 0, minlength=rc.m) > 0
    has_im = np.bincount(row, rc.A.data.imag != 0, minlength=rc.m) > 0
    if (has_re & has_im).any() or rc.b[has_im].any() or has_im.all():
        return None
    return np.flatnonzero(~has_im)


def _verify(rc: _Conic, sol: SdpSolution,
            solver_slack: list[np.ndarray]) -> None:
    """Recompute feasibility residuals and eigenvalue floors from scratch,
    on the unscaled problem `rc`."""
    xb = sol.primal_blocks
    res = rc.op(rc.vec(xb)) - rc.b
    sol.primal_residual = float(np.max(np.abs(res))) if rc.m else 0.0
    sol.min_eig_primal = min(float(np.linalg.eigvalsh(blk)[0]) for blk in xb)
    # slack recomputed from y; residual = distance to the slack the solver kept
    slack = [_herm(sj) for sj in rc.unvec(rc.c_vec - rc.adj(sol.dual_y))]
    sol.dual_residual = max(
        float(np.max(np.abs(chk - it_s)))
        for chk, it_s in zip(slack, solver_slack))
    sol.dual_slack_blocks = slack
    sol.min_eig_slack = min(
        float(np.linalg.eigvalsh(blk)[0]) for blk in slack)
    sol.gap = abs(sol.primal_value - sol.dual_value)


@dataclass
class FeasibilityResult:
    feasible: bool | None
    witness: list[np.ndarray] | None = None
    certificate: dict | None = None
    solution: SdpSolution | None = None


def check_feasibility(problem: SdpProblem,
                      tolerances: SdpTolerances | None = None) -> FeasibilityResult:
    """Decide feasibility of {X >= 0 : constraints} for a zero-objective problem."""
    for c in problem.c_blocks:
        if float(np.max(np.abs(c))) > 1e-12:
            raise SdpError("feasibility check requires a zero objective")
    sol = solve(problem, tolerances)
    if sol.status is SdpStatus.OPTIMAL:
        return FeasibilityResult(True, witness=sol.primal_blocks, solution=sol)
    if sol.status is SdpStatus.PRIMAL_INFEASIBLE:
        return FeasibilityResult(False, certificate=sol.certificate, solution=sol)
    return FeasibilityResult(None, solution=sol)


# ---------------------------------------------------------------------------
# LMI front end
# ---------------------------------------------------------------------------

def herm_basis(d: int, ks=None) -> np.ndarray:
    """Unit contributions of the real parameters of a d x d Hermitian
    variable: image k of the (len(ks), d, d) stack is what parameter ks[k]
    adds, in `VarRef.param` order (all d*d parameters by default).  The
    diagonal comes first, then one (real, imaginary) pair per entry i < j in
    row-major order: E_ij + E_ji and i E_ij - i E_ji."""
    i, j = np.triu_indices(d, 1)
    rows = np.concatenate([np.arange(d), np.repeat(i, 2)])
    cols = np.concatenate([np.arange(d), np.repeat(j, 2)])
    vals = np.concatenate([np.ones(d), np.tile([1.0, 1j], len(i))])
    ks = np.arange(d * d) if ks is None else np.asarray(ks)
    out = np.zeros((len(ks), d, d), dtype=complex)
    n = np.arange(len(ks))
    out[n, cols[ks], rows[ks]] = vals[ks].conj()
    out[n, rows[ks], cols[ks]] = vals[ks]
    return out


def herm_equality_rows(target: np.ndarray):
    """Yield (E, rhs) with <E, X> = rhs for every row iff the Hermitian X
    equals target: per entry p <= q in row-major order, (E_pp, Re T_pp) on
    the diagonal, else (E_pq + E_qp, 2 Re T_pq) and (i E_pq - i E_qp,
    2 Im T_pq)."""
    d = target.shape[0]
    basis = herm_basis(d)
    pairs = iter(basis[d:])
    for p in range(d):
        yield basis[p], float(np.real(target[p, p]))
        for q in range(p + 1, d):
            yield next(pairs), 2.0 * float(np.real(target[p, q]))
            yield next(pairs), 2.0 * float(np.imag(target[p, q]))


@dataclass
class VarRef:
    name: str
    kind: str            # "real" | "herm" | "cplx"
    shape: tuple[int, ...]
    offset: int          # first parameter index
    nparams: int

    def param(self, *key) -> int:
        """Parameter index for ("diag", i) / ("re", i, j) / ("im", i, j)."""
        if self.kind == "real":
            return self.offset
        if self.kind == "herm":
            d = self.shape[0]
            tag = key[0]
            if tag == "diag":
                return self.offset + key[1]
            i, j = key[1], key[2]
            if not i < j:
                raise ValueError("off-diagonal parameters use i < j")
            pair = d + 2 * (i * d - i * (i + 1) // 2 + (j - i - 1))
            return self.offset + pair + (0 if tag == "re" else 1)
        r, c = self.shape
        tag, i, j = key
        return self.offset + 2 * (i * c + j) + (0 if tag == "re" else 1)

    @property
    def params(self) -> np.ndarray:
        """All parameter indices of the variable, in `param` order."""
        return np.arange(self.offset, self.offset + self.nparams)

    def trace_real_coeffs(self) -> list[tuple[int, float]]:
        """Parameter indices and weights so that sum = Re tr(value)."""
        if self.kind == "real":
            return [(self.offset, 1.0)]
        if self.kind == "herm":
            return [(self.param("diag", i), 1.0) for i in range(self.shape[0])]
        r, c = self.shape
        return [(self.param("re", i, i), 1.0) for i in range(min(r, c))]


class LmiBuilder:
    """Assemble  min c^T y  s.t.  F_0 + sum_k y_k F_k >= 0  blockwise.

    Variables are real scalars, Hermitian matrices, or general complex
    matrices, each flattened into real parameters y_k.  Placements add the
    variable into LMI blocks, or (`add_param_term`) a stack of per-parameter
    images F_k, typically a `herm_basis` stack mapped by batched matrix
    products, all in one call; the build step maps everything onto the
    primal-standard-form solver and the optimal y is read back from the dual
    multipliers.
    """

    def __init__(self):
        self.nparams = 0
        self.vars: dict[str, VarRef] = {}
        self.block_dims: list[int] = []
        self._f0: list[np.ndarray] = []    # per block: the constant F_0
        # (param, block, r, c, value) arrays, in placement order
        self._terms: list[tuple[np.ndarray, ...]] = []
        self._obj: dict[int, float] = {}

    # -- variables ---------------------------------------------------------
    def real_var(self, name: str) -> VarRef:
        return self._new_var(name, "real", (), 1)

    def herm_var(self, name: str, d: int) -> VarRef:
        return self._new_var(name, "herm", (d, d), d * d)

    def cplx_var(self, name: str, rows: int, cols: int) -> VarRef:
        return self._new_var(name, "cplx", (rows, cols), 2 * rows * cols)

    def _new_var(self, name, kind, shape, nparams) -> VarRef:
        if name in self.vars:
            raise SdpError(f"duplicate variable {name}")
        ref = VarRef(name, kind, shape, self.nparams, nparams)
        self.vars[name] = ref
        self.nparams += nparams
        return ref

    # -- blocks and placements ---------------------------------------------
    def new_block(self, size: int) -> int:
        self.block_dims.append(int(size))
        self._f0.append(np.zeros((int(size), int(size)), dtype=complex))
        return len(self.block_dims) - 1

    def _place(self, blk: int, param, r, c, val) -> None:
        """Record  y_param * val  at (r, c) of block blk, elementwise over
        the broadcast arrays; zero values are dropped."""
        param, r, c, val = np.broadcast_arrays(
            param, r, c, np.asarray(val, dtype=complex))
        keep = val != 0
        self._terms.append((param[keep], np.full(int(keep.sum()), blk),
                            r[keep], c[keep], val[keep]))

    def _place_pairs(self, blk: int, pre, r, c, coeff: float) -> None:
        """Real part `pre` and imaginary part `pre + 1` of an off-diagonal
        entry at (r, c), with the adjoint entry at (c, r)."""
        self._place(blk, np.stack([pre, pre, pre + 1, pre + 1], axis=1),
                    np.stack([r, c, r, c], axis=1), np.stack([c, r, c, r], axis=1),
                    np.array([coeff, coeff, coeff * 1j, coeff * (-1j)]))

    def add_const(self, blk: int, mat: np.ndarray,
                  at: tuple[int, int] = (0, 0)) -> None:
        """Add a constant matrix to F_0."""
        mat = np.asarray(mat, dtype=complex)
        r0, c0 = at
        self._f0[blk][r0:r0 + mat.shape[0], c0:c0 + mat.shape[1]] += mat

    def add_herm(self, blk: int, var: VarRef, at: int = 0,
                 coeff: float = 1.0) -> None:
        """Place coeff * (Hermitian variable) at diagonal offset `at`."""
        if var.kind != "herm":
            raise SdpError("add_herm needs a Hermitian variable")
        d = var.shape[0]
        diag = np.arange(d)
        self._place(blk, var.offset + diag, at + diag, at + diag, coeff)
        i, j = np.triu_indices(d, 1)
        self._place_pairs(blk, var.offset + d + 2 * np.arange(len(i)),
                          at + i, at + j, coeff)

    def add_cplx(self, blk: int, var: VarRef, at: tuple[int, int],
                 coeff: float = 1.0) -> None:
        """Place coeff*X at `at` and coeff*X^dag mirrored across the diagonal."""
        if var.kind != "cplx":
            raise SdpError("add_cplx needs a complex matrix variable")
        r, c = var.shape
        i, j = np.divmod(np.arange(r * c), c)
        self._place_pairs(blk, var.offset + 2 * np.arange(r * c),
                          at[0] + i, at[1] + j, coeff)

    def add_scalar(self, blk: int, var: VarRef, mat: np.ndarray,
                   at: tuple[int, int] = (0, 0)) -> None:
        """Place (scalar variable) * mat, mat Hermitian about the offset."""
        if var.kind != "real":
            raise SdpError("add_scalar needs a real scalar variable")
        mat = np.asarray(mat, dtype=complex)
        i, j = np.indices(mat.shape)
        self._place(blk, var.offset, at[0] + i, at[1] + j, mat)

    def add_param_term(self, blk: int, params, images,
                       at: tuple[int, int] = (0, 0)) -> None:
        """Raw placement: parameter params[k] contributes images[k], a
        (k, r, c) stack, at offset `at`; one index with one matrix also
        works.  `build` checks that each parameter's total contribution to
        a block is Hermitian."""
        images = np.asarray(images, dtype=complex)
        images = images.reshape((-1,) + images.shape[-2:])
        rows, cols = images.shape[1:]
        self._place(blk, np.reshape(params, (-1, 1, 1)),
                    at[0] + np.arange(rows)[:, None], at[1] + np.arange(cols),
                    images)

    # -- objective and build -----------------------------------------------
    def minimize(self, coeffs: Sequence[tuple[int, float]]) -> None:
        for k, w in coeffs:
            self._obj[k] = self._obj.get(k, 0.0) + float(w)

    def build(self) -> "LmiProgram":
        prob = SdpProblem(self.block_dims, self._f0)
        empty = (np.zeros(0, dtype=int),) * 4 + (np.zeros(0, dtype=complex),)
        param, blk, r, c, val = (np.concatenate(a)
                                 for a in zip(empty, *self._terms))
        missing = np.setdiff1d(np.arange(self.nparams), param)
        if len(missing):
            raise SdpError(f"parameters with no LMI contribution: "
                           f"{missing[:5].tolist()}")
        prob._add_rows(param, blk, r, c, -val,
                       [-self._obj.get(k, 0.0) for k in range(self.nparams)])
        return LmiProgram(self, prob)


@dataclass
class LmiSolution:
    status: SdpStatus
    value: float | None
    y: np.ndarray | None
    vars: dict[str, object]
    sdp: SdpSolution


class LmiProgram:
    def __init__(self, builder: LmiBuilder, problem: SdpProblem):
        self.builder = builder
        self.problem = problem

    def solve(self) -> LmiSolution:
        sol = solve(self.problem)
        if sol.status is not SdpStatus.OPTIMAL:
            return LmiSolution(sol.status, None, None, {}, sol)
        y = sol.dual_y
        out: dict[str, object] = {}
        for name, ref in self.builder.vars.items():
            out[name] = _var_value(ref, y)
        return LmiSolution(sol.status, -sol.dual_value, y, out, sol)


def _var_value(ref: VarRef, y: np.ndarray):
    """The variable's value from the optimal parameters, in `param` order."""
    v = y[ref.params]
    if ref.kind == "real":
        return float(v[0])
    if ref.kind == "herm":
        # sum_k v_k herm_basis(d)[k], written entrywise: the stack itself
        # holds d^4 entries
        d = ref.shape[0]
        i, j = np.triu_indices(d, 1)
        m = np.diag(v[:d]).astype(complex)
        m[i, j] = v[d::2] + 1j * v[d + 1::2]
        m[j, i] = m[i, j].conj()
        return m
    return (v[0::2] + 1j * v[1::2]).reshape(ref.shape)
