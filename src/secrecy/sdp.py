"""Dense interior-point solver for small complex Hermitian semidefinite programs.

Primal standard form over Hermitian PSD blocks X = (X_1, ..., X_k):

    minimize    sum_j <C_j, X_j>
    subject to  sum_j <A_ij, X_j> = b_i   (i = 1..m),   X_j >= 0,

with <A, B> = tr(A B) (real for Hermitian pairs).  The dual is

    maximize    b^T y
    subject to  sum_i y_i A_ij + S_j = C_j,   S_j >= 0.

Complex data is embedded into real symmetric matrices of doubled size via
M -> [[Re M, -Im M], [Im M, Re M]], solved by a homogeneous self-dual
Mehrotra predictor-corrector method with Nesterov-Todd scaling, and the
complex solution is read back off the invariant subspace.  Infeasibility is
reported through Farkas-type certificates extracted from the homogeneous
iterate.  Everything is dense and deterministic: fixed starting point, fixed
iteration schedule, no randomization.

Every constraint is stored as (row, block, r, c, value) triplets.  Rows
arrive one at a time through `SdpProblem.add_constraint`, or all at once from
the LMI layer (`LmiBuilder`), which phrases problems as

    minimize c^T y  subject to  F_0 + sum_k y_k F_k >= 0  (blockwise)

(the form of the smooth-entropy, fidelity and decoder programs elsewhere in
this package).  The builder records each placement as triplets tagged by
parameter; `build` maps them onto the standard form above (A_k = -F_k,
b_k = -c_k, C = F_0) and validates all rows in one vectorised pass.
`compile` embeds the triplets into the real constraint matrix in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla
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
    cert: float = 1e-9         # quality required of an infeasibility certificate


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
        self.c_blocks = [np.array(c.toarray() if sp.issparse(c) else c,
                                  dtype=complex) for c in c_blocks]
        if len(self.c_blocks) != len(self.block_dims):
            raise SdpError("one objective block per variable block required")
        for d, c in zip(self.block_dims, self.c_blocks):
            if c.shape != (d, d):
                raise SdpError("objective block shape mismatch")
            if np.max(np.abs(c - c.conj().T)) > 1e-8:
                raise SdpError("objective block is not Hermitian")
        # (row, block, r, c, value) arrays, one tuple per batch of rows
        self._triplets: list[tuple[np.ndarray, ...]] = []
        self._rhs: list[float] = []

    @property
    def num_constraints(self) -> int:
        return len(self._rhs)

    def add_constraint(self, blocks: dict[int, object], rhs: float) -> None:
        """Add  sum_j <blocks[j], X_j> = rhs  (matrices dense or sparse)."""
        if not blocks:
            raise SdpError("constraint touches no block")
        parts = []
        for j, mat in blocks.items():
            j = int(j)
            if j < 0 or j >= len(self.block_dims):
                raise SdpError(f"constraint references unknown block {j}")
            if sp.issparse(mat):
                mat = mat.tocoo()
                r, c, v = mat.row, mat.col, mat.data
            else:
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
        given; every row must be Hermitian in each block and not all zero.
        """
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
        rhs = np.asarray(rhs, dtype=complex)
        if (np.bincount(row[live], minlength=len(rhs)) == 0).any():
            raise SdpError("constraint matrix is identically zero")
        if (np.abs(rhs.imag) > 1e-10).any():
            raise SdpError("right-hand side must be real")
        self._triplets.append((row[live] + len(self._rhs), blk[live], r[live],
                               c[live], val_sum[live]))
        self._rhs.extend(rhs.real.tolist())

    # -- real symmetric embedding ------------------------------------------
    def compile(self) -> "_RealConic":
        if not self._rhs:
            raise SdpError("problem has no constraints")
        dims = [2 * d for d in self.block_dims]
        offs = np.concatenate([[0], np.cumsum([d * d for d in dims])])
        c_vec = np.concatenate([_embed(cb).reshape(-1) for cb in self.c_blocks])
        row, blk, r, c, v = (np.concatenate(a) for a in zip(*self._triplets))
        d = np.asarray(self.block_dims)[blk]
        # [[Re, -Im], [Im, Re]] written into the flat vector
        er = np.concatenate([r, r + d, r, r + d])
        ec = np.concatenate([c, c + d, c + d, c])
        ev = np.concatenate([v.real, v.real, -v.imag, v.imag])
        cols = np.tile(offs[blk], 4) + er * np.tile(2 * d, 4) + ec
        keep = ev != 0.0
        a = sp.coo_matrix((ev[keep], (np.tile(row, 4)[keep], cols[keep])),
                          shape=(len(self._rhs), int(offs[-1]))).tocsr()
        return _RealConic(dims, list(offs), c_vec, a, 2.0 * np.array(self._rhs))


def _embed(mat: np.ndarray) -> np.ndarray:
    """Complex Hermitian -> real symmetric of doubled size."""
    re, im = mat.real, mat.imag
    return np.block([[re, -im], [im, re]])


def _extract(mat_r: np.ndarray) -> np.ndarray:
    """Read a complex Hermitian matrix back off its doubled real embedding."""
    n = mat_r.shape[0] // 2
    re = 0.5 * (mat_r[:n, :n] + mat_r[n:, n:])
    im = 0.5 * (mat_r[n:, :n] - mat_r[:n, n:])
    out = re + 1j * im
    return 0.5 * (out + out.conj().T)


@dataclass
class SdpSolution:
    status: SdpStatus
    primal_value: float | None = None
    dual_value: float | None = None
    gap: float | None = None
    iterations: int = 0
    primal_blocks: list[np.ndarray] | None = None
    dual_y: np.ndarray | None = None
    dual_slack_blocks: list[np.ndarray] | None = None
    primal_residual: float | None = None
    dual_residual: float | None = None
    min_eig_primal: float | None = None
    min_eig_slack: float | None = None
    certificate: dict | None = None
    message: str = ""


# ---------------------------------------------------------------------------
# real conic core
# ---------------------------------------------------------------------------

class _RealConic:
    """Compiled real symmetric problem; `scale` adds the per-block views."""

    def __init__(self, dims, offs, c_vec, a, b):
        self.dims = dims
        self.offs = offs
        self.c_vec = c_vec
        self.A = a
        self.b = b
        self.m = len(b)

    def scale(self) -> tuple[np.ndarray, float, float]:
        """Pre-scale in place and build the Schur-assembly views.

        Rows of A and b are divided by the row norms of A, then b and c by
        their norms (when above 1); returns (row norms, b scale, c scale).
        """
        a = self.A
        lens = np.diff(a.indptr)
        # one dot product per row, as np.linalg.norm takes it, batched by
        # row length
        sq = np.zeros(self.m)
        for k in np.unique(lens):
            rows = np.flatnonzero(lens == k)
            seg = a.data[a.indptr[rows, None] + np.arange(k)]
            sq[rows] = (seg[:, None, :] @ seg[:, :, None]).ravel()
        row_scale = np.maximum(np.sqrt(sq), 1e-12)
        # the scaled rows are stored in descending column order: it sets the
        # summation order of every A x in the interior-point loop, and so the
        # last bits of every reported value
        rev = np.repeat(a.indptr[:-1] + a.indptr[1:] - 1, lens) \
            - np.arange(a.nnz)
        self.A = sp.csr_matrix((a.data[rev] * np.repeat(1.0 / row_scale, lens),
                                a.indices[rev], a.indptr.copy()), shape=a.shape)
        b_s = self.b / row_scale
        sb = max(1.0, float(np.linalg.norm(b_s)))
        sc = max(1.0, float(np.linalg.norm(self.c_vec)))
        self.b = b_s / sb
        self.c_vec = self.c_vec / sc
        # per-block column slices, active rows, and "tall" stacked forms used
        # by the Schur-complement assembly
        self.acol, self.act, self.atall = [], [], []
        for j, d in enumerate(self.dims):
            sub = self.A[:, self.offs[j]:self.offs[j + 1]].tocoo()
            act, rows = np.unique(sub.row, return_inverse=True)
            self.act.append(act)
            self.acol.append(sp.csr_matrix((sub.data, (rows, sub.col)),
                                           shape=(len(act), d * d)))
            self.atall.append(sp.csr_matrix(
                (sub.data, (rows * d + sub.col // d, sub.col % d)),
                shape=(len(act) * d, d)))
        return row_scale, sb, sc

    def vec(self, blocks: list[np.ndarray]) -> np.ndarray:
        return np.concatenate([bl.reshape(-1) for bl in blocks])

    def unvec(self, v: np.ndarray) -> list[np.ndarray]:
        return [v[self.offs[j]:self.offs[j + 1]].reshape(d, d)
                for j, d in enumerate(self.dims)]


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _eigh_floor(mat: np.ndarray):
    vals, vecs = np.linalg.eigh(mat)
    floor = max(1e-14 * float(vals[-1]), 1e-300) if vals[-1] > 0 else 1e-300
    return np.maximum(vals, floor), vecs


@dataclass
class _Scal:
    W: np.ndarray
    R: np.ndarray
    Ri: np.ndarray
    lam: np.ndarray
    lv: np.ndarray
    lQ: np.ndarray


def _nt_block(x: np.ndarray, s: np.ndarray) -> _Scal:
    sv, sq = _eigh_floor(s)
    s_half = (sq * np.sqrt(sv)) @ sq.T
    s_mh = (sq / np.sqrt(sv)) @ sq.T
    t = _sym(s_half @ x @ s_half)
    tv, tq = _eigh_floor(t)
    t_half = (tq * np.sqrt(tv)) @ tq.T
    w = _sym(s_mh @ t_half @ s_mh)
    wv, wq = _eigh_floor(w)
    r = (wq * np.sqrt(wv)) @ wq.T
    ri = (wq / np.sqrt(wv)) @ wq.T
    lam = _sym(0.5 * (ri @ x @ ri + r @ s @ r))
    lv, lq = _eigh_floor(lam)
    return _Scal(w, r, ri, lam, lv, lq)


def _lyap(scal: _Scal, t: np.ndarray) -> np.ndarray:
    """Solve lam o U = T (o = symmetrized product) in lam's eigenbasis."""
    tt = scal.lQ.T @ t @ scal.lQ
    u = 2.0 * tt / (scal.lv[:, None] + scal.lv[None, :])
    return scal.lQ @ u @ scal.lQ.T


def _alpha_psd(scal: _Scal, dt: np.ndarray) -> float:
    """Largest alpha with lam + alpha*dt >= 0 (dt in scaled space)."""
    a = scal.lQ.T @ dt @ scal.lQ
    rs = 1.0 / np.sqrt(scal.lv)
    emin = float(np.linalg.eigvalsh(_sym(a * rs[:, None] * rs[None, :]))[0])
    return math.inf if emin >= -1e-16 else 1.0 / (-emin)


_SCHUR_CHUNK = 3_000_000  # doubles per assembly chunk


def _schur(rc: _RealConic, scals: list[_Scal]) -> np.ndarray:
    m = rc.m
    big = np.zeros((m, m))
    for j, d in enumerate(rc.dims):
        act = rc.act[j]
        if len(act) == 0:
            continue
        w = scals[j].W
        rows_per = max(1, _SCHUR_CHUNK // (d * d))
        for c0 in range(0, len(act), rows_per):
            c1 = min(c0 + rows_per, len(act))
            nc = c1 - c0
            t1 = rc.atall[j][c0 * d:c1 * d] @ w           # stacked U_k W
            t2 = w @ t1.reshape(nc, d, d).transpose(1, 0, 2).reshape(d, nc * d)
            g = t2.reshape(d, nc, d).transpose(1, 0, 2).reshape(nc, d * d)
            contrib = rc.acol[j] @ g.T                     # (n_act, nc)
            big[np.ix_(act, act[c0:c1])] += contrib
    return _sym(big)


def _w_apply(rc: _RealConic, scals: list[_Scal], v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    for j, d in enumerate(rc.dims):
        sl = slice(rc.offs[j], rc.offs[j + 1])
        w = scals[j].W
        out[sl] = (w @ v[sl].reshape(d, d) @ w).reshape(-1)
    return out


def _make_solver(big: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    tr = float(np.trace(big)) / max(1, big.shape[0])
    for jitter in (0.0, 1e-13 * tr, 1e-10 * tr, 1e-7 * tr):
        try:
            cho = sla.cho_factor(big + jitter * np.eye(big.shape[0]),
                                 lower=True, check_finite=False)
            return lambda r: sla.cho_solve(cho, r, check_finite=False)
        except np.linalg.LinAlgError:
            continue
        except sla.LinAlgError:  # pragma: no cover - scipy alias
            continue
    vals, vecs = np.linalg.eigh(big)
    inv = np.where(vals > 1e-14 * max(vals[-1], 1e-300), 1.0 / vals, 0.0)
    return lambda r: vecs @ (inv * (vecs.T @ r))


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


def _step(scals: list[_Scal], dx_b, ds_b, tau, kap, dtau, dkap,
          cap: float, damp: float):
    """Step length min(1, damp * alpha), alpha <= cap the largest step that
    keeps X, S, tau and kappa in their cones; also returns the directions
    in the scaled space."""
    dxt = [_sym(sc.Ri @ dx @ sc.Ri) for sc, dx in zip(scals, dx_b)]
    dst = [_sym(sc.R @ ds @ sc.R) for sc, ds in zip(scals, ds_b)]
    alpha = min([cap] + [_alpha_psd(sc, t)
                         for sc, t in zip(scals + scals, dxt + dst)])
    if dtau < 0:
        alpha = min(alpha, -tau / dtau)
    if dkap < 0:
        alpha = min(alpha, -kap / dkap)
    return min(1.0, damp * alpha), dxt, dst


def _ipm(rc: _RealConic, tol: SdpTolerances, descale: tuple) -> _RawResult:
    nb = len(rc.dims)
    nu = float(sum(rc.dims))
    xb = [np.eye(d) for d in rc.dims]
    sb = [np.eye(d) for d in rc.dims]
    y = np.zeros(rc.m)
    tau, kap = 1.0, 1.0
    c, b, a = rc.c_vec, rc.b, rc.A
    # convergence is judged on the original (un-scaled) data magnitudes
    row_scale, scale_b, scale_c, normb, normc = descale
    status, msg = None, ""
    it = 0
    stall = 0
    rescues = 10

    def try_certificates(quality: float) -> SdpStatus | None:
        by = float(b @ y)
        if by > 1e-12:
            u = y / by
            z = rc.unvec(-(a.T @ u))
            scale = max(1.0, max(float(np.max(np.abs(zj))) for zj in z))
            emin = min(float(np.linalg.eigvalsh(_sym(zj))[0]) for zj in z)
            if emin >= -quality * scale:
                return SdpStatus.PRIMAL_INFEASIBLE
        x = rc.vec(xb)
        cx = float(c @ x)
        if cx < -1e-12:
            wv = x / (-cx)
            if float(np.max(np.abs(a @ wv))) <= quality * max(1.0, float(np.max(np.abs(wv)))):
                return SdpStatus.DUAL_INFEASIBLE
        return None

    for it in range(1, tol.max_iter + 1):
        x = rc.vec(xb)
        s = rc.vec(sb)
        mu = (float(x @ s) + tau * kap) / (nu + 1.0)

        # de-homogenized optimality test, in original data units
        if tau > 1e-10:
            obj = scale_b * scale_c
            pv = float(c @ x) / tau * obj
            dv = float(b @ y) / tau * obj
            pres = scale_b * float(np.linalg.norm(
                (a @ x / tau - b) * row_scale)) / normb
            dres = scale_c * float(np.linalg.norm(
                c - a.T @ y / tau - s / tau)) / normc
            gap = abs(pv - dv) / (1.0 + abs(pv) + abs(dv))
            if pres <= tol.feas and dres <= tol.feas and gap <= tol.gap:
                status, msg = SdpStatus.OPTIMAL, "converged"
                break

        cert = try_certificates(tol.cert)
        if cert is not None:
            status, msg = cert, "certificate found"
            break
        if tau < 1e-12 * max(1.0, kap) or mu < 1e-18:
            break

        # Nesterov-Todd scaling and Schur factorization
        scals = [_nt_block(xb[j], sb[j]) for j in range(nb)]
        big = _schur(rc, scals)
        solver = _make_solver(big)
        wc = _w_apply(rc, scals, c)
        awc = a @ wc
        cwc = float(c @ wc)
        u1 = solver(awc + b)
        bmawc = b - awc
        den = float(bmawc @ u1) + cwc + kap / tau

        def directions(rhs_p, rhs_d, rhs_g, rhs_tk, us):
            lt = rc.vec([scals[j].R @ us[j] @ scals[j].R for j in range(nb)])
            wrd = _w_apply(rc, scals, rhs_d)
            rhs1 = rhs_p - a @ lt - a @ wrd
            rhs2 = rhs_g + float(c @ lt) + float(wc @ rhs_d) + rhs_tk / tau
            u2 = solver(rhs1)
            dtau = (rhs2 - float(bmawc @ u2)) / den if abs(den) > 1e-300 else 0.0
            dy = u2 + dtau * u1
            ds = -(a.T @ dy) + c * dtau - rhs_d
            dx = lt - _w_apply(rc, scals, ds)
            dkap = (rhs_tk - kap * dtau) / tau
            return dx, dy, ds, dtau, dkap

        rp = a @ x - b * tau
        rd = -(a.T @ y) + c * tau - s
        rg = float(b @ y) - float(c @ x) - kap

        # affine (predictor) direction
        us_aff = [-scals[j].lam for j in range(nb)]
        dxa, dya, dsa, dta, dka = directions(-rp, -rd, -rg, -tau * kap, us_aff)
        alpha_aff, dxt_a, dst_a = _step(scals, rc.unvec(dxa), rc.unvec(dsa),
                                        tau, kap, dta, dka, 1.0, 0.98)

        mu_aff = ((float((x + alpha_aff * dxa) @ (s + alpha_aff * dsa))
                   + (tau + alpha_aff * dta) * (kap + alpha_aff * dka))
                  / (nu + 1.0))
        sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # combined (corrector) direction
        us = []
        for j in range(nb):
            cross = _sym(dxt_a[j] @ dst_a[j])
            t = sigma * mu * np.eye(rc.dims[j]) - scals[j].lam @ scals[j].lam \
                - cross
            us.append(_lyap(scals[j], _sym(t)))
        f = 1.0 - sigma
        dx, dy, ds, dta2, dka2 = directions(
            -f * rp, -f * rd, -f * rg,
            sigma * mu - tau * kap - dta * dka, us)
        dx_b, ds_b = rc.unvec(dx), rc.unvec(ds)
        step, _, _ = _step(scals, dx_b, ds_b, tau, kap, dta2, dka2,
                           1.0 / 0.98, 0.98)

        if step < 1e-8 and rescues > 0:
            # corrector stalled: fall back to a damped pure-centering step
            # (unchanged residuals, target the central path at the current
            # mu), which usually restores step lengths on the next sweep
            rescues -= 1
            us_c = [_lyap(scals[j],
                          _sym(mu * np.eye(rc.dims[j])
                               - scals[j].lam @ scals[j].lam))
                    for j in range(nb)]
            dx, dy, ds, dta2, dka2 = directions(
                0.0 * rp, 0.0 * rd, 0.0, mu - tau * kap, us_c)
            dx_b, ds_b = rc.unvec(dx), rc.unvec(ds)
            step, _, _ = _step(scals, dx_b, ds_b, tau, kap, dta2, dka2,
                               1.0 / 0.9, 0.9)

        if step < 1e-8:
            stall += 1
            if stall >= 3:
                msg = "step size collapsed"
                break
        else:
            stall = 0

        for j in range(nb):
            xb[j] = _sym(xb[j] + step * dx_b[j])
            sb[j] = _sym(sb[j] + step * ds_b[j])
        y = y + step * dy
        tau += step * dta2
        kap += step * dka2

    if status is None:
        cert = try_certificates(1e-7)
        if cert is not None:
            status, msg = cert, "certificate found after iteration limit"
        else:
            status = SdpStatus.NUMERICAL_FAILURE
            msg = msg or "iteration limit reached"
    return _RawResult(status, xb, y, sb, tau, kap, it, msg)


# ---------------------------------------------------------------------------
# public driver
# ---------------------------------------------------------------------------

def solve(problem: SdpProblem,
          tolerances: SdpTolerances | None = None) -> SdpSolution:
    """Solve a primal-standard-form Hermitian SDP.

    On status OPTIMAL the returned blocks satisfy the constraints and PSD
    conditions within the tolerances, re-verified here outside the solver
    loop; infeasible statuses carry an improving-ray certificate.
    """
    tol = tolerances or SdpTolerances()
    rc = problem.compile()
    a, b, c = rc.A, rc.b, rc.c_vec   # unscaled, for certificates and _verify
    row_scale, sb, sc = rc.scale()
    raw = _ipm(rc, tol, descale=(row_scale, sb, sc,
                                 1.0 + float(np.linalg.norm(b)),
                                 1.0 + float(np.linalg.norm(c))))

    sol = SdpSolution(status=raw.status, iterations=raw.iterations,
                      message=raw.message)
    if raw.status is SdpStatus.OPTIMAL:
        tau = raw.tau
        xb = [sb * blk / tau for blk in raw.x]
        y = sc * (raw.y / row_scale) / tau
        slk = [sc * blk / tau for blk in raw.s]
        sol.primal_blocks = [_extract(blk) for blk in xb]
        sol.dual_y = y
        sol.dual_slack_blocks = [_extract(blk) for blk in slk]
        sol.primal_value = 0.5 * float(c @ rc.vec(xb))
        sol.dual_value = 0.5 * float(b @ y)
        _verify(rc, a, b, c, sol, solver_slack=slk)
    elif raw.status is SdpStatus.PRIMAL_INFEASIBLE:
        y = sc * (raw.y / row_scale)
        byv = float(b @ y) / 2.0
        y = y / byv if abs(byv) > 1e-300 else y
        zc = rc.unvec(-(a.T @ y))
        sol.certificate = {
            "kind": "farkas_dual",
            "y": y,
            "slack_blocks": [_extract(zj) for zj in zc],
            "note": "sum_i y_i A_i <= 0 (approx) with b.y = 1",
        }
        sol.dual_y = y
    elif raw.status is SdpStatus.DUAL_INFEASIBLE:
        x = rc.vec(raw.x) * sb
        cx = 0.5 * float(c @ x)
        scale = -cx if cx < -1e-300 else 1.0
        blocks = [_extract(blk * sb / scale) for blk in raw.x]
        sol.certificate = {
            "kind": "improving_ray",
            "blocks": blocks,
            "note": "A(X) = 0 (approx), X >= 0, <C,X> = -1",
        }
        sol.primal_blocks = blocks
    return sol


def _verify(rc: _RealConic, a, b, c, sol: SdpSolution,
            solver_slack: list[np.ndarray]) -> None:
    """Recompute feasibility residuals and eigenvalue floors from scratch."""
    xb = sol.primal_blocks
    y = sol.dual_y
    x_r = rc.vec([_embed(blk) for blk in xb])
    res = a @ x_r - b
    sol.primal_residual = 0.5 * float(np.max(np.abs(res))) if rc.m else 0.0
    sol.min_eig_primal = min(
        float(np.linalg.eigvalsh(0.5 * (blk + blk.conj().T))[0])
        for blk in xb)
    # slack recomputed from y; residual = distance to the slack the solver kept
    s_r = rc.unvec(c - a.T @ y)
    slack = [_extract(sj) for sj in s_r]
    sol.dual_residual = max(
        float(np.max(np.abs(chk - _extract(it_s))))
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
    variable (or an arbitrary per-parameter matrix) into LMI blocks; the
    build step maps everything onto the primal-standard-form solver and the
    optimal y is read back from the dual multipliers.
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

    def add_param_term(self, blk: int, param: int, mat) -> None:
        """Raw placement: parameter contributes the given Hermitian matrix."""
        coo = sp.coo_matrix(mat)
        self._place(blk, param, coo.row, coo.col, coo.data)

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

    @property
    def infeasible(self) -> bool:
        """No y makes all LMI blocks PSD."""
        return self.status is SdpStatus.DUAL_INFEASIBLE

    @property
    def unbounded(self) -> bool:
        return self.status is SdpStatus.PRIMAL_INFEASIBLE


class LmiProgram:
    def __init__(self, builder: LmiBuilder, problem: SdpProblem):
        self.builder = builder
        self.problem = problem

    def solve(self, tolerances: SdpTolerances | None = None) -> LmiSolution:
        sol = solve(self.problem, tolerances)
        if sol.status is not SdpStatus.OPTIMAL:
            return LmiSolution(sol.status, None, None, {}, sol)
        y = sol.dual_y
        out: dict[str, object] = {}
        for name, ref in self.builder.vars.items():
            out[name] = _var_value(ref, y)
        return LmiSolution(sol.status, -sol.dual_value, y, out, sol)


def _var_value(ref: VarRef, y: np.ndarray):
    if ref.kind == "real":
        return float(y[ref.offset])
    if ref.kind == "herm":
        d = ref.shape[0]
        m = np.zeros((d, d), dtype=complex)
        for i in range(d):
            m[i, i] = y[ref.param("diag", i)]
        for i in range(d):
            for j in range(i + 1, d):
                v = y[ref.param("re", i, j)] + 1j * y[ref.param("im", i, j)]
                m[i, j] = v
                m[j, i] = np.conj(v)
        return m
    r, c = ref.shape
    m = np.zeros((r, c), dtype=complex)
    for i in range(r):
        for j in range(c):
            m[i, j] = y[ref.param("re", i, j)] + 1j * y[ref.param("im", i, j)]
    return m
