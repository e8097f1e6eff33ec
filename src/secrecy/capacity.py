"""Capacity optimizers for wiretap channels with classical inputs.

For a degraded channel the private capacity is a single-letter quantity:
the input distribution maximizing the conditional mutual information
I(X : F | E') evaluated through the Stinespring dilation V : B -> E' (x) F
of the degrading map.  The same ascent also drives the Holevo quantity of a
cq ensemble and the difference-of-mutual-informations lower bound that needs
no degradedness assumption.

Every objective is a signed sum of entropies of mixtures, so one eigh per
mixture gives its value and exact gradient, d/dp_x S(sum p_x rho_x) =
-tr rho_x log2 rho_bar - 1/ln 2 (the constant cancels in every objective
and in the projection).  One projected-gradient ascent with a doubling,
halving and quadratic-fit step runs from several random restarts.  Results
carry the norm of the projected-gradient fixed-point residual and the
spread of the restart values; for the concave objectives they also carry
the Frank-Wolfe upper bound ``value + max_x g_x - p.g`` on the maximum
(Ramakrishnan et al., IEEE Trans. Inf. Theory 67(2), 2021).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import CqqWiretapChannel, DegradedStructure, check_degraded
from .quantum import (DensityOperator, ValidationError, binary_entropy,
                      von_neumann_entropy)

__all__ = [
    "CapacityResult",
    "private_capacity_degraded",
    "classical_capacity_cq",
    "p1_general_lower_bound",
    "grid_search_binary",
    "holevo_of",
    "bsc_wiretap_capacity_formula",
    "two_pure_state_capacity_formula",
]

_CONV_TOL = 1e-10
_MAX_ITERS = 5000
# log2 of a zero eigenvalue: finite, so a state outside the mixture's support
# gets a large (not infinite) pull toward it
_LOG_FLOOR = np.finfo(float).tiny


@dataclass
class CapacityResult:
    """Optimized value with its convergence evidence.

    ``upper`` is a certified upper bound on the maximum (Frank-Wolfe gap)
    for the concave objectives, and None where the objective is not concave.
    """

    value: float
    distribution: np.ndarray
    gradient_residual: float
    spread: float
    iterations: int
    upper: float | None = None

    @property
    def certified(self) -> bool:
        return self.gradient_residual <= 1e-6 and self.spread <= 1e-6


Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = int(np.max(np.nonzero(cond)[0])) if np.any(cond) else 0
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _ascend(fg: Objective, p: np.ndarray, project: Callable,
            concave: bool) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Projected gradient ascent of ``fg`` (value and gradient) from ``p``;
    returns the value, point, gradient there and iteration count."""
    p = project(np.asarray(p, dtype=float))
    fp, g = fg(p)
    step = 1.0
    iters = 0
    for iters in range(1, _MAX_ITERS + 1):
        if np.linalg.norm(project(p + g) - p) <= _CONV_TOL:
            break
        t = 2.0 * step
        if concave and float(g @ (project(p + t * g) - p)) <= 1e-14:
            # on a concave objective g.(cand - p) bounds the gain of every
            # step up to t, so none could pass the 1e-14 test below
            break
        while t > 1e-14:
            cand = project(p + t * g)
            fc, gc = fg(cand)
            if fc > fp + 1e-14:
                break
            t *= 0.5
        else:
            break
        # maximiser of the quadratic through fp, slope g.(cand - p) and fc
        slope = float(g @ (cand - p))
        bend = fc - fp - slope
        if bend < 0.0:
            t_fit = t * slope / (-2.0 * bend)
            fit = project(p + t_fit * g)
            f_fit, g_fit = fg(fit)
            if f_fit > fc:
                cand, fc, gc, t = fit, f_fit, g_fit, t_fit
        p, fp, g, step = cand, fc, gc, t
    return fp, p, g, iters


def _multistart(fg: Objective, inits: Sequence[np.ndarray],
                project: Callable = _project_simplex,
                concave: bool = True) -> CapacityResult:
    best = None
    values = []
    total_iters = 0
    for p0 in inits:
        val, p, g, iters = _ascend(fg, p0, project, concave)
        values.append(val)
        total_iters += iters
        if best is None or val > best[0]:
            best = (val, p, g)
    val, p, g = best
    residual = float(np.linalg.norm(project(p + g) - p))
    upper = float(val + max(0.0, float(np.max(g) - p @ g))) if concave \
        else None
    return CapacityResult(value=float(val), distribution=p,
                          gradient_residual=residual,
                          spread=float(max(values) - min(values)),
                          iterations=total_iters, upper=upper)


def _simplex_starts(size: int, starts: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [np.full(size, 1.0 / size)] + [
        rng.dirichlet(np.ones(size)) for _ in range(max(0, starts - 1))]


# ---------------------------------------------------------------------------
# objectives: value and exact gradient
# ---------------------------------------------------------------------------

def _mixture_entropy(mats: np.ndarray, p: np.ndarray
                     ) -> tuple[float, np.ndarray]:
    """S(sum_x p_x mats_x) in bits and, per x, -tr mats_x log2 of the mixture
    (the partial derivative in p_x less the constant 1/ln 2)."""
    vals, vecs = np.linalg.eigh(np.tensordot(p, mats, axes=1))
    vals = np.clip(vals, 0.0, None)
    logs = np.log2(np.maximum(vals, _LOG_FLOOR))
    overlaps = np.einsum("ik,xij,jk->xk", vecs.conj(), mats, vecs).real
    return -float(vals @ logs), -(overlaps @ logs)


def _holevo_objective(mats: Sequence[np.ndarray]) -> Objective:
    mats = np.asarray(mats)
    ents = np.array([von_neumann_entropy(m) for m in mats])

    def fg(p: np.ndarray) -> tuple[float, np.ndarray]:
        s, g = _mixture_entropy(mats, p)
        return s - float(p @ ents), g - ents

    return fg


def _degraded_objective(channel: CqqWiretapChannel,
                        structure: DegradedStructure) -> Objective:
    v = structure.isometry.mat
    de, df = structure.isometry.out_dims
    taus = np.array([v @ channel.bob_marginal(x).mat @ v.conj().T
                     for x in range(channel.size)])
    taus_e = np.array([DensityOperator(t, (de, df), validate=False)
                       .partial_trace([0]).mat for t in taus])
    consts = np.array([von_neumann_entropy(t) - von_neumann_entropy(te)
                       for t, te in zip(taus, taus_e)])

    def fg(p: np.ndarray) -> tuple[float, np.ndarray]:
        sj, gj = _mixture_entropy(taus, p)
        sm, gm = _mixture_entropy(taus_e, p)
        return sj - sm - float(p @ consts), gj - gm - consts

    return fg


def _difference(f_b: Objective, f_e: Objective) -> Objective:
    def fg(p: np.ndarray) -> tuple[float, np.ndarray]:
        (vb, gb), (ve, ge) = f_b(p), f_e(p)
        return vb - ve, gb - ge

    return fg


def _aux_objective(bob: np.ndarray, eve: np.ndarray, k: int) -> Objective:
    """I(U:B) - I(U:E) over theta = (P_U, rows r_kx = P(x|u=k)).  With
    B_k = sum_x r_kx b_x and B_bar = sum_k P_U(k) B_k its exact gradient is
    -tr B_k log2 B_bar - S(B_k) in P_U(k) and P_U(k) tr b_x (log2 B_k -
    log2 B_bar) in r_kx, less the same with Eve's states."""
    m = bob.shape[0]

    def fg(theta: np.ndarray) -> tuple[float, np.ndarray]:
        pu, rows = theta[:k], theta[k:].reshape(k, m)
        value, g_pu, g_rows = 0.0, np.zeros(k), np.zeros((k, m))
        for mats, sign in ((bob, 1.0), (eve, -1.0)):
            s_bar, d_bar = _mixture_entropy(mats, pu @ rows)
            parts = [_mixture_entropy(mats, row) for row in rows]
            s_k = np.array([s for s, _ in parts])
            d_k = np.array([d for _, d in parts])
            value += sign * (s_bar - float(pu @ s_k))
            g_pu += sign * (rows @ d_bar - s_k)
            g_rows += sign * pu[:, None] * (d_bar[None, :] - d_k)
        return value, np.concatenate([g_pu, g_rows.reshape(-1)])

    return fg


def private_capacity_degraded(channel: CqqWiretapChannel,
                              structure: DegradedStructure | None = None,
                              starts: int = 5, seed: int = 0
                              ) -> CapacityResult:
    """Maximize I(X : F | E') through the degrading map's dilation.

    With classical X the objective reduces to
    ``S(mix) - S(mix^{E'}) - sum_x P(x) [S(tau_x) - S(tau_x^{E'})]``
    for tau_x the dilated receiver states on E' (x) F, which the optimizer
    evaluates directly from eigenvalues.
    """
    if structure is None:
        structure = check_degraded(channel)
        if structure is None:
            raise ValidationError(
                "channel is not degraded; the single-letter formula "
                "does not apply")
    return _multistart(_degraded_objective(channel, structure),
                       _simplex_starts(channel.size, starts, seed))


def classical_capacity_cq(states: Sequence[DensityOperator],
                          starts: int = 5, seed: int = 0) -> CapacityResult:
    """Holevo quantity of a cq ensemble, maximized over the input weights."""
    if len(states) < 2:
        raise ValidationError("need at least two signal states")
    dims = {s.dims for s in states}
    if len(dims) != 1:
        raise ValidationError("signal states live on different systems")
    return _multistart(_holevo_objective([s.mat for s in states]),
                       _simplex_starts(len(states), starts, seed))


def p1_general_lower_bound(channel: CqqWiretapChannel,
                           aux_size: int | None = None,
                           starts: int = 5, seed: int = 0) -> CapacityResult:
    """Maximize I(U:B) - I(U:E) over input strategies.

    With ``aux_size`` omitted (or equal to the alphabet size) the auxiliary
    variable is the input itself and only its distribution is optimized.
    A larger auxiliary alphabet additionally optimizes the conditional
    rows; any feasible point is a valid achievability bound, so local
    optima are acceptable there.  The objective is not concave, so the
    result carries no upper bound.
    """
    bob = np.array([channel.bob_marginal(x).mat for x in range(channel.size)])
    eve = np.array([channel.eve_marginal(x).mat for x in range(channel.size)])
    if aux_size is None or aux_size == channel.size:
        return _multistart(_difference(_holevo_objective(bob),
                                       _holevo_objective(eve)),
                           _simplex_starts(channel.size, starts, seed),
                           concave=False)

    if aux_size < 1:
        raise ValidationError("auxiliary alphabet must be nonempty")
    k, m = int(aux_size), channel.size
    rng = np.random.default_rng(seed)
    inits = [np.concatenate([np.full(k, 1.0 / k)]
                            + [np.eye(m)[i % m] for i in range(k)])]
    for _ in range(max(1, starts) - 1):
        pu = rng.dirichlet(np.ones(k))
        inits.append(np.concatenate(
            [pu, rng.dirichlet(np.ones(m), size=k).reshape(-1)]))

    def project(theta: np.ndarray) -> np.ndarray:
        return np.concatenate([_project_simplex(theta[:k])] + [
            _project_simplex(r) for r in theta[k:].reshape(k, m)])

    return _multistart(_aux_objective(bob, eve, k), inits, project,
                       concave=False)


# ---------------------------------------------------------------------------
# independent cross-checks
# ---------------------------------------------------------------------------

def grid_search_binary(objective: Callable[[np.ndarray], float],
                       step: float = 1e-4) -> tuple[float, float]:
    """Exhaustive scan of a two-point distribution; returns (value, weight)."""
    if not 0.0 < step < 0.5:
        raise ValidationError("grid step must lie in (0, 0.5)")
    best_v, best_p = -math.inf, 0.0
    n = int(round(1.0 / step))
    for k in range(n + 1):
        p = k / n
        v = objective(np.array([p, 1.0 - p]))
        if v > best_v:
            best_v, best_p = v, p
    return best_v, best_p


def holevo_of(states: Sequence[DensityOperator]) -> Callable:
    """Holevo quantity of the given states as a function of the weights."""
    fg = _holevo_objective([s.mat for s in states])
    return lambda p: fg(p)[0]


def bsc_wiretap_capacity_formula(p: float, r: float) -> float:
    """Closed form for the binary symmetric wiretap: h2(p(1-r)+(1-p)r) - h2(p)."""
    q = p * (1.0 - r) + (1.0 - p) * r
    return binary_entropy(q) - binary_entropy(p)


def two_pure_state_capacity_formula(overlap: float) -> float:
    """Closed form for two pure signal states with the given overlap and an
    uninformative eavesdropper: h2((1+overlap)/2)."""
    return binary_entropy((1.0 + overlap) / 2.0)
