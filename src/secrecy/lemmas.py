"""Numerically verified inequality suite for one-shot conditional entropies.

Each rule names a provable inequality between SDP-computed entropies of a
concrete state, oriented as  lhs <= rhs  so that ``slack = rhs - lhs`` is
nonnegative up to solver noise.  A report with ``holds == False`` (slack
below ``-CHECK_TOL``) signals an implementation bug, never a counterexample.

Rules
-----
DataProcessingMin   H_min^e(A|BC)  <=  H_min^e(A|B)          (discard C)
DataProcessingMax   H_max^e(A|BC)  <=  H_max^e(A|B)
ChainMaxUpper       H_max^{e+2d+h}(AB|C) <= H_max^d(B|C) + H_max^e(A|BC)
                                           + log2(2/h^2)
ChainMaxLower       H_min^d(B|C) + H_max^{e+2d+2h}(A|BC) - 3 log2(2/h^2)
                                  <=  H_max^e(AB|C)
MinMaxConversion    H_min^e(A|B)  <=  H_max^d(A|B) + log2 1/(1-(e+d)^2);
                    with angles given instead, the sharp form
                    H_min^{sin a}(A|B) <= H_max^{sin b}(A|B)
                                           + log2 1/cos^2(a+b)
MaxMinConversion    H_max^d(A|B)  <=  H_min^{1-d^2/4}(A|B)
QuasiConcavity      H_max^{e*}(A|B)_rho <= H_max^e(A|B)_mixed, where the
                    mixed state averages (U_i (x) V_i) rho (.)^dag and
                    e* = e sqrt(2-e^2)
AepMin              n S(A|B) - width(n, e)  <=  H_min^e(A^n|B^n)
AepMax              H_max^e(A^n|B^n)  <=  n S(A|B) + width(n, e)

The harness draws seeded random instances (tripartite for the discard and
chain rules, bipartite otherwise), evaluates every side by SDP, and can
serialize the outcomes to CSV with columns exactly
``rule,seed,params,lhs,rhs,slack,holds`` -- byte-reproducible for a fixed
seed, since every instance is regenerated from its own row seed.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .quantum import DensityOperator, ValidationError, conditional_entropy, \
    random_density, random_unitary
from .entropy import EntropyQuery, aep_bounds, h_min_smooth, h_max_smooth
from .symmetry import h_max_smooth_power, h_min_smooth_power
from .sdp import SdpTolerances

__all__ = [
    "CHECK_TOL",
    "RULES",
    "InequalityReport",
    "verify_inequality",
    "run_harness",
    "write_csv",
    "csv_text",
]

CHECK_TOL = 1e-6

#: Order fixes both registry listings and the parameter serialization.
_PARAM_ORDER = ("eps", "delta", "eta", "alpha", "beta", "n")


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of one verified inequality, with its parameter record."""

    rule: str
    lhs: float
    rhs: float
    params: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -CHECK_TOL

    def params_text(self) -> str:
        parts = []
        for key in _PARAM_ORDER:
            if key in self.params:
                val = self.params[key]
                parts.append(f"{key}={int(val) if key == 'n' else repr(float(val))}")
        return ";".join(parts)


def _hmin(state, a, b, eps, tol):
    return h_min_smooth(EntropyQuery(state, tuple(a), tuple(b), eps), tol)


def _hmax(state, a, b, eps, tol):
    return h_max_smooth(EntropyQuery(state, tuple(a), tuple(b), eps), tol)


def _need(params: dict, *keys) -> list[float]:
    out = []
    for key in keys:
        if key not in params:
            raise ValidationError(f"rule needs parameter {key!r}")
        out.append(float(params[key]))
    return out


def _check_eps(*values) -> None:
    for v in values:
        if not 0.0 <= v < 1.0:
            raise ValidationError(
                f"smoothing parameter {v} outside [0, 1)")


def _data_processing_min(state, params, tol):
    (eps,) = _need(params, "eps")
    _check_eps(eps)
    lhs = _hmin(state, (0,), (1, 2), eps, tol)
    rhs = _hmin(state, (0,), (1,), eps, tol)
    return lhs, rhs, {"eps": eps}


def _data_processing_max(state, params, tol):
    (eps,) = _need(params, "eps")
    _check_eps(eps)
    lhs = _hmax(state, (0,), (1, 2), eps, tol)
    rhs = _hmax(state, (0,), (1,), eps, tol)
    return lhs, rhs, {"eps": eps}


_LOG2_OVER = lambda eta: math.log2(2.0 / (eta * eta))


def _chain_max_upper(state, params, tol):
    eps, delta, eta = _need(params, "eps", "delta", "eta")
    if eta <= 0:
        raise ValidationError("eta must be positive")
    _check_eps(eps, delta, eps + 2 * delta + eta)
    lhs = _hmax(state, (0, 1), (2,), eps + 2 * delta + eta, tol)
    rhs = _hmax(state, (1,), (2,), delta, tol) \
        + _hmax(state, (0,), (1, 2), eps, tol) + _LOG2_OVER(eta)
    return lhs, rhs, {"eps": eps, "delta": delta, "eta": eta}


def _chain_max_lower(state, params, tol):
    eps, delta, eta = _need(params, "eps", "delta", "eta")
    if eta <= 0:
        raise ValidationError("eta must be positive")
    _check_eps(eps, delta, eps + 2 * delta + 2 * eta)
    lhs = _hmin(state, (1,), (2,), delta, tol) \
        + _hmax(state, (0,), (1, 2), eps + 2 * delta + 2 * eta, tol) \
        - 3 * _LOG2_OVER(eta)
    rhs = _hmax(state, (0, 1), (2,), eps, tol)
    return lhs, rhs, {"eps": eps, "delta": delta, "eta": eta}


def _min_max_conversion(state, params, tol):
    if "alpha" in params or "beta" in params:
        alpha, beta = _need(params, "alpha", "beta")
        if alpha < 0 or beta < 0 or alpha + beta >= math.pi / 2:
            raise ValidationError("angles need alpha, beta >= 0 and "
                                  "alpha + beta < pi/2")
        lhs = _hmin(state, (0,), (1,), math.sin(alpha), tol)
        rhs = _hmax(state, (0,), (1,), math.sin(beta), tol) \
            + math.log2(1.0 / math.cos(alpha + beta) ** 2)
        return lhs, rhs, {"alpha": alpha, "beta": beta}
    eps, delta = _need(params, "eps", "delta")
    _check_eps(eps, delta)
    if eps + delta >= 1:
        raise ValidationError("conversion needs eps + delta < 1")
    lhs = _hmin(state, (0,), (1,), eps, tol)
    rhs = _hmax(state, (0,), (1,), delta, tol) \
        + math.log2(1.0 / (1.0 - (eps + delta) ** 2))
    return lhs, rhs, {"eps": eps, "delta": delta}


def _max_min_conversion(state, params, tol):
    (delta,) = _need(params, "delta")
    if not 0.0 < delta < 1.0:
        raise ValidationError("conversion needs delta strictly inside (0, 1)")
    lhs = _hmax(state, (0,), (1,), delta, tol)
    rhs = _hmin(state, (0,), (1,), 1.0 - delta * delta / 4.0, tol)
    return lhs, rhs, {"delta": delta}


def _quasi_concavity(state, params, tol):
    (eps,) = _need(params, "eps")
    _check_eps(eps)
    mix = params.get("mix")
    if not mix:
        raise ValidationError(
            "QuasiConcavity needs params['mix'] = [(p, U, V), ...]")
    probs = np.array([float(p) for p, _, _ in mix])
    if np.any(probs < -1e-12) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValidationError("mixture weights must form a distribution")
    da, db = state.dims
    mixed = np.zeros_like(state.mat)
    for p, u, v in mix:
        u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
        for mat, dim in ((u, da), (v, db)):
            if mat.shape != (dim, dim) or \
                    np.linalg.norm(mat.conj().T @ mat - np.eye(dim)) > 1e-8:
                raise ValidationError("mixture entries must be local "
                                      "unitaries of matching dimension")
        local = np.kron(u, v)
        mixed = mixed + float(p) * (local @ state.mat @ local.conj().T)
    eps_hat = eps * math.sqrt(2.0 - eps * eps)
    lhs = _hmax(state, (0,), (1,), eps_hat, tol)
    rhs = _hmax(DensityOperator(mixed, state.dims), (0,), (1,), eps, tol)
    return lhs, rhs, {"eps": eps}


def _aep_width_sides(state, params, tol):
    eps, n = _need(params, "eps", "n")
    n = int(n)
    if not 0.0 < eps < 1.0:
        raise ValidationError("product-state estimates need eps in (0, 1)")
    lo, hi = aep_bounds(state, [0], [1], n, eps)
    return n, eps, lo, hi


def _aep_min(state, params, tol):
    n, eps, lo, _ = _aep_width_sides(state, params, tol)
    rhs = h_min_smooth_power(state, n, eps, tol)
    return lo, rhs, {"eps": eps, "n": n}


def _aep_max(state, params, tol):
    n, eps, _, hi = _aep_width_sides(state, params, tol)
    lhs = h_max_smooth_power(state, n, eps, tol)
    return lhs, hi, {"eps": eps, "n": n}


_REGISTRY: dict[str, Callable] = {
    "DataProcessingMin": _data_processing_min,
    "DataProcessingMax": _data_processing_max,
    "ChainMaxUpper": _chain_max_upper,
    "ChainMaxLower": _chain_max_lower,
    "MinMaxConversion": _min_max_conversion,
    "MaxMinConversion": _max_min_conversion,
    "QuasiConcavity": _quasi_concavity,
    "AepMin": _aep_min,
    "AepMax": _aep_max,
}

RULES: tuple[str, ...] = tuple(_REGISTRY)

_DIM_CAP = 3


def verify_inequality(rule: str, state: DensityOperator, params: dict,
                      tolerances: SdpTolerances | None = None
                      ) -> InequalityReport:
    """Evaluate both sides of a named inequality on a concrete state."""
    if rule not in _REGISTRY:
        raise ValidationError(
            f"unknown rule {rule!r}; valid rules: {', '.join(RULES)}")
    if any(d > _DIM_CAP for d in state.dims):
        raise ValidationError(
            f"subsystem dimensions are capped at {_DIM_CAP} "
            f"(SDP tractability)")
    lhs, rhs, recorded = _REGISTRY[rule](state, params, tolerances)
    return InequalityReport(rule, float(lhs), float(rhs), recorded)


# ---------------------------------------------------------------------------
# Seeded harness
# ---------------------------------------------------------------------------

_TRIPARTITE_RULES = {"DataProcessingMin", "DataProcessingMax",
                     "ChainMaxUpper", "ChainMaxLower"}

_GRID = (0.05, 0.1, 0.2, 0.4)


def _chain_combos(grid, budget_of) -> list[tuple[float, float, float]]:
    return [(e, d, h) for e in grid for d in grid for h in grid
            if budget_of(e, d, h) < 1.0]


def _draw_instance(rule: str, seed: int, grid,
                   dims: tuple[int, int, int] = (2, 2, 2)
                   ) -> tuple[DensityOperator, dict]:
    rng = np.random.default_rng(seed)
    da, db, dc = dims
    if rule in _TRIPARTITE_RULES:
        state = random_density((da, db, dc), rng,
                               rank=int(rng.integers(1, 3)))
        if rule == "DataProcessingMin" or rule == "DataProcessingMax":
            return state, {"eps": float(rng.choice(grid))}
        if rule == "ChainMaxUpper":
            combos = _chain_combos(grid, lambda e, d, h: e + 2 * d + h)
        else:
            combos = _chain_combos(grid, lambda e, d, h: e + 2 * d + 2 * h)
        e, d, h = combos[rng.integers(len(combos))]
        return state, {"eps": e, "delta": d, "eta": h}
    state = random_density((da, db), rng, rank=int(rng.integers(1, 5)))
    if rule == "MinMaxConversion":
        return state, {"eps": float(rng.choice(grid)),
                       "delta": float(rng.choice(grid))}
    if rule == "MaxMinConversion":
        return state, {"delta": float(rng.choice(grid))}
    if rule == "QuasiConcavity":
        k = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(k))
        mix = [(float(p), random_unitary(da, rng), random_unitary(db, rng))
               for p in probs]
        return state, {"eps": float(rng.choice(grid)), "mix": mix}
    if rule in ("AepMin", "AepMax"):
        state = random_density((da, db), rng, rank=min(2, da * db))
        return state, {"eps": float(rng.choice(grid)),
                       "n": int(rng.integers(1, 3))}
    raise ValidationError(f"unknown rule {rule!r}")


def run_harness(rules: Sequence[str] | None = None, trials: int = 200,
                seed: int = 0, grid: Sequence[float] = _GRID,
                tolerances: SdpTolerances | None = None,
                dims: Sequence[int] = (2, 2, 2)
                ) -> list[tuple[int, InequalityReport]]:
    """Verify each rule on ``trials`` seeded random instances.

    ``dims`` sizes the three subsystem factors instances are drawn on
    (bipartite rules use the first two).  Returns ``(row_seed, report)``
    pairs; any row regenerates from its seed alone, which is what makes
    the CSV byte-reproducible.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ValidationError("dims must be three positive integers")
    rows: list[tuple[int, InequalityReport]] = []
    for r_idx, rule in enumerate(rules if rules is not None else RULES):
        for i in range(trials):
            row_seed = seed + 100_000 * (r_idx + 1) + i
            state, params = _draw_instance(rule, row_seed, tuple(grid), dims)
            rows.append((row_seed,
                         verify_inequality(rule, state, params, tolerances)))
    return rows


def csv_text(rows: list[tuple[int, InequalityReport]]) -> str:
    buf = io.StringIO()
    buf.write("rule,seed,params,lhs,rhs,slack,holds\n")
    for row_seed, rep in rows:
        buf.write(f"{rep.rule},{row_seed},{rep.params_text()},"
                  f"{rep.lhs!r},{rep.rhs!r},{rep.slack!r},{rep.holds}\n")
    return buf.getvalue()


def write_csv(path, rows: list[tuple[int, InequalityReport]]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(csv_text(rows))
