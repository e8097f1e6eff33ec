"""Converse bounds for private communication over wiretap channels.

Three certificates of increasing structure, all built from measured code
performance and SDP-computed one-shot entropies:

* ``trivial_converse_bound``: any code transmitting M messages with error
  ``eps*`` and leakage ``delta*`` obeys
  ``log2 M <= H_min^{delta*}(U|E^n) - H_max^{eps*}(U|B^n)``
  on its own message/output states — decodability pins the max-entropy at
  or below zero while privacy pins the min-entropy at or above ``log2 M``.

* ``audit_privacy_bound_chain``: on a degraded channel the bound is pushed
  through the degrading isometry ``V : B -> E' (x) F`` line by line — the
  substitution of the eavesdropper's register by its twin, a two-sided
  chain-rule split, and a processing step down to the conditioned-on-input
  state.  Every line is returned as an :class:`InequalityReport` whose
  slack must be nonnegative up to solver noise.

* ``finite_n_converse``: an explicit-constant bound
  ``B(n) = n P + O(sqrt(n log n))`` valid at every block length, assembled
  from the chain-rule costs, product-state entropy estimates with
  worst-letter support floors, and — for unrestricted encoders — a
  reduction to constant-composition sub-codes that adds a type-register
  cost and a hashing surcharge.  ``B >= n P`` always; the normalized
  overhead decays like ``sqrt(log n / n)``.

``classify_region`` places an (error, leakage) pair against the two
governing curves: the finite-blocklength converse machinery operates
strictly inside the line ``eps + 2 delta = 1``; on or outside the circle
``eps^2 + delta^2 = 1`` even a constant-biased encoder mixture defeats any
converse (no-go); the strip between the two curves is settled by neither
argument.

``type_class_check`` verifies the counting facts the constant-composition
reduction rests on: the size of a type class and the uniform-over-the-class
state being dominated by ``(n+1)^{|X|}`` times the product distribution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import private_capacity_degraded
from .channels import CqqWiretapChannel, DegradedStructure
from .codes import (WiretapCode, encoder_output_states, evaluate_code, _budget,
                    _grouped_kron, BUDGET_ENV)
from .entropy import EntropyQuery, _support_floor, h_max_smooth, h_min_smooth
from .lemmas import InequalityReport
from .quantum import (DensityOperator, ValidationError, apply_isometry,
                      cq_state, trace_norm)

__all__ = [
    "OutsideConverseRegion",
    "RegionVerdict",
    "TypeClass",
    "FiniteBlocklengthBound",
    "classify_region",
    "type_class_check",
    "trivial_converse_bound",
    "audit_privacy_bound_chain",
    "finite_n_terms",
    "finite_n_converse",
]

#: Smoothing parameters are clamped below one by this margin before entering
#: an entropy program; exactly-one parameters are degenerate there.
_SMOOTH_CAP = 1.0 - 1e-9


class OutsideConverseRegion(Exception):
    """The (eps, delta) pair lies on or beyond the line eps + 2 delta = 1,
    where the finite-blocklength converse assembly has no positive
    smoothing budget."""

    def __init__(self, eps: float, delta: float):
        self.eps = float(eps)
        self.delta = float(delta)
        self.line = self.eps + 2.0 * self.delta
        super().__init__(
            f"eps + 2 delta = {self.line:.6g} >= 1 at eps={self.eps:.6g}, "
            f"delta={self.delta:.6g}; no converse bound applies")


# ---------------------------------------------------------------------------
# parameter-region geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionVerdict:
    """Where an (error, leakage) pair falls, with both curve values."""

    label: str      # "Converse" | "Gap" | "NoGo"
    line: float     # eps + 2 delta, converse applies strictly below 1
    circle: float   # eps^2 + delta^2, no-go applies at or above 1


def classify_region(eps: float, delta: float) -> RegionVerdict:
    """Classify an (eps, delta) pair against the converse and no-go curves.

    The no-go region is closed (the circle itself already defeats any
    converse); the converse region is open (the line itself does not
    support the bound)."""
    eps, delta = float(eps), float(delta)
    if not (0.0 <= eps <= 1.0 and 0.0 <= delta <= 1.0):
        raise ValidationError("eps and delta must lie in [0, 1]")
    line = eps + 2.0 * delta
    circle = eps * eps + delta * delta
    if circle >= 1.0:
        label = "NoGo"
    elif line < 1.0:
        label = "Converse"
    else:
        label = "Gap"
    return RegionVerdict(label=label, line=line, circle=circle)


# ---------------------------------------------------------------------------
# type-class counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeClass:
    """A constant-composition class of strings with its counting facts.

    ``holds`` records the verified domination  1/size <= factor * product
    of the uniform-over-the-class distribution by ``(n+1)^{|X|}`` times the
    product distribution, checked for every member (they all share the same
    product probability)."""

    n: int
    counts: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    size: int
    member_prob: float
    product_prob: float
    factor: float
    holds: bool


def type_class_check(n: int, p0, alphabet_size: int) -> TypeClass:
    """Enumerate the type class of the distribution ``p0`` at length ``n``
    and verify its size and product-domination facts.

    ``n * p0`` must be integral: a distribution that is not a type of
    length ``n`` is rejected."""
    if n < 1:
        raise ValidationError("block length n must be a positive integer")
    p = np.asarray(p0, dtype=float)
    if p.shape != (alphabet_size,):
        raise ValidationError(
            f"p0 must have one entry per symbol ({alphabet_size})")
    if np.min(p) < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError("p0 must be a probability distribution")
    scaled = n * p
    counts = np.rint(scaled).astype(int)
    if np.max(np.abs(scaled - counts)) > 1e-9:
        raise ValidationError(
            f"{p.tolist()} is not a type of length {n}: n*p0 is not integral")
    members = tuple(xs for xs in itertools.product(range(alphabet_size),
                                                   repeat=n)
                    if all(xs.count(x) == counts[x]
                           for x in range(alphabet_size)))
    size = math.factorial(n)
    for c in counts:
        size //= math.factorial(int(c))
    if len(members) != size:
        raise ValidationError(
            f"type-class enumeration inconsistent: {len(members)} != {size}")
    product_prob = float(np.prod([p[x] ** counts[x]
                                  for x in range(alphabet_size)]))
    factor = float((n + 1) ** alphabet_size)
    member_prob = 1.0 / size
    holds = member_prob <= factor * product_prob + 1e-15
    return TypeClass(n=n, counts=tuple(int(c) for c in counts),
                     members=members, size=size, member_prob=member_prob,
                     product_prob=product_prob, factor=factor, holds=holds)


# ---------------------------------------------------------------------------
# one-shot converse on measured codes
# ---------------------------------------------------------------------------

def _message_marginal_states(code: WiretapCode, channel: CqqWiretapChannel,
                             keep: int) -> DensityOperator:
    """Classical-quantum state of (message, one receiver's block):
    keep = 0 for the intended receiver, 1 for the eavesdropper."""
    states = encoder_output_states(code, channel)
    probs = [1.0 / code.m] * code.m
    return cq_state(probs, [s.partial_trace([keep]) for s in states])


def trivial_converse_bound(code: WiretapCode,
                           channel: CqqWiretapChannel) -> float:
    """One-shot upper bound  H_min^{delta*}(U|E^n) - H_max^{eps*}(U|B^n)
    on log2 M, evaluated at the code's own measured figures of merit.

    The leakage is measured in optimized mode (the smaller value, giving
    the tighter min-entropy radius that still certifies privacy).  Both
    smoothing radii are capped just below one, where the entropy programs
    degenerate; the cap only ever shrinks a smoothing ball, and it is
    unreachable for codes completed with their optimal decoders.
    """
    perf = evaluate_code(code, channel, "optimized")
    eps = min(perf.eps_star, _SMOOTH_CAP)
    delta = min(perf.delta_star, _SMOOTH_CAP)
    rho_ue = _message_marginal_states(code, channel, 1)
    rho_ub = _message_marginal_states(code, channel, 0)
    hmin = h_min_smooth(EntropyQuery(rho_ue, (0,), (1,), delta))
    hmax = h_max_smooth(EntropyQuery(rho_ub, (0,), (1,), eps))
    return hmin - hmax


# ---------------------------------------------------------------------------
# audited inequality chain through a degrading isometry
# ---------------------------------------------------------------------------

def _isometry_string_state(channel: CqqWiretapChannel,
                           structure: DegradedStructure,
                           xs: tuple[int, ...]) -> DensityOperator:
    """Receiver block of an input string pushed through the degrading
    isometry copywise, grouped as (E'^n, F^n)."""
    return _grouped_kron(
        [apply_isometry(channel.bob_marginal(x), structure.isometry, 0).mat
         for x in xs], channel.dim_e, structure.dim_f)


def _chain_state(code: WiretapCode, channel: CqqWiretapChannel,
                 structure: DegradedStructure) -> DensityOperator:
    """Classical-classical-quantum state on (U, X^n, E'^n, F^n)."""
    n = code.n
    k = code.alphabet_size ** n
    den = channel.dim_e ** n
    dfn = structure.dim_f ** n
    d_ef = den * dfn
    # The entropy programs run on the (U, E', F) and (X, E', F) marginals,
    # never on the full classical-classical-quantum matrix, so the largest
    # marginal is the guarded quantity.
    load = max(code.m, k) * d_ef
    cap = _budget()
    if load > cap:
        raise ValidationError(
            f"audited chain marginal size {load} exceeds the desk budget "
            f"{cap} (raise {BUDGET_ENV} to override)")
    taus = [_isometry_string_state(channel, structure, xs)
            for xs in itertools.product(range(code.alphabet_size), repeat=n)]
    out = np.zeros((code.m * k * d_ef,) * 2, dtype=complex)
    for u in range(code.m):
        for j in range(k):
            w = code.encoder[u, j] / code.m
            if w > 0.0:
                lo = (u * k + j) * d_ef
                out[lo:lo + d_ef, lo:lo + d_ef] = w * taus[j].mat
    return DensityOperator(out, (code.m, k, den, dfn), validate=False)


def audit_privacy_bound_chain(code: WiretapCode, channel: CqqWiretapChannel,
                              structure: DegradedStructure, eta: float
                              ) -> list[InequalityReport]:
    """Verify every inequality the degraded-channel converse chains together,
    on the code's actual states, at its measured figures of merit.

    The lines, in order (all oriented lhs <= rhs):

    1. ``PrivacyDecodabilityBound``: log2 M against
       H_min^{delta}(U|E^n) - H_max^{eps}(U|E'^n F^n); privacy supports the
       first term, decodability through the isometry-equivalent receiver
       block caps the second.
    2. ``DegradedSubstitution``: the min-entropy on the eavesdropper's
       block against the same entropy on its twin E'^n (equal matrices up
       to the degrading residual; the measured trace distance rides along
       in ``params['state_gap']``).
    3. ``ChainSplitUpper``: the joint H_max^{eps+3 eta}(U F^n|E'^n) split
       upward into per-system terms plus log2(2/eta^2).
    4. ``ChainSplitLower``: the same joint entropy bounded below by
       H_min^{delta}(U|E'^n) + H_max^{lambda}(F^n|E'^n U) - 3 log2(2/eta^2)
       with lambda = eps + 2 delta + 5 eta.
    5. ``ConditionerProcessing``: conditioning on the input string instead
       of the message only lowers H_max^{lambda}(F^n | .) — the message is
       a processing of the string.
    6. ``AssembledPrivacyBound``: the collapsed chain,
       log2 M <= H_max^{eta}(F^n|E'^n) - H_max^{lambda}(F^n|E'^n X^n)
       + 4 log2(2/eta^2).
    """
    if not eta > 0.0:
        raise ValidationError("chain parameter eta must be positive")
    perf = evaluate_code(code, channel, "optimized")
    eps, delta = perf.eps_star, perf.delta_star
    lam = eps + 2.0 * delta + 5.0 * eta
    kappa = eps + 3.0 * eta
    if lam >= 1.0:
        raise ValidationError(
            f"smoothing budget eps* + 2 delta* + 5 eta = {lam:.6g} must stay "
            f"below one for the audited chain")
    log_m = math.log2(code.m)
    log_eta = math.log2(2.0 / (eta * eta))

    rho_ue = _message_marginal_states(code, channel, 1)
    omega = _chain_state(code, channel, structure)
    rho_uef = omega.partial_trace([0, 2, 3])
    rho_uep = omega.partial_trace([0, 2])
    rho_ef = omega.partial_trace([2, 3])
    rho_xef = omega.partial_trace([1, 2, 3])

    hmin_u_e = h_min_smooth(EntropyQuery(rho_ue, (0,), (1,), delta))
    hmin_u_ep = h_min_smooth(EntropyQuery(rho_uep, (0,), (1,), delta))
    hmax_u_epf = h_max_smooth(EntropyQuery(rho_uef, (0,), (1, 2), eps))
    hmax_joint = h_max_smooth(EntropyQuery(rho_uef, (0, 2), (1,), kappa))
    hmax_f_ep = h_max_smooth(EntropyQuery(rho_ef, (1,), (0,), eta))
    hmax_f_epu = h_max_smooth(EntropyQuery(rho_uef, (2,), (0, 1), lam))
    hmax_f_epx = h_max_smooth(EntropyQuery(rho_xef, (2,), (0, 1), lam))
    state_gap = trace_norm(rho_ue.mat - rho_uep.mat)

    base = {"eps": eps, "delta": delta, "eta": eta}
    return [
        InequalityReport("PrivacyDecodabilityBound", log_m,
                         hmin_u_e - hmax_u_epf, dict(base)),
        InequalityReport("DegradedSubstitution", hmin_u_e, hmin_u_ep,
                         dict(base, state_gap=state_gap)),
        InequalityReport("ChainSplitUpper", hmax_joint,
                         hmax_f_ep + hmax_u_epf + log_eta, dict(base)),
        InequalityReport("ChainSplitLower",
                         hmin_u_ep + hmax_f_epu - 3.0 * log_eta, hmax_joint,
                         dict(base)),
        InequalityReport("ConditionerProcessing", hmax_f_epx, hmax_f_epu,
                         dict(base)),
        InequalityReport("AssembledPrivacyBound", log_m,
                         hmax_f_ep - hmax_f_epx + 4.0 * log_eta, dict(base)),
    ]


# ---------------------------------------------------------------------------
# explicit finite-blocklength bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteBlocklengthBound:
    """Every term of the explicit bound  B = n P + widths + costs.

    ``constant_type=True`` drops the type-register and hashing costs and
    runs the machinery at the caller's (eps, delta) with eta = s/6,
    s = 1 - eps - 2 delta; unrestricted encoders first widen the figures
    of merit by theta = s/12 each (the reduction to a constant-composition
    sub-code costs 2 theta in both), leaving eta = s/12.
    """

    n: int
    eps: float
    delta: float
    constant_type: bool
    theta: float
    eta: float
    lam: float
    lam_hat: float
    mu_star: float
    capacity: float
    smoothing_upper: float
    capacity_term: float
    aep_upper_width: float
    aep_lower_width: float
    chain_cost: float
    type_cost: float
    hashing_cost: float

    @property
    def total(self) -> float:
        return (self.capacity_term + self.aep_upper_width
                + self.aep_lower_width + self.chain_cost + self.type_cost
                + self.hashing_cost)


def finite_n_terms(channel: CqqWiretapChannel, structure: DegradedStructure,
                   n: int, eps: float, delta: float,
                   constant_type: bool = False,
                   capacity: float | None = None
                   ) -> FiniteBlocklengthBound:
    """Assemble the explicit finite-blocklength converse bound, term by term.

    Widths use the worst-letter support floors of the degraded letters
    ``tau_x = V rho_x^B V^dag``: the upper width smooths the idealized
    product state at ``eta^2 / (32 (n+1)^{|X|})`` (quasi-concavity,
    max-to-min conversion, and type-counting dilution combined); the lower
    width splits ``lambda-hat = lambda sqrt(2 - lambda^2)`` across the
    ``|X|`` constant-composition blocks.  The chain cost is the
    ``4 log2(2/eta^2)`` of the audited split; unrestricted encoders add the
    ``|X| log2(n+1)`` type register and a declared hashing surcharge
    ``2 log2(n+1) + 2 log2(1/eta) + 1`` for the constant-overhead
    sub-code selection.
    """
    if n < 1:
        raise ValidationError("block length n must be a positive integer")
    eps, delta = float(eps), float(delta)
    if not (0.0 <= eps < math.inf and 0.0 <= delta < math.inf):
        raise ValidationError("eps and delta must be finite and nonnegative")
    s = 1.0 - eps - 2.0 * delta
    if s <= 0.0:
        raise OutsideConverseRegion(eps, delta)
    if structure is None:
        raise ValidationError("finite-blocklength bound needs the degraded "
                              "structure of the channel")
    if capacity is not None and not 0.0 <= capacity < math.inf:
        raise ValidationError("capacity must be finite and nonnegative")
    if constant_type:
        theta = 0.0
        eta = s / 6.0
    else:
        theta = s / 12.0
        eta = s / 12.0
    lam = 1.0 - eta  # = (eps + 2 theta) + 2 (delta + 2 theta) + 5 eta
    lam_hat = lam * math.sqrt(2.0 - lam * lam)

    size = channel.size
    mu_star = 0.0
    for x in range(size):
        tau = apply_isometry(channel.bob_marginal(x), structure.isometry, 0)
        mu = _support_floor(tau.partial_trace([0])) + _support_floor(tau)
        mu_star = max(mu_star, mu)

    if capacity is None:
        capacity = private_capacity_degraded(channel, structure).value

    eps2 = eta * eta / (32.0 * (n + 1) ** size)
    upper = mu_star * math.sqrt(n * math.log(2.0 / eps2))
    lower = mu_star * math.sqrt(
        size * n * math.log(2.0 * math.sqrt(size) / lam_hat))
    chain = 4.0 * math.log2(2.0 / (eta * eta))
    if constant_type:
        type_cost = 0.0
        hashing = 0.0
    else:
        type_cost = size * math.log2(n + 1.0)
        hashing = 2.0 * math.log2(n + 1.0) + 2.0 * math.log2(1.0 / eta) + 1.0
    return FiniteBlocklengthBound(
        n=n, eps=eps, delta=delta, constant_type=constant_type, theta=theta,
        eta=eta, lam=lam, lam_hat=lam_hat, mu_star=mu_star,
        capacity=float(capacity), smoothing_upper=eps2,
        capacity_term=n * float(capacity), aep_upper_width=upper,
        aep_lower_width=lower, chain_cost=chain, type_cost=type_cost,
        hashing_cost=hashing)


def finite_n_converse(channel: CqqWiretapChannel,
                      structure: DegradedStructure, n: int, eps: float,
                      delta: float, constant_type: bool = False,
                      capacity: float | None = None) -> float:
    """Explicit upper bound on log2 M for any length-``n`` code with error
    at most ``eps`` and leakage at most ``delta``; see
    :func:`finite_n_terms` for the term-by-term breakdown.

    Raises :class:`OutsideConverseRegion` when ``eps + 2 delta >= 1``.
    """
    return finite_n_terms(channel, structure, n, eps, delta,
                          constant_type=constant_type, capacity=capacity).total
