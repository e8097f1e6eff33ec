"""Finite-blocklength wiretap codes and their exact figures of merit.

A wiretap code for ``M`` messages over ``n`` channel uses is a stochastic
encoder (a row-stochastic matrix over input strings) together with an
optional decoding POVM on the receiver's block.  Both figures of merit are
measured in purified distance against the ideal objects:

* the transmission error ``eps*`` compares the joint message/decoded-message
  distribution with the perfectly correlated uniform one;
* the privacy leakage ``delta*`` compares the message/eavesdropper state
  with an uncorrelated product, either against the fixed average
  eavesdropper marginal or optimized over all product references
  (a semidefinite program; the optimized value is never larger).

``optimal_decoder`` synthesizes the success-probability-maximizing POVM by
semidefinite programming, ``nogo_mixture_code`` builds the constant-biased
codes that witness the sharpness of the converse region, and
``brute_force_M`` searches the encoders of desk-scale instances exhaustively
for the largest admissible message count; closed-form bounds that hold for
every decoder reject most candidates before any semidefinite program.

Block sizes grow as ``M * (dim_B * dim_E)**n``; a guard raises once that
exceeds the desk budget, adjustable through the ``SECRECY_BUDGET_DIM``
environment variable.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from .channels import CqqWiretapChannel
from .entropy import _RANK_CUTOFF, _support_factors, _trace_row
from .quantum import DensityOperator, ValidationError, fidelity, tensor
from .sdp import (LmiBuilder, SdpError, SdpProblem, SdpStatus,
                  herm_equality_rows, solve)

__all__ = [
    "BUDGET_ENV",
    "WiretapCode",
    "CodePerformance",
    "SearchConfig",
    "deterministic_code",
    "all_strings",
    "string_index",
    "channel_string_state",
    "encoder_output_states",
    "joint_state",
    "decode_distribution",
    "evaluate_code",
    "optimal_decoder",
    "nogo_mixture_code",
    "brute_force_M",
]

#: Environment variable bounding M * (dim_B * dim_E)**n in state assembly.
BUDGET_ENV = "SECRECY_BUDGET_DIM"

_DEFAULT_BUDGET = 64

_ROW_TOL = 1e-9

_POVM_TOL = 1e-8

# a search screen rejects only beyond this distance from a target, which
# covers the semidefinite path's own error
_SCREEN_MARGIN = 1e-6

# slack of the search's admissibility test eps* <= eps, delta* <= delta
_SEARCH_TOL = 1e-9


def _budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(
            f"{BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValidationError(f"{BUDGET_ENV} must be positive")
    return value


# ---------------------------------------------------------------------------
# code container
# ---------------------------------------------------------------------------

def all_strings(n: int, alphabet_size: int) -> list[tuple[int, ...]]:
    """All input strings of length n, lexicographic (leftmost digit first)."""
    return list(itertools.product(range(alphabet_size), repeat=n))


def string_index(xs: tuple[int, ...], alphabet_size: int) -> int:
    """Column index of a string in the lexicographic encoder layout."""
    idx = 0
    for x in xs:
        if not 0 <= x < alphabet_size:
            raise ValidationError(f"symbol {x} outside alphabet")
        idx = idx * alphabet_size + x
    return idx


@dataclass(frozen=True, eq=False)
class WiretapCode:
    """Stochastic encoder plus optional decoding POVM.

    ``encoder`` has one row per message and one column per length-``n``
    input string (lexicographic order); each row is a probability
    distribution.  ``decoder``, when present, is a POVM on the receiver's
    block with one element per message.
    """

    m: int
    n: int
    alphabet_size: int
    encoder: np.ndarray
    decoder: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.alphabet_size < 2:
            raise ValidationError(
                "need m >= 1 messages, n >= 1 uses, alphabet >= 2")
        enc = np.asarray(self.encoder, dtype=float)
        k = self.alphabet_size ** self.n
        if enc.shape != (self.m, k):
            raise ValidationError(
                f"encoder shape {enc.shape} != ({self.m}, {k})")
        if np.min(enc) < -_ROW_TOL:
            raise ValidationError("encoder has a negative probability")
        sums = enc.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > _ROW_TOL:
            raise ValidationError("encoder rows must each sum to one")
        object.__setattr__(self, "encoder", enc)
        if self.decoder is not None:
            povm = tuple(np.asarray(e, dtype=complex) for e in self.decoder)
            if len(povm) != self.m:
                raise ValidationError("decoder needs one element per message")
            d = povm[0].shape[0]
            acc = np.zeros((d, d), dtype=complex)
            for e in povm:
                if e.shape != (d, d):
                    raise ValidationError("decoder elements differ in shape")
                if np.max(np.abs(e - e.conj().T)) > _POVM_TOL:
                    raise ValidationError("decoder element not Hermitian")
                if np.linalg.eigvalsh((e + e.conj().T) / 2).min() < -_POVM_TOL:
                    raise ValidationError("decoder element not PSD")
                acc += e
            if np.max(np.abs(acc - np.eye(d))) > _POVM_TOL:
                raise ValidationError("decoder does not sum to the identity")
            object.__setattr__(self, "decoder", povm)

    @property
    def rate(self) -> float:
        """Message bits per channel use, log2(M)/n."""
        return math.log2(self.m) / self.n

    def with_decoder(self, povm: tuple[np.ndarray, ...]) -> "WiretapCode":
        return replace(self, decoder=tuple(povm))


def deterministic_code(codewords, n: int, alphabet_size: int,
                       decoder=None) -> WiretapCode:
    """Code whose encoder puts all mass on one string per message.

    ``codewords`` is a sequence of length-``n`` symbol tuples (bare ints are
    accepted for ``n == 1``).
    """
    rows = []
    k = alphabet_size ** n
    for word in codewords:
        xs = (word,) if isinstance(word, (int, np.integer)) else tuple(word)
        if len(xs) != n:
            raise ValidationError(f"codeword {xs} is not length {n}")
        row = np.zeros(k)
        row[string_index(xs, alphabet_size)] = 1.0
        rows.append(row)
    return WiretapCode(len(rows), n, alphabet_size, np.array(rows),
                       decoder=decoder)


# ---------------------------------------------------------------------------
# state assembly
# ---------------------------------------------------------------------------

def channel_string_state(channel: CqqWiretapChannel,
                         xs: tuple[int, ...]) -> DensityOperator:
    """Joint receiver/eavesdropper state of an input string, grouped as
    (B_1..B_n, E_1..E_n) into two factors of dimension dim_B**n, dim_E**n."""
    if not xs:
        raise ValidationError("input string is empty")
    return _grouped_kron([channel.states[x].mat for x in xs],
                         channel.dim_b, channel.dim_e)


def _grouped_kron(mats, dx: int, dy: int) -> DensityOperator:
    """Kronecker product of per-letter matrices on X (x) Y, regrouped from
    X_1 Y_1 ... X_n Y_n into the two factors (X^n, Y^n)."""
    n = len(mats)
    grouped = DensityOperator(tensor(*mats), (dx, dy) * n,
                              validate=False).permute(
        [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)])
    return DensityOperator(grouped.mat, (dx ** n, dy ** n), validate=False)


def _check_compatible(code: WiretapCode, channel: CqqWiretapChannel) -> None:
    """Alphabet and decoder shape match the channel; blocks fit the budget."""
    if code.alphabet_size != channel.size:
        raise ValidationError(
            f"code alphabet {code.alphabet_size} != channel alphabet "
            f"{channel.size}")
    if code.decoder is not None:
        d = channel.dim_b ** code.n
        if code.decoder[0].shape[0] != d:
            raise ValidationError(
                f"decoder acts on dimension {code.decoder[0].shape[0]}, "
                f"receiver block has {d}")
    load = code.m * (channel.dim_b * channel.dim_e) ** code.n
    cap = _budget()
    if load > cap:
        raise ValidationError(
            f"joint block size {load} exceeds the desk budget {cap} "
            f"(raise {BUDGET_ENV} to override)")


def _string_states(channel: CqqWiretapChannel, n: int) -> list:
    return [channel_string_state(channel, xs)
            for xs in all_strings(n, channel.size)]


def _mix(encoder: np.ndarray, cache: list) -> list[DensityOperator]:
    """Per-message averages of the string states (``_string_states``)."""
    dims = cache[0].dims
    out = []
    for row in encoder:
        mat = np.zeros((dims[0] * dims[1],) * 2, dtype=complex)
        for k, w in enumerate(row):
            if w > 0.0:
                mat += w * cache[k].mat
        out.append(DensityOperator(mat, dims, validate=False))
    return out


def encoder_output_states(code: WiretapCode,
                          channel: CqqWiretapChannel
                          ) -> list[DensityOperator]:
    """Per-message averaged block states on (B^n, E^n)."""
    _check_compatible(code, channel)
    return _mix(code.encoder, _string_states(channel, code.n))


def _decoder(code: WiretapCode, channel: CqqWiretapChannel
             ) -> tuple[np.ndarray, ...]:
    """The code's decoder; the identity for a decoder-less single message."""
    if code.decoder is not None:
        return code.decoder
    if code.m != 1:
        raise ValidationError(
            "code has no decoder; attach one or use optimal_decoder")
    return (np.eye(channel.dim_b ** code.n, dtype=complex),)


def joint_state(code: WiretapCode,
                channel: CqqWiretapChannel) -> DensityOperator:
    """State of (message, decoded message, eavesdropper block) after sending
    a uniform message through the encoder, channel, and decoder.

    Factors are (U, Uhat, E^n).  A decoder-less single-message code gets the
    trivial always-correct decoder.
    """
    states = encoder_output_states(code, channel)
    povm = _decoder(code, channel)
    dbn = channel.dim_b ** code.n
    den = channel.dim_e ** code.n
    m = code.m
    out = np.zeros((m * m * den,) * 2, dtype=complex)
    for u in range(m):
        r4 = states[u].mat.reshape(dbn, den, dbn, den)
        for uh in range(m):
            t = np.einsum("ba,aibj->ij", povm[uh], r4) / m
            lo = (u * m + uh) * den
            out[lo:lo + den, lo:lo + den] = t
    return DensityOperator(out, (m, m, den), validate=False)


def decode_distribution(code: WiretapCode,
                        channel: CqqWiretapChannel) -> np.ndarray:
    """Joint distribution P(u, uhat) of sent and decoded messages."""
    states = encoder_output_states(code, channel)
    povm = _decoder(code, channel)
    return _decode_distribution([s.partial_trace([0]).mat for s in states],
                                povm)


def _decode_distribution(bob: list[np.ndarray],
                         povm: tuple[np.ndarray, ...]) -> np.ndarray:
    """P(u, uhat) from the receiver's per-message block states."""
    m = len(bob)
    p = np.zeros((m, m))
    for u, rho in enumerate(bob):
        for uh in range(m):
            p[u, uh] = max(0.0, float(np.real(np.trace(povm[uh] @ rho)))) / m
    return p


# ---------------------------------------------------------------------------
# figures of merit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodePerformance:
    """Measured figures of merit of a code on a channel.

    ``eps_star`` and ``delta_star`` are purified distances in [0, 1];
    ``privacy_mode`` records whether the leakage reference was the fixed
    average eavesdropper marginal or optimized over all product references.
    """

    eps_star: float
    delta_star: float
    privacy_mode: str
    rate: float
    success_prob: float


def _transmission_error(p: np.ndarray) -> float:
    """eps* = sqrt(1 - F^2), F = (1/M) sum_u sqrt(hit_u), from the miss
    probabilities without cancellation: 1 - F = (1/M) sum_u miss_u /
    (1 + sqrt(hit_u)) and 1 - F^2 = (1 - F)(1 + F).  A receiver state whose
    trace rounds below 1 leaves eps* = 0 where no message is missed."""
    m = p.shape[0]
    hit = m * np.diag(p)
    miss = m * np.where(np.eye(m, dtype=bool), 0.0, p).sum(axis=1)
    one_minus_f = float(np.sum(miss / (1.0 + np.sqrt(hit)))) / m
    return math.sqrt(max(0.0, one_minus_f * (2.0 - one_minus_f)))


def _identical_leakage(eve_states: list[np.ndarray]) -> bool:
    first = eve_states[0]
    return all(np.max(np.abs(rho - first)) <= 1e-12 for rho in eve_states[1:])


def _privacy_fixed(eve_states: list[np.ndarray]) -> float:
    if _identical_leakage(eve_states):
        return 0.0
    m = len(eve_states)
    avg = sum(eve_states) / m
    f = sum(fidelity(rho, avg) for rho in eve_states) / m
    return math.sqrt(max(0.0, 1.0 - min(1.0, f) ** 2))


def _privacy_optimized(eve_states: list[np.ndarray]) -> float:
    """Smallest purified distance of the message/eavesdropper state from any
    uncorrelated product, by semidefinite programming.

    Maximizes ``sum_u F(rho_u, sigma) / M`` over density operators sigma
    through the standard fidelity block characterization, one block per
    message, with each message's state compressed onto its support so the
    program is strictly feasible even for pure leakage states.  A code that
    leaks the same state for every message short-circuits to zero exactly.
    """
    if _identical_leakage(eve_states):
        return 0.0
    m = len(eve_states)
    d = eve_states[0].shape[0]
    bld = LmiBuilder()
    ref = bld.herm_var("sigma", d)
    obj: list[tuple[int, float]] = []
    for u, rho in enumerate(eve_states):
        diag, vecs = _support_factors([rho])[0]
        r = diag.shape[0]
        xu = bld.cplx_var(f"x{u}", r, d)
        blk = bld.new_block(r + d)
        bld.add_const(blk, diag)
        bld.add_cplx(blk, xu, (0, r))
        bld.add_herm(blk, ref, at=r)
        # objective term Re tr(V_u X_u) / M
        for i in range(d):
            for j in range(r):
                v = vecs[i, j]
                if v.real != 0.0:
                    obj.append((xu.param("re", j, i), -v.real / m))
                if v.imag != 0.0:
                    obj.append((xu.param("im", j, i), v.imag / m))
    psd = bld.new_block(d)
    bld.add_herm(psd, ref)
    cap = bld.new_block(1)
    bld.add_const(cap, np.array([[1.0]], dtype=complex))
    bld.add_param_term(cap, *_trace_row(ref, -1.0))
    bld.minimize(obj)
    sol = bld.build().solve()
    if sol.value is None:
        raise SdpError(
            f"privacy reference program did not settle: "
            f"{sol.sdp.status.value} ({sol.sdp.message})")
    f = min(1.0, -sol.value)
    return math.sqrt(max(0.0, 1.0 - f * f))


def _check_mode(privacy_mode: str) -> None:
    if privacy_mode not in ("optimized", "fixed"):
        raise ValidationError(
            f"privacy_mode must be 'optimized' or 'fixed', got {privacy_mode!r}")


def evaluate_code(code: WiretapCode, channel: CqqWiretapChannel,
                  privacy_mode: str = "optimized") -> CodePerformance:
    """Exact transmission error and privacy leakage of a code.

    A decoder-less code is completed with its optimal decoding POVM first.
    ``privacy_mode='fixed'`` measures leakage against the code's own average
    eavesdropper state; ``'optimized'`` (default, never larger) against the
    best uncorrelated reference.
    """
    _check_mode(privacy_mode)
    return _performance(code, channel, encoder_output_states(code, channel),
                        privacy_mode)


def _performance(code: WiretapCode, channel: CqqWiretapChannel,
                 states: list[DensityOperator],
                 privacy_mode: str) -> CodePerformance:
    """``evaluate_code`` on the code's per-message block states."""
    bob = [s.partial_trace([0]).mat for s in states]
    if code.decoder is None and code.m > 1:
        code = code.with_decoder(_synthesize(bob)[0])
    p = _decode_distribution(bob, _decoder(code, channel))
    eps_star = _transmission_error(p)
    eve = [s.partial_trace([1]).mat for s in states]
    if privacy_mode == "fixed":
        delta_star = _privacy_fixed(eve)
    else:
        delta_star = _privacy_optimized(eve)
    return CodePerformance(eps_star=eps_star, delta_star=delta_star,
                           privacy_mode=privacy_mode, rate=code.rate,
                           success_prob=float(np.trace(p)))


# ---------------------------------------------------------------------------
# decoder synthesis
# ---------------------------------------------------------------------------

def _success(povm, bob) -> float:
    m = len(bob)
    return float(sum(np.real(np.trace(povm[u] @ bob[u]))
                     for u in range(m))) / m


def _helstrom_povm(rho0: np.ndarray, rho1: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Two-state measurement from the eigenspaces of the difference."""
    vals, vecs = np.linalg.eigh(rho0 - rho1)
    keep = vecs[:, vals >= 0.0]
    e0 = keep @ keep.conj().T
    return e0, np.eye(rho0.shape[0], dtype=complex) - e0


def _orthogonal_povm(bob: list[np.ndarray]) -> tuple[np.ndarray, ...] | None:
    """Exact support-projector POVM when the ensemble states have mutually
    orthogonal supports; None otherwise."""
    # structural orthogonality only: near-orthogonal ensembles would give
    # projectors whose completion dips slightly negative, so they go to
    # the semidefinite program instead
    for u in range(len(bob)):
        for v in range(u + 1, len(bob)):
            if abs(np.trace(bob[u] @ bob[v])) > 1e-20:
                return None
    d = bob[0].shape[0]
    projectors = []
    for rho in bob:
        vals, vecs = np.linalg.eigh(rho)
        keep = vecs[:, vals > 1e-10]
        projectors.append(keep @ keep.conj().T)
    total = sum(projectors)
    povm = list(projectors)
    povm[0] = povm[0] + np.eye(d, dtype=complex) - total
    return tuple(povm)


def _discrimination_sdp(bob: list[np.ndarray]
                        ) -> tuple[tuple[np.ndarray, ...], float]:
    """Discrimination program  max sum_u tr(E_u rho_u) / M  over POVMs, in
    primal standard form (one block per element, identity completion as
    equality rows)."""
    m = len(bob)
    d = bob[0].shape[0]
    prob = SdpProblem([d] * m, [-rho / m for rho in bob])

    for e, rhs in herm_equality_rows(np.eye(d)):
        prob.add_constraint({u: e for u in range(m)}, rhs)

    sol = solve(prob)
    if sol.status is not SdpStatus.OPTIMAL:
        raise SdpError(f"decoder synthesis did not settle: "
                       f"{sol.status.value} ({sol.message})")
    raw = [(e + e.conj().T) / 2 for e in sol.primal_blocks]
    # conjugate by the inverse root of the completion so the returned
    # elements sum to the identity at machine precision
    total = sum(raw)
    vals, vecs = np.linalg.eigh(total)
    inv_root = vecs @ np.diag(1.0 / np.sqrt(np.maximum(vals, 1e-12))) \
        @ vecs.conj().T
    povm = tuple(inv_root @ e @ inv_root for e in raw)
    return povm, _success(povm, bob)


def optimal_decoder(encoder: np.ndarray, channel: CqqWiretapChannel, n: int
                    ) -> tuple[tuple[np.ndarray, ...], float]:
    """POVM maximizing average decoding success for the encoder's output
    ensemble, with its success probability.

    Exactly solvable shapes take closed forms — a single message, two
    messages (eigenspaces of the state difference), and ensembles with
    mutually orthogonal supports — so perfectly decodable codes come out
    with success exactly one.  Everything else goes through the
    discrimination semidefinite program.
    """
    enc = np.asarray(encoder, dtype=float)
    if enc.ndim != 2:
        raise ValidationError("encoder must be a matrix of row distributions")
    m = enc.shape[0]
    probe = WiretapCode(m, n, channel.size, enc)
    states = encoder_output_states(probe, channel)
    return _synthesize([s.partial_trace([0]).mat for s in states])


def _synthesize(bob: list[np.ndarray]
                ) -> tuple[tuple[np.ndarray, ...], float]:
    """``optimal_decoder`` on the receiver's per-message block states."""
    m = len(bob)
    if m == 1:
        return (np.eye(bob[0].shape[0], dtype=complex),), 1.0
    if m == 2:
        povm = _helstrom_povm(bob[0], bob[1])
        return povm, _success(povm, bob)
    povm = _orthogonal_povm(bob)
    if povm is not None:
        return povm, _success(povm, bob)
    return _discrimination_sdp(bob)


# ---------------------------------------------------------------------------
# structured code families
# ---------------------------------------------------------------------------

def nogo_mixture_code(base_code: WiretapCode, eps: float,
                      x0: tuple[int, ...]) -> WiretapCode:
    """Bias every message's encoder toward one constant string.

    Each row becomes  eps^2 * (original row) + (1 - eps^2) * (point mass on
    ``x0``); the decoder is carried over unchanged.  At ``eps = 1`` the base
    code returns; at ``eps = 0`` the encoder is constant and leaks nothing.
    The two nominal support points coincide for a message whose codeword
    already is ``x0``.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValidationError("mixing parameter must lie in [0, 1]")
    xs = (x0,) if isinstance(x0, (int, np.integer)) else tuple(x0)
    if len(xs) != base_code.n:
        raise ValidationError(f"anchor string {xs} is not length {base_code.n}")
    k = base_code.alphabet_size ** base_code.n
    anchor = np.zeros(k)
    anchor[string_index(xs, base_code.alphabet_size)] = 1.0
    w = eps * eps
    rows = w * base_code.encoder + (1.0 - w) * anchor[None, :]
    return WiretapCode(base_code.m, base_code.n, base_code.alphabet_size,
                       rows, decoder=base_code.decoder)


@dataclass(frozen=True)
class SearchConfig:
    """Scope of the brute-force admissible-rate search."""

    m_max: int = 4
    include_stochastic: bool = True
    stochastic_levels: int = 4
    privacy_mode: str = "optimized"


def _grid_rows(k: int, levels: int) -> list[tuple[float, ...]]:
    """All distributions on k atoms with masses that are multiples of
    1/levels (includes the deterministic one-hot rows)."""
    rows = []
    for cuts in itertools.combinations_with_replacement(range(levels + 1),
                                                        k - 1):
        parts = [cuts[0]] + [cuts[i] - cuts[i - 1]
                             for i in range(1, k - 1)] + [levels - cuts[-1]]
        rows.append(tuple(c / levels for c in parts))
    return rows


def _is_onehot(row: tuple[float, ...]) -> bool:
    return max(row) == 1.0


def _success_bound(bob: list[np.ndarray]) -> float:
    """min(1, d/M, sqrt(P_PGM)) >= the success of every decoder (Barnum &
    Knill, J. Math. Phys. 43, 2097, 2002), where the pretty-good measurement
    succeeds with P_PGM = sum_u ||S^(-1/4) rho_u S^(-1/4)||_2^2 / M^2 for
    the average state S.  Inverting S only above the rank cutoff lowers
    that sum by at most 2 sum sqrt(lambda) over the cut eigenvalues, which
    is added back."""
    m, d = len(bob), bob[0].shape[0]
    vals, vecs = np.linalg.eigh(sum(bob) / m)
    keep = vals > _RANK_CUTOFF * max(float(vals[-1]), _RANK_CUTOFF)
    r = vecs[:, keep] * vals[keep] ** -0.25
    pgm = sum(float(np.sum(np.abs(r.conj().T @ rho @ r) ** 2))
              for rho in bob) / (m * m)
    pgm += 2.0 * float(np.sum(np.sqrt(np.clip(vals[~keep], 0.0, None))))
    return min(1.0, d / m, math.sqrt(pgm))


def _privacy_bound(eve: list[np.ndarray]) -> float:
    """Lower bound on delta* for every product reference sigma, from
    F(rho_u, sigma) <= sqrt(tr Pi_u sigma) + sqrt(mass rho_u loses to its
    support cut Pi_u), whose first term averages to at most
    sqrt(lambda_max(mean Pi_u))."""
    if _identical_leakage(eve):
        return 0.0
    projs, lost = [], 0.0
    for rho in eve:
        diag, vecs = _support_factors([rho])[0]
        projs.append(vecs @ vecs.conj().T)
        lost = max(lost, float(np.real(np.trace(rho) - np.trace(diag))))
    f = math.sqrt(max(0.0, np.linalg.eigvalsh(sum(projs) / len(eve))[-1])) \
        + math.sqrt(lost)
    return math.sqrt(max(0.0, 1.0 - min(1.0, f) ** 2))


def brute_force_M(channel: CqqWiretapChannel, n: int, eps: float,
                  delta: float, config: SearchConfig | None = None
                  ) -> tuple[int, WiretapCode | None]:
    """Largest message count admitting a code with eps* <= eps and
    delta* <= delta, by a search exhaustive over encoders, with a witness
    code.

    Deterministic encoders are enumerated as codeword multisets; stochastic
    encoders on a probability grid are added on top.  A candidate is first
    screened by closed-form lower bounds on eps* and delta* that hold for
    every decoder and product reference (``_success_bound``,
    ``_privacy_bound``), and rejected without any semidefinite program once
    one exceeds its target by a fixed margin.  The others are completed
    with their average-success-maximizing decoder and evaluated exactly;
    whether a decoder minimizing eps* would admit one of them is not
    checked.  Desk scale only: the budget guard applies per candidate.
    """
    cfg = config or SearchConfig()
    counts = (cfg.m_max, cfg.stochastic_levels)
    if not all(isinstance(v, numbers.Integral) and v >= 1 for v in counts):
        raise ValidationError(
            "search needs integers m_max >= 1 and stochastic_levels >= 1")
    if not (0.0 <= eps <= 1.0 and 0.0 <= delta <= 1.0):
        raise ValidationError("eps and delta must lie in [0, 1]")
    _check_mode(cfg.privacy_mode)
    k = channel.size ** n
    eps_cap = eps + _SEARCH_TOL + _SCREEN_MARGIN
    delta_cap = delta + _SEARCH_TOL + _SCREEN_MARGIN
    best_m, witness, cache = 0, None, None
    for m in range(1, cfg.m_max + 1):
        candidates = [np.eye(k)[list(words)] for words in
                      itertools.combinations_with_replacement(range(k), m)]
        if cfg.include_stochastic:
            rows = _grid_rows(k, cfg.stochastic_levels)
            for combo in itertools.combinations_with_replacement(rows, m):
                if all(_is_onehot(r) for r in combo):
                    continue
                candidates.append(np.array(combo))
        for enc in candidates:
            code = WiretapCode(m, n, channel.size, enc)
            _check_compatible(code, channel)
            # built after the first guard: an over-budget search builds none
            cache = cache or _string_states(channel, n)
            states = _mix(enc, cache)
            bob = [s.partial_trace([0]).mat for s in states]
            if math.sqrt(max(0.0, 1.0 - _success_bound(bob))) > eps_cap \
                    or _privacy_bound([s.partial_trace([1]).mat
                                       for s in states]) > delta_cap:
                continue
            code = code.with_decoder(_synthesize(bob)[0])
            perf = _performance(code, channel, states, cfg.privacy_mode)
            if perf.eps_star <= eps + _SEARCH_TOL \
                    and perf.delta_star <= delta + _SEARCH_TOL:
                best_m, witness = m, code
                break
    return best_m, witness
