"""Classical-input wiretap channels with two quantum receivers.

A wiretap channel maps each input symbol to a joint density operator on the
intended receiver's system (B) and the eavesdropper's system (E).  The
central structural question is whether the channel is *degraded*: whether a
single cptp map applied to the receiver's marginal reproduces the
eavesdropper's marginal for every input symbol.  ``check_degraded`` settles
this by semidefinite feasibility over the Choi matrix of the candidate map
and, when feasible, returns the map together with a Stinespring dilation
``V : B -> E (x) F``.  The complementary factor F is what the receiver holds
beyond the eavesdropper's reach; the capacity optimizer consumes exactly
this dilation.

Constructors for the standard benchmark families are included: binary
symmetric wiretaps (classical channels embedded as commuting states), binary
pure-state channels with an uninformative eavesdropper, and seeded random
channels that are exactly degraded by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quantum import (DensityOperator, Isometry, QuantumChannel,
                      ValidationError, basis_state, channel_from_choi,
                      classical_state, product_state, pure_state,
                      random_channel, random_pure, trace_norm)
from .sdp import SdpError, SdpProblem, SdpStatus, herm_equality_rows, solve

__all__ = [
    "CqqWiretapChannel",
    "DegradedStructure",
    "validate_channel",
    "check_degraded",
    "structure_from_map",
    "bsc_wiretap_channel",
    "two_pure_state_channel",
    "copy_eve_channel",
    "noiseless_trivial_eve_channel",
    "random_degraded_channel",
]


@dataclass
class CqqWiretapChannel:
    """Input symbols mapped to joint receiver/eavesdropper states."""

    alphabet: tuple[str, ...]
    dim_b: int
    dim_e: int
    states: tuple[DensityOperator, ...]
    name: str = ""

    def __init__(self, alphabet, dim_b, dim_e, states, name=""):
        self.alphabet = tuple(str(a) for a in alphabet)
        self.dim_b = int(dim_b)
        self.dim_e = int(dim_e)
        self.states = tuple(states)
        self.name = str(name)
        validate_channel(self)

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def bob_marginal(self, x: int) -> DensityOperator:
        return self.states[x].partial_trace([0])

    def eve_marginal(self, x: int) -> DensityOperator:
        return self.states[x].partial_trace([1])


def validate_channel(channel: CqqWiretapChannel) -> None:
    """Raise if the channel's components are inconsistent."""
    if not channel.alphabet:
        raise ValidationError("alphabet is empty")
    if len(set(channel.alphabet)) != len(channel.alphabet):
        raise ValidationError("alphabet labels are not distinct")
    if channel.dim_b < 1 or channel.dim_e < 1:
        raise ValidationError("output dimensions must be positive")
    if len(channel.states) != len(channel.alphabet):
        raise ValidationError(
            f"{len(channel.alphabet)} symbols but {len(channel.states)} states")
    for x, state in enumerate(channel.states):
        if not isinstance(state, DensityOperator):
            raise ValidationError(f"state {x} is not a density operator")
        if state.dims != (channel.dim_b, channel.dim_e):
            raise ValidationError(
                f"state {x} has dims {state.dims}, expected "
                f"({channel.dim_b}, {channel.dim_e})")
        state.validate(require_normalized=True)


@dataclass
class DegradedStructure:
    """Witness that the eavesdropper sees a processed copy of the receiver.

    Attributes
    ----------
    map : the degrading cptp map D with D(rho_x^B) ~= rho_x^E for all x
    isometry : Stinespring dilation V : B -> E (x) F of that map
    dim_f : dimension of the complementary factor F
    residual : max over symbols of || D(rho_x^B) - rho_x^E ||_1
    tp_residual : || sum_k K_k^dag K_k - 1 ||_max for the recovered Kraus set
    """

    map: QuantumChannel
    isometry: Isometry
    dim_f: int
    residual: float
    tp_residual: float
    choi: np.ndarray = field(repr=False, default=None)


def check_degraded(channel: CqqWiretapChannel) -> DegradedStructure | None:
    """Find a degrading map, or certify that none exists.

    Solves the feasibility problem over Choi matrices  J >= 0  with
    ``tr_E J = 1_B`` and ``tr_B[J (rho_x^{B,T} (x) 1_E)] = rho_x^E`` for
    every symbol.  Returns ``None`` when the problem is infeasible (the
    channel is not degraded); raises on numerical failure.
    """
    db, de = channel.dim_b, channel.dim_e
    d = db * de
    prob = SdpProblem([d])
    eye_e = np.eye(de, dtype=complex)

    # trace preservation: tr_E J = 1_B
    for e, rhs in herm_equality_rows(np.eye(db)):
        prob.add_constraint({0: np.kron(e, eye_e)}, rhs)

    # marginal matching per symbol; the last row of each target, its
    # (d_E-1, d_E-1) diagonal entry, is implied by trace preservation
    for x in range(channel.size):
        rho_bt = channel.bob_marginal(x).mat.T.copy()
        rows = list(herm_equality_rows(channel.eve_marginal(x).mat))
        for e, rhs in rows[:-1]:
            prob.add_constraint({0: np.kron(rho_bt, e)}, rhs)

    sol = solve(prob)
    if sol.status is SdpStatus.PRIMAL_INFEASIBLE:
        return None
    if sol.status is not SdpStatus.OPTIMAL:
        raise SdpError(
            f"degrading-map search did not settle: {sol.status.value} "
            f"({sol.message})")

    choi = sol.primal_blocks[0]
    degrading = channel_from_choi(choi, db, de)
    return _measured_structure(channel, degrading, choi)


def structure_from_map(channel: CqqWiretapChannel,
                       degrading: QuantumChannel) -> DegradedStructure:
    """Package a degrading map that is known by construction.

    Compared with :func:`check_degraded`, the Stinespring complement F is
    only as large as the map's Kraus count, which keeps downstream
    multi-register entropy programs small.  The marginal and
    trace-preservation residuals are still measured, not assumed.
    """
    if degrading.dim_in != channel.dim_b or degrading.dim_out != channel.dim_e:
        raise ValidationError(
            f"degrading map acts on {degrading.dim_in}->{degrading.dim_out}, "
            f"channel needs {channel.dim_b}->{channel.dim_e}")
    return _measured_structure(channel, degrading, degrading.choi())


def _measured_structure(channel: CqqWiretapChannel, degrading: QuantumChannel,
                        choi: np.ndarray) -> DegradedStructure:
    """The degrading map with its Stinespring dilation and its measured
    marginal and trace-preservation residuals."""
    residual = max(
        trace_norm(degrading.apply_matrix(channel.bob_marginal(x).mat)
                   - channel.eve_marginal(x).mat)
        for x in range(channel.size))
    acc = sum(k.conj().T @ k for k in degrading.kraus)
    tp_residual = float(np.max(np.abs(acc - np.eye(channel.dim_b))))
    iso = degrading.stinespring()
    return DegradedStructure(map=degrading, isometry=iso,
                             dim_f=iso.out_dims[1], residual=residual,
                             tp_residual=tp_residual, choi=choi)


# ---------------------------------------------------------------------------
# benchmark constructors
# ---------------------------------------------------------------------------

def _flip_row(p: float, bit: int) -> np.ndarray:
    return np.array([1.0 - p, p]) if bit == 0 else np.array([p, 1.0 - p])


def bsc_wiretap_channel(p: float, r: float) -> CqqWiretapChannel:
    """Binary symmetric wiretap: input through BSC(p) to the receiver, whose
    output passes through a further BSC(r) to the eavesdropper.

    All states commute, so the channel carries a classical joint
    distribution; it is exactly degraded by the measure-and-flip map.
    """
    for val, label in ((p, "p"), (r, "r")):
        if not 0.0 <= val <= 1.0:
            raise ValidationError(f"flip probability {label}={val} "
                                  f"outside [0, 1]")
    states = []
    for x in (0, 1):
        py = _flip_row(p, x)
        joint = sum(
            py[y] * product_state(classical_state(_one_hot(2, y)),
                                  classical_state(_flip_row(r, y))).mat
            for y in (0, 1))
        states.append(DensityOperator(joint, (2, 2)))
    return CqqWiretapChannel(("0", "1"), 2, 2, states,
                             name=f"bsc_wiretap(p={p}, r={r})")


def _one_hot(d: int, k: int) -> np.ndarray:
    v = np.zeros(d)
    v[k] = 1.0
    return v


def two_pure_state_channel(overlap: float) -> CqqWiretapChannel:
    """Binary channel sending pure receiver states with the given overlap
    while the eavesdropper's system is trivial (one-dimensional)."""
    if not 0.0 <= overlap < 1.0:
        raise ValidationError("overlap must lie in [0, 1)")
    s = float(overlap)
    v0 = np.array([1.0, 0.0], dtype=complex)
    v1 = np.array([s, np.sqrt(1.0 - s * s)], dtype=complex)
    states = [product_state(pure_state(v, (2,)),
                            DensityOperator(np.eye(1, dtype=complex), (1,)))
              for v in (v0, v1)]
    return CqqWiretapChannel(("0", "1"), 2, 1, states,
                             name=f"two_pure_state(overlap={s})")


def copy_eve_channel(size: int = 2) -> CqqWiretapChannel:
    """Classical channel whose eavesdropper receives a perfect copy of the
    receiver's (orthogonal) output.  No privacy is possible."""
    if size < 2:
        raise ValidationError("alphabet needs at least two symbols")
    states = [product_state(basis_state(x, size), basis_state(x, size))
              for x in range(size)]
    return CqqWiretapChannel(tuple(str(x) for x in range(size)), size, size,
                             states, name=f"copy_eve({size})")


def noiseless_trivial_eve_channel(size: int = 2) -> CqqWiretapChannel:
    """Classical channel with a perfect (orthogonal) receiver and a trivial
    one-dimensional eavesdropper; every message is private."""
    if size < 2:
        raise ValidationError("alphabet needs at least two symbols")
    trivial = DensityOperator(np.eye(1, dtype=complex), (1,))
    states = [product_state(basis_state(x, size), trivial)
              for x in range(size)]
    return CqqWiretapChannel(tuple(str(x) for x in range(size)), size, 1,
                             states, name=f"noiseless_trivial_eve({size})")


def random_degraded_channel(rng: np.random.Generator, dim_b: int = 2,
                            dim_e: int = 2, alphabet_size: int = 2,
                            family: str = "pure",
                            kraus_count: int | None = None
                            ) -> tuple[CqqWiretapChannel, QuantumChannel]:
    """Draw a channel that is exactly degraded by construction.

    ``family='pure'``: the receiver gets random pure states and the
    eavesdropper their image under one random cptp map (joint states are
    products).  ``family='classical'``: commuting measure-and-prepare
    states on random classical rows.  Returns the channel together with
    the degrading map used to build it.
    """
    if family == "pure":
        degrading = random_channel(dim_b, dim_e,
                                   kraus_count or dim_b * dim_e, rng)
        states = []
        for _ in range(alphabet_size):
            bob = random_pure(dim_b, rng)
            eve = DensityOperator(degrading.apply_matrix(bob.mat), (dim_e,),
                                  validate=False)
            states.append(product_state(bob, eve))
    elif family == "classical":
        rows_be = rng.dirichlet(np.ones(dim_e), size=dim_b)
        kraus = []
        for y in range(dim_b):
            for z in range(dim_e):
                k = np.zeros((dim_e, dim_b), dtype=complex)
                k[z, y] = np.sqrt(rows_be[y, z])
                kraus.append(k)
        degrading = QuantumChannel(kraus)
        states = []
        for _ in range(alphabet_size):
            px = rng.dirichlet(np.ones(dim_b))
            sigmas = [classical_state(rows_be[y]) for y in range(dim_b)]
            joint = sum(px[y] * product_state(classical_state(_one_hot(dim_b, y)),
                                              sigmas[y]).mat
                        for y in range(dim_b))
            states.append(DensityOperator(joint, (dim_b, dim_e)))
    else:
        raise ValidationError(f"unknown family {family!r}")
    channel = CqqWiretapChannel(
        tuple(str(i) for i in range(alphabet_size)), dim_b, dim_e, states,
        name=f"random_degraded_{family}")
    return channel, degrading
