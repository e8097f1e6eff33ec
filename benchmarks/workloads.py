"""The benchmark's three workloads: seeded inputs, operations and output checks.

Each workload function takes the seed and a scratch directory and returns the
list of operations of one pass.  An operation is run as ``op.run(outs)``,
where ``outs`` maps the names of the operations already run in the same pass
to their outputs.  Its checks run after the timed passes and compare
against closed forms, against quantities recomputed here from eigenvalues,
against a second program that solves the same problem, or against a
property the method must have.  Each check comes with a perturbation:
``check(out, outs)`` returns ``None`` or a message saying what is wrong, and
``perturb(out, outs)`` returns a wrong version of the output, which the
self-test feeds to that check to show it is rejected.

Every operation calls the package through its module (``capacity.f(...)``,
not a name bound at import), so the wrappers of a traced run see each call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io as _io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from secrecy import (capacity, channels, cli, codes, converse, entropy, io,
                     lemmas, quantum, symmetry)

SLACK_TOL = 1e-6   # lemmas.CHECK_TOL: a rule is a theorem up to solver noise
VALUE_TOL = 1e-6   # closed-form entropy anchors and exact thresholds
CAP_TOL = 1e-4     # capacities against their closed forms

#: a check ``(out, outs) -> message | None`` and its perturbation
#: ``(out, outs) -> wrong out``
Check = tuple[Callable[[Any, dict], "str | None"], Callable[[Any, dict], Any]]


@dataclass
class Op:
    name: str
    run: Callable[[dict], Any]
    checks: list[Check]

    def check(self, out, outs) -> str | None:
        """The first failing check's message, or ``None``."""
        for check, _ in self.checks:
            if (message := check(out, outs)) is not None:
                return message
        return None


def _ref(value):
    return value() if callable(value) else value


def near(ref, tol: float, get=lambda out: out, bump=None) -> Check:
    """Check and perturbation for ``|get(out) - ref| <= tol``.

    ``ref`` is a number or a function of no arguments, computed when the
    check runs, after the timed passes.
    """
    def check(out, outs):
        r = _ref(ref)
        v = get(out)
        if abs(v - r) <= tol:
            return None
        return f"value {v!r} differs from reference {r!r} by more than {tol:g}"

    bump = bump or (lambda out: out + 10 * tol)
    return check, lambda out, outs: bump(out)


def one_sided(limit, side: str, what: str, tol: float = SLACK_TOL) -> Check:
    """Check ``v >= limit(outs) - tol`` (``side`` "floor") or
    ``v <= limit(outs) + tol`` ("ceiling"); the perturbation puts ``v`` ten
    tolerances past the limit."""
    sign = 1.0 if side == "floor" else -1.0

    def check(v, outs):
        lim = limit(outs)
        if sign * (v - lim) >= -tol:
            return None
        return f"value {v!r} {'below' if sign > 0 else 'above'} {what} {lim!r}"

    return check, lambda v, outs: limit(outs) - sign * 10 * tol


def _bumped(field: str, tol: float):
    return lambda out: dataclasses.replace(
        out, **{field: getattr(out, field) + 10 * tol})


# ---------------------------------------------------------------------------
# lemma-harness
# ---------------------------------------------------------------------------

_GRID = (0.05, 0.1, 0.2, 0.4)
RULE_TRIALS = 12
FIXED_AEP_SEED = 2016


def _chain_combos(budget) -> list[tuple[float, float, float]]:
    return [(e, d, h) for e in _GRID for d in _GRID for h in _GRID
            if budget(e, d, h) < 1.0]


_COMBOS = {
    "ChainMaxUpper": _chain_combos(lambda e, d, h: e + 2 * d + h),
    "ChainMaxLower": _chain_combos(lambda e, d, h: e + 2 * d + 2 * h),
}


def _lemma_instance(rule: str, i: int, rng, fixed_rng) -> tuple[Any, dict]:
    """Instance ``i`` of a rule.  The discrete choices (rank, smoothing
    parameters, copies) cycle with ``i`` so every seed gets the same mix of
    program sizes; the states and unitaries come from the seed.

    The two-copy AEP instances are the exception and draw from ``fixed_rng``:
    their symmetric programs (m = 166) stall and go through the retry ladder
    on some states, at several times the cost of a normal instance, and on
    seeded states the number of stalls per pass, not the code, would decide
    the run time."""
    grid = _GRID[i % len(_GRID)]
    if rule in ("DataProcessingMin", "DataProcessingMax",
                "ChainMaxUpper", "ChainMaxLower"):
        state = quantum.random_density((2, 2, 2), rng, rank=1 + i % 2)
        if rule in _COMBOS:
            combos = _COMBOS[rule]
            e, d, h = combos[(5 * i) % len(combos)]
            return state, {"eps": e, "delta": d, "eta": h}
        return state, {"eps": grid}
    if rule in ("AepMin", "AepMax"):
        # two copies on eight of twelve instances puts the median operation
        # inside a cluster of like latencies, not at the gap between two
        # clusters, where op_p50_s would jump from seed to seed
        n = 1 if i < 4 else 2
        state = quantum.random_density((2, 2), rng if n == 1 else fixed_rng,
                                       rank=2)
        return state, {"eps": grid, "n": n}
    state = quantum.random_density((2, 2), rng, rank=1 + i % 4)
    if rule == "MinMaxConversion":
        return state, {"eps": grid, "delta": _GRID[(i // 4) % 4]}
    if rule == "MaxMinConversion":
        return state, {"delta": grid}
    if rule == "QuasiConcavity":
        k = 2 + i % 2
        probs = rng.dirichlet(np.ones(k))
        mix = [(float(p), quantum.random_unitary(2, rng),
                quantum.random_unitary(2, rng)) for p in probs]
        return state, {"eps": grid, "mix": mix}
    raise ValueError(f"no instance generator for rule {rule!r}")


def _slack_check(report, outs):
    if report.slack >= -SLACK_TOL:
        return None
    return f"{report.rule} violated: slack {report.slack!r} < -{SLACK_TOL:g}"


def _slack_perturb(report, outs=None):
    return dataclasses.replace(report, rhs=report.lhs - 1e-3)


def lemma_harness(seed: int, workdir: Path) -> list[Op]:
    """All nine rules on seeded (2,2,2) instances plus the two closed-form
    H_min anchors: many small LMI programs, so model build and per-iteration
    overhead dominate.

    The instances are drawn rule by rule and run round-robin (instance i of
    every rule, then instance i + 1), so the instances of one rule, and
    the operations that make up the latency percentiles, are spread over
    the whole pass instead of sampling the host's speed in one stretch of
    it."""
    rng = np.random.default_rng(seed)
    fixed_rng = np.random.default_rng(FIXED_AEP_SEED)
    by_rule = []
    for rule in lemmas.RULES:
        by_rule.append([])
        for i in range(RULE_TRIALS):
            state, params = _lemma_instance(rule, i, rng, fixed_rng)
            by_rule[-1].append(Op(
                f"{rule}[{i}]",
                lambda outs, r=rule, s=state, p=params:
                    lemmas.verify_inequality(r, s, p),
                [(_slack_check, _slack_perturb)]))
    ops = [op for trial in zip(*by_rule) for op in trial]
    bell = entropy.EntropyQuery(quantum.maximally_entangled(2), (0,), (1,))
    sigma = quantum.random_density((2,), rng)
    product = entropy.EntropyQuery(
        quantum.DensityOperator(np.kron(np.eye(2) / 2.0, sigma.mat), (2, 2)),
        (0,), (1,))
    ops.append(Op("anchor.bell", lambda outs: entropy.h_min(bell),
                  [near(-1.0, VALUE_TOL)]))
    ops.append(Op("anchor.maximally_mixed_product",
                  lambda outs: entropy.h_min(product), [near(1.0, VALUE_TOL)]))
    return ops


# ---------------------------------------------------------------------------
# tensor-power
# ---------------------------------------------------------------------------

STATES = 3   # seeded states (n = 2 programs), and as many fixed (n = 3)
FIXED_STATE_SEED = 15
TENSOR_EPS = 0.25
ADDITIVITY_TOL = 1e-5
PRODUCT_TOL = 1e-5


def _positive_floor(eigs: np.ndarray) -> float:
    """-log2 of the smallest eigenvalue above the support cutoff."""
    return -math.log2(float(eigs[eigs > 1e-12].min()))


def _shannon(eigs: np.ndarray) -> float:
    eigs = eigs[eigs > 1e-15]
    return float(-(eigs * np.log2(eigs)).sum())


def _corridor(rho: np.ndarray, n: int, eps: float) -> tuple[float, float]:
    """n S(A|B) -/+ (mu_B + mu_C) sqrt(n ln(2/eps)) for a 2x2 state, from
    eigenvalues: C purifies AB, so rho_C has the nonzero spectrum of rho_AB."""
    rho_b = np.einsum("abad->bd", rho.reshape(2, 2, 2, 2))
    eig_ab = np.linalg.eigvalsh(rho)
    eig_b = np.linalg.eigvalsh(rho_b)
    s_cond = _shannon(eig_ab) - _shannon(eig_b)
    width = (_positive_floor(eig_b) + _positive_floor(eig_ab)) \
        * math.sqrt(n * math.log(2.0 / eps))
    return n * s_cond - width, n * s_cond + width


def tensor_power(seed: int, workdir: Path) -> list[Op]:
    """Smoothed H_min/H_max of rho^(x)n at n = 2, 3 on 2x2 rank-2 states,
    and the exact values at n = 2: a few large symmetric programs (m = 876
    at n = 3).

    The n = 2 programs run on seeded states.  The n = 3 programs run on
    fixed states: on some states (one of the first 26 seeded ones tried) the
    n = 3 interior-point run stalls and the retry ladder solves it again,
    which adds about 4 s to a pass, so seeded n = 3 states would make a
    run's time depend on the seed more than on the code.  The fixed set
    holds one such state, so the stall and its retry are timed in every
    run.  Exact values are taken at n = 2 only: with the cheap exact n = 3
    programs too, the median operation would sit at the gap between the
    cheap programs and the smoothed n = 2 ones, where op_p50_s would jump
    from run to run.  The n = 2 and n = 3 groups alternate, so the smoothed
    n = 2 programs, which set op_p50_s, are spread over the pass instead of
    sampling the host's speed in its first seconds.
    """
    rng = np.random.default_rng(seed)
    seeded = [quantum.random_density((2, 2), rng, rank=2)
              for _ in range(STATES)]
    fixed_rng = np.random.default_rng(FIXED_STATE_SEED)
    fixed = [quantum.random_density((2, 2), fixed_rng, rank=2)
             for _ in range(STATES)]
    ops = []
    for k, (state, big) in enumerate(zip(seeded, fixed)):
        exact = _exact_values(state)
        ops += _smoothed_ops(f"seeded{k}.n2", state, 2, exact)
        ops += _exact_ops(f"seeded{k}.n2", state, 2, exact)
        ops += _smoothed_ops(f"fixed{k}.n3", big, 3, _exact_values(big))
    return ops


def _exact_values(state):
    """H_min(A|B) and H_max(A|B) of one copy from the generic programs,
    computed once, when a check first asks for them."""
    query = entropy.EntropyQuery(state, (0,), (1,))
    return (functools.cache(lambda: entropy.h_min(query)),
            functools.cache(lambda: entropy.h_max(query)))


def _smoothed_ops(prefix: str, state, n: int, exact) -> list[Op]:
    """Checks: the AEP corridor; smoothing only raises H_min and lowers
    H_max, so n H_min(rho) <= H_min^eps(rho^n) and H_max^eps(rho^n) <=
    n H_max(rho) (exact entropies are additive); the conversion
    H_min^eps <= H_max^eps + log2 1/(1 - (2 eps)^2) between the two outputs;
    and at n = 2 the generic programs on the explicit product rho (x) rho,
    which must give the same values as the symmetric ones."""
    exact_min, exact_max = exact
    lo, hi = _corridor(state.mat, n, TENSOR_EPS)
    conversion = math.log2(1.0 / (1.0 - (2 * TENSOR_EPS) ** 2))
    hmin_name = f"{prefix}.hmin"
    min_checks = [
        one_sided(lambda outs: lo, "floor", "the corridor floor"),
        one_sided(lambda outs: n * exact_min(), "floor", "n H_min(rho)",
                  ADDITIVITY_TOL),
    ]
    max_checks = [
        one_sided(lambda outs: hi, "ceiling", "the corridor ceiling"),
        one_sided(lambda outs: n * exact_max(), "ceiling", "n H_max(rho)",
                  ADDITIVITY_TOL),
        one_sided(lambda outs: outs[hmin_name] - conversion, "floor",
                  "H_min^eps - log2 1/(1 - (2 eps)^2)", PRODUCT_TOL),
    ]
    if n == 2:
        pair = entropy.EntropyQuery(
            quantum.DensityOperator(np.kron(state.mat, state.mat),
                                    (2, 2, 2, 2)),
            (0, 2), (1, 3), TENSOR_EPS)
        min_checks.append(near(functools.cache(
            lambda: entropy.h_min_smooth(pair)), PRODUCT_TOL))
        max_checks.append(near(functools.cache(
            lambda: entropy.h_max_smooth(pair)), PRODUCT_TOL))
    return [
        Op(hmin_name,
           lambda outs: symmetry.h_min_smooth_power(state, n, TENSOR_EPS),
           min_checks),
        Op(f"{prefix}.hmax",
           lambda outs: symmetry.h_max_smooth_power(state, n, TENSOR_EPS),
           max_checks),
    ]


def _exact_ops(prefix: str, state, n: int, exact) -> list[Op]:
    """Exact entropies are additive on product states."""
    exact_min, exact_max = exact
    return [
        Op(f"{prefix}.hmin.exact",
           lambda outs: symmetry.h_min_smooth_power(state, n, 0.0),
           [near(lambda: n * exact_min(), ADDITIVITY_TOL)]),
        Op(f"{prefix}.hmax.exact",
           lambda outs: symmetry.h_max_smooth_power(state, n, 0.0),
           [near(lambda: n * exact_max(), ADDITIVITY_TOL)]),
    ]


# ---------------------------------------------------------------------------
# wiretap-pipeline
# ---------------------------------------------------------------------------

COPY_THRESHOLD = 1.0 / math.sqrt(2.0)   # delta* of the best two-message code
OVERLAP = 1.0 / math.sqrt(2.0)          # of the two pure signal states
CHAIN_ETA = 0.05
BLOCK = 1000


def _h2(p: float) -> float:
    return 0.0 if p in (0.0, 1.0) else \
        -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _bsc_capacity(p: float, r: float) -> float:
    return _h2(p * (1 - r) + (1 - p) * r) - _h2(p)


def _bsc_code_figures(p: float, r: float) -> tuple[float, float]:
    """(eps*, delta*) of the code (0, 1) on the binary symmetric wiretap.

    Bob decodes correctly with probability 1 - p, so eps* = sqrt(p).  Eve's
    states are diag(1-q, q) and diag(q, 1-q) with q the cascaded flip
    probability; by concavity and the bit-flip symmetry the best reference
    is 1/2, so delta* = sqrt(1/2 - sqrt(q (1-q))).
    """
    q = p * (1 - r) + (1 - p) * r
    return math.sqrt(p), math.sqrt(0.5 - math.sqrt(q * (1 - q)))


def _not_degraded_channel():
    """Bob sees the input through a BSC(0.3), Eve sees it exactly.  Trace
    distance cannot grow under a channel, so no degrading map exists."""
    states = []
    for x in (0, 1):
        bob = np.array([0.7, 0.3]) if x == 0 else np.array([0.3, 0.7])
        eve = np.eye(2)[x]
        states.append(quantum.DensityOperator(
            np.diag(np.kron(bob, eve)).astype(complex), (2, 2)))
    return channels.CqqWiretapChannel(("0", "1"), 2, 2, states,
                                      name="not_degraded")


def _structure_found(out, outs):
    return None if out is not None else "no degrading map found"


def _structure_absent(out, outs):
    return None if out is None else "degrading map reported for a " \
        "channel that is not degraded"


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue() + err.getvalue()


def _cli_value(text: str, label: str) -> float | None:
    match = re.search(rf"{re.escape(label)}\s*=\s*([-+0-9.eE]+)", text)
    return None if match is None else float(match.group(1))


def _cli_checks(status: int, label: str | None = None, ref=None,
                at_least: bool = False) -> list[Check]:
    """Exit status, and the printed value against a reference (printed to
    six significant digits)."""
    def status_check(out, outs):
        code, text = out
        if code != status:
            return f"exit status {code}, expected {status}: {text.strip()}"
        return None

    checks = [(status_check, lambda out, outs: (status + 1, out[1]))]
    if label is None:
        return checks

    def check(out, outs):
        value, r = _cli_value(out[1], label), _ref(ref)
        if value is None:
            return f"no {label!r} in the output: {out[1].strip()}"
        tol = 1e-5 * abs(r) + 1e-6
        if at_least:
            return None if value >= r - tol else \
                f"{label} = {value!r} below {r!r}"
        return None if abs(value - r) <= tol else \
            f"{label} = {value!r}, expected {r!r}"

    def perturb(out, outs):
        code, text = out
        return (code, re.sub(rf"({re.escape(label)}\s*=\s*)([-+0-9.eE]+)",
                             lambda m: m.group(1) + repr(-1e6), text))

    return checks + [(check, perturb)]


def _bound_check(floor) -> Check:
    """The finite-n bound dominates ``floor(outs)``: n P and log2 M of the
    brute-force witness."""
    def check(terms, outs):
        need = floor(outs)
        if terms.total >= need - 1e-9:
            return None
        return f"bound {terms.total!r} below {need!r}"

    def perturb(terms, outs):
        zero = dict(aep_upper_width=0.0, aep_lower_width=0.0, chain_cost=0.0,
                    type_cost=0.0, hashing_cost=0.0)
        return dataclasses.replace(terms, capacity_term=-1.0, **zero)

    return check, perturb


def _reports_hold(reports, outs):
    bad = [r for r in reports if r.slack < -SLACK_TOL]
    if not bad:
        return None
    return "audited line violated: " + ", ".join(
        f"{r.rule} slack {r.slack!r}" for r in bad)


def _reports_perturb(reports, outs):
    return [_slack_perturb(reports[0])] + list(reports[1:])


def wiretap_pipeline(seed: int, workdir: Path) -> list[Op]:
    """What a user of the converse runs, end to end: degradedness,
    capacities (one near zero), code figures of merit, brute-force search,
    the audited chain, finite-n bounds and the CLI.

    Capacities run on fixed closed-form channels.  The ascent's iteration
    count jumps by two orders of magnitude between nearby channels (7,691
    iterations on bsc(0.058, 0.331), 21 to 51 on nineteen other channels
    drawn from the same range), so a seeded capacity channel would make a
    run's time depend on the seed more than on the code.  The seed draws the
    channels and parameters of the SDP-based steps: code evaluation, the
    one-shot converse, the audited chain and the finite-n smoothing
    parameters.
    """
    rng = np.random.default_rng(seed)
    # seeded binary symmetric wiretap channel, drawn where the two-message
    # code stays inside the audited chain's hypothesis
    p, r = float(rng.uniform(0.02, 0.06)), float(rng.uniform(0.3, 0.45))
    bsc = channels.bsc_wiretap_channel(p, r)
    eps_code, delta_code = _bsc_code_figures(p, r)
    rand, _ = channels.random_degraded_channel(rng, family="pure")
    eps_n, delta_n = float(rng.uniform(0.05, 0.2)), float(rng.uniform(0.05, 0.2))
    # fixed closed-form families; readme is the README quick-start channel
    readme = channels.bsc_wiretap_channel(0.1, 0.2)
    readme_cap = _bsc_capacity(0.1, 0.2)
    two = channels.two_pure_state_channel(OVERLAP)
    near_zero = channels.bsc_wiretap_channel(0.45, 0.01)
    copy = channels.copy_eve_channel(2)
    noiseless = channels.noiseless_trivial_eve_channel(2)
    not_degraded = _not_degraded_channel()
    pair = codes.deterministic_code((0, 1), n=1, alphabet_size=2)
    single = codes.deterministic_code((0,), n=1, alphabet_size=2)
    bob = [rand.bob_marginal(x).mat for x in range(2)]
    helstrom = 0.5 + 0.25 * float(np.abs(np.linalg.eigvalsh(bob[0] - bob[1])).sum())

    files = {}
    for name, obj in (("bsc", bsc), ("readme", readme),
                      ("not_degraded", not_degraded)):
        files[name] = str(workdir / f"{name}.json")
        io.save_channel(obj, files[name])
    files["pair"] = str(workdir / "pair.json")
    io.save_code(pair, files["pair"])

    def st(name):
        return lambda outs: outs[f"degraded.{name}"]

    ops = []
    for name, ch in (("bsc", bsc), ("rand", rand), ("readme", readme),
                     ("two", two), ("near_zero", near_zero), ("copy", copy),
                     ("noiseless", noiseless)):
        ops.append(Op(f"degraded.{name}",
                      lambda outs, c=ch: channels.check_degraded(c),
                      [(_structure_found, lambda out, outs: None)]))
    ops.append(Op("degraded.not_degraded",
                  lambda outs: channels.check_degraded(not_degraded),
                  [(_structure_absent, lambda out, outs: "structure")]))

    value = _bumped("value", CAP_TOL)
    for name, ch, ref in (("readme", readme, readme_cap),
                          ("two", two, _h2((1.0 + OVERLAP) / 2.0)),
                          ("near_zero", near_zero, _bsc_capacity(0.45, 0.01))):
        ops.append(Op(f"capacity.{name}",
                      lambda outs, c=ch, s=st(name):
                          capacity.private_capacity_degraded(c, s(outs)),
                      [near(ref, CAP_TOL, lambda res: res.value, value)]))
        # on a degraded channel the input-only lower bound is the capacity
        ops.append(Op(f"p1.{name}",
                      lambda outs, c=ch: capacity.p1_general_lower_bound(c),
                      [near(ref, CAP_TOL, lambda res: res.value, value)]))

    ops.append(Op("eval.bsc", lambda outs: codes.evaluate_code(pair, bsc),
                  [near(eps_code, VALUE_TOL, lambda perf: perf.eps_star,
                        _bumped("eps_star", VALUE_TOL)),
                   near(delta_code, VALUE_TOL, lambda perf: perf.delta_star,
                        _bumped("delta_star", VALUE_TOL))]))
    # two messages decode at the Helstrom success 1/2 + ||rho_0 - rho_1||_1 / 4
    ops.append(Op("eval.rand", lambda outs: codes.evaluate_code(pair, rand),
                  [near(helstrom, VALUE_TOL, lambda perf: perf.success_prob,
                        _bumped("success_prob", VALUE_TOL))]))

    ops.append(Op("search.copy.delta0.1",
                  lambda outs: codes.brute_force_M(copy, 1, 0.0, 0.1),
                  [near(1, 0, lambda res: res[0], lambda res: (2, res[1]))]))
    ops.append(Op("search.copy.delta0.9",
                  lambda outs: codes.brute_force_M(copy, 1, 0.0, 0.9),
                  [near(2, 0, lambda res: res[0], lambda res: (1, None))]))
    ops.append(Op("eval.copy.witness",
                  lambda outs: codes.evaluate_code(
                      outs["search.copy.delta0.9"][1], copy),
                  [near(COPY_THRESHOLD, VALUE_TOL, lambda perf: perf.delta_star,
                        _bumped("delta_star", VALUE_TOL))]))
    ops.append(Op("search.noiseless",
                  lambda outs: codes.brute_force_M(noiseless, 1, 0.0, 0.0),
                  [near(2, 0, lambda res: res[0], lambda res: (3, res[1]))]))

    # one-shot converse: log2 M never exceeds the bound
    for name, ch in (("bsc", bsc), ("rand", rand)):
        ops.append(Op(f"converse.trivial.{name}",
                      lambda outs, c=ch: converse.trivial_converse_bound(pair, c),
                      [one_sided(lambda outs: 1.0, "floor", "log2 M",
                                 1e-5)]))
    for name, code, ch in (("bsc.pair", pair, bsc),
                           ("readme.single", single, readme),
                           ("rand.single", single, rand)):
        chan = name.split(".")[0]
        ops.append(Op(f"audit.{name}",
                      lambda outs, k=code, c=ch, s=st(chan):
                          converse.audit_privacy_bound_chain(
                              k, c, s(outs), CHAIN_ETA),
                      [(_reports_hold, _reports_perturb)]))

    def search_floor(key):
        return lambda outs: math.log2(max(outs[key][0], 1))

    readme_floor = lambda outs: BLOCK * readme_cap  # noqa: E731
    for label, name, ch, n, eps, delta, floor in (
            ("readme", "readme", readme, BLOCK, 0.1, 0.1, readme_floor),
            ("readme.seeded", "readme", readme, BLOCK, eps_n, delta_n,
             readme_floor),
            ("noiseless", "noiseless", noiseless, 1, 0.0, 0.0,
             search_floor("search.noiseless")),
            ("copy", "copy", copy, 1, 0.0, 0.1,
             search_floor("search.copy.delta0.1"))):
        ops.append(Op(f"finite_n.{label}",
                      lambda outs, c=ch, s=st(name), n=n, e=eps, d=delta:
                          converse.finite_n_terms(c, s(outs), n, e, d),
                      [_bound_check(floor)]))

    ops.append(Op("cli.capacity",
                  lambda outs: _cli(["capacity", files["readme"]]),
                  _cli_checks(0, "P", readme_cap)))
    ops.append(Op("cli.capacity.not_degraded",
                  lambda outs: _cli(["capacity", files["not_degraded"]]),
                  _cli_checks(2)))
    ops.append(Op("cli.converse",
                  lambda outs: _cli(["converse", files["readme"], "-n",
                                     str(BLOCK), "--eps", "0.1", "--delta", "0.1"]),
                  _cli_checks(0, f"B({BLOCK}, 0.1, 0.1)", BLOCK * readme_cap,
                              at_least=True)))
    ops.append(Op("cli.converse.outside_region",
                  lambda outs: _cli(["converse", files["bsc"], "-n", str(BLOCK),
                                     "--eps", "0.4", "--delta", "0.35"]),
                  _cli_checks(2)))
    ops.append(Op("cli.code_eval",
                  lambda outs: _cli(["code-eval", files["bsc"], files["pair"]]),
                  _cli_checks(0, "eps_star", eps_code)))
    return ops


WORKLOADS = {
    "lemma-harness": lemma_harness,
    "tensor-power": tensor_power,
    "wiretap-pipeline": wiretap_pipeline,
}
