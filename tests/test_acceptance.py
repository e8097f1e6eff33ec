"""Acceptance suite: ten end-to-end behavioral criteria.

One test per criterion; ``pytest -v`` therefore prints one pass/fail line
for each.  Every assertion is against an independently computed value
(closed forms, constructive instances, exhaustive enumeration) at the
stated tolerance — no expected number here was produced by the code under
test.
"""

import itertools
import math

import numpy as np
import pytest

from oracles import (hmax_cross_checked, positive_part_trace, rand_herm,
                     strictly_feasible_sdp)
from secrecy.capacity import (bsc_wiretap_capacity_formula,
                              p1_general_lower_bound,
                              private_capacity_degraded,
                              two_pure_state_capacity_formula)
from secrecy.channels import (bsc_wiretap_channel, check_degraded,
                              copy_eve_channel, noiseless_trivial_eve_channel,
                              random_degraded_channel, structure_from_map)
from secrecy.codes import (SearchConfig, WiretapCode, brute_force_M,
                           deterministic_code, evaluate_code,
                           nogo_mixture_code)
from secrecy.converse import (OutsideConverseRegion, audit_privacy_bound_chain,
                              classify_region, finite_n_converse,
                              trivial_converse_bound)
from secrecy.entropy import EntropyQuery, aep_bounds, h_min_smooth
from secrecy.lemmas import RULES, run_harness
from secrecy.quantum import (DensityOperator, QuantumChannel,
                             conditional_entropy, maximally_entangled,
                             random_density)
from secrecy.sdp import LmiBuilder, SdpStatus, solve
from secrecy.symmetry import h_max_smooth_power, h_min_smooth_power


def test_criterion_01_entropy_engine_exactness():
    """H_min hits the two textbook values exactly; the two independent
    H_max computations agree on 50 seeded states."""
    bell = maximally_entangled(2)
    assert h_min_smooth(EntropyQuery(bell, (0,), (1,), 0.0)) \
        == pytest.approx(-1.0, abs=1e-6)
    rng = np.random.default_rng(2024)
    sigma = random_density((2,), rng)
    product = DensityOperator(np.kron(np.eye(2) / 2.0, sigma.mat), (2, 2))
    assert h_min_smooth(EntropyQuery(product, (0,), (1,), 0.0)) \
        == pytest.approx(1.0, abs=1e-6)
    for i in range(50):
        rho = random_density((2, 2), rng, rank=int(rng.integers(1, 5)))
        # the purification-duality value and the direct fidelity program
        # must agree to 1e-5
        hmax_cross_checked(EntropyQuery(rho, (0,), (1,), 0.0))
    print("criterion 1: H_min exact at -1/+1; 50/50 dual-path agreements")


def test_criterion_02_lemma_suite():
    """Seven inequality rules, 200 seeded instances each, no violation
    beyond slack -1e-6."""
    seven = RULES[:7]
    assert seven == ("DataProcessingMin", "DataProcessingMax",
                     "ChainMaxUpper", "ChainMaxLower", "MinMaxConversion",
                     "MaxMinConversion", "QuasiConcavity")
    rows = run_harness(rules=seven, trials=200, seed=0)
    assert len(rows) == 7 * 200
    violations = [(s, r) for s, r in rows if r.slack < -1e-6]
    assert not violations, violations[:5]
    print(f"criterion 2: {len(rows)} lemma instances, 0 violations")


def test_criterion_03_aep_finite_n():
    """Exact n-fold smooth entropies sit inside the finite-n corridor and
    the normalized gap to n*S(A|B) shrinks with n on >= 80% of states."""
    rng = np.random.default_rng(42)
    eps = 0.3
    shrinking = 0
    for _ in range(20):
        rho = random_density((2, 2), rng, rank=2)
        s = conditional_entropy(rho, [0], [1])
        gaps = []
        for n in (1, 2, 3):
            exact_min = h_min_smooth_power(rho, n, eps)
            exact_max = h_max_smooth_power(rho, n, eps)
            lo, hi = aep_bounds(rho, [0], [1], n, eps)
            assert exact_min >= lo - 1e-6
            assert exact_max <= hi + 1e-6
            gaps.append((exact_min - n * s) / n)
        if gaps[0] >= gaps[1] >= gaps[2]:
            shrinking += 1
    assert shrinking >= 16, f"normalized gap shrank on only {shrinking}/20"
    print(f"criterion 3: 120/120 corridor checks, gap shrank on "
          f"{shrinking}/20 states")


def test_criterion_04_capacity_values():
    """Two closed-form channels and the achievability/converse consistency
    of the single-letter formula on random degraded channels."""
    bsc = bsc_wiretap_channel(0.1, 0.2)
    res = private_capacity_degraded(bsc)
    oracle = bsc_wiretap_capacity_formula(0.1, 0.2)
    assert oracle == pytest.approx(0.35770, abs=1e-4)
    assert res.value == pytest.approx(oracle, abs=1e-4)

    from secrecy.channels import two_pure_state_channel
    two = two_pure_state_channel(1.0 / math.sqrt(2.0))
    res2 = private_capacity_degraded(two)
    oracle2 = two_pure_state_capacity_formula(1.0 / math.sqrt(2.0))
    assert res2.value == pytest.approx(0.60088, abs=1e-4)
    assert res2.value == pytest.approx(oracle2, abs=1e-4)

    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(10):
        family = "pure" if i % 2 == 0 else "classical"
        ch, dmap = random_degraded_channel(rng, family=family)
        st = structure_from_map(ch, dmap)
        upper = private_capacity_degraded(ch, st).value
        lower = p1_general_lower_bound(ch).value
        worst = max(worst, abs(upper - lower))
    assert worst < 1e-4
    print(f"criterion 4: P(bsc)={res.value:.5f}, P(two-state)={res2.value:.5f}, "
          f"worst single-letter consistency gap {worst:.2e}")


def _structured_channels():
    trace_map = QuantumChannel([np.array([[1.0, 0.0]]),
                                np.array([[0.0, 1.0]])])
    dephase = QuantumChannel([np.diag([1.0, 0.0]).astype(complex),
                              np.diag([0.0, 1.0]).astype(complex)])
    trivial = noiseless_trivial_eve_channel(2)
    copy = copy_eve_channel(2)
    bsc_noisy = bsc_wiretap_channel(0.05, 0.45)
    bsc = bsc_wiretap_channel(0.1, 0.2)
    return [
        ("trivial", trivial, structure_from_map(trivial, trace_map)),
        ("copy", copy, structure_from_map(copy, dephase)),
        ("bsc_noisy", bsc_noisy, check_degraded(bsc_noisy)),
        ("bsc", bsc, check_degraded(bsc)),
    ]


def _code_population(channels):
    """(channel name, channel, structure, code) for >= 100 codes:
    exhaustive deterministic, grid-stochastic, no-go mixtures, and a
    two-use deterministic family."""
    pop = []
    # deterministic n=1 codeword multisets, M in {1, 2}
    for name, ch, st in channels:
        for m in (1, 2):
            for words in itertools.combinations_with_replacement(range(2), m):
                pop.append((name, ch, st, deterministic_code(words, 1, 2)))
    # grid-stochastic n=1 pairs on a quarter-step grid
    grid_rows = [np.array([i / 4.0, 1.0 - i / 4.0]) for i in range(5)]
    for name, ch, st in channels:
        for i, j in itertools.combinations_with_replacement(range(5), 2):
            if {i, j} <= {0, 4}:   # both rows deterministic: counted above
                continue
            enc = np.stack([grid_rows[i], grid_rows[j]])
            pop.append((name, ch, st, WiretapCode(2, 1, 2, enc)))
    # no-go mixtures of the orthogonal base code at several biases
    base = deterministic_code((0, 1), 1, 2)
    for name, ch, st in channels:
        if name in ("copy", "bsc_noisy"):
            for eps in (0.2, 0.4, 0.6, 0.8, 0.9):
                pop.append((name, ch, st, nogo_mixture_code(base, eps, (0,))))
    # deterministic two-use codes on the noiseless channel
    trivial = channels[0]
    words2 = list(itertools.product(range(2), repeat=2))
    two_use = []
    for m in (2, 3, 4):
        for words in itertools.combinations_with_replacement(words2, m):
            two_use.append(words)
    for words in two_use[:25]:
        pop.append((trivial[0], trivial[1], trivial[2],
                    deterministic_code(words, 2, 2)))
    return pop


def test_criterion_05_converse_soundness():
    """log2 M never exceeds the one-shot bound on any suite code; the
    audited chain holds line by line on every admissible one-use code."""
    channels = _structured_channels()
    pop = _code_population(channels)
    assert len(pop) >= 100
    worst_margin = math.inf
    for name, ch, st, code in pop:
        bound = trivial_converse_bound(code, ch)
        margin = bound + 1e-5 - math.log2(code.m)
        worst_margin = min(worst_margin, margin)
        assert margin >= 0.0, (name, code.m, code.n, bound)
    eta = 0.05
    audited = 0
    worst_slack = math.inf
    for name, ch, st, code in pop:
        if code.n != 1:
            continue
        perf = evaluate_code(code, ch)
        if perf.eps_star + 2.0 * perf.delta_star + 5.0 * eta >= 1.0:
            continue   # outside the chain's hypothesis
        reports = audit_privacy_bound_chain(code, ch, st, eta)
        worst_slack = min(worst_slack, min(r.slack for r in reports))
        assert all(r.slack >= -1e-6 for r in reports), (name, code.encoder)
        audited += 1
    assert audited >= 30
    print(f"criterion 5: {len(pop)} codes sound (worst margin "
          f"{worst_margin:.2e}); {audited} audits, worst line slack "
          f"{worst_slack:+.2e}")


def test_criterion_06_finite_n_bound_behavior():
    """Outside-region detection is exact, the normalized overhead decays
    like sqrt(log n / n), and the bound dominates brute-force counts."""
    bsc = bsc_wiretap_channel(0.1, 0.2)
    st = check_degraded(bsc)
    cap = private_capacity_degraded(bsc, st).value
    for eps in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        for delta in (0.0, 0.15, 0.3, 0.45):
            if eps + 2 * delta >= 1.0:
                with pytest.raises(OutsideConverseRegion):
                    finite_n_converse(bsc, st, 10, eps, delta, capacity=cap)
            else:
                assert finite_n_converse(bsc, st, 10, eps, delta,
                                         capacity=cap) > 0.0
    ns = (100, 1000, 10000)
    vals = [(finite_n_converse(bsc, st, n, 0.1, 0.1, capacity=cap)
             - n * cap) / n for n in ns]
    assert vals[0] > vals[1] > vals[2]
    x = np.array([math.sqrt(math.log(n) / n) for n in ns])
    v = np.array(vals)
    c = float(x @ v / (x @ x))
    rel = float(np.linalg.norm(v - c * x) / np.linalg.norm(v))
    assert rel < 0.10

    # domination over achievability at desk scale
    trivial = noiseless_trivial_eve_channel(2)
    trace_map = QuantumChannel([np.array([[1.0, 0.0]]),
                                np.array([[0.0, 1.0]])])
    st_t = structure_from_map(trivial, trace_map)
    dephase = QuantumChannel([np.diag([1.0, 0.0]).astype(complex),
                              np.diag([0.0, 1.0]).astype(complex)])
    copy = copy_eve_channel(2)
    st_c = structure_from_map(copy, dephase)
    desk = [
        (trivial, st_t, 1, 0.0, 0.0, None),
        (trivial, st_t, 2, 0.0, 0.0, SearchConfig(include_stochastic=False)),
        (copy, st_c, 1, 0.1, 0.2, SearchConfig(include_stochastic=False)),
    ]
    for ch, struct, n, eps, delta, cfg in desk:
        m_best, _ = brute_force_M(ch, n, eps, delta, cfg)
        bound = finite_n_converse(ch, struct, n, eps, delta)
        assert bound >= math.log2(max(m_best, 1)) - 1e-9
    print(f"criterion 6: region predicate exact; overhead {vals[0]:.3f} > "
          f"{vals[1]:.3f} > {vals[2]:.3f}, fit residual {rel:.3f}; "
          f"bound dominates search")


def test_criterion_07_region_geometry():
    """Both boundary curves and all three corners classify correctly."""
    for eps in np.linspace(0.0, 0.98, 23):
        delta = (1.0 - 1e-9 - eps) / 2.0
        assert classify_region(eps, delta).label == "Converse"
        delta_on = (1.0 - eps) / 2.0
        assert classify_region(eps, delta_on).label == "Gap"
    for theta in np.linspace(0.0, math.pi / 2.0, 23):
        eps = min(math.cos(theta), 1.0)
        delta = min(math.sqrt(1.0 - eps * eps), 1.0)
        # land the float pair exactly on (or one ulp above) the circle
        while eps * eps + delta * delta < 1.0:
            delta = np.nextafter(delta, 2.0)
        assert classify_region(eps, delta).label == "NoGo"
    assert classify_region(0.0, 0.0).label == "Converse"
    assert classify_region(1.0, 0.0).label == "NoGo"
    assert classify_region(0.0, 1.0).label == "NoGo"
    print("criterion 7: 46 boundary points and 3 corners all correct")


def test_criterion_08_nogo_construction():
    """Biasing a perfect code toward one codeword caps the measured
    privacy error at sqrt(1 - eps^2) while keeping the full rate."""
    copy = copy_eve_channel(2)
    base = deterministic_code((0, 1), 1, 2)
    eps = 0.8
    mixture = nogo_mixture_code(base, eps, (0,))
    assert mixture.rate == pytest.approx(1.0)
    perf = evaluate_code(mixture, copy)
    cap = math.sqrt(1.0 - eps * eps)
    assert perf.delta_star <= cap + 1e-6
    fixed = evaluate_code(mixture, copy, privacy_mode="fixed")
    assert fixed.delta_star <= cap + 1e-6
    print(f"criterion 8: delta*={perf.delta_star:.4f} (fixed "
          f"{fixed.delta_star:.4f}) <= {cap:.1f}; rate 1 bit")


def test_criterion_09_brute_force_oracle():
    """Exhaustive search reproduces the known counts and the 1/sqrt(2)
    privacy threshold of the copy-eavesdropper channel."""
    noiseless = noiseless_trivial_eve_channel(2)
    m0, witness0 = brute_force_M(noiseless, 1, 0.0, 0.0)
    assert m0 == 2 and witness0 is not None

    copy = copy_eve_channel(2)
    m_low, _ = brute_force_M(copy, 1, 0.0, 0.1)
    assert m_low == 1
    m_high, witness = brute_force_M(copy, 1, 0.0, 0.9)
    assert m_high == 2
    perf = evaluate_code(witness, copy)
    assert perf.delta_star == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    print(f"criterion 9: M(1,0,0)=2; copy-eve M=1@0.1, M=2@0.9 with "
          f"delta*={perf.delta_star:.6f}")


def test_criterion_10_sdp_engine():
    """Duality gap and independent feasibility checks on 500 constructive
    instances; eigenvalue-analytic family matched to 1e-7."""
    rng = np.random.default_rng(11)
    shapes = [(3, 2), (2, 2), (4,), (2, 3)]
    for k in range(500):
        prob = strictly_feasible_sdp(rng, block_dims=shapes[k % 4],
                                     m=int(rng.integers(2, 7)))
        sol = solve(prob)
        assert sol.status is SdpStatus.OPTIMAL, f"instance {k}: {sol.message}"
        scale = 1.0 + abs(sol.primal_value) + abs(sol.dual_value)
        assert abs(sol.primal_value - sol.dual_value) / scale <= 1e-8
        assert sol.primal_residual <= 1e-6 * (1.0 + abs(sol.primal_value))
        assert sol.min_eig_primal >= -1e-8 * (1.0 + abs(sol.primal_value))
        assert sol.min_eig_slack >= -1e-8 * (1.0 + abs(sol.primal_value))
    worst = 0.0
    for k in range(60):
        d = 2 + k % 4
        a = rand_herm(d, rng)
        lb = LmiBuilder()
        x = lb.herm_var("X", d)
        b1 = lb.new_block(d)
        lb.add_herm(b1, x)
        lb.add_const(b1, -a)
        b2 = lb.new_block(d)
        lb.add_herm(b2, x)
        lb.minimize(x.trace_real_coeffs())
        value = lb.build().solve().value
        worst = max(worst, abs(value - positive_part_trace(a)))
    assert worst <= 1e-7
    print(f"criterion 10: 500 instances optimal with gap<=1e-8; "
          f"positive-part family worst error {worst:.2e}")
