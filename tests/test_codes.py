"""Wiretap-code containers, state assembly, figures of merit, and search."""

import itertools
import math

import numpy as np
import pytest

from secrecy import codes
from secrecy.channels import (CqqWiretapChannel, bsc_wiretap_channel,
                              copy_eve_channel, noiseless_trivial_eve_channel,
                              random_degraded_channel, two_pure_state_channel)
from secrecy.codes import (BUDGET_ENV, CodePerformance, SearchConfig,
                           WiretapCode, _SEARCH_TOL, _discrimination_sdp,
                           _grid_rows, _is_onehot, _privacy_bound,
                           _success_bound, all_strings, brute_force_M,
                           channel_string_state, decode_distribution,
                           deterministic_code, encoder_output_states,
                           evaluate_code, joint_state, nogo_mixture_code,
                           optimal_decoder, string_index)
from secrecy.quantum import (DensityOperator, ValidationError, basis_state,
                             product_state)

RNG = np.random.default_rng(20260822)


class TestWiretapCode:
    def test_valid_code_and_rate(self):
        code = WiretapCode(2, 1, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert code.rate == pytest.approx(1.0)
        code4 = WiretapCode(4, 2, 2, np.eye(4))
        assert code4.rate == pytest.approx(1.0)

    def test_encoder_shape_must_match(self):
        with pytest.raises(ValidationError, match="shape"):
            WiretapCode(2, 2, 2, np.eye(2))

    def test_rows_must_be_distributions(self):
        with pytest.raises(ValidationError, match="negative"):
            WiretapCode(1, 1, 2, np.array([[1.5, -0.5]]))
        with pytest.raises(ValidationError, match="sum to one"):
            WiretapCode(1, 1, 2, np.array([[0.5, 0.4]]))

    def test_decoder_validation(self):
        enc = np.array([[1.0, 0.0], [0.0, 1.0]])
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError, match="one element per"):
            WiretapCode(2, 1, 2, enc, decoder=(eye,))
        bad_herm = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="Hermitian"):
            WiretapCode(2, 1, 2, enc, decoder=(bad_herm, eye - bad_herm))
        neg = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValidationError, match="not PSD"):
            WiretapCode(2, 1, 2, enc, decoder=(neg, eye - neg))
        with pytest.raises(ValidationError, match="identity"):
            WiretapCode(2, 1, 2, enc, decoder=(0.5 * eye, 0.4 * eye))

    def test_deterministic_code_layout(self):
        code = deterministic_code([(0, 1), (1, 0)], 2, 2)
        assert code.encoder[0, 1] == 1.0 and code.encoder[1, 2] == 1.0
        short = deterministic_code([0, 1], 1, 2)
        assert np.allclose(short.encoder, np.eye(2))
        with pytest.raises(ValidationError, match="length"):
            deterministic_code([(0, 1)], 1, 2)

    def test_string_index_is_lexicographic(self):
        assert string_index((0, 1), 2) == 1
        assert string_index((1, 0), 2) == 2
        assert all_strings(2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        with pytest.raises(ValidationError, match="outside"):
            string_index((2,), 2)


class TestStateAssembly:
    def test_string_state_groups_receivers_first(self):
        ce = copy_eve_channel(2)
        state = channel_string_state(ce, (0, 1))
        assert state.dims == (4, 4)
        expected = np.zeros((16, 16))
        expected[1 * 4 + 1, 1 * 4 + 1] = 1.0  # B-string 01, E-string 01
        assert np.max(np.abs(state.mat - expected)) < 1e-14

    def test_string_state_against_term_oracle(self):
        bsc = bsc_wiretap_channel(0.1, 0.2)
        state = channel_string_state(bsc, (1, 0))
        # independent assembly: kron per system after collecting marjoints
        s1, s0 = bsc.states[1].mat, bsc.states[0].mat
        t1 = s1.reshape(2, 2, 2, 2)
        t0 = s0.reshape(2, 2, 2, 2)
        expected = np.einsum("aebf,cgdh->acegbdfh", t1, t0).reshape(16, 16)
        assert np.max(np.abs(state.mat - expected)) < 1e-14

    def test_encoder_average(self):
        ce = copy_eve_channel(2)
        code = WiretapCode(1, 1, 2, np.array([[0.25, 0.75]]))
        (avg,) = encoder_output_states(code, ce)
        expected = 0.25 * channel_string_state(ce, (0,)).mat \
            + 0.75 * channel_string_state(ce, (1,)).mat
        assert np.max(np.abs(avg.mat - expected)) < 1e-14

    def test_joint_state_of_perfect_code(self):
        nt = noiseless_trivial_eve_channel(2)
        code = deterministic_code([0, 1], 1, 2,
                                  decoder=(np.diag([1.0, 0.0]).astype(complex),
                                           np.diag([0.0, 1.0]).astype(complex)))
        js = joint_state(code, nt)
        assert js.dims == (2, 2, 1)
        ideal = np.zeros((4, 4))
        ideal[0, 0] = ideal[3, 3] = 0.5
        assert np.max(np.abs(js.mat - ideal)) < 1e-14

    def test_joint_state_single_message(self):
        ce = copy_eve_channel(2)
        code = WiretapCode(1, 1, 2, np.array([[0.0, 1.0]]))
        js = joint_state(code, ce)
        assert js.dims == (1, 1, 2)
        expected = np.diag([0.0, 1.0])
        assert np.max(np.abs(js.mat - expected)) < 1e-14

    def test_joint_state_against_summation_oracle(self):
        bsc = bsc_wiretap_channel(0.15, 0.25)
        enc = np.array([[0.7, 0.3], [0.2, 0.8]])
        povm, _ = optimal_decoder(enc, bsc, 1)
        code = WiretapCode(2, 1, 2, enc, decoder=povm)
        js = joint_state(code, bsc)
        expected = np.zeros((8, 8), dtype=complex)
        for u in range(2):
            for k in range(2):
                rho = channel_string_state(bsc, (k,)).mat.reshape(2, 2, 2, 2)
                for uh in range(2):
                    t = np.einsum("ba,aibj->ij", povm[uh], rho)
                    lo = (u * 2 + uh) * 2
                    expected[lo:lo + 2, lo:lo + 2] += 0.5 * enc[u, k] * t
        assert np.max(np.abs(js.mat - expected)) < 1e-12

    def test_budget_guard(self, monkeypatch):
        ce = copy_eve_channel(2)
        monkeypatch.setenv(BUDGET_ENV, "8")
        code = WiretapCode(4, 1, 2, np.tile([0.5, 0.5], (4, 1)))
        with pytest.raises(ValidationError, match=BUDGET_ENV):
            encoder_output_states(code, ce)
        monkeypatch.setenv(BUDGET_ENV, "not-a-number")
        with pytest.raises(ValidationError, match="integer"):
            encoder_output_states(code, ce)

    def test_compatibility_checks(self):
        ce = copy_eve_channel(2)
        code3 = WiretapCode(1, 1, 3, np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(ValidationError, match="alphabet"):
            encoder_output_states(code3, ce)
        wrong = WiretapCode(2, 1, 2, np.eye(2),
                            decoder=(np.eye(4, dtype=complex) / 2,) * 2)
        with pytest.raises(ValidationError, match="decoder acts"):
            joint_state(wrong, ce)
        with pytest.raises(ValidationError, match="no decoder"):
            joint_state(WiretapCode(2, 1, 2, np.eye(2)), ce)


class TestEvaluate:
    def test_perfect_code_is_exact(self):
        nt = noiseless_trivial_eve_channel(2)
        code = deterministic_code([0, 1], 1, 2)
        for mode in ("optimized", "fixed"):
            perf = evaluate_code(code, nt, mode)
            assert perf.eps_star == 0.0
            assert perf.delta_star == 0.0
            assert perf.success_prob == pytest.approx(1.0, abs=1e-12)
            assert perf.rate == pytest.approx(1.0)
            assert perf.privacy_mode == mode

    def test_copy_eve_full_leakage(self):
        ce = copy_eve_channel(2)
        code = deterministic_code([0, 1], 1, 2)
        opt = evaluate_code(code, ce, "optimized")
        fix = evaluate_code(code, ce, "fixed")
        assert opt.eps_star == 0.0
        assert opt.delta_star == pytest.approx(1 / math.sqrt(2), abs=1e-8)
        assert fix.delta_star == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_optimized_never_beats_fixed(self):
        bsc = bsc_wiretap_channel(0.1, 0.2)
        for _ in range(4):
            enc = RNG.dirichlet(np.ones(2), size=2)
            code = WiretapCode(2, 1, 2, enc)
            opt = evaluate_code(code, bsc, "optimized")
            fix = evaluate_code(code, bsc, "fixed")
            assert opt.delta_star <= fix.delta_star + 1e-7

    def test_success_probability_matches_distribution(self):
        bsc = bsc_wiretap_channel(0.1, 0.2)
        enc = np.array([[0.9, 0.1], [0.3, 0.7]])
        povm, _ = optimal_decoder(enc, bsc, 1)
        code = WiretapCode(2, 1, 2, enc, decoder=povm)
        p = decode_distribution(code, bsc)
        perf = evaluate_code(code, bsc, "fixed")
        assert perf.success_prob == pytest.approx(float(np.trace(p)), abs=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_bad_mode_rejected(self):
        nt = noiseless_trivial_eve_channel(2)
        code = deterministic_code([0, 1], 1, 2)
        with pytest.raises(ValidationError, match="privacy_mode"):
            evaluate_code(code, nt, "loose")


class TestOptimalDecoder:
    def test_orthogonal_pair_decodes_exactly(self):
        ce = copy_eve_channel(2)
        povm, succ = optimal_decoder(np.eye(2), ce, 1)
        assert succ == 1.0
        assert np.max(np.abs(sum(povm) - np.eye(2))) < 1e-12

    def test_four_orthogonal_strings(self):
        nt = noiseless_trivial_eve_channel(2)
        povm, succ = optimal_decoder(np.eye(4), nt, 2)
        assert succ == pytest.approx(1.0, abs=1e-14)
        assert len(povm) == 4

    def test_identical_states_coin_flip(self):
        nt = noiseless_trivial_eve_channel(2)
        enc = np.array([[0.5, 0.5], [0.5, 0.5]])
        _, succ = optimal_decoder(enc, nt, 1)
        assert succ == pytest.approx(0.5, abs=1e-12)

    def test_helstrom_agrees_with_sdp(self):
        bsc = bsc_wiretap_channel(0.1, 0.2)
        enc = np.eye(2)
        povm, succ = optimal_decoder(enc, bsc, 1)
        code = WiretapCode(2, 1, 2, enc)
        bob = [s.partial_trace([0]).mat
               for s in encoder_output_states(code, bsc)]
        _, sdp_succ = _discrimination_sdp(bob)
        gap = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(bob[0] - bob[1])))
        assert succ == pytest.approx(0.5 + 0.5 * gap, abs=1e-12)
        assert succ == pytest.approx(sdp_succ, abs=1e-7)

    def test_beats_enumerated_projective_decoders(self):
        bsc = bsc_wiretap_channel(0.2, 0.3)
        enc = np.array([[0.8, 0.2], [0.1, 0.9]])
        code = WiretapCode(2, 1, 2, enc)
        bob = [s.partial_trace([0]).mat
               for s in encoder_output_states(code, bsc)]
        _, best = optimal_decoder(enc, bsc, 1)
        for theta in np.linspace(0.0, math.pi, 13):
            v = np.array([math.cos(theta), math.sin(theta)])
            p0 = np.outer(v, v).astype(complex)
            for e0 in (p0, np.eye(2) - p0):
                succ = 0.5 * np.real(np.trace(e0 @ bob[0])
                                     + np.trace((np.eye(2) - e0) @ bob[1]))
                assert best >= succ - 1e-9

    def test_sdp_path_returns_valid_povm(self):
        bsc = bsc_wiretap_channel(0.1, 0.2)
        enc = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        povm, succ = optimal_decoder(enc, bsc, 1)
        total = sum(povm)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12
        for e in povm:
            assert np.linalg.eigvalsh(e).min() > -1e-9
        assert 1 / 3 <= succ <= 1.0


class TestNogoMixture:
    def test_weights_are_squared_mixing(self):
        base = deterministic_code([0, 1], 1, 2)
        mix = nogo_mixture_code(base, 0.8, (0,))
        assert np.allclose(mix.encoder, [[1.0, 0.0], [0.36, 0.64]])

    def test_endpoints(self):
        base = deterministic_code([0, 1], 1, 2)
        assert np.allclose(nogo_mixture_code(base, 1.0, (0,)).encoder,
                           base.encoder)
        const = nogo_mixture_code(base, 0.0, (1,))
        assert np.allclose(const.encoder, [[0.0, 1.0], [0.0, 1.0]])
        ce = copy_eve_channel(2)
        perf = evaluate_code(const, ce, "optimized")
        assert perf.delta_star == 0.0

    def test_copy_eve_leakage_closed_form(self):
        # biased rows (1,0) and (0.36, 0.64) against reference diag(s, 1-s):
        # F = max_s [ (1 + 0.6) sqrt(s) + 0.8 sqrt(1-s) ] / 2 = sqrt(3.2)/2,
        # so the optimized leakage is sqrt(1 - 3.2/4) = sqrt(0.2); the fixed
        # reference diag(0.68, 0.32) gives the larger value below.
        ce = copy_eve_channel(2)
        base = deterministic_code([0, 1], 1, 2)
        mix = nogo_mixture_code(base, 0.8, (0,))
        opt = evaluate_code(mix, ce, "optimized")
        fix = evaluate_code(mix, ce, "fixed")
        assert opt.delta_star == pytest.approx(math.sqrt(0.2), abs=1e-7)
        f_fix = 0.5 * (math.sqrt(0.68) + math.sqrt(0.36 * 0.68)
                       + math.sqrt(0.64 * 0.32))
        assert fix.delta_star == pytest.approx(math.sqrt(1 - f_fix ** 2),
                                               abs=1e-12)
        assert opt.delta_star <= math.sqrt(1 - 0.8 ** 2) + 1e-6
        assert fix.delta_star <= math.sqrt(1 - 0.8 ** 2) + 1e-6
        assert mix.rate == base.rate

    def test_domain_checks(self):
        base = deterministic_code([0, 1], 1, 2)
        with pytest.raises(ValidationError, match="mixing"):
            nogo_mixture_code(base, 1.5, (0,))
        with pytest.raises(ValidationError, match="length"):
            nogo_mixture_code(base, 0.5, (0, 1))


class TestBruteForce:
    def test_noiseless_trivial_eve_exact(self):
        nt = noiseless_trivial_eve_channel(2)
        m, wit = brute_force_M(nt, 1, 0.0, 0.0,
                               SearchConfig(m_max=2, include_stochastic=False))
        assert m == 2
        perf = evaluate_code(wit, nt, "optimized")
        assert perf.eps_star == 0.0 and perf.delta_star == 0.0

    def test_copy_eve_privacy_threshold(self):
        ce = copy_eve_channel(2)
        low, _ = brute_force_M(ce, 1, 0.0, 0.1, SearchConfig(m_max=2))
        high, wit = brute_force_M(ce, 1, 0.0, 0.9, SearchConfig(m_max=2))
        assert low == 1
        assert high == 2
        assert evaluate_code(wit, ce, "optimized").delta_star \
            == pytest.approx(1 / math.sqrt(2), abs=1e-7)

    def test_m_cap_respected(self):
        nt = noiseless_trivial_eve_channel(2)
        m, wit = brute_force_M(nt, 1, 0.0, 0.0,
                               SearchConfig(m_max=1, include_stochastic=False))
        assert m == 1 and wit.m == 1
        with pytest.raises(ValidationError, match="m_max"):
            brute_force_M(nt, 1, 0.0, 0.0, SearchConfig(m_max=0))

    @pytest.mark.parametrize("config", [SearchConfig(m_max=2.5),
                                        SearchConfig(stochastic_levels=2.5)])
    def test_non_integer_counts_rejected(self, config):
        nt = noiseless_trivial_eve_channel(2)
        with pytest.raises(ValidationError, match="integers"):
            brute_force_M(nt, 1, 0.0, 0.0, config)

    def test_grid_rows_are_distributions(self):
        rows = _grid_rows(2, 4)
        assert len(rows) == 5
        assert (1.0, 0.0) in rows and (0.25, 0.75) in rows
        rows3 = _grid_rows(3, 2)
        assert len(rows3) == 6
        for row in rows3:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
            assert min(row) >= 0.0

    def test_bad_inputs_rejected_before_the_loop(self):
        ce = copy_eve_channel(2)
        for eps, delta in ((-0.5, 1.7), (0.1, 1.5), (1.01, 0.0),
                           (float("nan"), 0.1)):
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                brute_force_M(ce, 1, eps, delta)
        for levels in (0, -1):
            with pytest.raises(ValidationError, match="stochastic_levels"):
                brute_force_M(ce, 1, 0.1, 0.1,
                              SearchConfig(stochastic_levels=levels))
        # every candidate here is screened out, so no evaluation would
        # ever see the mode
        with pytest.raises(ValidationError, match="privacy_mode"):
            brute_force_M(ce, 1, 0.0, 0.0, SearchConfig(privacy_mode="loose"))


def _leaky_copy_channel(eta=1e-14):
    """Copy channel whose eavesdropper state for letter 0 keeps a weight
    eta below the support cut on the other letter."""
    eve0 = DensityOperator(np.diag([1.0 - eta, eta]).astype(complex), (2,))
    states = [product_state(basis_state(0, 2), eve0),
              product_state(basis_state(1, 2), basis_state(1, 2))]
    return CqqWiretapChannel(("0", "1"), 2, 2, states, name="leaky_copy")


def _screen_channels():
    return {
        "copy": copy_eve_channel(2),
        "noiseless": noiseless_trivial_eve_channel(2),
        "bsc": bsc_wiretap_channel(0.1, 0.2),
        "two_pure": two_pure_state_channel(0.3),
        "random": random_degraded_channel(np.random.default_rng(7),
                                          family="pure")[0],
        "leaky_copy": _leaky_copy_channel(),
    }


def _screen_candidates(rng):
    """Seeded encoders on two letters: deterministic and stochastic, M = 1..3,
    plus the two-codeword identity code on which the leaky channel's
    support cut matters."""
    out = [np.eye(2)]
    for m in (1, 2, 3):
        out.append(np.eye(2)[rng.integers(0, 2, size=m)])
        out.append(rng.dirichlet(np.ones(2), size=m))
    return out


class TestSearchScreens:
    @pytest.mark.parametrize("name", sorted(_screen_channels()))
    def test_screens_never_exceed_exact_figures(self, name):
        ch = _screen_channels()[name]
        rng = np.random.default_rng(20261018)
        for enc in _screen_candidates(rng):
            code = WiretapCode(enc.shape[0], 1, 2, enc)
            states = encoder_output_states(code, ch)
            bob = [s.partial_trace([0]).mat for s in states]
            eve = [s.partial_trace([1]).mat for s in states]
            succ_hi = _success_bound(bob)
            delta_lo = _privacy_bound(eve)
            for mode in ("optimized", "fixed"):
                perf = evaluate_code(code, ch, mode)
                assert perf.success_prob <= succ_hi + 1e-9
                # eps* >= sqrt(1 - succ_hi), compared squared: the root
                # lifts a rounding error of 1e-16 to 1e-8 near eps* = 0
                assert 1.0 - succ_hi <= perf.eps_star ** 2 + 1e-9
                assert delta_lo <= perf.delta_star + 1e-9

    def test_bounds_are_tight_where_closed_forms_meet(self):
        ce = copy_eve_channel(2)
        states = encoder_output_states(WiretapCode(2, 1, 2, np.eye(2)), ce)
        assert _privacy_bound([s.partial_trace([1]).mat for s in states]) \
            == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert _success_bound([s.partial_trace([0]).mat for s in states]) \
            == pytest.approx(1.0, abs=1e-12)
        # three messages on a qubit receiver: at most 2/3 success
        three = encoder_output_states(
            WiretapCode(3, 1, 2, np.eye(2)[[0, 1, 1]]), ce)
        assert _success_bound([s.partial_trace([0]).mat for s in three]) \
            <= 2 / 3 + 1e-12


class TestTransmissionErrorAtZero:
    """The receiver state of the random channel has trace 1 - 2e-16; eps*
    comes from the miss probabilities, so that rounding does not become a
    1.5e-8 error that the search rejects at eps = 0."""

    @pytest.mark.parametrize("mode", ["optimized", "fixed"])
    def test_search_admits_one_message_at_eps_zero(self, mode):
        ch = _screen_channels()["random"]
        m, wit = brute_force_M(ch, 1, 0.0, 0.9,
                               SearchConfig(privacy_mode=mode))
        assert m == 1 and wit.m == 1
        assert evaluate_code(wit, ch, mode).eps_star == 0.0

    @pytest.mark.parametrize("name", sorted(_screen_channels()))
    def test_every_one_message_code_has_eps_star_zero(self, name):
        # oracle: a single message is always decoded, so F = 1 and eps* = 0
        # in exact arithmetic, for every encoder and block length
        ch = _screen_channels()[name]
        rng = np.random.default_rng(20261021)
        for n in (1, 2):
            k = ch.size ** n
            for enc in [*np.eye(k)[:, None, :],
                        *rng.dirichlet(np.ones(k), size=(2, 1))]:
                perf = evaluate_code(WiretapCode(1, n, ch.size, enc), ch,
                                     "fixed")
                assert perf.eps_star == 0.0


def _reference_candidates(k, m, cfg):
    """The search's candidate order: codeword multisets, then grid rows."""
    for words in itertools.combinations_with_replacement(range(k), m):
        yield np.eye(k)[list(words)]
    if cfg.include_stochastic:
        rows = _grid_rows(k, cfg.stochastic_levels)
        for combo in itertools.combinations_with_replacement(rows, m):
            if not all(_is_onehot(r) for r in combo):
                yield np.array(combo)


def _reference_search(channel, n, eps, delta, cfg):
    """Unscreened search: every candidate decoded and evaluated exactly."""
    best = (0, None)
    for m in range(1, cfg.m_max + 1):
        for enc in _reference_candidates(channel.size ** n, m, cfg):
            povm, _ = optimal_decoder(enc, channel, n)
            code = WiretapCode(m, n, channel.size, enc, decoder=povm)
            perf = evaluate_code(code, channel, cfg.privacy_mode)
            if perf.eps_star <= eps + _SEARCH_TOL \
                    and perf.delta_star <= delta + _SEARCH_TOL:
                best = (m, code)
                break
    return best


class TestScreenedSearchPopulation:
    @pytest.mark.parametrize("name,mode", [
        ("copy", "optimized"), ("noiseless", "optimized"),
        ("bsc", "optimized"), ("two_pure", "optimized"),
        ("random", "fixed"), ("leaky_copy", "fixed")])
    def test_matches_unscreened_reference(self, name, mode):
        ch = _screen_channels()[name]
        cfg = SearchConfig(m_max=3, privacy_mode=mode)
        for eps, delta in ((0.0, 0.9), (0.1, 0.2), (0.5, 0.3)):
            m, wit = brute_force_M(ch, 1, eps, delta, cfg)
            m_ref, ref = _reference_search(ch, 1, eps, delta, cfg)
            assert m == m_ref
            if ref is None:
                assert wit is None
                continue
            assert np.array_equal(wit.encoder, ref.encoder)
            assert len(wit.decoder) == len(ref.decoder)
            for e, e_ref in zip(wit.decoder, ref.decoder):
                assert np.array_equal(e, e_ref)

    def _counted(self, monkeypatch):
        # message counts of the exact evaluations (`evaluate_code` and the
        # search both evaluate through `codes._performance`)
        seen = []
        real = codes._performance

        def counting(code, *args, **kwargs):
            seen.append(code.m)
            return real(code, *args, **kwargs)
        monkeypatch.setattr(codes, "_performance", counting)
        return seen

    def test_undecided_candidate_reaches_evaluation(self, monkeypatch):
        seen = self._counted(monkeypatch)
        m, wit = brute_force_M(noiseless_trivial_eve_channel(2), 1, 0.0, 0.0,
                               SearchConfig(m_max=2))
        assert m == 2 and wit.m == 2
        # the screens cannot decide the witness: it is evaluated exactly
        assert seen.count(2) >= 1

    def test_screened_candidates_skip_evaluation(self, monkeypatch):
        seen = self._counted(monkeypatch)
        m, _ = brute_force_M(copy_eve_channel(2), 1, 0.0, 0.1)
        assert m == 1
        # every candidate with two or more messages leaks at least 1/sqrt(2)
        assert seen == [1]

    def test_budget_guard_precedes_screens(self, monkeypatch):
        # copy-eve blocks have size 4 per message; with budget 8 the guard
        # fires at M = 3, where every candidate would be screened out
        monkeypatch.setenv(BUDGET_ENV, "8")
        with pytest.raises(ValidationError,
                           match="joint block size 12 exceeds the desk "
                                 "budget 8"):
            brute_force_M(copy_eve_channel(2), 1, 0.0, 0.1,
                          SearchConfig(m_max=4))
