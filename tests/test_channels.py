"""Wiretap channel model, degradedness certification, benchmark families."""

import numpy as np
import pytest

from secrecy.channels import (CqqWiretapChannel, bsc_wiretap_channel,
                              check_degraded, random_degraded_channel,
                              two_pure_state_channel, validate_channel)
from secrecy.quantum import (DensityOperator, ValidationError, product_state,
                             random_channel, random_pure, trace_norm)
from secrecy.sdp import SdpError, SdpTolerances


class TestValidation:
    def test_empty_alphabet(self):
        with pytest.raises(ValidationError, match="alphabet"):
            CqqWiretapChannel((), 2, 2, ())

    def test_duplicate_labels(self):
        eye4 = DensityOperator(np.eye(4, dtype=complex) / 4, (2, 2))
        with pytest.raises(ValidationError, match="distinct"):
            CqqWiretapChannel(("a", "a"), 2, 2, (eye4, eye4))

    def test_state_count_mismatch(self):
        eye4 = DensityOperator(np.eye(4, dtype=complex) / 4, (2, 2))
        with pytest.raises(ValidationError, match="symbols"):
            CqqWiretapChannel(("0", "1"), 2, 2, (eye4,))

    def test_dims_mismatch(self):
        bad = DensityOperator(np.eye(4, dtype=complex) / 4, (4,))
        good = DensityOperator(np.eye(4, dtype=complex) / 4, (2, 2))
        with pytest.raises(ValidationError, match="dims"):
            CqqWiretapChannel(("0", "1"), 2, 2, (good, bad))

    def test_subnormalized_state_rejected(self):
        half = DensityOperator(np.eye(4, dtype=complex) / 8, (2, 2))
        with pytest.raises(ValidationError, match="normalized"):
            CqqWiretapChannel(("0", "1"), 2, 2, (half, half))

    def test_valid_channel_passes(self):
        ch = bsc_wiretap_channel(0.1, 0.2)
        validate_channel(ch)  # does not raise


class TestBenchmarkFamilies:
    def test_bsc_marginals(self):
        ch = bsc_wiretap_channel(0.1, 0.2)
        bob0 = np.real(np.diag(ch.bob_marginal(0).mat))
        eve0 = np.real(np.diag(ch.eve_marginal(0).mat))
        assert bob0 == pytest.approx([0.9, 0.1], abs=1e-12)
        # cascade flip probability p(1-r) + (1-p)r = 0.26
        assert eve0 == pytest.approx([0.74, 0.26], abs=1e-12)

    def test_bsc_rejects_bad_probability(self):
        with pytest.raises(ValidationError):
            bsc_wiretap_channel(1.2, 0.1)

    def test_two_pure_state_overlap(self):
        s = 2 ** -0.5
        ch = two_pure_state_channel(s)
        assert ch.dim_e == 1
        b0, b1 = ch.bob_marginal(0).mat, ch.bob_marginal(1).mat
        overlap = np.sqrt(np.real(np.trace(b0 @ b1)))
        assert overlap == pytest.approx(s, abs=1e-12)

    def test_random_degraded_construction_is_exact(self):
        rng = np.random.default_rng(3)
        for family in ("pure", "classical"):
            ch, dmap = random_degraded_channel(rng, family=family)
            for x in range(ch.size):
                out = dmap.apply_matrix(ch.bob_marginal(x).mat)
                assert trace_norm(out - ch.eve_marginal(x).mat) < 1e-12


class TestCheckDegraded:
    def test_bsc_structure(self):
        st = check_degraded(bsc_wiretap_channel(0.1, 0.2))
        assert st is not None
        assert st.residual <= 1e-7
        assert st.tp_residual <= 1e-7
        v = st.isometry.mat
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-7)
        assert st.isometry.out_dims == (2, st.dim_f)

    def test_trivial_eavesdropper_always_degraded(self):
        st = check_degraded(two_pure_state_channel(0.5))
        assert st is not None and st.residual <= 1e-7

    def test_random_families(self):
        rng = np.random.default_rng(11)
        for k in range(4):
            ch, _ = random_degraded_channel(
                rng, family=("pure", "classical")[k % 2])
            st = check_degraded(ch)
            assert st is not None
            assert st.residual <= 1e-7

    def test_stinespring_matches_map(self):
        st = check_degraded(bsc_wiretap_channel(0.2, 0.3))
        rng = np.random.default_rng(7)
        rho = random_pure(2, rng)
        lifted = st.isometry.apply(rho)
        recovered = lifted.partial_trace([0]).mat
        assert trace_norm(recovered - st.map.apply_matrix(rho.mat)) < 1e-7

    def test_reverse_noise_is_not_degraded(self):
        # the eavesdropper holds the clean pure state, the receiver a
        # strictly noisy image: no map can restore purity both ways
        rng = np.random.default_rng(9)
        noisy = random_channel(2, 2, 4, rng)
        states = []
        for _ in range(2):
            eve = random_pure(2, rng)
            bob = DensityOperator(noisy.apply_matrix(eve.mat), (2,),
                                  validate=False)
            states.append(product_state(bob, eve))
        rev = CqqWiretapChannel(("0", "1"), 2, 2, states)
        assert check_degraded(rev) is None

    def test_unsettled_search_is_a_solver_failure(self):
        # SdpError (CLI exit 3), not the ValidationError of bad input
        with pytest.raises(SdpError, match="did not settle"):
            check_degraded(bsc_wiretap_channel(0.1, 0.2),
                           SdpTolerances(max_iter=1))
