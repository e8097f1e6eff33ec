"""Permutation-block compression: algebra identities and program equivalence."""

import itertools

import numpy as np
import pytest

from secrecy import sdp
from secrecy.quantum import (DensityOperator, ValidationError, random_density,
                             tensor)
from secrecy.sdp import SdpStatus
from secrecy.entropy import (EntropyQuery, _smooth_program, aep_bounds, h_max,
                             h_min, h_min_smooth, h_max_smooth)
from secrecy.symmetry import (SymmetricBlocks, _conditioner_maps,
                              _perm_unitary, h_max_smooth_power,
                              h_min_smooth_power)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(5151)


def _random_invariant(d, n, rng):
    perms = list(itertools.permutations(range(n)))
    h = rng.normal(size=(d ** n,) * 2) + 1j * rng.normal(size=(d ** n,) * 2)
    h = h + h.conj().T
    return sum(_perm_unitary(d, n, p) @ h @ _perm_unitary(d, n, p).T
               for p in perms) / len(perms)


class TestBlockStructure:
    def test_multiplicity_tables(self):
        # irreps are named by partition; shapes with more than d rows
        # have no weight on (C^d)^(x)n and are not stored
        tables = {
            (2, 2): {(2,): 3, (1, 1): 1},
            (3, 2): {(2,): 6, (1, 1): 3},
            (2, 3): {(3,): 4, (2, 1): 2},
            (4, 3): {(3,): 20, (2, 1): 20, (1, 1, 1): 4},
            (2, 4): {(4,): 5, (3, 1): 3, (2, 2): 1},
            (4, 4): {(4,): 35, (3, 1): 45, (2, 2): 20, (2, 1, 1): 15,
                     (1, 1, 1, 1): 1},
        }
        for (d, n), want in tables.items():
            got = {ir["name"]: ir["mult"] for ir in SymmetricBlocks(d, n).irreps}
            assert got == want

    def test_permutation_action_is_a_homomorphism(self, rng):
        perms = list(itertools.permutations(range(3)))
        for _ in range(6):
            p = perms[rng.integers(len(perms))]
            q = perms[rng.integers(len(perms))]
            pq = tuple(p[q[k]] for k in range(3))
            assert np.allclose(
                _perm_unitary(2, 3, p) @ _perm_unitary(2, 3, q),
                _perm_unitary(2, 3, pq))

    def test_reconstruction_maps_are_isometries(self):
        for d, n in [(2, 3), (4, 3), (2, 2), (2, 4), (4, 4)]:
            sb = SymmetricBlocks(d, n)
            for ir in sb.irreps:
                for c in ir["isoms"]:
                    assert np.allclose(c.conj().T @ c, np.eye(ir["mult"]),
                                       atol=1e-10)

    def test_invariant_roundtrip_and_trace_weights(self, rng):
        for d, n in [(2, 3), (4, 3), (2, 4), (4, 4)]:
            sb = SymmetricBlocks(d, n)
            inv = _random_invariant(d, n, rng)
            blocks = sb.compress(inv)
            assert np.linalg.norm(sb.reconstruct(blocks) - inv) < 1e-9
            weighted = sum(w * np.trace(b).real
                           for w, b in zip(sb.weights, blocks))
            assert weighted == pytest.approx(np.trace(inv).real, abs=1e-9)

    def test_conditioner_stacks_compress_the_lift(self, rng):
        # qubit pairs only: _perm_unitary(2, 2n, .) reorders A^n B^n into
        # (AB)^n, moving A_i to slot 2i and B_i to slot 2i + 1
        for n in (2, 3):
            sab, sb = SymmetricBlocks(4, n), SymmetricBlocks(2, n)
            maps = _conditioner_maps(sab, sb, 2, 2, n)
            blocks, params = [], []
            for ir in sb.irreps:
                m = ir["mult"]
                s = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
                s = s + s.conj().T
                i, j = np.triu_indices(m, 1)
                params.append(np.concatenate(
                    [np.diag(s).real, np.stack([s[i, j].real, s[i, j].imag],
                                               axis=1).ravel()]))
                blocks.append(s)
            perm = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
            u = _perm_unitary(2, 2 * n, perm)
            lift = u @ np.kron(np.eye(2 ** n), sb.reconstruct(blocks)) @ u.T
            for lam, want in enumerate(sab.compress(lift)):
                got = sum(np.tensordot(p, mu_maps[lam], axes=1)
                          for p, mu_maps in zip(params, maps))
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_invariant_psd_iff_blocks_psd(self, rng):
        sb = SymmetricBlocks(2, 3)
        inv = _random_invariant(2, 3, rng)
        inv = inv @ inv.conj().T  # invariant and PSD
        for b in sb.compress(inv):
            assert np.linalg.eigvalsh(b).min() > -1e-10


class TestProgramEquivalence:
    def test_two_copies_match_generic_smoothing(self, rng):
        # rho (x) rho of the pure state is swap-symmetric: its antisymmetric
        # irrep has no weight and keeps only its [dom] block.  The full-rank
        # state places both irrep blocks directly in [fid]; its generic
        # H_max program is 64-dimensional, so only H_min is compared there
        for rho, with_hmax in (
                (random_density((2, 2), rng, rank=2), True),
                (random_density((2, 2), np.random.default_rng(7), rank=1),
                 True),
                (random_density((2, 2), np.random.default_rng(11)), False)):
            big = DensityOperator(np.kron(rho.mat, rho.mat), (2, 2, 2, 2))
            pairs = [
                (h_min_smooth_power(rho, 2, 0.3),
                 h_min_smooth(EntropyQuery(big, (0, 2), (1, 3), 0.3))),
                (h_min_smooth_power(rho, 2, 0.0),
                 h_min(EntropyQuery(big, (0, 2), (1, 3)))),
            ]
            if with_hmax:
                pairs.append(
                    (h_max_smooth_power(rho, 2, 0.3),
                     h_max_smooth(EntropyQuery(big, (0, 2), (1, 3), 0.3))))
            for sym, generic in pairs:
                assert sym == pytest.approx(generic, abs=1e-6)

    def test_block_order_follows_the_generic_layout(self):
        # rank 2 at n = 3: the (3) and (2, 1) irreps (20 each) carry weight
        # on rank-4 and rank-2 supports, the antisymmetric (1, 1, 1) one (4)
        # none
        rho = random_density((2, 2), np.random.default_rng(15), rank=2)
        sab, sb = SymmetricBlocks(4, 3), SymmetricBlocks(2, 3)
        program = _smooth_program(sab.compress(tensor(*[rho.mat] * 3)),
                                  _conditioner_maps(sab, sb, 2, 2, 3),
                                  sb.weights, sab.weights, 0.25)
        assert program.problem.block_dims == [20, 8, 20, 20, 4, 20, 4, 1, 1]

    def test_zero_weight_irrep_solves_without_retry(self, monkeypatch):
        # rank 2 at n = 3: no weight on the antisymmetric irrep; with its
        # T variable kept, this state stalled short of the default gap
        fixed = np.random.default_rng(15)
        random_density((2, 2), fixed, rank=2)
        rho = random_density((2, 2), fixed, rank=2)
        solves = []

        def counted(problem, tolerances=None):
            sol = sdp_solve(problem, tolerances)
            solves.append((problem.num_constraints, tolerances, sol.status,
                           sol.gap_target))
            return sol

        sdp_solve = sdp.solve
        monkeypatch.setattr(sdp, "solve", counted)
        value = h_min_smooth_power(rho, 3, 0.25)
        assert solves == [(860, None, SdpStatus.OPTIMAL, 1e-8)]
        assert value >= 3 * h_min(EntropyQuery(rho, (0,), (1,))) - 1e-6

    def test_single_copy_delegates(self, rng):
        rho = random_density((2, 2), rng)
        assert h_min_smooth_power(rho, 1, 0.2) \
            == pytest.approx(h_min_smooth(EntropyQuery(rho, (0,), (1,), 0.2)),
                             abs=1e-9)
        assert h_max_smooth_power(rho, 1, 0.2) \
            == pytest.approx(h_max_smooth(EntropyQuery(rho, (0,), (1,), 0.2)),
                             abs=1e-9)

    def test_three_copies_sit_inside_the_product_estimates(self, rng):
        rho = random_density((2, 2), rng, rank=2)
        lo, hi = aep_bounds(rho, [0], [1], 3, 0.3)
        assert h_min_smooth_power(rho, 3, 0.3) >= lo - 1e-6
        assert h_max_smooth_power(rho, 3, 0.3) <= hi + 1e-6


class TestFourCopies:
    def test_exact_entropies_are_additive(self):
        rho = random_density((2, 2), np.random.default_rng(21), rank=2)
        query = EntropyQuery(rho, (0,), (1,))
        assert h_min_smooth_power(rho, 4, 0.0) \
            == pytest.approx(4 * h_min(query), abs=1e-6)
        assert h_max_smooth_power(rho, 4, 0.0) \
            == pytest.approx(4 * h_max(query), abs=1e-6)

    def test_smoothed_min_entropy_sits_above_the_product_estimates(self):
        # m = 3,755 on the (4, 4) blocks: the largest program of the suite's
        # symmetric checks; the smoothed H_max is left out for time
        rho = random_density((2, 2), np.random.default_rng(21), rank=2)
        lo, _ = aep_bounds(rho, [0], [1], 4, 0.3)
        value = h_min_smooth_power(rho, 4, 0.3)
        assert value >= 4 * h_min(EntropyQuery(rho, (0,), (1,))) - 1e-6
        assert value >= lo - 1e-6


class TestValidation:
    def test_rejects_unsupported_block_lengths(self, rng):
        rho = random_density((2, 2), rng)
        for power in (h_min_smooth_power, h_max_smooth_power):
            with pytest.raises(ValidationError):
                power(rho, 5, 0.3)

    @pytest.mark.parametrize("call", [
        lambda rho, n: h_min_smooth_power(rho, n, 0.3),
        lambda rho, n: h_max_smooth_power(rho, n, 0.3),
        lambda rho, n: aep_bounds(rho, [0], [1], n, 0.3),
    ], ids=["h_min_smooth_power", "h_max_smooth_power", "aep_bounds"])
    def test_rejects_non_integer_block_lengths(self, call, rng):
        rho = random_density((2, 2), rng)
        for n in (2.5, 2.0):
            with pytest.raises(ValidationError):
                call(rho, n)
        call(rho, np.int64(1))

    def test_rejects_non_bipartite_state(self, rng):
        rho = random_density((2, 2, 2), rng)
        with pytest.raises(ValidationError):
            h_min_smooth_power(rho, 2, 0.3)

    def test_rejects_subnormalized_state(self, rng):
        rho = random_density((2, 2), rng)
        sub = DensityOperator(0.5 * rho.mat, (2, 2))
        with pytest.raises(ValidationError):
            h_min_smooth_power(sub, 2, 0.3)

    def test_rejects_eps_out_of_range(self, rng):
        rho = random_density((2, 2), rng)
        with pytest.raises(ValidationError):
            h_min_smooth_power(rho, 2, 1.0)
