"""Tests for the JSON file formats and the command-line front door."""

import json
import re

import numpy as np
import pytest

from secrecy.channels import (CqqWiretapChannel, bsc_wiretap_channel,
                              copy_eve_channel)
from secrecy.cli import emit_region_csv, main
from secrecy.codes import BUDGET_ENV, WiretapCode, optimal_decoder
from secrecy.io import (channel_to_json, code_from_json, code_to_json,
                        matrix_from_json, matrix_to_json, parse_channel_spec,
                        parse_code, parse_state, save_channel, save_code,
                        save_state)
from secrecy.quantum import (DensityOperator, ValidationError, basis_state,
                             maximally_entangled, product_state)


@pytest.fixture()
def bsc_path(tmp_path):
    path = tmp_path / "bsc.json"
    save_channel(bsc_wiretap_channel(0.1, 0.2), path)
    return str(path)


@pytest.fixture()
def copy_path(tmp_path):
    path = tmp_path / "copy.json"
    save_channel(copy_eve_channel(2), path)
    return str(path)


@pytest.fixture()
def undegraded_path(tmp_path):
    # receiver sees nothing, eavesdropper sees orthogonal letters: no
    # processing of the receiver's block can reproduce the eavesdropper
    states = [product_state(basis_state(0, 2), basis_state(x, 2))
              for x in range(2)]
    ch = CqqWiretapChannel(("0", "1"), 2, 2, states, name="anti")
    path = tmp_path / "anti.json"
    save_channel(ch, path)
    return str(path)


class TestMatrixJson:
    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        blob = json.dumps(matrix_to_json(mat))
        back = matrix_from_json(json.loads(blob))
        assert np.array_equal(back, mat)

    def test_rejects_malformed(self):
        with pytest.raises(ValidationError):
            matrix_from_json([[1.0, 2.0]])  # entries not [re, im] pairs
        with pytest.raises(ValidationError):
            matrix_from_json([[[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(ValidationError):
            matrix_from_json([])
        # booleans and non-finite numbers are named by position at parse time
        for text, where in (("[[[true, 0.0]]]", "(0,0)"),
                            ("[[[0.0, false]]]", "(0,0)"),
                            ("[[[NaN, 0.0]]]", "(0,0)"),
                            ("[[[1.0, 0.0], [0.0, Infinity]]]", "(0,1)"),
                            ("[[[1.0, 0.0]], [[-Infinity, 0.0]]]", "(1,0)"),
                            ("[[[1" + "0" * 400 + ", 0]]]", "(0,0)")):
            with pytest.raises(ValidationError, match=re.escape(where)):
                matrix_from_json(json.loads(text))


class TestChannelFiles:
    def test_round_trip_bit_identical(self, bsc_path):
        ch = bsc_wiretap_channel(0.1, 0.2)
        back = parse_channel_spec(bsc_path)
        assert back.name == ch.name
        assert back.size == ch.size
        for a, b in zip(ch.states, back.states):
            assert np.array_equal(a.mat, b.mat)

    def test_truncated_file_reports_position(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"name": "x", "alphabet": 2')
        with pytest.raises(ValidationError, match="line 1"):
            parse_channel_spec(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "missing.json"
        data = channel_to_json(copy_eve_channel(2))
        del data["dim_e"]
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="dim_e"):
            parse_channel_spec(path)

    def test_subnormalized_letter_named(self, tmp_path):
        path = tmp_path / "halftrace.json"
        data = channel_to_json(copy_eve_channel(2))
        for i in range(4):
            data["states"][1]["matrix"][i][i][0] *= 0.5
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="letter 1"):
            parse_channel_spec(path)


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bell.json"
        state = maximally_entangled(2)
        save_state(state, path)
        back = parse_state(path)
        assert back.dims == (2, 2)
        assert np.array_equal(back.mat, state.mat)

    def test_dims_must_match_matrix(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"dims": [3], "matrix": matrix_to_json(np.eye(2) / 2)}))
        with pytest.raises(ValidationError, match="dims"):
            parse_state(path)


class TestCodeFiles:
    def test_round_trip_with_decoder(self, tmp_path):
        ch = copy_eve_channel(2)
        povm, _ = optimal_decoder(np.eye(2), ch, 1)
        code = WiretapCode(m=2, n=1, alphabet_size=2, encoder=np.eye(2),
                           decoder=povm)
        path = tmp_path / "code.json"
        save_code(code, path)
        back = parse_code(path)
        assert back.m == 2 and back.n == 1 and back.alphabet_size == 2
        assert np.array_equal(back.encoder, code.encoder)
        for a, b in zip(code.decoder, back.decoder):
            assert np.array_equal(a, b)

    def test_null_decoder(self):
        code = WiretapCode(m=2, n=2, alphabet_size=2,
                           encoder=np.array([[1.0, 0, 0, 0], [0, 0, 0, 1.0]]))
        back = code_from_json(code_to_json(code))
        assert back.decoder is None
        assert back.alphabet_size == 2  # recovered from 4 = 2^2 columns

    def test_rejects_non_power_column_count(self):
        with pytest.raises(ValidationError, match="power"):
            code_from_json({"m": 1, "n": 2, "encoder": [[0.5, 0.3, 0.2]],
                            "decoder": None})

    def test_rejects_bad_rows(self):
        with pytest.raises(ValidationError):
            code_from_json({"m": 2, "n": 1, "encoder": [[1.0, 0.0]],
                            "decoder": None})


def _run(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as ex:
        rc = ex.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCliDispatch:
    def test_validate(self, capsys, bsc_path):
        rc, out, _ = _run(capsys, ["validate", bsc_path])
        assert rc == 0
        assert "2 letters" in out and "valid" in out

    def test_validate_bad_file(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        rc, _, err = _run(capsys, ["validate", str(path)])
        assert rc == 1
        assert "error" in err

    def test_degrade_check_positive(self, capsys, bsc_path):
        rc, out, _ = _run(capsys, ["degrade-check", bsc_path])
        assert rc == 0
        assert "residual" in out

    def test_degrade_check_negative(self, capsys, undegraded_path):
        rc, _, err = _run(capsys, ["degrade-check", undegraded_path])
        assert rc == 2
        assert "not degraded" in err

    def test_capacity_value_and_optimizer(self, capsys, bsc_path):
        rc, out, _ = _run(capsys, ["capacity", bsc_path])
        assert rc == 0
        value = float(out.split("P = ")[1].split()[0])
        assert value == pytest.approx(0.35770, abs=1e-4)
        assert "(0.5, 0.5)" in out

    def test_capacity_not_degraded(self, capsys, undegraded_path):
        rc, _, err = _run(capsys, ["capacity", undegraded_path])
        assert rc == 2

    def test_capacity_aux_size(self, capsys, bsc_path):
        rc, out, _ = _run(capsys, ["capacity", bsc_path, "--aux-size", "2"])
        assert rc == 0
        assert "lower bound" in out

    def test_entropy_hmin(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        save_state(maximally_entangled(2), path)
        rc, out, _ = _run(capsys, ["entropy", str(path), "--which", "hmin",
                                   "--smooth", "0", "--split", "1,1"])
        assert rc == 0
        assert float(out.split("= ")[1]) == pytest.approx(-1.0, abs=1e-5)

    def test_entropy_hmax_with_traced_group(self, capsys, tmp_path):
        # uniform qubit against a traced-out spectator: H_max(A|B) = +1
        path = tmp_path / "prod.json"
        rho = DensityOperator(np.eye(8) / 8.0, (2, 2, 2))
        save_state(rho, path)
        rc, out, _ = _run(capsys, ["entropy", str(path), "--which", "hmax",
                                   "--smooth", "0", "--split", "1,1,1"])
        assert rc == 0
        assert float(out.split("= ")[1]) == pytest.approx(1.0, abs=1e-5)

    def test_entropy_bad_split(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        save_state(maximally_entangled(2), path)
        rc, _, err = _run(capsys, ["entropy", str(path), "--which", "hmin",
                                   "--smooth", "0", "--split", "1,2"])
        assert rc == 1

    def test_lemmas_passes(self, capsys):
        rc, out, _ = _run(capsys, ["lemmas", "--trials", "1", "--seed", "3",
                                   "--dims", "2,2,2"])
        assert rc == 0
        assert "0 failures" in out

    def test_lemmas_bad_dims(self, capsys):
        rc, _, err = _run(capsys, ["lemmas", "--trials", "1", "--seed", "0",
                                   "--dims", "2,2"])
        assert rc == 1
        rc, out, err = _run(capsys, ["lemmas", "--trials", "1",
                                     "--dims", "a,2,2"])
        assert rc == 1
        assert "--dims 'a,2,2' is not comma-separated integers" in err
        assert "checks" not in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_lemmas_needs_a_trial(self, capsys, trials):
        rc, out, err = _run(capsys, ["lemmas", "--trials", trials])
        assert rc == 1
        assert "trials must be a positive integer" in err
        assert "checks" not in out

    def test_code_eval(self, capsys, copy_path, tmp_path):
        code_path = tmp_path / "code.json"
        save_code(WiretapCode(m=2, n=1, alphabet_size=2, encoder=np.eye(2)),
                  code_path)
        rc, out, _ = _run(capsys, ["code-eval", copy_path, str(code_path)])
        assert rc == 0
        assert "eps_star=0 " in out
        assert "delta_star=0.707107" in out

    def test_code_search_and_witness_file(self, capsys, copy_path, tmp_path):
        witness = tmp_path / "witness.json"
        rc, out, _ = _run(capsys, ["code-search", copy_path, "-n", "1",
                                   "--eps", "0", "--delta", "0.9",
                                   "-o", str(witness)])
        assert rc == 0
        assert ">= 2" in out
        back = parse_code(witness)
        assert back.m == 2 and back.decoder is not None

    def test_code_search_tight_privacy(self, capsys, copy_path):
        rc, out, _ = _run(capsys, ["code-search", copy_path, "-n", "1",
                                   "--eps", "0", "--delta", "0.1"])
        assert rc == 0
        assert ">= 1" in out

    def test_code_search_targets_outside_unit_interval(self, capsys,
                                                       copy_path):
        for eps, delta in (("1.5", "0.1"), ("0", "-0.2")):
            rc, out, err = _run(capsys, ["code-search", copy_path, "-n", "1",
                                         "--eps", eps, "--delta", delta])
            assert rc == 1
            assert "[0, 1]" in err
            assert "M(" not in out

    def test_converse_inside_region(self, capsys, bsc_path):
        rc, out, _ = _run(capsys, ["converse", bsc_path, "-n", "100",
                                   "--eps", "0.1", "--delta", "0.1"])
        assert rc == 0
        assert "B(100, 0.1, 0.1) = " in out

    def test_converse_constant_type_is_tighter(self, capsys, bsc_path):
        _, out_g, _ = _run(capsys, ["converse", bsc_path, "-n", "100",
                                    "--eps", "0.1", "--delta", "0.1"])
        _, out_c, _ = _run(capsys, ["converse", bsc_path, "-n", "100",
                                    "--eps", "0.1", "--delta", "0.1",
                                    "--constant-type"])
        b_g = float(out_g.split("= ")[1].split()[0])
        b_c = float(out_c.split("= ")[1].split()[0])
        assert b_c < b_g

    def test_converse_outside_region(self, capsys, bsc_path):
        rc, _, err = _run(capsys, ["converse", bsc_path, "-n", "10",
                                   "--eps", "0.5", "--delta", "0.3"])
        assert rc == 2
        assert "outside converse region" in err

    @pytest.mark.parametrize("eps,delta", [("nan", "0.1"), ("0.1", "nan"),
                                           ("inf", "0.1")])
    def test_converse_non_finite_parameters(self, capsys, bsc_path, eps,
                                            delta):
        rc, out, err = _run(capsys, ["converse", bsc_path, "-n", "10",
                                     "--eps", eps, "--delta", delta])
        assert rc == 1
        assert "finite" in err
        assert "B(" not in out

    def test_converse_needs_degraded(self, capsys, undegraded_path):
        rc, _, err = _run(capsys, ["converse", undegraded_path, "-n", "10",
                                   "--eps", "0.1", "--delta", "0.1"])
        assert rc == 2

    def test_region_grid(self, capsys, tmp_path):
        path = tmp_path / "region.csv"
        rc, out, _ = _run(capsys, ["region", "--grid", "4",
                                   "-o", str(path)])
        assert rc == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epsilon,delta,region"
        assert len(lines) == 26
        assert lines[1] == "0.0,0.0,Converse"
        assert lines[-1] == "1.0,1.0,NoGo"
        row = dict()
        for line in lines[1:]:
            e, d, label = line.split(",")
            row[(float(e), float(d))] = label
        assert row[(0.0, 0.0)] == "Converse"
        assert row[(1.0, 1.0)] == "NoGo"
        assert row[(0.25, 0.25)] == "Converse"
        assert row[(1.0, 0.0)] == "NoGo"

    def test_region_reproducible(self, capsys, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        _run(capsys, ["region", "--grid", "7", "-o", str(p1)])
        _run(capsys, ["region", "--grid", "7", "-o", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_region_bad_grid(self, capsys, tmp_path):
        rc, _, err = _run(capsys, ["region", "--grid", "0",
                                   "-o", str(tmp_path / "r.csv")])
        assert rc == 1

    def test_emit_region_minimum_resolution(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_region_csv(2, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5  # header + {0,1}^2
        with pytest.raises(ValidationError):
            emit_region_csv(1, path)

    def test_unknown_subcommand_exits_one(self, capsys):
        rc, _, err = _run(capsys, ["frobnicate"])
        assert rc == 1

    def test_bad_flag_value_exits_one(self, capsys, copy_path):
        rc, _, err = _run(capsys, ["code-search", copy_path, "-n", "1",
                                   "--eps", "oops", "--delta", "0"])
        assert rc == 1

    def test_budget_env_honored(self, capsys, monkeypatch, copy_path,
                                tmp_path):
        code_path = tmp_path / "code.json"
        save_code(WiretapCode(m=2, n=1, alphabet_size=2, encoder=np.eye(2)),
                  code_path)
        monkeypatch.setenv(BUDGET_ENV, "4")
        rc, _, err = _run(capsys, ["code-eval", copy_path, str(code_path)])
        assert rc == 1
        assert "budget" in err
