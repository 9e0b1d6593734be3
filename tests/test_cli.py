import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from choikit import bipartite as bp
from choikit import channel as ch
from choikit.cli import main, matrix_doc, parse_channel, parse_matrix, render_document
from choikit.errors import ParseError

from helpers import crandn, random_cp_channel

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "channels"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

BUNDLED = ["identity", "transpose", "dephasing", "depolarizing", "measure_reset"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_channel(tmp_path, name, c: ch.Channel, representation="choi"):
    from choikit.cli import channel_doc
    from choikit.matlin import DEFAULT_TOL

    path = tmp_path / name
    path.write_text(render_document(channel_doc(c, representation, DEFAULT_TOL)))
    return str(path)


def write_matrix(tmp_path, name, mat):
    path = tmp_path / name
    path.write_text(render_document(matrix_doc(mat)))
    return str(path)


class TestRendering:
    def test_seventeen_digit_floats_round_trip(self):
        awkward = [1 / 3, 2**-0.5, 1e-17, -0.0, 123456.789012345678, 5e300]
        doc = matrix_doc(np.array(awkward)[:, None])
        text = render_document(doc)
        back = parse_matrix(json.loads(text), "roundtrip")
        assert [z.real for z in back[:, 0]] == awkward

    def test_stable_bytes(self):
        doc = {"a": True, "b": None, "c": [1.5, 2], "d": {"e": "x"}}
        assert render_document(doc) == render_document(doc)

    def test_number_lists_stay_inline(self):
        text = render_document({"v": [1.0, 2.0, 3.0]})
        assert '"v": [1, 2, 3]' in text


class TestGoldenReports:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_classify_bytes_match_golden(self, capsys, name):
        code, out = run_cli(capsys, "classify", str(DATA / f"{name}.json"))
        assert code == 0
        assert out == (GOLDEN / f"classify_{name}.json").read_text()

    def test_classify_is_deterministic(self, capsys):
        _, first = run_cli(capsys, "classify", str(DATA / "transpose.json"))
        _, second = run_cli(capsys, "classify", str(DATA / "transpose.json"))
        assert first == second

    def test_out_flag_writes_identical_bytes(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "classify", str(DATA / "identity.json"), "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text() == (GOLDEN / "classify_identity.json").read_text()


class TestConvert:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3)])
    def test_representation_round_trip(self, capsys, tmp_path, m, n):
        rng = np.random.default_rng(100 * m + n)
        for i in range(5):
            c = random_cp_channel(rng, m, n, 2)
            path = write_channel(tmp_path, f"c{i}.json", c)

            code, out = run_cli(capsys, "convert", path, "--to", "superop")
            assert code == 0
            sup_path = tmp_path / f"s{i}.json"
            sup_path.write_text(out)

            code, out = run_cli(capsys, "convert", str(sup_path), "--to", "kraus")
            assert code == 0
            kr_path = tmp_path / f"k{i}.json"
            kr_path.write_text(out)

            code, out = run_cli(capsys, "convert", str(kr_path), "--to", "choi")
            assert code == 0
            back = parse_channel(json.loads(out), "back")
            assert np.linalg.norm(back.choi_mat - c.choi_mat) < 1e-10

    def test_kraus_conversion_of_swap_choi_exits_4(self, capsys):
        code, _ = run_cli(capsys, "convert", str(DATA / "transpose.json"), "--to", "kraus")
        assert code == 4


class TestDecompose:
    def test_schmidt_of_bell(self, capsys):
        code, out = run_cli(
            capsys,
            "decompose",
            str(ROOT / "data" / "states" / "bell_vector.json"),
            "--method",
            "schmidt",
            "--cut",
            "2",
            "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 2
        assert np.allclose(doc["coefficients"], [2**-0.5, 2**-0.5])

    def test_qr_reconstructs(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        vec = crandn(rng, 6)
        path = write_matrix(tmp_path, "v.json", vec[:, None])
        code, out = run_cli(capsys, "decompose", path, "--method", "qr", "--cut", "3", "2")
        assert code == 0
        doc = json.loads(out)
        q = parse_matrix(doc["basis_left"], "q")
        r = parse_matrix(doc["coefficients"], "r")
        assert np.linalg.norm(q @ r - vec.reshape(3, 2)) < 1e-12

    def test_schur_on_rectangular_cut_exits_3(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        path = write_matrix(tmp_path, "v.json", crandn(rng, 6)[:, None])
        code, _ = run_cli(capsys, "decompose", path, "--method", "schur", "--cut", "3", "2")
        assert code == 3

    def test_wrong_vector_length_exits_3(self, capsys, tmp_path):
        rng = np.random.default_rng(11)
        path = write_matrix(tmp_path, "v.json", crandn(rng, 5)[:, None])
        code, _ = run_cli(capsys, "decompose", path, "--method", "schmidt", "--cut", "2", "2")
        assert code == 3


class TestComposeAndApply:
    def test_compose_matches_library(self, capsys, tmp_path):
        rng = np.random.default_rng(13)
        inner = random_cp_channel(rng, 3, 2, 2)
        outer = random_cp_channel(rng, 2, 3, 2)
        pi = write_channel(tmp_path, "inner.json", inner, "kraus")
        po = write_channel(tmp_path, "outer.json", outer, "superop")
        code, out = run_cli(capsys, "compose", po, pi)
        assert code == 0
        got = parse_channel(json.loads(out), "composed")
        want = ch.compose(outer, inner)
        assert np.linalg.norm(got.choi_mat - want.choi_mat) < 1e-10

    def test_compose_dimension_mismatch_exits_3(self, capsys, tmp_path):
        rng = np.random.default_rng(15)
        a = write_channel(tmp_path, "a.json", random_cp_channel(rng, 2, 2, 1))
        b = write_channel(tmp_path, "b.json", random_cp_channel(rng, 3, 2, 1))
        code, _ = run_cli(capsys, "compose", a, b)
        assert code == 3

    def test_apply_transpose(self, capsys, tmp_path):
        rho = np.array([[0.5, 0.25 + 0.1j], [0.25 - 0.1j, 0.5]])
        path = write_matrix(tmp_path, "rho.json", rho)
        code, out = run_cli(capsys, "apply", str(DATA / "transpose.json"), path)
        assert code == 0
        got = parse_matrix(json.loads(out), "out")
        assert np.array_equal(got, rho.T)


class TestDiamondPptMeasure:
    def test_diamond_identity_element(self, capsys, tmp_path):
        rng = np.random.default_rng(17)
        beta = np.array([1.0, 0, 0, 1.0])
        e = write_matrix(tmp_path, "e.json", np.outer(beta, beta))
        x_mat = crandn(rng, 4, 4)
        x = write_matrix(tmp_path, "x.json", x_mat)
        code, out = run_cli(capsys, "diamond", e, x)
        assert code == 0
        got = parse_matrix(json.loads(out), "out")
        assert np.allclose(got, x_mat, atol=1e-13)

    def test_diamond_needs_square_square(self, capsys, tmp_path):
        rng = np.random.default_rng(19)
        a = write_matrix(tmp_path, "a.json", crandn(rng, 4, 4))
        b = write_matrix(tmp_path, "b.json", crandn(rng, 6, 6))
        code, _ = run_cli(capsys, "diamond", a, b)
        assert code == 3

    def test_ppt_bell_projector(self, capsys):
        code, out = run_cli(
            capsys, "ppt", str(ROOT / "data" / "states" / "bell_projector.json"), "--cut", "2", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["is_ppt"] is False
        assert abs(doc["min_eigenvalue"] + 0.5) < 1e-12

    def test_ppt_non_hermitian_exits_4(self, capsys, tmp_path):
        rng = np.random.default_rng(21)
        path = write_matrix(tmp_path, "s.json", crandn(rng, 4, 4))
        code, _ = run_cli(capsys, "ppt", path, "--cut", "2", "2")
        assert code == 4

    def test_measure_matches_library(self, capsys, tmp_path):
        rng = np.random.default_rng(23)
        s_mat = crandn(rng, 6, 6)
        m_mat = crandn(rng, 2, 2)
        s = write_matrix(tmp_path, "s.json", s_mat)
        m = write_matrix(tmp_path, "m.json", m_mat)
        code, out = run_cli(capsys, "measure", s, "--cut", "3", "2", "--m-op", m)
        assert code == 0
        got = parse_matrix(json.loads(out), "out")
        from choikit.algebra import state_as_measurement

        want = state_as_measurement(
            bp.BipartiteOperator(bp.BipartiteShape(3, 2), s_mat), m_mat
        )
        assert np.allclose(got, want, atol=1e-13)


class TestParsingAndExitCodes:
    def test_invalid_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        code, _ = run_cli(capsys, "classify", str(path))
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _ = run_cli(capsys, "classify", "/nonexistent/file.json")
        assert code == 2

    def test_missing_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 2, "n": 2, "representation": "choi"}')
        code, _ = run_cli(capsys, "classify", str(path))
        assert code == 2

    def test_unknown_representation_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"m": 1, "n": 1, "representation": "stinespring", "payload": {"rows": 1, "cols": 1, "data": [[1, 0]]}}'
        )
        code, _ = run_cli(capsys, "classify", str(path))
        assert code == 2

    def test_wrong_payload_size_exits_3(self, capsys, tmp_path):
        doc = {
            "m": 2,
            "n": 2,
            "representation": "choi",
            "payload": matrix_doc(np.eye(3)),
        }
        path = tmp_path / "bad.json"
        path.write_text(render_document(doc))
        code, _ = run_cli(capsys, "classify", str(path))
        assert code == 3

    def test_data_length_mismatch_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_matrix({"rows": 2, "cols": 2, "data": [[1, 0]]}, "x")

    def test_nonfinite_entry_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_matrix({"rows": 1, "cols": 1, "data": [[float("nan"), 0]]}, "x")

    def test_boolean_entry_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_matrix({"rows": 1, "cols": 1, "data": [[True, 0]]}, "x")

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", str(DATA / "identity.json"), "--samples", "0"],
            ["classify", str(DATA / "identity.json"), "--tol-abs", "-1"],
            ["decompose", str(ROOT / "data" / "states" / "bell_vector.json"),
             "--method", "schmidt", "--cut", "-2", "-2"],
            ["classify", str(DATA / "identity.json"), "--out", "{tmp}/missing/dir/x.json"],
        ],
        ids=["samples-0", "negative-tol-abs", "negative-cut", "unwritable-out"],
    )
    def test_bad_flag_or_output_path_exits_2(self, capsys, tmp_path, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag value
            code = exc.code
        assert code == 2
        assert "choikit" in capsys.readouterr().err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "choikit.cli", "classify", str(DATA / "identity.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / "classify_identity.json").read_text()
        assert result.stderr == ""
