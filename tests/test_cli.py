import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from choikit import bipartite as bp
from choikit import channel as ch
from choikit import cli, errors
from choikit.cli import _EXIT_CODES, _need, main, matrix_doc, parse_channel, parse_matrix, render_document
from choikit.errors import ParseError

from helpers import crandn, random_cp_channel

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "channels"
STATES = ROOT / "data" / "states"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

BUNDLED = ["identity", "transpose", "dephasing", "depolarizing", "measure_reset"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_channel(tmp_path, name, c: ch.Channel, representation="choi"):
    from choikit.cli import channel_doc

    path = tmp_path / name
    path.write_text(render_document(channel_doc(c, representation)))
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

    @pytest.mark.parametrize(
        "name,to",
        [(name, "superop") for name in BUNDLED]
        + [(name, "kraus") for name in BUNDLED if name != "transpose"],
    )
    def test_convert_bytes_match_golden(self, capsys, name, to):
        code, out = run_cli(capsys, "convert", str(DATA / f"{name}.json"), "--to", to)
        assert code == 0
        assert out == (GOLDEN / f"convert_{name}_{to}.json").read_text()

    @pytest.mark.parametrize("method", ["schmidt", "qr", "schur"])
    def test_decompose_bytes_match_golden(self, capsys, method):
        code, out = run_cli(
            capsys, "decompose", str(STATES / "bell_vector.json"), "--method", method, "--cut", "2", "2"
        )
        assert code == 0
        assert out == (GOLDEN / f"decompose_bell_vector_{method}.json").read_text()

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
            str(STATES / "bell_vector.json"),
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

    def test_qr_of_a_subnormal_diagonal_exits_0(self, capsys, tmp_path):
        vec = np.zeros(12)
        vec[-1] = 2.225073858507e-311
        path = write_matrix(tmp_path, "v.json", vec[:, None])
        code, out = run_cli(capsys, "decompose", path, "--method", "qr", "--cut", "4", "3")
        assert code == 0
        doc = json.loads(out)
        q = parse_matrix(doc["basis_left"], "q")
        r = parse_matrix(doc["coefficients"], "r")
        assert np.array_equal(q @ r, vec.reshape(4, 3))

    def test_schur_on_rectangular_cut_exits_3(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        path = write_matrix(tmp_path, "v.json", crandn(rng, 6)[:, None])
        code, _ = run_cli(capsys, "decompose", path, "--method", "schur", "--cut", "3", "2")
        assert code == 3

    @pytest.mark.parametrize(
        "entries",
        [[1e308, 1e308, -1e308, 1e308], [5e-324] * 4, [1e-310, -1e-310, 1e-310, 1e-310], [0.0] * 4],
        ids=["1e308", "5e-324", "1e-310", "zero"],
    )
    def test_schur_of_extreme_entries_exits_0_and_reconstructs(self, capsys, tmp_path, entries):
        vec = np.array(entries)
        path = write_matrix(tmp_path, "v.json", vec[:, None])
        code, out = run_cli(capsys, "decompose", path, "--method", "schur", "--cut", "2", "2")
        assert code == 0
        doc = json.loads(out)
        u = parse_matrix(doc["basis_left"], "u")
        t = parse_matrix(doc["coefficients"], "t")
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-14)
        # compare at unit scale: 2**e is exact, and u t u† of entries near
        # 1e308 would overflow; t's entries are rounded to multiples of
        # 2**-1074 when they are subnormal, hence the absolute term
        e = -np.frexp(np.abs(vec).max())[1]

        def scaled(x):
            return np.ldexp(x.real, e) + 1j * np.ldexp(x.imag, e)

        err = np.linalg.norm(u @ scaled(t) @ u.conj().T - scaled(vec.reshape(2, 2)))
        assert err <= 1e-12 * np.linalg.norm(scaled(vec)) + 2 * np.ldexp(2.0**-1074, e)

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

    def test_diamond_bell_projector(self, capsys):
        bell = str(ROOT / "data" / "states" / "bell_projector.json")
        code, out = run_cli(capsys, "diamond", bell, bell)
        assert code == 0
        assert out == (GOLDEN / "diamond_bell_projector.json").read_text()

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
        assert out == (GOLDEN / "ppt_bell_projector.json").read_text()

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

    @pytest.mark.parametrize("entry", [[10**400, 0], [0, -(10**400)]], ids=["re", "im"])
    def test_integer_beyond_double_range_is_a_parse_error(self, entry):
        with pytest.raises(ParseError):
            parse_matrix({"rows": 1, "cols": 1, "data": [entry]}, "x")

    def test_boolean_entry_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_matrix({"rows": 1, "cols": 1, "data": [[True, 0]]}, "x")

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", str(DATA / "identity.json"), "--samples", "0"],
            ["classify", str(DATA / "identity.json"), "--samples", "1000001"],
            ["classify", str(DATA / "identity.json"), "--samples", "100000000000000000000"],
            ["classify", str(DATA / "identity.json"), "--tol-abs", "-1"],
            ["decompose", str(STATES / "bell_vector.json"),
             "--method", "schmidt", "--cut", "-2", "-2"],
            ["classify", str(DATA / "identity.json"), "--out", "{tmp}/missing/dir/x.json"],
        ],
        ids=["samples-0", "samples-above-max", "samples-1e20", "negative-tol-abs", "negative-cut", "unwritable-out"],
    )
    def test_bad_flag_or_output_path_exits_2(self, capsys, tmp_path, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag value
            code = exc.code
        assert code == 2
        assert "choikit" in capsys.readouterr().err


_TOL_FLAGS = ["--tol-abs", "--tol-rel"]
_SAMPLING_FLAGS = ["--seed", "--samples"]
# a valid call of each command that does not read every flag, and the
# flags it does not accept (classify accepts all five)
_CALLS = {
    "convert": ([str(DATA / "identity.json"), "--to", "choi"], _SAMPLING_FLAGS),
    "decompose": ([str(STATES / "bell_vector.json"), "--method", "schmidt", "--cut", "2", "2"], _SAMPLING_FLAGS),
    "ppt": ([str(STATES / "bell_projector.json"), "--cut", "2", "2"], _SAMPLING_FLAGS),
    "compose": ([str(DATA / "identity.json")] * 2, _TOL_FLAGS + _SAMPLING_FLAGS),
    "diamond": ([str(STATES / "bell_projector.json")] * 2, _TOL_FLAGS + _SAMPLING_FLAGS),
    "apply": ([str(DATA / "identity.json"), str(STATES / "mixed_qubit.json")], _TOL_FLAGS + _SAMPLING_FLAGS),
    "measure": (
        [str(STATES / "bell_projector.json"), "--cut", "2", "2", "--m-op", str(STATES / "mixed_qubit.json")],
        _TOL_FLAGS + _SAMPLING_FLAGS,
    ),
}
_UNREAD = [(command, flag) for command, (_, flags) in _CALLS.items() for flag in flags]


@pytest.mark.parametrize("command, flag", _UNREAD, ids=[f"{c}{f}" for c, f in _UNREAD])
def test_flag_a_command_does_not_read_exits_2(capsys, tmp_path, command, flag):
    argv = [command] + _CALLS[command][0] + ["--out", str(tmp_path / "x.json")]
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count("usage:") == 1
    assert captured.err.endswith(f"choikit: error: unrecognized arguments: {flag} 3\n")


class TestParserReuse:
    """main builds its parser once per process and looks each command's
    cmd_* function up by name when it runs."""

    @staticmethod
    def _outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_is_built_once(self, capsys, tmp_path):
        cli._build_parser.cache_clear()
        calls = [[command] + argv + ["--out", str(tmp_path / "x.json")] for command, (argv, _) in _CALLS.items()]
        for argv in calls + [["classify", str(DATA / "identity.json")]] + calls:
            assert main(argv) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(calls))

    def test_command_rebound_after_the_first_call_runs(self, capsys, monkeypatch):
        path = str(DATA / "identity.json")
        assert main(["classify", path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_classify", lambda args: {"rebound": args.channel})
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out == render_document({"rebound": path})

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--help"], 0),
            (["classify", "--help"], 0),
            (["classify", str(DATA / "identity.json"), "--samples", "0"], 2),
            (["convert", str(DATA / "identity.json"), "--to", "choi", "--seed", "3"], 2),
            (["frobnicate"], 2),
            ([], 2),
        ],
        ids=["help", "classify-help", "bad-value", "unread-flag", "unknown-command", "no-command"],
    )
    def test_reused_parser_keeps_exit_codes_and_text(self, capsys, argv, code):
        cli._build_parser.cache_clear()
        first = self._outcome(capsys, argv)
        assert first[0] == code and (first[1] or first[2])
        for other in (
            ["classify", str(DATA / "transpose.json")],
            ["ppt", str(STATES / "bell_projector.json"), "--cut", "2", "2"],
        ):
            assert self._outcome(capsys, other)[0] == 0
        assert self._outcome(capsys, argv) == first
        assert cli._build_parser.cache_info().misses == 1


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


def _huge(rows, cols):
    return {"rows": rows, "cols": cols, "data": [[1e200, 0.0]] * (rows * cols)}


# Inputs that once ended in a traceback (exit 1) or in exit 0 with every
# decision taken at an infinite threshold.
CRASH_INPUTS = {
    "latin1.json": b'{"rows": 1, "cols": 1, "data": [[1, 0]], "note": "\xff\xfe"}',
    "deep.json": b"[" * 100000 + b"]" * 100000,
    "bigint.json": b'{"m": 1, "n": 1, "representation": "choi", "payload": '
    b'{"rows": 1, "cols": 1, "data": [[' + b"9" * 400 + b", 0]]}}",
    "chan.json": json.dumps({"m": 2, "n": 2, "representation": "choi", "payload": _huge(4, 4)}).encode(),
    # a rank-one CP block matrix whose trace squared overflows in is_factorizable
    "rank_one.json": json.dumps(
        {"m": 2, "n": 2, "representation": "choi", "payload": {"rows": 4, "cols": 4, "data": [[1e155, 0.0]] * 16}}
    ).encode(),
    "m2.json": json.dumps(_huge(2, 2)).encode(),
    "m4.json": json.dumps(_huge(4, 4)).encode(),
    "v4.json": json.dumps(_huge(4, 1)).encode(),
}


@pytest.mark.parametrize(
    "argv, code",
    [
        ("classify latin1.json", 2),
        ("classify deep.json", 2),
        ("classify bigint.json", 2),
        ("classify chan.json --samples 16", 5),
        ("classify rank_one.json --samples 16", 5),
        ("compose chan.json chan.json", 5),
        ("apply chan.json m2.json", 5),
        ("diamond m4.json m4.json", 5),
        ("measure m4.json --cut 2 2 --m-op m2.json", 5),
        ("decompose v4.json --method schmidt --cut 2 2", 5),
        ("ppt m4.json --cut 2 2", 5),
        ("convert chan.json --to kraus", 5),
    ],
    ids=[
        "non-utf8",
        "deep-array",
        "huge-integer",
        "classify-overflow",
        "factorizable-overflow",
        "compose-overflow",
        "apply-overflow",
        "diamond-overflow",
        "measure-overflow",
        "decompose-overflow",
        "ppt-overflow",
        "convert-kraus-overflow",
    ],
)
def test_reproduced_crash_exits_with_one_message(capsys, tmp_path, argv, code):
    for name, content in CRASH_INPUTS.items():
        (tmp_path / name).write_bytes(content)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv.split()]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("choikit: ")
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1


def test_exit_table_maps_every_error_class():
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.ChoikitError)]
    for cls in classes:
        if cls is not errors.ChoikitError:
            assert sum(issubclass(cls, kinds) for kinds, _, _ in _EXIT_CODES) == 1, cls


# ---------------------------------------------------- bulk parse equivalence


def _parse_matrix_entry_by_entry(doc, ctx):
    """The matrix parser as it was before the bulk route: every entry
    checked and converted on its own.  The reference for parse_matrix."""
    rows = _need(doc, "rows", int, ctx)
    cols = _need(doc, "cols", int, ctx)
    data = _need(doc, "data", list, ctx)
    if rows < 1 or cols < 1:
        raise ParseError(f"{ctx}: rows and cols must be positive")
    if len(data) != rows * cols:
        raise ParseError(f"{ctx}: expected {rows * cols} entries, found {len(data)}")
    out = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair)
        ):
            raise ParseError(f"{ctx}: entry {i} must be a [re, im] pair of numbers")
        if not (abs(pair[0]) <= sys.float_info.max and abs(pair[1]) <= sys.float_info.max):
            raise ParseError(f"{ctx}: entry {i} is not a finite double")
        out[i] = complex(pair[0], pair[1])
    return out.reshape(rows, cols)


def _parse_outcome(parse, data, rows, cols):
    try:
        mat = parse({"rows": rows, "cols": cols, "data": data}, "doc")
    except ParseError as exc:
        return "ParseError", str(exc)
    return mat.shape, mat.dtype, mat.tobytes()


_FLOAT_MAX = sys.float_info.max
# -0.0, the smallest subnormal, large doubles and ints a double cannot hold exactly
_EDGE_NUMBERS = [
    -0.0, 5e-324, -5e-324, 1e308, -1e308, _FLOAT_MAX, -_FLOAT_MAX, int(_FLOAT_MAX), 2**53, 2**53 + 1,
    -(2**53) - 1, 2**63 + 1, 2**64 - 1, 3**100, 0, 1,
]
_GOOD_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from(_EDGE_NUMBERS),
)
_BAD_NUMBERS = [
    True, False, "1", None, {"re": 1}, [1.0], float("nan"), float("inf"), -float("inf"),
    10**400, -(10**400), int(_FLOAT_MAX) + 1, 2**1024,
]
_BAD_ENTRIES = [{"re": 1.0, "im": 0.0}, "1, 0", 3.0, None, True, [], [1.0], [1.0, 2.0, 3.0]]


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(
    good=st.lists(st.lists(_GOOD_NUMBERS, min_size=2, max_size=2), min_size=1, max_size=12),
    bad=st.lists(
        st.tuples(
            st.integers(0, 12),
            st.one_of(
                st.sampled_from(_BAD_ENTRIES),
                st.tuples(_GOOD_NUMBERS, st.sampled_from(_BAD_NUMBERS)).map(list),
                st.tuples(st.sampled_from(_BAD_NUMBERS), _GOOD_NUMBERS).map(list),
            ),
        ),
        max_size=3,
    ),
    column=st.booleans(),
)
def test_bulk_parse_equals_the_entry_by_entry_parse(good, bad, column):
    data = list(good)
    for at, entry in bad:
        data.insert(min(at, len(data)), entry)
    rows, cols = (len(data), 1) if column else (1, len(data))
    expected = _parse_outcome(_parse_matrix_entry_by_entry, data, rows, cols)
    assert _parse_outcome(parse_matrix, data, rows, cols) == expected
    assert (expected[0] == "ParseError") == bool(bad)


@pytest.mark.parametrize(
    "data, index",
    [
        ([[0, 0], [True, 0]], 1),
        ([[0, 0], [0, "1"]], 1),
        ([[None, 0], [0, 0]], 0),
        ([[0, 0], {"re": 0, "im": 0}], 1),
        ([[0, 0], [1.0]], 1),
        ([[0, 0, 0], [1.0, 2.0]], 0),
        ([[0, 0], [float("nan"), 0]], 1),
        ([[0, float("inf")], [0, 0]], 0),
        ([[0, 0], [0, -float("inf")]], 1),
        ([[0, 0], [10**400, 0]], 1),
        # rounds to the largest double without overflowing the conversion
        ([[_FLOAT_MAX, 0], [0, -int(_FLOAT_MAX) - 1]], 1),
        ([[0, 0], [1.0, 2.0], [0, 1e400], [True, 0], "x"], 2),
        ([[0, 0], "x", [float("nan"), 0], [1.0]], 1),
    ],
)
def test_bad_entries_raise_the_entry_by_entry_message(data, index):
    expected = _parse_outcome(_parse_matrix_entry_by_entry, data, len(data), 1)
    assert expected[0] == "ParseError" and f"doc: entry {index} " in expected[1]
    assert _parse_outcome(parse_matrix, data, len(data), 1) == expected


# ------------------------------------------------------------------ fuzzing


def _mostly(valid, invalid, one_in=10):
    """Draws from ``invalid`` about once in ``one_in`` draws, else from ``valid``.

    The odd one out is an inner value: Hypothesis favours the bounds.
    """
    return st.integers(0, one_in).flatmap(lambda k: invalid if k == 1 else valid)


_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_NUMBER = _mostly(
    st.floats(-2.0, 2.0),
    st.one_of(st.floats(), st.integers(-(10**400), 10**400), st.sampled_from([True, None, "1"])),
    one_in=100,
)
_SIDE = st.sampled_from([1, 2, 4])


def _matrix(rows, cols):
    pairs = st.lists(st.lists(_NUMBER, min_size=2, max_size=2), min_size=rows * cols, max_size=rows * cols)
    return pairs.map(lambda data: {"rows": rows, "cols": cols, "data": data})


def _kraus(m, n):
    return st.lists(_matrix(m, n), min_size=1, max_size=3).map(lambda ops: {"m": m, "n": n, "kraus": ops})


@st.composite
def _channel_docs(draw):
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rep = draw(st.sampled_from(["choi", "superop", "kraus"]))
    payload = {"choi": _matrix(m * n, m * n), "superop": _matrix(m * m, n * n), "kraus": _kraus(m, n)}[rep]
    return {"m": m, "n": n, "representation": rep, "payload": draw(payload)}


@st.composite
def _matrix_docs(draw):
    rows = draw(_SIDE)
    return draw(_matrix(rows, draw(st.one_of(st.just(rows), _SIDE))))


@st.composite
def _file_bytes(draw, docs):
    """A well-formed document, or one broken at its top level, or no JSON at all."""
    doc = draw(docs)
    damage = draw(st.integers(0, 12))  # inner values damage, as in _mostly
    if damage == 3:
        return draw(st.binary(max_size=8))
    if damage == 5:
        doc = draw(_JUNK)
    elif damage == 7:
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = draw(st.one_of(_JUNK, st.integers(-1, 3)))
    elif damage == 9:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return json.dumps(doc).encode()


_FILES = {"channel": _file_bytes(_channel_docs()), "matrix": _file_bytes(_matrix_docs())}
# command -> the kinds of its file arguments, its required flags and the
# optional flags it accepts besides --out
_COMMANDS = {
    "classify": (["channel"], [], _TOL_FLAGS + _SAMPLING_FLAGS),
    "convert": (["channel"], ["--to"], _TOL_FLAGS),
    "compose": (["channel", "channel"], [], []),
    "apply": (["channel", "matrix"], [], []),
    "diamond": (["matrix", "matrix"], [], []),
    "decompose": (["matrix"], ["--method", "--cut"], _TOL_FLAGS),
    "ppt": (["matrix"], ["--cut"], _TOL_FLAGS),
    "measure": (["matrix", "matrix"], ["--cut"], []),
}
_CUT_SIDE = _mostly(st.sampled_from(["1", "2"]), st.sampled_from(["0", "-2", "4", "x"]))
_FLAG_VALUES = {
    "--to": _mostly(st.sampled_from(["choi", "superop", "kraus"]), st.just("stinespring")),
    "--method": _mostly(st.sampled_from(["schmidt", "qr", "schur"]), st.just("lu")),
    "--cut": st.lists(_CUT_SIDE, min_size=2, max_size=2),
    "--tol-abs": _mostly(
        st.sampled_from(["0", "1e-12", "1e-3"]), st.sampled_from(["-1", "nan", "inf", "1e400", "x"])
    ),
    "--tol-rel": _mostly(st.sampled_from(["0", "1e-9", "0.5"]), st.sampled_from(["-1e-9", "nan", "1e300", ""])),
    "--seed": _mostly(st.sampled_from(["0", "7"]), st.sampled_from(["-1", "1.5"])),
    # the sample count sizes an allocation, so the valid ones stay small here
    "--samples": _mostly(
        st.sampled_from(["16", "1"]),
        st.sampled_from(["0", "-3", "x", "1000001", "100000000000000000000"]),
    ),
}


@settings(
    derandomize=True,
    deadline=None,
    max_examples=100,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_fuzzed_documents_and_flags_keep_the_exit_code_contract(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(_COMMANDS)), label="command")
    kinds, flags, optional = _COMMANDS[command]
    folder = tmp_path_factory.mktemp("fuzz")
    paths = []
    for i, kind in enumerate(kinds):
        path = folder / f"{i}.json"
        path.write_bytes(data.draw(_FILES[kind], label=f"file {i}"))
        paths.append(str(path))
    argv = [command] + (paths[:1] + ["--m-op", paths[1]] if command == "measure" else paths)
    if optional:
        flags = flags + data.draw(st.lists(st.sampled_from(optional), max_size=2, unique=True), label="flags")
    for flag in flags:
        value = data.draw(_FLAG_VALUES[flag], label=flag)
        argv += [flag] + (value if isinstance(value, list) else [value])
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag value
        code = exc.code
    assert code in {0, 2, 3, 4, 5}
