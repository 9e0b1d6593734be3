"""Command line front end.

All commands read JSON documents and write a single JSON document to
stdout (or ``--out``).  Numbers are rendered with 17 significant digits
so that output files are byte-stable across runs and round-trip exactly
through IEEE doubles.

Exit codes: 0 success, 2 malformed input (an unreadable or undecodable
document, a bad flag value, an ``--out`` file that cannot be written), 3
dimension mismatch, 4 unmet precondition, 5 numerical failure or overflow.

Document formats
----------------
matrix  ``{"rows": R, "cols": C, "data": [[re, im], ...]}`` row-major.
kraus   ``{"m": M, "n": N, "kraus": [matrix, ...]}``.
channel ``{"m": M, "n": N, "representation": "choi" | "superop" |
        "kraus", "payload": matrix-or-kraus}``.

Vectors are matrices with one column.  States of a doubled system are
(m*n) x (m*n) matrices; the factor split is given with ``--cut M N``
where a command cannot infer it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import algebra, bipartite as bp, channel as ch, decomp
from .errors import (
    ChoikitError,
    ConvergenceFailure,
    DifferentChannels,
    DimensionMismatch,
    InvalidValue,
    NotCompletelyPositive,
    NotHermitian,
    NotTotallyEntangled,
    NotTracePreserving,
    NumericalFailure,
    ParseError,
    SingularMatrix,
)
from .matlin import Tolerance

__all__ = ["main"]


# ---------------------------------------------------------------- rendering


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise NumericalFailure("cannot serialize a non-finite number")
    return format(float(x), ".17g")


def _render(value, depth: int) -> str:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f"{inner}{json.dumps(k)}: {_render(v, depth + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool) for x in items):
            return "[" + ", ".join(_render(x, 0) for x in items) + "]"
        parts = [f"{inner}{_render(v, depth + 1)}" for v in items]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def render_document(doc) -> str:
    return _render(doc, 0) + "\n"


def matrix_doc(mat) -> dict:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim == 1:
        mat = mat[:, np.newaxis]
    rows, cols = mat.shape
    flat = mat.reshape(-1)
    return {
        "rows": rows,
        "cols": cols,
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def _matrix_or_none(mat):
    return None if mat is None else matrix_doc(mat)


# ------------------------------------------------------------------ parsing


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot load {path} as JSON: {exc}") from exc


def _need(doc: dict, key: str, kind, ctx: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{ctx}: missing key {key!r}")
    value = doc[key]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"{ctx}: key {key!r} must be an integer")
    elif not isinstance(value, kind):
        raise ParseError(f"{ctx}: key {key!r} has the wrong type")
    return value


def parse_matrix(doc, ctx: str) -> np.ndarray:
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


def load_matrix(path: str) -> np.ndarray:
    return parse_matrix(_load_json(path), path)


def parse_kraus(doc, ctx: str) -> ch.KrausSet:
    m = _need(doc, "m", int, ctx)
    n = _need(doc, "n", int, ctx)
    items = _need(doc, "kraus", list, ctx)
    if not items:
        raise ParseError(f"{ctx}: the kraus list is empty")
    ops = []
    for i, item in enumerate(items):
        op = parse_matrix(item, f"{ctx}: kraus[{i}]")
        if op.shape != (m, n):
            raise DimensionMismatch(
                f"{ctx}: kraus[{i}] is {op.shape[0]} x {op.shape[1]}, declared {m} x {n}"
            )
        ops.append(op)
    return ch.KrausSet(bp.BipartiteShape(m, n), tuple(ops))


def parse_channel(doc, ctx: str) -> ch.Channel:
    m = _need(doc, "m", int, ctx)
    n = _need(doc, "n", int, ctx)
    rep = _need(doc, "representation", str, ctx)
    if m < 1 or n < 1:
        raise ParseError(f"{ctx}: m and n must be positive")
    payload = _need(doc, "payload", object, ctx)
    shape = bp.BipartiteShape(m, n)
    if rep == "choi":
        mat = parse_matrix(payload, f"{ctx}: payload")
        if mat.shape != (m * n, m * n):
            raise DimensionMismatch(f"{ctx}: block matrix must be {m * n} x {m * n}")
        return ch.channel_from_choi(mat, shape)
    if rep == "superop":
        mat = parse_matrix(payload, f"{ctx}: payload")
        if mat.shape != (m * m, n * n):
            raise DimensionMismatch(f"{ctx}: superoperator must be {m * m} x {n * n}")
        return ch.channel_from_superop(mat, shape)
    if rep == "kraus":
        k = parse_kraus(payload, f"{ctx}: payload")
        if (k.shape.m, k.shape.n) != (m, n):
            raise DimensionMismatch(f"{ctx}: kraus dimensions disagree with the channel header")
        return ch.channel_from_kraus(k)
    raise ParseError(f"{ctx}: unknown representation {rep!r}")


def load_channel(path: str) -> ch.Channel:
    return parse_channel(_load_json(path), path)


def channel_doc(c: ch.Channel, representation: str, tol: Tolerance) -> dict:
    m, n = c.shape.m, c.shape.n
    if representation == "choi":
        payload = matrix_doc(c.choi_mat)
    elif representation == "superop":
        payload = matrix_doc(ch.superop_from_channel(c))
    elif representation == "kraus":
        k = ch.kraus_from_channel(c, tol)
        payload = {"m": m, "n": n, "kraus": [matrix_doc(op) for op in k.ops]}
    else:
        raise ParseError(f"unknown representation {representation!r}")
    return {"m": m, "n": n, "representation": representation, "payload": payload}


def _square_state(mat: np.ndarray, m: int, n: int, ctx: str) -> bp.BipartiteOperator:
    if mat.shape != (m * n, m * n):
        raise DimensionMismatch(f"{ctx}: expected a {m * n} x {m * n} matrix, got {mat.shape}")
    return bp.BipartiteOperator(bp.BipartiteShape(m, n), mat)


# ----------------------------------------------------------------- commands


def _tol(args) -> Tolerance:
    return Tolerance(abs=args.tol_abs, rel=args.tol_rel)


def cmd_classify(args) -> dict:
    c = load_channel(args.channel)
    tol = _tol(args)
    verdict = ch.channel_verdict(c, tol)
    positivity = ch.check_positive_preserving(c, tol, samples=args.samples, seed=args.seed)
    w = None if verdict.cp_witness is None else verdict.cp_witness.data
    return {
        "m": c.shape.m,
        "n": c.shape.n,
        "hermitian_preserving": verdict.hermitian_preserving,
        "completely_positive": verdict.completely_positive,
        "cp_witness_eigenvalue": None if w is None else float((w.conj() @ c.choi_mat @ w).real),
        "cp_witness": _matrix_or_none(w),
        "trace_preserving": verdict.trace_preserving,
        "unital": verdict.unital,
        "bistochastic": verdict.bistochastic,
        "factorizable": verdict.factorizable,
        "higher_rank": verdict.higher_rank,
        "extremal_tp": verdict.extremal_tp,
        "positive_preserving": {
            "outcome": positivity.outcome,
            "samples_used": positivity.samples_used,
            "min_value": positivity.min_value,
            "witness_psi": _matrix_or_none(positivity.witness_psi),
            "witness_phi": _matrix_or_none(positivity.witness_phi),
        },
    }


def cmd_convert(args) -> dict:
    c = load_channel(args.channel)
    return channel_doc(c, args.to, _tol(args))


def cmd_decompose(args) -> dict:
    m, n = args.cut
    mat = load_matrix(args.state)
    if mat.shape != (m * n, 1):
        raise DimensionMismatch(
            f"{args.state}: expected a {m * n} x 1 vector for cut {m} {n}, got {mat.shape}"
        )
    v = bp.BipartiteVector(bp.BipartiteShape(m, n), mat)
    if args.method == "schmidt":
        form = decomp.schmidt(v, _tol(args))
        fields = {
            "rank": form.rank,
            "coefficients": [float(x) for x in form.coefficients],
            "left_basis": matrix_doc(form.left_basis),
            "right_basis": matrix_doc(form.right_basis),
        }
    elif args.method == "qr":
        form = decomp.one_sided_triangular(v)
        fields = {"basis_left": matrix_doc(form.basis_left), "coefficients": matrix_doc(form.coefficients)}
    else:
        form = decomp.two_sided_triangular(v)
        fields = {
            "basis_left": matrix_doc(form.basis_left),
            "coefficients": matrix_doc(form.coefficients),
            "basis_right": matrix_doc(form.basis_right),
        }
    return {"method": args.method, "m": m, "n": n, **fields}


def cmd_compose(args) -> dict:
    outer = load_channel(args.outer)
    inner = load_channel(args.inner)
    return channel_doc(ch.compose(outer, inner), "choi", _tol(args))


def cmd_diamond(args) -> dict:
    mats = [load_matrix(p) for p in (args.first, args.second)]
    squares = []
    for path, mat in zip((args.first, args.second), mats):
        n = math.isqrt(mat.shape[0])
        if mat.shape[0] != mat.shape[1] or n * n != mat.shape[0]:
            raise DimensionMismatch(f"{path}: expected an n^2 x n^2 matrix")
        squares.append(algebra.StateSquare(n, bp.BipartiteOperator(bp.BipartiteShape(n, n), mat)))
    return matrix_doc(algebra.diamond(squares[0], squares[1]).mat)


def cmd_apply(args) -> dict:
    c = load_channel(args.channel)
    rho = load_matrix(args.state)
    return matrix_doc(ch.apply(c, rho))


def cmd_ppt(args) -> dict:
    m, n = args.cut
    s = _square_state(load_matrix(args.state), m, n, args.state)
    verdict = algebra.ppt_test(s, _tol(args))
    return {
        "m": m,
        "n": n,
        "is_ppt": verdict.is_ppt,
        "min_eigenvalue": verdict.min_eigenvalue,
        "side": verdict.side,
    }


def cmd_measure(args) -> dict:
    m, n = args.cut
    s = _square_state(load_matrix(args.state), m, n, args.state)
    m_op = load_matrix(args.m_op)
    return matrix_doc(algebra.state_as_measurement(s, m_op))


# -------------------------------------------------------------- entry point


def _flag_type(convert, ok, what: str):
    """argparse ``type=`` that rejects values failing ``ok`` (exit code 2)."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return parse


_POSITIVE_INT = _flag_type(int, lambda v: v >= 1, "a positive integer")
_SAMPLES = _flag_type(
    int, lambda v: 1 <= v <= ch.MAX_SAMPLES, f"an integer from 1 to {ch.MAX_SAMPLES}"
)
_SEED = _flag_type(int, lambda v: v >= 0, "a non-negative integer")
_TOLERANCE = _flag_type(float, lambda v: math.isfinite(v) and v >= 0, "a finite non-negative number")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-abs", type=_TOLERANCE, default=1e-12, help="absolute tolerance")
    common.add_argument("--tol-rel", type=_TOLERANCE, default=1e-9, help="relative tolerance")
    common.add_argument("--seed", type=_SEED, default=0, help="seed for randomized checks")
    common.add_argument(
        "--samples", type=_SAMPLES, default=10000, help="sample count for randomized checks"
    )
    common.add_argument("--out", default=None, help="write the JSON document here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="choikit",
        description="Inspect and transform quantum operations through their block-matrix form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="run the full predicate suite on a channel")
    p.add_argument("channel", help="channel JSON file")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("convert", parents=[common], help="convert a channel between representations")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--to", required=True, choices=["choi", "superop", "kraus"])
    p.set_defaults(run=cmd_convert)

    p = sub.add_parser("decompose", parents=[common], help="decompose a bipartite vector")
    p.add_argument("state", help="vector JSON file (rows = m*n, cols = 1)")
    p.add_argument("--method", required=True, choices=["schmidt", "qr", "schur"])
    p.add_argument("--cut", required=True, nargs=2, type=_POSITIVE_INT, metavar=("M", "N"))
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser(
        "compose", parents=[common], help="compose two channels (the second argument acts first)"
    )
    p.add_argument("outer", help="channel applied second")
    p.add_argument("inner", help="channel applied first")
    p.set_defaults(run=cmd_compose)

    p = sub.add_parser("diamond", parents=[common], help="diamond product of two doubled-system states")
    p.add_argument("first", help="state JSON file (n^2 x n^2 matrix)")
    p.add_argument("second", help="state JSON file (n^2 x n^2 matrix)")
    p.set_defaults(run=cmd_diamond)

    p = sub.add_parser("apply", parents=[common], help="apply a channel to an n x n matrix")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("state", help="matrix JSON file (n x n)")
    p.set_defaults(run=cmd_apply)

    p = sub.add_parser("ppt", parents=[common], help="partial-transpose positivity test")
    p.add_argument("state", help="state JSON file ((m*n) x (m*n) Hermitian matrix)")
    p.add_argument("--cut", required=True, nargs=2, type=_POSITIVE_INT, metavar=("M", "N"))
    p.set_defaults(run=cmd_ppt)

    p = sub.add_parser("measure", parents=[common], help="act on a measurement operator through a state")
    p.add_argument("state", help="state JSON file ((m*n) x (m*n) matrix)")
    p.add_argument("--cut", required=True, nargs=2, type=_POSITIVE_INT, metavar=("M", "N"))
    p.add_argument("--m-op", required=True, help="measurement operator JSON file (n x n)")
    p.set_defaults(run=cmd_measure)

    return parser


# Exit code and label of each ChoikitError.  Inputs are checked on the way in,
# so InvalidValue means overflow, reported here instead of as numpy warnings.
_EXIT_CODES = (
    (ParseError, 2, "parse error"),
    (DimensionMismatch, 3, "dimension mismatch"),
    ((NotHermitian, NotCompletelyPositive, NotTracePreserving, NotTotallyEntangled, SingularMatrix,
      DifferentChannels), 4, "precondition not met"),
    ((NumericalFailure, ConvergenceFailure, InvalidValue), 5, "numerical failure"),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            text = render_document(args.run(args))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ChoikitError as exc:
        code, label = next((code, label) for kinds, code, label in _EXIT_CODES if isinstance(exc, kinds))
        print(f"choikit: {label}: {exc}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"choikit: cannot write {args.out or 'stdout'}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
