"""Acceptance gate: twelve end-to-end checks at pinned tolerances.

Each test prints one ``PASS``/``FAIL`` line (run with ``-s`` to see
them), covering the full surface: representation conversions, the
transpose counterexample, predicate batteries, decompositions, the
induced algebra, and the command line golden files.
"""

import functools
import json
import pathlib
from dataclasses import astuple

import numpy as np

from choikit import algebra as al
from choikit import bipartite as bp
from choikit import channel as ch
from choikit import decomp as dc
from choikit import matlin as ml
from choikit.cli import channel_doc, main, parse_channel, render_document
from choikit.matlin import DEFAULT_TOL

from helpers import (
    crandn,
    kraus_apply,
    random_cp_channel,
    random_density,
    random_isometry,
    random_kraus,
    random_tp_kraus,
    random_unitary,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "channels"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

SHAPES = [(2, 2), (3, 2), (2, 3), (4, 3)]


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {num:2d}  {label}")
                raise
            print(f"PASS  {num:2d}  {label}")

        return wrapper

    return deco


def close(a, b, tol):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.linalg.norm(a - b) <= tol * max(1.0, np.linalg.norm(a))


def square_state(n, mat):
    return al.StateSquare(n, bp.BipartiteOperator(bp.BipartiteShape(n, n), mat))


@criterion(1, "both correspondences preserve the pairing (rel err <= 1e-10)")
def test_criterion_01_pairing_isometries():
    rng = np.random.default_rng(101)
    for m, n in SHAPES:
        shape = bp.BipartiteShape(m, n)
        for _ in range(200):
            v = crandn(rng, m * n)
            w = crandn(rng, m * n)
            lhs = np.vdot(w, v)
            rhs = ml.frobenius_inner(
                bp.hat(bp.BipartiteVector(shape, w)),
                bp.hat(bp.BipartiteVector(shape, v)),
            )
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        for _ in range(200):
            s = ch.channel_from_choi(crandn(rng, m * n, m * n), shape)
            f = ch.channel_from_choi(crandn(rng, m * n, m * n), shape)
            lhs = np.vdot(f.choi_mat, s.choi_mat)
            s_sup = ch.superop_from_channel(s)
            f_sup = ch.superop_from_channel(f)
            # right side read off superoperator columns: column (j,l)
            # holds the image of the matrix unit e_j e_l† row-major.
            rhs = 0.0
            for col in range(n * n):
                rhs += np.vdot(
                    f_sup[:, col].reshape(m, m), s_sup[:, col].reshape(m, m)
                )
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@criterion(2, "kraus -> choi -> kraus is a fixed point on the positive cone")
def test_criterion_02_kraus_round_trip():
    rng = np.random.default_rng(202)
    for i in range(100):
        m, n = SHAPES[i % len(SHAPES)]
        c1 = ch.channel_from_kraus(random_kraus(rng, m, n, 1 + i % 4))
        k2 = ch.kraus_from_channel(c1)
        c2 = ch.channel_from_kraus(k2)
        assert close(c1.choi_mat, c2.choi_mat, 1e-10)
        for c in (c1, c2):
            floor = -1e-10 * np.linalg.norm(c.choi_mat)
            assert np.linalg.eigvalsh(c.choi_mat).min() >= floor


@criterion(3, "transpose on 2x2: swap block, spectrum {1,1,1,-1}, no positive-cone violation")
def test_criterion_03_transpose_counterexample():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    c = ch.channel_from_superop(swap, bp.BipartiteShape(2, 2))
    assert np.array_equal(c.choi_mat, swap)

    eigs = np.sort(np.linalg.eigvalsh(c.choi_mat))
    assert np.all(np.abs(eigs - np.array([-1.0, 1.0, 1.0, 1.0])) <= 1e-10)

    ok, witness = ch.is_completely_positive(c)
    assert not ok and witness is not None
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert abs(abs(np.vdot(singlet, witness.data)) - 1.0) <= 1e-10

    verdict = ch.check_positive_preserving(c, samples=10**4, seed=0)
    assert verdict.outcome == "NoViolationFound"
    assert verdict.samples_used == 10**4


@criterion(4, "six trace-preservation readings are unanimous, both ways")
def test_criterion_04_six_tp_conditions():
    rng = np.random.default_rng(404)
    for i in range(100):
        m, n = SHAPES[i % len(SHAPES)]
        count = max(1 + i % 3, -(-n // m))
        c = ch.channel_from_kraus(random_tp_kraus(rng, m, n, count))
        conds = ch.six_tp_conditions(c)
        assert conds.unanimous()
        assert all(x is True for x in astuple(conds))
    for i in range(100):
        m, n = SHAPES[i % len(SHAPES)]
        base = random_tp_kraus(rng, m, n, max(1 + i % 3, -(-n // m)))
        extra = 0.3 * crandn(rng, m, n)
        broken = ch.KrausSet(base.shape, base.ops + (extra,))
        conds = ch.six_tp_conditions(ch.channel_from_kraus(broken))
        assert conds.unanimous()
        assert all(x is False for x in astuple(conds))


@criterion(5, "single-term operations score zero; full mixing scores n^2 - 1")
def test_criterion_05_factorizability():
    rng = np.random.default_rng(505)

    def scalar(c):
        s = ch.superop_from_channel(c)
        t1 = np.trace(ch.apply(c, np.eye(c.shape.n))).real
        return t1 * t1 - float(np.vdot(s, s).real), t1

    for i in range(50):
        m, n = SHAPES[i % len(SHAPES)]
        c = ch.channel_from_kraus(random_kraus(rng, m, n, 1))
        value, t1 = scalar(c)
        assert abs(value) <= 1e-9 * max(1.0, t1 * t1)
        assert ch.is_factorizable(c)

    for n, expected in [(2, 3.0), (3, 8.0)]:
        units = []
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1 / np.sqrt(n)
                units.append(e)
        depol = ch.channel_from_kraus(
            ch.KrausSet(bp.BipartiteShape(n, n), tuple(units))
        )
        value, t1 = scalar(depol)
        assert abs(value - expected) <= 1e-9
        assert value / (t1 * t1) > 0.1
        assert not ch.is_factorizable(depol)


@criterion(6, "gram-rank and product-span extremality tests agree")
def test_criterion_06_extremality():
    rng = np.random.default_rng(606)
    cases = []
    for n in (2, 3):
        for i in range(50):
            cases.append(random_tp_kraus(rng, n, n, 1 + i % n))
        # commuting diagonal mixtures are never extremal for two terms
        for _ in range(10):
            u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
            v = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
            cases.append(
                ch.KrausSet(
                    bp.BipartiteShape(n, n), (u / np.sqrt(2), v / np.sqrt(2))
                )
            )
    # {I, Z}/sqrt(2) with its 4 x 2 isometry moved by eps * G and
    # re-orthonormalised: at eps = 1e-6 the span is full, its smallest
    # singular value 6.5e-7 against a threshold of 1.4e-9; at eps = 1e-12
    # the two new directions fall below the threshold
    boundary = {}
    flip = np.vstack([np.eye(2), np.diag([1.0, -1.0])]) / np.sqrt(2)
    for eps, full in ((1e-6, True), (1e-12, False)):
        u, _, vh = np.linalg.svd(flip + eps * crandn(np.random.default_rng(1), 4, 2))
        iso = u[:, :2] @ vh
        boundary[len(cases)] = full
        cases.append(ch.KrausSet(bp.BipartiteShape(2, 2), (iso[:2], iso[2:])))
    for i, k in enumerate(cases):
        c = ch.channel_from_kraus(k)
        minimal = ch.kraus_from_channel(c)
        by_span = ch.extremal_span_dimension(minimal) == len(minimal) ** 2
        assert ch.is_extremal_tp(c) == by_span
        assert ch.is_extremal_tp(ch.channel_from_choi(c.choi_mat, c.shape)) == by_span
        assert ch.channel_verdict(c).extremal_tp == by_span
        if i in boundary:
            ops = np.array(minimal.ops)
            prods = np.array([(x.conj().T @ y).ravel() for x in ops for y in ops])
            sv = np.linalg.svd(prods, compute_uv=False)
            assert (sv.min() > DEFAULT_TOL.threshold(np.linalg.norm(sv))) == by_span == boundary[i]

    for n in (2, 3):
        for _ in range(10):
            u = random_unitary(rng, n)
            c = ch.channel_from_kraus(
                ch.KrausSet(bp.BipartiteShape(n, n), (u,))
            )
            assert ch.is_extremal_tp(c)

    z = np.diag([1.0, -1.0])
    mix = ch.KrausSet(
        bp.BipartiteShape(2, 2), (np.eye(2) / np.sqrt(2), z / np.sqrt(2))
    )
    assert not ch.is_extremal_tp(ch.channel_from_kraus(mix))


@criterion(7, "all three vector normal forms rebuild their input")
def test_criterion_07_decompositions():
    rng = np.random.default_rng(707)
    tall = [(2, 2), (3, 2), (4, 3), (3, 3), (4, 4)]
    for i in range(100):
        m, n = tall[i % len(tall)]
        shape = bp.BipartiteShape(m, n)
        v = bp.BipartiteVector(shape, crandn(rng, m * n))

        form = dc.schmidt(v)
        assert close(v.data, form.reconstruct().data, 1e-9)
        reduced = bp.hat(v) @ bp.hat(v).conj().T
        spectra = np.sort(np.linalg.eigvalsh(reduced))[::-1][: form.rank]
        assert np.all(np.abs(form.coefficients**2 - spectra) <= 1e-9 * max(1.0, spectra[0]))

        qr_form = dc.one_sided_triangular(v)
        assert close(bp.hat(v), qr_form.reconstruct(), 1e-9)

    for i in range(100):
        n = 2 + i % 3
        shape = bp.BipartiteShape(n, n)
        v = bp.BipartiteVector(shape, crandn(rng, n * n))
        form = dc.two_sided_triangular(v)
        assert close(bp.hat(v), form.reconstruct(), 1e-9)
        diag = np.sort_complex(np.diag(form.coefficients))
        eigs = np.sort_complex(np.linalg.eigvals(bp.hat(v)))
        assert np.linalg.norm(diag - eigs) <= 1e-9 * max(1.0, np.abs(eigs).max())


@criterion(8, "stacked dilation reproduces the gram matrix and the traced action")
def test_criterion_08_dilation():
    rng = np.random.default_rng(808)
    for i in range(50):
        m, n = SHAPES[i % len(SHAPES)]
        count = max(1 + i % 3, -(-n // m))
        k = random_kraus(rng, m, n, count) if i % 2 else random_tp_kraus(rng, m, n, count)
        d = dc.dilate(k)
        gram = sum(a.conj().T @ a for a in k.ops)
        assert close(gram, d.gram, 1e-10)
        assert close(d.matrix.conj().T @ d.matrix, d.gram, 1e-10)
        if i % 2 == 0:
            assert close(np.eye(n), d.gram, 1e-10)
        for _ in range(20):
            rho = random_density(rng, n)
            assert close(kraus_apply(k.ops, rho), d.act(rho), 1e-10)


@criterion(9, "mixing by an isometry keeps the channel; the mixer is recoverable")
def test_criterion_09_unitary_freedom():
    rng = np.random.default_rng(909)
    for i in range(50):
        m, n = SHAPES[i % len(SHAPES)]
        q = 1 + i % 3
        p = q + (i % 3)
        b = random_kraus(rng, m, n, q)
        u = random_isometry(rng, p, q)
        mixed = tuple(
            sum(u[x, y] * b.ops[y] for y in range(q)) for x in range(p)
        )
        a = ch.KrausSet(b.shape, mixed)
        ca = ch.channel_from_kraus(a)
        cb = ch.channel_from_kraus(b)
        assert close(cb.choi_mat, ca.choi_mat, 1e-10)

        rel = dc.find_kraus_isometry(a, b)
        big, small = (a, b) if rel.direction == "a_from_b" else (b, a)
        scale = max(1.0, max(np.linalg.norm(op) for op in big.ops))
        for x in range(len(big)):
            recon = sum(
                rel.matrix[x, y] * small.ops[y] for y in range(len(small))
            )
            assert np.linalg.norm(big.ops[x] - recon) <= 1e-8 * scale
        eye = np.eye(len(small))
        assert np.linalg.norm(rel.matrix.conj().T @ rel.matrix - eye) <= 1e-8


@criterion(10, "diamond semigroup, pure-state rule, inverses, schur positivity")
def test_criterion_10_algebra():
    rng = np.random.default_rng(1010)
    for n in (2, 3):
        e = al.group_identity(n)
        for _ in range(20):
            x = square_state(n, crandn(rng, n * n, n * n))
            y = square_state(n, crandn(rng, n * n, n * n))
            z = square_state(n, crandn(rng, n * n, n * n))
            lhs = al.diamond(al.diamond(x, y), z).mat
            rhs = al.diamond(x, al.diamond(y, z)).mat
            assert close(lhs, rhs, 1e-9)
            assert close(x.mat, al.diamond(e, x).mat, 1e-9)
            assert close(x.mat, al.diamond(x, e).mat, 1e-9)

    for _ in range(50):
        a = crandn(rng, 2, 2)
        b = crandn(rng, 2, 2)
        while abs(np.linalg.det(a)) < 1e-3:
            a = crandn(rng, 2, 2)
        while abs(np.linalg.det(b)) < 1e-3:
            b = crandn(rng, 2, 2)
        va, vb, vab = (m.reshape(-1) for m in (a, b, a @ b))
        direct = al.diamond(
            square_state(2, np.outer(va, va.conj())),
            square_state(2, np.outer(vb, vb.conj())),
        ).mat
        assert close(np.outer(vab, vab.conj()), direct, 1e-9)
        via_phi = al.diamond(al.phi_homomorphism(a), al.phi_homomorphism(b)).mat
        assert close(al.phi_homomorphism(a @ b).mat, via_phi, 1e-9)

    for n in (2, 3):
        for _ in range(10):
            a = crandn(rng, n, n)
            while abs(np.linalg.det(a)) < 1e-3:
                a = crandn(rng, n, n)
            s = al.phi_homomorphism(a)
            inv = al.group_inverse(s)
            e = al.group_identity(n).mat
            assert close(e, al.diamond(inv, s).mat, 1e-9)
            assert close(e, al.diamond(s, inv).mat, 1e-9)

    for i in range(50):
        m, n = SHAPES[i % len(SHAPES)]
        prod = al.schur_product_channels(
            random_cp_channel(rng, m, n, 1 + i % 3),
            random_cp_channel(rng, m, n, 1 + i % 3),
        )
        ok, _ = ch.is_completely_positive(prod)
        assert ok


@criterion(11, "block measurement equals the action on the transposed gram operator")
def test_criterion_11_measurement():
    rng = np.random.default_rng(1111)
    for i in range(100):
        m, n = (2, 2) if i < 50 else (3, 2)
        shape = bp.BipartiteShape(m, n)
        c = ch.channel_from_choi(crandn(rng, m * n, m * n), shape)
        m_op = crandn(rng, n, n)
        got = al.state_as_measurement(c.choi, m_op)
        want = ch.apply(c, (m_op.conj().T @ m_op).T)
        assert close(want, got, 1e-9)


@criterion(12, "command line reports are byte-stable; conversions round trip")
def test_criterion_12_cli(tmp_path):
    for name in ("identity", "transpose", "dephasing", "depolarizing", "measure_reset"):
        out = tmp_path / f"{name}.json"
        code = main(["classify", str(DATA / f"{name}.json"), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / f"classify_{name}.json").read_bytes()

    rng = np.random.default_rng(1212)
    for i in range(20):
        m, n = SHAPES[i % len(SHAPES)]
        c = random_cp_channel(rng, m, n, 1 + i % 3)
        src = tmp_path / f"src{i}.json"
        src.write_text(render_document(channel_doc(c, "choi", DEFAULT_TOL)))
        cur = src
        for target in ("superop", "kraus", "choi"):
            nxt = tmp_path / f"step{i}_{target}.json"
            code = main(["convert", str(cur), "--to", target, "--out", str(nxt)])
            assert code == 0
            cur = nxt
        back = parse_channel(json.loads(cur.read_text()), "back")
        assert close(c.choi_mat, back.choi_mat, 1e-10)
