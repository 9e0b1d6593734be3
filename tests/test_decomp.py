import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choikit import bipartite as bp
from choikit import channel as ch
from choikit import decomp
from choikit import matlin as ml
from choikit.errors import DifferentChannels, DimensionMismatch, NumericalFailure

from helpers import (
    char_poly_eigvals,
    crandn,
    forbidden,
    kraus_apply,
    multiset_distance,
    random_isometry,
    random_kraus,
    random_tp_kraus,
    random_unitary,
)


def random_vec(rng, m, n):
    return bp.BipartiteVector(bp.BipartiteShape(m, n), crandn(rng, m * n))


class TestSchmidt:
    def test_bell_vector(self):
        f = decomp.schmidt(bp.canonical_bell(2))
        assert f.rank == 2
        assert np.allclose(f.coefficients, [1.0, 1.0])

    def test_product_vector_has_rank_one(self):
        rng = np.random.default_rng(2)
        x, y = crandn(rng, 3), crandn(rng, 2)
        v = bp.BipartiteVector(bp.BipartiteShape(3, 2), np.kron(x, y))
        f = decomp.schmidt(v)
        assert f.rank == 1
        assert np.isclose(f.coefficients[0], np.linalg.norm(x) * np.linalg.norm(y))

    def test_reconstruction_and_orthonormal_bases(self):
        rng = np.random.default_rng(4)
        for m, n in [(2, 2), (3, 2), (2, 4)]:
            v = random_vec(rng, m, n)
            f = decomp.schmidt(v)
            assert np.allclose(f.reconstruct().data, v.data, atol=1e-12)
            assert np.allclose(
                f.left_basis.conj().T @ f.left_basis, np.eye(f.rank), atol=1e-12
            )
            assert np.allclose(
                f.right_basis.conj().T @ f.right_basis, np.eye(f.rank), atol=1e-12
            )
            assert np.all(f.coefficients > 0)
            assert np.all(np.diff(f.coefficients) <= 0)

    def test_squared_coefficients_are_reduced_spectra(self):
        rng = np.random.default_rng(6)
        v = random_vec(rng, 3, 3)
        f = decomp.schmidt(v)
        proj = bp.BipartiteOperator(v.shape, np.outer(v.data, v.data.conj()))
        for reduced in (bp.partial_trace_1(proj), bp.partial_trace_2(proj)):
            top = np.sort(np.linalg.eigvalsh(reduced))[::-1][: f.rank]
            assert np.allclose(f.coefficients**2, top, atol=1e-10)


class TestPolarOfPureChannel:
    def test_factorizations(self):
        rng = np.random.default_rng(8)
        for m, n in [(2, 2), (4, 2), (3, 3)]:
            v = random_vec(rng, m, n)
            u, j, k = decomp.polar_of_pure_channel(v)
            a = bp.hat(v)
            assert np.allclose(u @ j, a, atol=1e-11)
            assert np.allclose(k @ u, a, atol=1e-11)
            assert np.allclose(u.conj().T @ u, np.eye(n), atol=1e-12)

    def test_rank_deficient_input(self):
        rng = np.random.default_rng(10)
        x, y = crandn(rng, 3), crandn(rng, 3)
        v = bp.BipartiteVector(bp.BipartiteShape(3, 3), np.kron(x, y))
        u, j, k = decomp.polar_of_pure_channel(v)
        assert np.allclose(u @ j, bp.hat(v), atol=1e-11)

    def test_wide_shape_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(DimensionMismatch):
            decomp.polar_of_pure_channel(random_vec(rng, 2, 3))

    def test_forms_no_projector(self, monkeypatch):
        rng = np.random.default_rng(13)
        v = random_vec(rng, 4, 3)
        monkeypatch.setattr(np, "outer", forbidden)
        u, j, k = decomp.polar_of_pure_channel(v)
        assert np.allclose(u @ j, bp.hat(v), atol=1e-11)

    def test_reduced_states_catch_a_wrong_polar_factor(self, monkeypatch):
        # a rotated isometry still has orthonormal columns, but its j and k
        # are no longer the square roots of the reduced states
        rng = np.random.default_rng(15)
        v = random_vec(rng, 3, 3)
        polar = ml.polar
        monkeypatch.setattr(ml, "polar", lambda a: polar(a) @ random_unitary(rng, 3))
        with pytest.raises(NumericalFailure):
            decomp.polar_of_pure_channel(v)


class TestTriangularForms:
    def test_one_sided_reconstruction(self):
        rng = np.random.default_rng(14)
        for m, n in [(2, 2), (4, 3)]:
            v = random_vec(rng, m, n)
            f = decomp.one_sided_triangular(v)
            assert f.basis_right is None
            assert np.allclose(f.reconstruct(), bp.hat(v), atol=1e-12)
            d = np.diagonal(f.coefficients)
            assert np.all(np.abs(d.imag) < 1e-12) and np.all(d.real >= -1e-14)
            assert np.allclose(f.coefficients, np.triu(f.coefficients), atol=1e-14)

    def test_two_sided_reconstruction_and_eigenvalues(self):
        rng = np.random.default_rng(16)
        v = random_vec(rng, 3, 3)
        f = decomp.two_sided_triangular(v)
        assert np.allclose(f.reconstruct(), bp.hat(v), atol=1e-11)
        assert f.basis_right is f.basis_left
        diag = np.diagonal(f.coefficients)
        assert multiset_distance(diag, char_poly_eigvals(bp.hat(v))) < 1e-8

    def test_two_sided_needs_square(self):
        rng = np.random.default_rng(18)
        with pytest.raises(DimensionMismatch):
            decomp.two_sided_triangular(random_vec(rng, 3, 2))


class TestDilation:
    def test_gram_and_stacking(self):
        rng = np.random.default_rng(20)
        k = random_kraus(rng, 3, 2, 4)
        d = decomp.dilate(k)
        assert d.ancilla_dim == 4
        assert d.matrix.shape == (12, 2)
        assert np.allclose(d.gram, sum(a.conj().T @ a for a in k.ops), atol=1e-13)
        for x in range(4):
            assert np.array_equal(d.matrix[3 * x : 3 * x + 3], k.ops[x])

    def test_trace_preserving_family_dilates_to_isometry(self):
        rng = np.random.default_rng(22)
        k = random_tp_kraus(rng, 2, 3, 2)
        d = decomp.dilate(k)
        assert np.allclose(d.gram, np.eye(3), atol=1e-12)
        assert np.allclose(d.matrix.conj().T @ d.matrix, np.eye(3), atol=1e-12)

    def test_traced_action_equals_kraus_action(self):
        rng = np.random.default_rng(24)
        k = random_kraus(rng, 2, 2, 3)
        d = decomp.dilate(k)
        rho = crandn(rng, 2, 2)
        assert np.allclose(d.act(rho), kraus_apply(k.ops, rho), atol=1e-13)


class TestFindKrausIsometry:
    def test_recovers_square_unitary(self):
        rng = np.random.default_rng(26)
        k = random_kraus(rng, 2, 2, 3)
        u = random_isometry(rng, 3, 3)
        mixed = ch.KrausSet(
            k.shape, tuple(sum(u[x, y] * k.ops[y] for y in range(3)) for x in range(3))
        )
        rel = decomp.find_kraus_isometry(mixed, k)
        assert rel.direction == "a_from_b"
        assert np.allclose(rel.matrix, u, atol=1e-10)

    def test_expresses_larger_family_from_smaller(self):
        rng = np.random.default_rng(28)
        k = random_kraus(rng, 2, 2, 2)
        u = random_isometry(rng, 4, 2)
        big = ch.KrausSet(
            k.shape, tuple(sum(u[x, y] * k.ops[y] for y in range(2)) for x in range(4))
        )
        rel = decomp.find_kraus_isometry(big, k)
        assert rel.direction == "a_from_b"
        assert rel.matrix.shape == (4, 2)
        assert np.allclose(rel.matrix.conj().T @ rel.matrix, np.eye(2), atol=1e-10)
        got = [sum(rel.matrix[x, y] * k.ops[y] for y in range(2)) for x in range(4)]
        assert max(np.linalg.norm(g - b) for g, b in zip(got, big.ops)) < 1e-10

    def test_swapped_arguments_report_direction(self):
        rng = np.random.default_rng(30)
        k = random_kraus(rng, 2, 2, 2)
        u = random_isometry(rng, 4, 2)
        big = ch.KrausSet(
            k.shape, tuple(sum(u[x, y] * k.ops[y] for y in range(2)) for x in range(4))
        )
        rel = decomp.find_kraus_isometry(k, big)
        assert rel.direction == "b_from_a"
        assert rel.matrix.shape == (4, 2)

    def test_degenerate_family_still_gets_isometry(self):
        # the smaller family is linearly dependent, so the naive linear
        # solve is not isometric and the completion path must run
        rng = np.random.default_rng(32)
        k = random_kraus(rng, 2, 2, 2)
        w = random_isometry(rng, 3, 2)
        dep = ch.KrausSet(
            k.shape, tuple(sum(w[x, y] * k.ops[y] for y in range(2)) for x in range(3))
        )
        u = random_isometry(rng, 4, 3)
        big = ch.KrausSet(
            k.shape, tuple(sum(u[x, y] * dep.ops[y] for y in range(3)) for x in range(4))
        )
        rel = decomp.find_kraus_isometry(big, dep)
        assert rel.matrix.shape == (4, 3)
        assert np.allclose(rel.matrix.conj().T @ rel.matrix, np.eye(3), atol=1e-10)
        got = [sum(rel.matrix[x, y] * dep.ops[y] for y in range(3)) for x in range(4)]
        assert max(np.linalg.norm(g - b) for g, b in zip(got, big.ops)) < 1e-10

    def test_rejects_different_channels(self):
        rng = np.random.default_rng(34)
        a = random_kraus(rng, 2, 2, 2)
        b = random_kraus(rng, 2, 2, 2)
        with pytest.raises(DifferentChannels):
            decomp.find_kraus_isometry(a, b)

    def test_rejects_mismatched_operator_sizes(self):
        rng = np.random.default_rng(36)
        with pytest.raises(DimensionMismatch):
            decomp.find_kraus_isometry(random_kraus(rng, 2, 2, 2), random_kraus(rng, 3, 2, 2))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 4),
    r=st.integers(1, 16),
    member=st.sampled_from([None, "dependent", "zero"]),
    exponent=st.integers(-8, 8),
    extra=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixing_isometry_reproduces_the_larger_family(m, n, r, member, exponent, extra, seed):
    rng = np.random.default_rng(seed)
    r = min(r, m * n)
    ops = list(random_kraus(rng, m, n, r).ops)
    if member == "dependent" and r > 1:
        ops[-1] = sum(crandn(rng) * op for op in ops[:-1])
    elif member == "zero":
        ops[-1] = np.zeros((m, n))
    small = ch.KrausSet(bp.BipartiteShape(m, n), tuple(10.0**exponent * op for op in ops))
    u = random_isometry(rng, r + extra, r)
    big = ch.KrausSet(small.shape, tuple(np.einsum("xy,yij->xij", u, np.array(small.ops))))
    for a, b in ((big, small), (small, big)):
        rel = decomp.find_kraus_isometry(a, b)
        larger, smaller = (a, b) if rel.direction == "a_from_b" else (b, a)
        assert len(larger) == r + extra
        q = len(smaller)
        assert rel.matrix.shape == (r + extra, q)
        assert np.allclose(rel.matrix.conj().T @ rel.matrix, np.eye(q), rtol=0.0, atol=1e-10)
        got = np.einsum("xy,yij->xij", rel.matrix, np.array(smaller.ops))
        scale = np.linalg.norm(np.array(larger.ops))
        assert np.linalg.norm(got - np.array(larger.ops)) <= 1e-10 * scale
