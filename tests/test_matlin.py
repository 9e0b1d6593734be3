import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choikit import matlin as ml
from choikit.errors import (
    DimensionMismatch,
    InvalidValue,
    NotCompletelyPositive,
    NotHermitian,
    NumericalFailure,
)

from helpers import (
    char_poly_eigvals,
    crandn,
    forbidden,
    jordan_block,
    multiset_distance,
    random_hermitian,
    random_unitary,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]])


class TestTolerance:
    def test_threshold_is_max_of_abs_and_scaled_rel(self):
        tol = ml.Tolerance(abs=1e-12, rel=1e-9)
        assert tol.threshold(0.0) == 1e-12
        assert tol.threshold(1.0) == 1e-9
        assert tol.threshold(1e6) == 1e-3

    def test_defaults(self):
        assert ml.DEFAULT_TOL.abs == 1e-12
        assert ml.DEFAULT_TOL.rel == 1e-9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ml.Tolerance(abs=-1.0)

    @pytest.mark.parametrize("kwargs", [{"abs": math.inf}, {"rel": math.inf}, {"abs": math.nan}, {"rel": math.nan}])
    def test_nonfinite_rejected(self, kwargs):
        # abs=inf would let every comparison pass; rel=nan acted as rel=0
        with pytest.raises(InvalidValue):
            ml.Tolerance(**kwargs)

    @pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan, np.float64(np.inf)])
    def test_threshold_at_nonfinite_scale_is_a_numerical_failure(self, scale):
        with pytest.raises(NumericalFailure):
            ml.DEFAULT_TOL.threshold(scale)


class TestElementary:
    def test_frobenius_inner_of_x_with_itself(self):
        assert ml.frobenius_inner(X, X) == 2.0

    def test_frobenius_inner_conjugate_linear_first_slot(self):
        rng = np.random.default_rng(3)
        a, b = crandn(rng, 3, 3), crandn(rng, 3, 3)
        z = 0.3 - 1.7j
        assert np.isclose(ml.frobenius_inner(z * a, b), np.conj(z) * ml.frobenius_inner(a, b))
        assert np.isclose(ml.frobenius_inner(a, z * b), z * ml.frobenius_inner(a, b))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ml.as_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_invalid_value_is_both_a_choikit_error_and_a_value_error(self):
        with pytest.raises(InvalidValue) as err:
            ml.as_matrix(np.array([[np.inf]]))
        assert isinstance(err.value, ValueError)


class TestHermitianEig:
    def test_pauli_x_spectrum(self):
        w, v = ml.hermitian_eig(X)
        assert np.allclose(w, [1.0, -1.0])
        s = 2**-0.5
        assert np.allclose(v[:, 0], [s, s])
        assert np.allclose(v[:, 1], [s, -s])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            ml.hermitian_eig(JORDAN)

    def test_descending_order_and_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = crandn(rng, 4, 4)
            h = (a + a.conj().T) / 2
            w, v = ml.hermitian_eig(h)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-12)
            assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)

    def test_eigenvalues_match_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = crandn(rng, 4, 4)
            h = (a + a.conj().T) / 2
            w, _ = ml.hermitian_eig(h)
            assert multiset_distance(w, char_poly_eigvals(h)) < 1e-8

    def test_values_alone_match_the_eigensystem(self):
        rng = np.random.default_rng(12)
        for d in (1, 3, 8):
            h = random_hermitian(rng, d)
            w = ml.hermitian_eigvals(h)
            assert np.all(np.diff(w) <= 0.0)
            assert np.allclose(w, ml.hermitian_eig(h)[0], rtol=0.0, atol=1e-12 * np.linalg.norm(h))
            assert multiset_distance(w, char_poly_eigvals(h)) < 1e-8
        with pytest.raises(NotHermitian):
            ml.hermitian_eigvals(JORDAN)
        with pytest.raises(DimensionMismatch):
            ml.hermitian_eigvals(np.ones((2, 3)))

    def test_phase_fix_leading_component_real_nonnegative(self):
        rng = np.random.default_rng(13)
        a = crandn(rng, 5, 5)
        _, v = ml.hermitian_eig((a + a.conj().T) / 2)
        for c in range(5):
            col = v[:, c]
            lead = col[np.flatnonzero(np.abs(col) > np.abs(col).max() * 1e-8)[0]]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_phase_fix_matches_column_loop_bytes(self):
        # the reference: one column at a time, as the golden files were made
        def by_columns(u):
            u = np.array(u, dtype=complex)
            for c in range(u.shape[1]):
                mags = np.abs(u[:, c])
                if mags.max() > 0.0:
                    lead = np.flatnonzero(mags > mags.max() * 1e-8)[0]
                    u[:, c] = u[:, c] * (mags[lead] / u[lead, c])
            return u

        rng = np.random.default_rng(23)
        for n in range(1, 40):
            _, v = np.linalg.eigh(random_hermitian(rng, n))
            a = crandn(rng, n, 3)
            a[:, 0] = 0.0
            for u in (v, np.asfortranarray(v), a):
                fixed, factors = ml._fix_column_phases(u)
                assert fixed.tobytes() == by_columns(u).tobytes()
                assert np.allclose(fixed, u * factors, rtol=0.0, atol=1e-14)


class TestSvd:
    def test_single_offdiagonal_unit(self):
        u, s, w = ml.svd(JORDAN)
        assert np.allclose(s, [1.0])
        assert np.allclose(u, [[1.0], [0.0]])
        assert np.allclose(w, [[0.0], [1.0]])

    def test_rank_truncation(self):
        u, s, w = ml.svd(np.diag([1.0, 1e-15]))
        assert s.shape == (1,)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(17)
        for shape in [(3, 3), (4, 2), (2, 4)]:
            a = crandn(rng, *shape)
            u, s, w = ml.svd(a)
            assert np.allclose(u @ np.diag(s) @ w.conj().T, a, atol=1e-12)
            assert np.allclose(u.conj().T @ u, np.eye(s.size), atol=1e-12)
            assert np.allclose(w.conj().T @ w, np.eye(s.size), atol=1e-12)
            assert np.all(np.diff(s) <= 0)

    def test_singular_values_are_absolute_eigenvalues_for_hermitian(self):
        rng = np.random.default_rng(19)
        a = crandn(rng, 4, 4)
        h = (a + a.conj().T) / 2
        _, s, _ = ml.svd(h)
        w, _ = ml.hermitian_eig(h)
        assert np.allclose(np.sort(s), np.sort(np.abs(w)), atol=1e-12)


class TestQr:
    def test_column_vector_gets_positive_diagonal(self):
        q, r = ml.qr(np.array([[0.0], [1.0]]))
        assert np.allclose(q, [[0.0], [1.0]])
        assert np.allclose(r, [[1.0]])

    def test_identity_fixed_point(self):
        q, r = ml.qr(np.eye(2))
        assert np.allclose(q, np.eye(2))
        assert np.allclose(r, np.eye(2))

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionMismatch):
            ml.qr(np.ones((2, 3)))

    def test_random_factorization(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = crandn(rng, 5, 3)
            q, r = ml.qr(a)
            assert np.allclose(q @ r, a, atol=1e-12)
            assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
            assert np.allclose(r, np.triu(r), atol=1e-14)
            d = np.diagonal(r)
            assert np.all(np.abs(d.imag) < 1e-12) and np.all(d.real >= -1e-14)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=12,
            max_size=12,
        )
    )
    @example([0.0] * 11 + [2.225073858507e-311])  # a subnormal diagonal entry of R
    def test_qr_reconstructs_arbitrary_real_input(self, entries):
        a = np.array(entries).reshape(4, 3)
        q, r = ml.qr(a)
        assert np.linalg.norm(q @ r - a) <= 1e-10 * max(1.0, np.linalg.norm(a))


class TestSchur:
    def test_already_triangular_is_fixed(self):
        u, t = ml.schur(JORDAN)
        assert np.allclose(u, np.eye(2))
        assert np.allclose(t, JORDAN)

    def test_diagonal_is_fixed(self):
        u, t = ml.schur(np.diag([1.0, 2.0]))
        assert np.allclose(t, np.diag([1.0, 2.0]))
        assert np.allclose(u, np.eye(2))

    def test_random_triangularization(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = crandn(rng, 4, 4)
            u, t = ml.schur(a)
            assert np.allclose(u @ t @ u.conj().T, a, atol=1e-11)
            assert np.allclose(t, np.triu(t), atol=1e-11)
            assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_diagonal_carries_eigenvalues(self):
        rng = np.random.default_rng(31)
        a = crandn(rng, 4, 4)
        _, t = ml.schur(a)
        assert multiset_distance(np.diagonal(t), char_poly_eigvals(a)) < 1e-8


def _schur_cases():
    """``(id, a, eigenvalues well conditioned)`` for sizes 1 to 64."""
    rng = np.random.default_rng(43)
    for n in (1, 2, 3, 4, 8, 16, 32, 64):
        u = random_unitary(rng, n)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        z = crandn(rng, n, n)
        yield f"jordan-{n}", jordan_block(n), False
        yield f"shifted-jordan-{n}", jordan_block(n, 1 - 2j), False
        yield f"rotated-jordan-{n}", u @ jordan_block(n, 0.5) @ u.conj().T, False
        yield f"nilpotent-{n}", u @ np.outer(x, y - x * (y @ x) / (x @ x)) @ u.conj().T, False
        if n % 2 == 0:
            yield f"jordan-2x2-blocks-{n}", u @ np.kron(np.eye(n // 2), jordan_block(2, 1.0)) @ u.conj().T, False
        yield f"graded-rows-{n}", 10.0 ** -np.arange(n)[:, np.newaxis] * z, False
        yield f"permutation-{n}", np.eye(n)[rng.permutation(n)], True
        yield f"rank-one-{n}", np.outer(x, y), True
        yield f"zero-{n}", np.zeros((n, n)), True
        yield f"identity-{n}", np.eye(n), True
        yield f"real-{n}", rng.standard_normal((n, n)), True
        yield f"times-1e+300-{n}", 1e300 * z, True
        yield f"times-1e-300-{n}", -1e-300 * z, True


SCHUR_CASES = {name: (a, conditioned) for name, a, conditioned in _schur_cases()}


class TestSchurProperties:
    @pytest.mark.parametrize("name", SCHUR_CASES)
    def test_unitary_triangular_and_backward_stable(self, name):
        a, conditioned = SCHUR_CASES[name]
        n = a.shape[0]
        u, t = ml.schur(a)
        # compared at unit scale, where the 2**e scaling is exact and no
        # product overflows or goes subnormal
        e = -int(np.frexp(np.abs(a).max())[1])
        a_s, t_s = (np.ldexp(x.real, e) + 1j * np.ldexp(x.imag, e) for x in (a + 0j, t))
        bound = 16 * n * np.finfo(float).eps
        assert not np.tril(t, -1).any()
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= bound
        assert np.linalg.norm(u @ t_s @ u.conj().T - a_s) <= bound * np.linalg.norm(a_s)
        if conditioned:
            assert multiset_distance(np.diagonal(t_s), np.linalg.eigvals(a_s)) <= 1e-12 * max(1.0, n)

    def test_random_input_takes_one_eig_and_no_deflation(self, monkeypatch):
        eig, calls = np.linalg.eig, []
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
        monkeypatch.setattr(ml, "_schur_by_deflation", forbidden)
        rng = np.random.default_rng(47)
        for n in (2, 4, 8, 16):
            calls.clear()
            ml.schur(crandn(rng, n, n))
            assert calls == [(n, n)]

    def test_rotated_jordan_block_takes_the_deflation(self, monkeypatch):
        # the smallest Jordan block that falls back: at n <= 3 the common
        # path's lower part stays within its bound
        eig, calls = np.linalg.eig, []
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
        u = random_unitary(np.random.default_rng(53), 4)
        ml.schur(u @ jordan_block(4, 0.5) @ u.conj().T)
        assert calls == [(4, 4), (4, 4), (3, 3), (2, 2)]


class TestPolar:
    def test_two_sided_factorization(self):
        # a = u j = k u with u an isometry, j = u† a and k = a u† positive
        rng = np.random.default_rng(37)
        for shape in [(3, 3), (5, 2)]:
            a = crandn(rng, *shape)
            u = ml.polar(a)
            assert np.allclose(u.conj().T @ u, np.eye(shape[1]), atol=1e-12)
            j, k = u.conj().T @ a, a @ u.conj().T
            assert np.allclose(u @ j, a, atol=1e-11)
            assert np.allclose(k @ u, a, atol=1e-11)
            for h in (j, k):
                assert np.allclose(h, h.conj().T, atol=1e-12)
                assert np.min(np.linalg.eigvalsh(h)) > -1e-12

    def test_right_part_is_sqrt_of_gram(self):
        rng = np.random.default_rng(41)
        a = crandn(rng, 4, 3)
        j = ml.polar(a).conj().T @ a
        assert np.allclose(j @ j, a.conj().T @ a, atol=1e-11)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionMismatch):
            ml.polar(np.ones((2, 3)))


class TestSqrtPsd:
    def test_diagonal(self):
        assert np.allclose(ml.sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_squares_back(self):
        rng = np.random.default_rng(43)
        a = crandn(rng, 4, 4)
        p = a @ a.conj().T
        s = ml.sqrt_psd(p)
        assert np.allclose(s @ s, p, atol=1e-10)

    def test_indefinite_rejected(self):
        with pytest.raises(NotCompletelyPositive):
            ml.sqrt_psd(np.diag([1.0, -1e-3]))


class TestRank:
    def test_numeric_rank_scales_with_two_norm(self):
        # the threshold is taken at the 2-norm of the values, not the largest one:
        # here |values|_2 = 2 puts it at 2e-9, above the last entry
        assert ml.numeric_rank(np.array([1.0, 1.0, 1.0, 1.0, 1.5e-9])) == 4
        assert ml.numeric_rank(np.array([1.0, 1e-15])) == 1
        assert ml.numeric_rank(np.array([1.0, 1e-6])) == 2
        # rescaling does not change the count while above the absolute floor
        assert ml.numeric_rank(np.array([1e-3, 1e-18])) == 1
        # but everything below the absolute floor is zero
        assert ml.numeric_rank(np.array([1e-20, 1e-35])) == 0
        assert ml.numeric_rank(np.array([])) == 0

    def test_matrix_rank_counts_singular_values(self):
        rng = np.random.default_rng(11)
        a = crandn(rng, 5, 2) @ crandn(rng, 2, 4)
        assert ml.matrix_rank(a) == 2
        assert ml.matrix_rank(a) == ml.numeric_rank(np.linalg.svd(a, compute_uv=False))
        assert ml.matrix_rank(np.zeros((3, 3))) == 0

    def test_nearly_equal_uses_relative_scale(self):
        big = 1e6 * np.eye(2)
        assert ml.nearly_equal(big, big + 1e-4)
        assert not ml.nearly_equal(np.eye(2), np.eye(2) + 1e-4)
