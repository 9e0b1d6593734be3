import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choikit import algebra as alg
from choikit import bipartite as bp
from choikit import channel as ch
from choikit import matlin as ml
from choikit.errors import (
    ChoikitError,
    DimensionMismatch,
    NotCompletelyPositive,
    NotHermitian,
    NotTotallyEntangled,
    SingularMatrix,
)

from helpers import (
    crandn,
    diamond_by_reshuffle,
    forbidden,
    measurement_by_kron,
    ppt_by_both_spectra,
    pure_vector_by_spectrum,
    random_cp_channel,
    random_hermitian,
    random_unitary,
)

SHAPES = [(1, 3), (2, 2), (2, 3), (3, 2), (4, 4), (2, 8), (8, 3), (5, 7), (8, 8)]


def square_op(rng, n):
    return alg.StateSquare(
        n, bp.BipartiteOperator(bp.BipartiteShape(n, n), crandn(rng, n * n, n * n))
    )


def projector_state(a):
    """phi without the invertibility gate, for building test fixtures."""
    n = a.shape[0]
    v = np.asarray(a, dtype=complex).reshape(n * n)
    return alg.StateSquare(n, bp.BipartiteOperator(bp.BipartiteShape(n, n), np.outer(v, v.conj())))


class TestDiamond:
    def test_identity_element(self):
        rng = np.random.default_rng(1)
        e = alg.group_identity(2)
        x = square_op(rng, 2)
        assert np.allclose(alg.diamond(e, x).mat, x.mat)
        assert np.allclose(alg.diamond(x, e).mat, x.mat)

    def test_identity_is_bell_projector(self):
        beta = np.array([1.0, 0.0, 0.0, 1.0])
        assert np.array_equal(alg.group_identity(2).mat, np.outer(beta, beta))

    def test_associativity(self):
        rng = np.random.default_rng(3)
        a, b, c = (square_op(rng, 3) for _ in range(3))
        left = alg.diamond(alg.diamond(a, b), c)
        right = alg.diamond(a, alg.diamond(b, c))
        assert np.allclose(left.mat, right.mat, atol=1e-10)

    def test_pure_inputs_give_pure_output_with_composed_matrix_form(self):
        # (aa†) <> (bb†) = vv† with hat(v) = hat(a) hat(b)
        rng = np.random.default_rng(5)
        for _ in range(5):
            ahat, bhat = crandn(rng, 2, 2), crandn(rng, 2, 2)
            got = alg.diamond(projector_state(ahat), projector_state(bhat))
            v = (ahat @ bhat).reshape(4)
            assert np.allclose(got.mat, np.outer(v, v.conj()), atol=1e-12)

    def test_tensor_factor_rule(self):
        # (m1 (x) m2) <> (s1 (x) s2) = tr(m2^T s1) m1 (x) s2
        rng = np.random.default_rng(7)
        m1, m2, s1, s2 = (crandn(rng, 2, 2) for _ in range(4))
        left = alg.StateSquare(2, bp.BipartiteOperator(bp.BipartiteShape(2, 2), bp.kron(m1, m2)))
        right = alg.StateSquare(2, bp.BipartiteOperator(bp.BipartiteShape(2, 2), bp.kron(s1, s2)))
        got = alg.diamond(left, right)
        want = np.trace(m2.T @ s1) * bp.kron(m1, s2)
        assert np.allclose(got.mat, want, atol=1e-12)

    def test_matches_operation_composition(self):
        # folding operations to states turns composition into diamond
        rng = np.random.default_rng(9)
        c1 = random_cp_channel(rng, 2, 2, 2)
        c2 = random_cp_channel(rng, 2, 2, 2)
        d = alg.diamond(
            alg.StateSquare(2, c1.choi),
            alg.StateSquare(2, c2.choi),
        )
        assert np.allclose(d.mat, ch.compose(c1, c2).choi_mat, atol=1e-12)

    def test_dimension_check(self):
        rng = np.random.default_rng(11)
        with pytest.raises(DimensionMismatch):
            alg.diamond(square_op(rng, 2), square_op(rng, 3))

    def test_bytes_equal_the_reshuffle_product(self):
        rng = np.random.default_rng(12)
        for i in range(50):
            a, b = square_op(rng, 1 + i % 8), square_op(rng, 1 + i % 8)
            assert np.array_equal(alg.diamond(a, b).mat, diamond_by_reshuffle(a, b))


class TestGroup:
    def test_inverse_multiplies_to_identity(self):
        rng = np.random.default_rng(13)
        for n in (2, 3):
            a = crandn(rng, n, n)
            s = alg.phi_homomorphism(a)
            inv = alg.group_inverse(s)
            e = alg.group_identity(n)
            assert np.allclose(alg.diamond(s, inv).mat, e.mat, atol=1e-9)
            assert np.allclose(alg.diamond(inv, s).mat, e.mat, atol=1e-9)

    def test_inverse_is_projector_onto_inverse_matrix_form(self):
        rng = np.random.default_rng(15)
        for n in (2, 3):
            a = crandn(rng, n, n)
            inv = alg.group_inverse(alg.phi_homomorphism(a))
            v = np.linalg.inv(a).reshape(n * n)
            assert np.allclose(inv.mat, np.outer(v, v.conj()), atol=1e-10)

    def test_mixed_state_rejected(self):
        s = alg.StateSquare(2, bp.BipartiteOperator(bp.BipartiteShape(2, 2), np.eye(4)))
        with pytest.raises(NotTotallyEntangled):
            alg.group_inverse(s)

    def test_product_state_rejected(self):
        # rank-one but with singular matrix form
        e0 = np.zeros((2, 2))
        e0[0, 0] = 1.0
        with pytest.raises(NotTotallyEntangled):
            alg.group_inverse(projector_state(e0))

    def test_phi_is_a_morphism(self):
        rng = np.random.default_rng(17)
        a, b = crandn(rng, 3, 3), crandn(rng, 3, 3)
        lhs = alg.phi_homomorphism(a @ b).mat
        rhs = alg.diamond(alg.phi_homomorphism(a), alg.phi_homomorphism(b)).mat
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_phi_of_identity_is_group_identity(self):
        assert np.allclose(alg.phi_homomorphism(np.eye(3)).mat, alg.group_identity(3).mat)

    def test_phi_kills_global_phase(self):
        rng = np.random.default_rng(19)
        a = crandn(rng, 2, 2)
        assert np.allclose(
            alg.phi_homomorphism(np.exp(0.7j) * a).mat, alg.phi_homomorphism(a).mat
        )

    def test_phi_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            alg.phi_homomorphism(np.diag([1.0, 0.0]))

    def test_phi_rejects_rectangular(self):
        with pytest.raises(DimensionMismatch):
            alg.phi_homomorphism(np.ones((2, 3)))


class TestClassification:
    def test_bell_is_maximally_entangled(self):
        got = alg.classify_entanglement(bp.canonical_bell(2))
        assert got.kind is alg.EntanglementKind.MAXIMALLY_ENTANGLED
        assert got.schmidt_rank == 2

    def test_product_vector(self):
        v = bp.BipartiteVector(bp.BipartiteShape(2, 2), np.kron([1.0, 0.0], [1.0, 0.0]))
        got = alg.classify_entanglement(v)
        assert got.kind is alg.EntanglementKind.PRODUCT
        assert got.schmidt_rank == 1

    def test_generic_invertible_state_is_totally_entangled(self):
        rng = np.random.default_rng(21)
        a = crandn(rng, 2, 2)  # generic: invertible, unequal singular values
        v = bp.BipartiteVector(bp.BipartiteShape(2, 2), a.reshape(4))
        got = alg.classify_entanglement(v)
        assert got.kind is alg.EntanglementKind.TOTALLY_ENTANGLED
        assert got.schmidt_rank == 2

    def test_rectangular_full_rank_is_plain_entangled(self):
        rng = np.random.default_rng(23)
        v = bp.BipartiteVector(bp.BipartiteShape(3, 2), crandn(rng, 6))
        got = alg.classify_entanglement(v)
        assert got.kind is alg.EntanglementKind.ENTANGLED
        assert got.schmidt_rank == 2

    def test_rank_one_operator_classified_through_its_vector(self):
        beta = bp.canonical_bell(2)
        proj = bp.BipartiteOperator(beta.shape, np.outer(beta.data, beta.data.conj()))
        got = alg.classify_entanglement(proj)
        assert got.kind is alg.EntanglementKind.MAXIMALLY_ENTANGLED

    def test_rank_one_operator_needs_no_eigenvectors(self, monkeypatch):
        rng = np.random.default_rng(24)
        v = crandn(rng, 12)
        proj = bp.BipartiteOperator(bp.BipartiteShape(3, 4), np.outer(v, v.conj()))
        want = alg.classify_entanglement(bp.BipartiteVector(proj.shape, v))
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        got = alg.classify_entanglement(proj)
        assert got.kind is want.kind is alg.EntanglementKind.ENTANGLED
        assert np.allclose(got.coefficients, want.coefficients, rtol=1e-12)

    def test_mixed_operator(self):
        op = bp.BipartiteOperator(bp.BipartiteShape(2, 2), np.eye(4) / 4)
        got = alg.classify_entanglement(op)
        assert got.kind is alg.EntanglementKind.MIXED
        assert got.schmidt_rank is None

    def test_indefinite_operator_rejected(self):
        op = bp.BipartiteOperator(bp.BipartiteShape(2, 2), np.diag([1.0, -1.0, 0.0, 0.0]))
        with pytest.raises(NotCompletelyPositive):
            alg.classify_entanglement(op)


class TestRankOneCertificate:
    """``_pure_vector`` certifies rank one from the residual |s - u u†|_F;
    the eigenvalues decide only when it declines."""

    CASES = ["exact", "noise 0.1", "noise 0.5", "noise 2", "skew", "rank two", "negative", "zero", "abs floor"]

    @staticmethod
    def _state(rng, d, case):
        n = d * d
        v = crandn(rng, n)
        s = np.outer(v, v.conj())
        thr = ml.DEFAULT_TOL.threshold(np.linalg.norm(s))
        if case.startswith("noise"):
            e = random_hermitian(rng, n)
            s = s + e * (float(case.split()[1]) * thr / np.linalg.norm(e))
        elif case == "skew":
            # an anti-Hermitian part c*thr: the Hermiticity check fails for c > 1/2
            e = random_hermitian(rng, n)
            s = s + 1j * e * (rng.uniform(0.0, 1.5) * thr / np.linalg.norm(e))
        elif case == "rank two":
            w = crandn(rng, n)
            s = s + rng.uniform(1e-6, 1.0) * np.outer(w, w.conj())
        elif case == "negative":
            s = -rng.uniform(0.1, 10.0) * s
        elif case == "zero":
            s = np.zeros((n, n))
        elif case == "abs floor":
            # |s|_F near 1e-4: the threshold is the absolute floor 1e-12
            s = s * (1e-4 / np.linalg.norm(s))
            e = random_hermitian(rng, n)
            s = s + e * (rng.uniform(0.0, 2.0) * 1e-12 / np.linalg.norm(e))
        return bp.BipartiteOperator(bp.BipartiteShape(d, d), s)

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(d=st.integers(2, 8), case=st.sampled_from(CASES), seed=st.integers(0, 2**32 - 1))
    def test_certificate_and_spectrum_agree(self, d, case, seed):
        s = self._state(np.random.default_rng(seed), d, case)
        try:
            want = pure_vector_by_spectrum(s)
        except (ChoikitError, RuntimeWarning) as exc:
            # a negative multiple whose largest eigenvalue is rounding noise
            # above 0 reads u from a negative diagonal entry on both routes
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                alg._pure_vector(s, ml.DEFAULT_TOL)
            return
        psd, u = alg._pure_vector(s, ml.DEFAULT_TOL)
        assert psd == want[0]
        assert (u is None) == (want[1] is None)
        if u is not None:
            assert u.data.tobytes() == want[1].data.tobytes()
            assert not u.data.flags.writeable

    def test_exact_projector_takes_no_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(31)
        a = crandn(rng, 8, 8)
        s = projector_state(a)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        inv = alg.group_inverse(s)
        v = np.linalg.inv(a).reshape(64)
        assert np.allclose(inv.mat, np.outer(v, v.conj()), atol=1e-8 * np.vdot(v, v).real)
        assert alg.classify_entanglement(s.op).kind is alg.EntanglementKind.TOTALLY_ENTANGLED

    def test_rank_two_state_takes_one_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(32)
        v, w = crandn(rng, 64), crandn(rng, 64)
        op = bp.BipartiteOperator(bp.BipartiteShape(8, 8), np.outer(v, v.conj()) + np.outer(w, w.conj()))
        eigvalsh, calls = np.linalg.eigvalsh, []

        def counted(h):
            calls.append(h.shape)
            return eigvalsh(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert alg.classify_entanglement(op).kind is alg.EntanglementKind.MIXED
        assert calls == [(64, 64)]


class TestSchurProduct:
    def test_identity_choi_is_idempotent(self):
        c = ch.channel_from_choi(alg.group_identity(2).mat, bp.BipartiteShape(2, 2))
        got = alg.schur_product_channels(c, c)
        assert np.array_equal(got.choi_mat, c.choi_mat)

    def test_frozen_mixture(self):
        ident = ch.channel_from_choi(alg.group_identity(2).mat, bp.BipartiteShape(2, 2))
        depol = ch.channel_from_choi(np.eye(4) / 2, bp.BipartiteShape(2, 2))
        got = alg.schur_product_channels(ident, depol)
        assert np.allclose(got.choi_mat, np.diag([0.5, 0.0, 0.0, 0.5]))

    def test_preserves_complete_positivity(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            a = random_cp_channel(rng, 2, 2, 2)
            b = random_cp_channel(rng, 2, 2, 3)
            got = alg.schur_product_channels(a, b)
            ok, _ = ch.is_completely_positive(got)
            assert ok

    def test_equals_superoperator_hadamard(self):
        rng = np.random.default_rng(27)
        a = random_cp_channel(rng, 2, 3, 2)
        b = random_cp_channel(rng, 2, 3, 2)
        got = ch.superop_from_channel(alg.schur_product_channels(a, b))
        want = ch.superop_from_channel(a) * ch.superop_from_channel(b)
        assert np.allclose(got, want, atol=1e-14)

    def test_shape_check(self):
        rng = np.random.default_rng(29)
        with pytest.raises(DimensionMismatch):
            alg.schur_product_channels(
                random_cp_channel(rng, 2, 2, 1), random_cp_channel(rng, 3, 2, 1)
            )


class TestDualFunctional:
    def test_bell_projector_pairs_to_dimension_squared(self):
        e = alg.group_identity(2).op
        f = alg.dual_functional(e)
        assert np.isclose(f(e), 4.0)

    def test_linearity_and_conjugate_symmetry(self):
        rng = np.random.default_rng(31)
        e = bp.BipartiteOperator(bp.BipartiteShape(2, 2), crandn(rng, 4, 4))
        s = bp.BipartiteOperator(bp.BipartiteShape(2, 2), crandn(rng, 4, 4))
        t = bp.BipartiteOperator(bp.BipartiteShape(2, 2), crandn(rng, 4, 4))
        f = alg.dual_functional(e)
        z = 1.3 - 0.4j
        assert np.isclose(f(z * s.mat + t.mat), z * f(s) + f(t))
        assert np.isclose(alg.dual_functional(s)(e), np.conj(f(s)))

    def test_matches_basiswise_pairing_of_operations(self):
        # tr(e† s) = sum over matrix units of tr(E(b)† F(b))
        rng = np.random.default_rng(33)
        e = bp.BipartiteOperator(bp.BipartiteShape(2, 2), crandn(rng, 4, 4))
        s = bp.BipartiteOperator(bp.BipartiteShape(2, 2), crandn(rng, 4, 4))
        ce = ch.Channel(e)
        cs = ch.Channel(s)
        total = 0.0 + 0.0j
        for j in range(2):
            for l in range(2):
                unit = np.zeros((2, 2))
                unit[j, l] = 1.0
                total += np.vdot(ch.apply(ce, unit), ch.apply(cs, unit))
        assert np.isclose(alg.dual_functional(e)(s), total)

    def test_dimension_check(self):
        e = alg.group_identity(2).op
        with pytest.raises(DimensionMismatch):
            alg.dual_functional(e)(np.eye(9))


class TestPptTest:
    def test_bell_projector_is_npt(self):
        s = bp.BipartiteOperator(bp.BipartiteShape(2, 2), alg.group_identity(2).mat / 2.0)
        got = alg.ppt_test(s)
        assert not got.is_ppt
        assert np.isclose(got.min_eigenvalue, -0.5, atol=1e-12)

    def test_product_state_is_ppt(self):
        rng = np.random.default_rng(35)
        a, b = crandn(rng, 2), crandn(rng, 2)
        v = np.kron(a, b)
        v /= np.linalg.norm(v)
        s = bp.BipartiteOperator(bp.BipartiteShape(2, 2), np.outer(v, v.conj()))
        got = alg.ppt_test(s)
        assert got.is_ppt
        assert got.min_eigenvalue > -1e-12

    def test_isotropic_family_threshold(self):
        # p * bell/2 + (1-p) * id/4 stays PPT up to p = 1/3
        bell = alg.group_identity(2).mat / 2.0
        for p, expect_ppt, expect_min in [(0.2, True, 0.1), (0.5, False, -0.125)]:
            s = bp.BipartiteOperator(
                bp.BipartiteShape(2, 2), p * bell + (1 - p) * np.eye(4) / 4.0
            )
            got = alg.ppt_test(s)
            assert got.is_ppt == expect_ppt
            assert np.isclose(got.min_eigenvalue, expect_min, atol=1e-12)

    def test_sides_agree_with_direct_spectra(self):
        rng = np.random.default_rng(37)
        a = crandn(rng, 6, 6)
        s = bp.BipartiteOperator(bp.BipartiteShape(3, 2), a @ a.conj().T)
        got = alg.ppt_test(s)
        w1 = np.linalg.eigvalsh(bp.partial_transpose_1(s).mat).min()
        w2 = np.linalg.eigvalsh(bp.partial_transpose_2(s).mat).min()
        assert np.isclose(got.min_eigenvalue, min(w1, w2), atol=1e-12)
        assert got.side in ("first", "second")

    def test_needs_hermitian(self):
        rng = np.random.default_rng(39)
        s = bp.BipartiteOperator(bp.BipartiteShape(2, 2), crandn(rng, 4, 4))
        with pytest.raises(NotHermitian):
            alg.ppt_test(s)

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_matches_two_spectrum_reference(self, m, n):
        # random Hermitian operators, then the same moved up the identity
        # far enough that some are PPT and some sit near the edge
        rng = np.random.default_rng(1000 + 10 * m + n)
        for shift in (0.0, 0.5, 1.0, 2.0):
            h = random_hermitian(rng, m * n)
            s = bp.BipartiteOperator(
                bp.BipartiteShape(m, n), h + shift * np.linalg.norm(h, 2) * np.eye(m * n)
            )
            got, want = alg.ppt_test(s), ppt_by_both_spectra(s)
            assert (got.is_ppt, got.side) == (want.is_ppt, want.side)
            scale = np.linalg.norm(s.mat)
            assert abs(got.min_eigenvalue - want.min_eigenvalue) <= 1e-12 * scale

    def test_takes_one_spectrum_without_eigenvectors(self, monkeypatch):
        rng = np.random.default_rng(40)
        s = bp.BipartiteOperator(bp.BipartiteShape(3, 4), random_hermitian(rng, 12))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        alg.ppt_test(s)
        assert calls == [(12, 12)]


class TestStateAsMeasurement:
    def test_identity_block_reproduces_conjugated_effect(self):
        rng = np.random.default_rng(41)
        s = bp.BipartiteOperator(bp.BipartiteShape(2, 2), alg.group_identity(2).mat)
        m_op = crandn(rng, 2, 2)
        got = alg.state_as_measurement(s, m_op)
        assert np.allclose(got, (m_op.conj().T @ m_op).T, atol=1e-12)

    def test_matches_operation_on_conjugated_effect(self):
        # tr_2((id (x) m) s (id (x) m†)) = F((m† m)^T) for the operation
        # F with block matrix s, including non-Hermitian s
        rng = np.random.default_rng(43)
        for m, n in [(2, 2), (3, 2)]:
            s = bp.BipartiteOperator(bp.BipartiteShape(m, n), crandn(rng, m * n, m * n))
            m_op = crandn(rng, n, n)
            c = ch.Channel(s)
            got = alg.state_as_measurement(s, m_op)
            want = ch.apply(c, (m_op.conj().T @ m_op).T)
            assert np.allclose(got, want, atol=1e-12)

    def test_dimension_check(self):
        s = bp.BipartiteOperator(bp.BipartiteShape(2, 2), np.eye(4))
        with pytest.raises(DimensionMismatch):
            alg.state_as_measurement(s, np.eye(3))

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_matches_kron_reference(self, m, n):
        rng = np.random.default_rng(2000 + 10 * m + n)
        for mat in (random_hermitian(rng, m * n), crandn(rng, m * n, m * n)):
            s = bp.BipartiteOperator(bp.BipartiteShape(m, n), mat)
            m_op = crandn(rng, n, n)
            want = measurement_by_kron(s, m_op)
            got = alg.state_as_measurement(s, m_op)
            assert got.shape == (m, m)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.linalg.norm(want))

    def test_forms_no_kronecker_product(self, monkeypatch):
        rng = np.random.default_rng(45)
        s = bp.BipartiteOperator(bp.BipartiteShape(4, 3), random_hermitian(rng, 12))
        m_op = crandn(rng, 3, 3)
        want = measurement_by_kron(s, m_op)
        monkeypatch.setattr(bp, "kron", forbidden)
        monkeypatch.setattr(np, "kron", forbidden)
        assert np.allclose(alg.state_as_measurement(s, m_op), want, atol=1e-12)
