import numpy as np
import pytest

from choikit import bipartite as bp
from choikit.errors import DimensionMismatch

from helpers import crandn


def random_vec(rng, m, n):
    return bp.BipartiteVector(bp.BipartiteShape(m, n), crandn(rng, m * n))


def random_op(rng, m, n):
    return bp.BipartiteOperator(bp.BipartiteShape(m, n), crandn(rng, m * n, m * n))


class TestShapesAndContainers:
    def test_shape_dim(self):
        assert bp.BipartiteShape(3, 2).dim == 6

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            bp.BipartiteShape(0, 2)

    def test_vector_accepts_column(self):
        v = bp.BipartiteVector(bp.BipartiteShape(2, 2), np.arange(4.0)[:, None])
        assert v.data.shape == (4,)

    def test_vector_length_checked(self):
        with pytest.raises(DimensionMismatch):
            bp.BipartiteVector(bp.BipartiteShape(2, 2), np.arange(3.0))

    def test_operator_size_checked(self):
        with pytest.raises(DimensionMismatch):
            bp.BipartiteOperator(bp.BipartiteShape(2, 2), np.eye(3))

    def test_containers_hold_read_only_copies(self):
        shape = bp.BipartiteShape(2, 2)
        mat = np.eye(4, dtype=complex)
        data = np.arange(4, dtype=complex)
        op = bp.BipartiteOperator(shape, mat)
        v = bp.BipartiteVector(shape, data)
        mat[0, 0] = 7.0
        data[0] = 7.0
        assert op.mat[0, 0] == 1.0 and v.data[0] == 0.0
        assert mat.flags.writeable and data.flags.writeable
        with pytest.raises(ValueError):
            op.mat[0, 0] = 2.0
        with pytest.raises(ValueError):
            v.data[0] = 2.0

    @pytest.mark.parametrize("make", [random_vec, random_op])
    def test_equality_compares_shape_and_entries(self, make):
        a = make(np.random.default_rng(3), 2, 3)
        assert a == make(np.random.default_rng(3), 2, 3)
        assert a != make(np.random.default_rng(4), 2, 3)
        assert a != make(np.random.default_rng(3), 3, 2)  # same entries, other cut
        assert a != a.shape and a != None  # noqa: E711


class TestHatUnhat:
    def test_hat_rowmajor_layout(self):
        v = bp.BipartiteVector(bp.BipartiteShape(2, 3), np.arange(1.0, 7.0))
        assert np.array_equal(bp.hat(v), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_unhat_inverts(self):
        rng = np.random.default_rng(2)
        v = random_vec(rng, 3, 4)
        assert np.array_equal(bp.unhat(bp.hat(v), v.shape).data, v.data)

    def test_hat_of_kron_is_outer(self):
        rng = np.random.default_rng(4)
        x, y = crandn(rng, 3), crandn(rng, 2)
        v = bp.BipartiteVector(bp.BipartiteShape(3, 2), bp.kron(x[:, None], y[:, None]).reshape(-1))
        assert np.allclose(bp.hat(v), np.outer(x, y))

    def test_check_is_transposed_hat(self):
        rng = np.random.default_rng(6)
        v = random_vec(rng, 2, 3)
        assert np.array_equal(bp.check(v), bp.hat(v).T)

    def test_inner_product_equals_matrix_form_pairing(self):
        # <a|b> = tr(hat(a)† hat(b)), so folding preserves the geometry
        rng = np.random.default_rng(8)
        a, b = random_vec(rng, 3, 2), random_vec(rng, 3, 2)
        assert np.isclose(np.vdot(a.data, b.data), np.trace(bp.hat(a).conj().T @ bp.hat(b)))


class TestCanonicalBell:
    def test_matrix_form_is_identity(self):
        for n in (1, 2, 3, 5):
            beta = bp.canonical_bell(n)
            assert np.array_equal(bp.hat(beta), np.eye(n))
            assert np.vdot(beta.data, beta.data).real == n

    def test_explicit_components(self):
        assert np.array_equal(bp.canonical_bell(2).data, [1, 0, 0, 1])


class TestReshuffle:
    def test_against_index_loops(self):
        # oracle: S[(i,k),(j,l)] = s[(i,j),(k,l)] written out entry by entry
        rng = np.random.default_rng(10)
        for m, n in [(2, 2), (3, 2), (2, 4)]:
            s = random_op(rng, m, n)
            got = bp.reshuffle_hat(s)
            assert got.shape == (m * m, n * n)
            for i in range(m):
                for k in range(m):
                    for j in range(n):
                        for l in range(n):
                            assert got[i * m + k, j * n + l] == s.mat[i * n + j, k * n + l]

    def test_counting_matrix_fixed_positions(self):
        s = bp.BipartiteOperator(bp.BipartiteShape(2, 2), np.arange(16.0).reshape(4, 4))
        expected = np.empty((4, 4))
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    for l in range(2):
                        expected[i * 2 + k, j * 2 + l] = 4 * (2 * i + j) + 2 * k + l
        assert np.array_equal(bp.reshuffle_hat(s), expected)

    def test_unreshuffle_inverts_both_ways(self):
        rng = np.random.default_rng(12)
        s = random_op(rng, 3, 2)
        assert np.array_equal(bp.unreshuffle_hat(bp.reshuffle_hat(s), s.shape).mat, s.mat)
        flat = crandn(rng, 9, 4)
        assert np.array_equal(
            bp.reshuffle_hat(bp.unreshuffle_hat(flat, bp.BipartiteShape(3, 2))), flat
        )

    def test_reshuffle_is_an_isometry(self):
        rng = np.random.default_rng(14)
        s = random_op(rng, 2, 3)
        assert np.isclose(np.linalg.norm(bp.reshuffle_hat(s)), np.linalg.norm(s.mat))

    def test_check_variant_is_transpose(self):
        rng = np.random.default_rng(16)
        s = random_op(rng, 2, 3)
        assert np.array_equal(bp.reshuffle_check(s), bp.reshuffle_hat(s).T)

    def test_operator_reassembles_from_checked_columns(self):
        # s = sum_ik unit(i,k) (x) fold(column (i,k) of the check reshuffle)
        rng = np.random.default_rng(18)
        for m, n in [(2, 2), (2, 3)]:
            s = random_op(rng, m, n)
            checked = bp.reshuffle_check(s)
            total = np.zeros_like(s.mat)
            for i in range(m):
                for k in range(m):
                    unit = np.zeros((m, m))
                    unit[i, k] = 1.0
                    block = checked[:, i * m + k].reshape(n, n)
                    total += bp.kron(unit, block)
            assert np.allclose(total, s.mat)


class TestPartialTrace:
    def test_on_kron_products(self):
        rng = np.random.default_rng(20)
        a, b = crandn(rng, 3, 3), crandn(rng, 2, 2)
        s = bp.BipartiteOperator(bp.BipartiteShape(3, 2), bp.kron(a, b))
        assert np.allclose(bp.partial_trace_1(s), np.trace(a) * b)
        assert np.allclose(bp.partial_trace_2(s), np.trace(b) * a)

    def test_against_index_loops(self):
        rng = np.random.default_rng(22)
        m, n = 3, 2
        s = random_op(rng, m, n)
        t1 = np.zeros((n, n), dtype=complex)
        t2 = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(n):
                for k in range(m):
                    for l in range(n):
                        e = s.mat[i * n + j, k * n + l]
                        if i == k:
                            t1[j, l] += e
                        if j == l:
                            t2[i, k] += e
        assert np.allclose(bp.partial_trace_1(s), t1)
        assert np.allclose(bp.partial_trace_2(s), t2)

    def test_traces_compose_to_full_trace(self):
        rng = np.random.default_rng(24)
        s = random_op(rng, 2, 3)
        assert np.isclose(np.trace(bp.partial_trace_1(s)), np.trace(s.mat))
        assert np.isclose(np.trace(bp.partial_trace_2(s)), np.trace(s.mat))

    def test_reduction_of_outer_products(self):
        # tr_1(ab†) = (hat(b)† hat(a))^T and tr_2(ab†) = hat(a) hat(b)†
        rng = np.random.default_rng(26)
        a = random_vec(rng, 3, 2)
        b = random_vec(rng, 3, 2)
        outer = bp.BipartiteOperator(a.shape, np.outer(a.data, b.data.conj()))
        assert np.allclose(bp.partial_trace_1(outer), (bp.hat(b).conj().T @ bp.hat(a)).T)
        assert np.allclose(bp.partial_trace_2(outer), bp.hat(a) @ bp.hat(b).conj().T)


class TestPartialTranspose:
    def test_on_kron_products(self):
        rng = np.random.default_rng(28)
        a, b = crandn(rng, 2, 2), crandn(rng, 3, 3)
        s = bp.BipartiteOperator(bp.BipartiteShape(2, 3), bp.kron(a, b))
        assert np.allclose(bp.partial_transpose_1(s).mat, bp.kron(a.T, b))
        assert np.allclose(bp.partial_transpose_2(s).mat, bp.kron(a, b.T))

    def test_explicit_four_by_four(self):
        s = bp.BipartiteOperator(bp.BipartiteShape(2, 2), np.arange(16.0).reshape(4, 4))
        expected_pt2 = np.array(
            [
                [0.0, 4.0, 2.0, 6.0],
                [1.0, 5.0, 3.0, 7.0],
                [8.0, 12.0, 10.0, 14.0],
                [9.0, 13.0, 11.0, 15.0],
            ]
        )
        assert np.array_equal(bp.partial_transpose_2(s).mat, expected_pt2)

    def test_involution_and_transpose_relation(self):
        rng = np.random.default_rng(30)
        s = random_op(rng, 2, 3)
        assert np.array_equal(bp.partial_transpose_1(bp.partial_transpose_1(s)).mat, s.mat)
        assert np.array_equal(bp.partial_transpose_2(bp.partial_transpose_2(s)).mat, s.mat)
        assert np.array_equal(bp.partial_transpose_1(s).mat, bp.partial_transpose_2(s).mat.T)
        # composing both partial transposes gives the full transpose
        both = bp.partial_transpose_1(bp.partial_transpose_2(s))
        assert np.array_equal(both.mat, s.mat.T)


class TestFoldingIdentities:
    def test_vector_from_matrix_form_and_bell(self):
        # v = (hat(v) (x) id_n) beta_n
        rng = np.random.default_rng(32)
        for m, n in [(2, 2), (3, 2), (2, 4)]:
            v = random_vec(rng, m, n)
            beta = bp.canonical_bell(n)
            rebuilt = bp.kron(bp.hat(v), np.eye(n)) @ beta.data
            assert np.allclose(rebuilt, v.data)

    def test_matrix_form_from_vector_and_bell(self):
        # hat(v) = (id_m (x) beta†)(v (x) id_n)
        rng = np.random.default_rng(34)
        for m, n in [(2, 2), (3, 2)]:
            v = random_vec(rng, m, n)
            beta = bp.canonical_bell(n)
            left = bp.kron(np.eye(m), beta.data.conj()[None, :])
            right = bp.kron(v.data[:, None], np.eye(n))
            assert np.allclose(left @ right, bp.hat(v))

    def test_frobenius_pairing_survives_reshuffle(self):
        # tr(e† s) equals the superoperator-level Frobenius pairing,
        # summed over matrix-unit inputs.
        rng = np.random.default_rng(36)
        m, n = 2, 3
        e, s = random_op(rng, m, n), random_op(rng, m, n)
        se, ss = bp.reshuffle_hat(e), bp.reshuffle_hat(s)
        total = 0.0 + 0.0j
        for j in range(n):
            for l in range(n):
                col = j * n + l
                total += np.vdot(se[:, col], ss[:, col])
        assert np.isclose(np.vdot(e.mat, s.mat), total)
