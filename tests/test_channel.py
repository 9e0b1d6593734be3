import tracemalloc
import weakref
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choikit import algebra as alg
from choikit import bipartite as bp
from choikit import channel as ch
from choikit import matlin as ml
from choikit.errors import (
    DimensionMismatch,
    InvalidValue,
    NotCompletelyPositive,
    NotHermitian,
    NotTracePreserving,
)

from helpers import (
    assert_same_search,
    crandn,
    extremal_by_superop_gram,
    forbidden,
    kraus_apply,
    random_channel,
    random_cp_channel,
    random_hermitian,
    random_isometry,
    random_kraus,
    random_tp_channel,
    random_tp_kraus,
    random_unitary,
    superop_by_probing,
    unscreened_search,
)

S2 = bp.BipartiteShape(2, 2)
SWAP = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def transpose_channel():
    return ch.channel_from_choi(SWAP, S2)


def bell_projector(n):
    beta = bp.canonical_bell(n).data
    return np.outer(beta, beta.conj())


def boundary_choi(rotated=True):
    """d = 8 block matrix with one eigenvalue inside the negative tolerance
    band, -5e-10, and the rest 1/8: diagonal, or in a random basis."""
    d = 8
    w = np.full(d * d, 1.0 / d)
    w[-1] = -5e-10
    if not rotated:
        return np.diag(w).astype(complex)
    u = random_unitary(np.random.default_rng(0), d * d)
    return (u * w) @ u.conj().T


def identity_minus_a_direction(rng, d):
    """``I/d - 2 v v†`` with v the vec of a random signed permutation, so
    |v|^2 = d: Hermitian preserving, not CP, full rank, and one eigenvalue
    away from the rest."""
    perm = np.zeros((d, d))
    perm[np.arange(d), rng.permutation(d)] = rng.choice((-1.0, 1.0), size=d)
    v = perm.reshape(-1)
    return ch.channel_from_choi(np.eye(d * d) / d - 2.0 * np.outer(v, v), bp.BipartiteShape(d, d))


class TestConstructionAndConversion:
    def test_identity_kraus_gives_bell_projector(self):
        c = ch.channel_from_kraus(ch.KrausSet(S2, (np.eye(2),)))
        assert np.array_equal(c.choi_mat, bell_projector(2))
        assert np.allclose(ch.superop_from_channel(c), np.eye(4))

    def test_dephasing_choi_is_diagonal(self):
        s = 2**-0.5
        k = ch.KrausSet(S2, (s * np.eye(2), s * np.diag([1.0, -1.0])))
        c = ch.channel_from_kraus(k)
        assert np.allclose(c.choi_mat, np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_uniform_unit_kraus_give_half_identity_choi(self):
        s = 2**-0.5
        units = []
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2))
                e[i, j] = 1.0
                units.append(s * e)
        c = ch.channel_from_kraus(ch.KrausSet(S2, tuple(units)))
        assert np.allclose(c.choi_mat, np.eye(4) / 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            ch.channel_from_choi(np.eye(4), bp.BipartiteShape(3, 2))

    def test_superop_matches_probing_oracle(self):
        rng = np.random.default_rng(1)
        for m, n in [(2, 2), (3, 2), (2, 3)]:
            c = random_channel(rng, m, n)
            assert np.array_equal(ch.superop_from_channel(c), superop_by_probing(c))

    def test_superop_is_kron_sum_of_kraus(self):
        rng = np.random.default_rng(3)
        k = random_kraus(rng, 3, 2, 2)
        c = ch.channel_from_kraus(k)
        expected = sum(np.kron(a, a.conj()) for a in k.ops)
        assert np.allclose(ch.superop_from_channel(c), expected, atol=1e-14)

    def test_superop_round_trip(self):
        rng = np.random.default_rng(5)
        c = random_channel(rng, 3, 2)
        back = ch.channel_from_superop(ch.superop_from_channel(c), c.shape)
        assert np.array_equal(back.choi_mat, c.choi_mat)

    def test_kraus_extraction_reconstructs_and_is_minimal(self):
        rng = np.random.default_rng(7)
        for count in (1, 2, 4):
            c = random_cp_channel(rng, 2, 3, count)
            k = ch.kraus_from_channel(c)
            assert len(k) == ch.higher_rank(c)
            assert np.allclose(ch.channel_from_kraus(k).choi_mat, c.choi_mat, atol=1e-12)
            # eigensystem families are orthogonal in the Frobenius pairing
            for x in range(len(k)):
                for y in range(x + 1, len(k)):
                    assert abs(np.vdot(k.ops[x], k.ops[y])) < 1e-12

    def test_kraus_extraction_rejects_swap(self):
        with pytest.raises(NotCompletelyPositive) as err:
            ch.kraus_from_channel(transpose_channel())
        w = err.value.witness
        assert w is not None
        target = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        assert np.isclose(abs(np.vdot(w.data, target)), 1.0, atol=1e-12)

    def test_empty_kraus_family_rejected(self):
        with pytest.raises(ValueError):
            ch.KrausSet(S2, ())


class TestApply:
    def test_transpose_channel_transposes(self):
        t = transpose_channel()
        rho = np.array([[1.0, 2.0 + 1j], [5.0, 3.0]])
        assert np.array_equal(ch.apply(t, rho), rho.T)

    def test_matches_direct_kraus_action(self):
        rng = np.random.default_rng(9)
        k = random_kraus(rng, 3, 2, 3)
        c = ch.channel_from_kraus(k)
        rho = crandn(rng, 2, 2)
        assert np.allclose(ch.apply(c, rho), kraus_apply(k.ops, rho), atol=1e-12)

    def test_measure_and_reset_sends_identity_to_scaled_projector(self):
        e00 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        c = ch.channel_from_kraus(ch.KrausSet(S2, (e00, e01)))
        assert np.array_equal(ch.apply(c, np.eye(2)), 2.0 * e00)

    def test_input_size_checked(self):
        with pytest.raises(DimensionMismatch):
            ch.apply(transpose_channel(), np.eye(3))


class TestSandwichIdentity:
    def test_holds_for_random_data(self):
        rng = np.random.default_rng(11)
        for m, n in [(2, 2), (3, 2)]:
            c = random_channel(rng, m, n)
            kappa, tau = crandn(rng, m, m), crandn(rng, m, m)
            rho, sigma = crandn(rng, n, n), crandn(rng, n, n)
            assert ch.sandwich_identity_check(c, kappa, rho, sigma, tau)

    def test_trace_pairing_special_case(self):
        # tr(kappa F(rho)) = tr((kappa (x) rho^T) s)
        rng = np.random.default_rng(13)
        c = random_channel(rng, 2, 3)
        kappa, rho = crandn(rng, 2, 2), crandn(rng, 3, 3)
        lhs = np.trace(kappa @ ch.apply(c, rho))
        rhs = np.trace(bp.kron(kappa, rho.T) @ c.choi_mat)
        assert np.isclose(lhs, rhs)

    def test_rejects_wrong_factor_size(self):
        c = transpose_channel()
        with pytest.raises(DimensionMismatch):
            ch.sandwich_identity_check(c, np.eye(3), np.eye(2), np.eye(2), np.eye(2))


class TestExtendWithIdentity:
    def test_trivial_extension_is_identity_map(self):
        rng = np.random.default_rng(15)
        c = random_channel(rng, 2, 3)
        assert np.array_equal(ch.extend_with_identity(c, 1).choi_mat, c.choi_mat)

    def test_acts_as_tensor_with_identity(self):
        rng = np.random.default_rng(17)
        c = random_cp_channel(rng, 2, 2, 2)
        big = ch.extend_with_identity(c, 3)
        rho, sigma = crandn(rng, 2, 2), crandn(rng, 3, 3)
        got = ch.apply(big, bp.kron(rho, sigma))
        want = bp.kron(ch.apply(c, rho), sigma)
        assert np.allclose(got, want, atol=1e-12)

    def test_identity_channel_extends_to_identity_channel(self):
        c = ch.channel_from_kraus(ch.KrausSet(S2, (np.eye(2),)))
        big = ch.extend_with_identity(c, 3)
        assert np.allclose(ch.superop_from_channel(big), np.eye(36))

    def test_swap_choi_extension_reveals_nonpositivity(self):
        # the partial transpose trick: id (x) T applied to the bell
        # projector has a negative eigenvalue
        t = transpose_channel()
        big = ch.extend_with_identity(t, 2)
        out = ch.apply(big, bell_projector(2))
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() < -0.4


class TestPredicates:
    def test_hermitian_preserving_iff_hermitian_block(self):
        rng = np.random.default_rng(19)
        h = crandn(rng, 4, 4)
        herm = ch.channel_from_choi((h + h.conj().T) / 2, S2)
        assert ch.is_hermitian_preserving(herm)
        assert not ch.is_hermitian_preserving(ch.channel_from_choi(h, S2))
        rho = crandn(rng, 2, 2)
        rho = rho + rho.conj().T
        out = ch.apply(herm, rho)
        assert np.allclose(out, out.conj().T, atol=1e-12)

    def test_cp_verdicts(self):
        rng = np.random.default_rng(21)
        ok, wit = ch.is_completely_positive(random_cp_channel(rng, 2, 2, 3))
        assert ok and wit is None
        ok, wit = ch.is_completely_positive(transpose_channel())
        assert not ok and wit is not None
        # the witness really exhibits the negative direction
        val = (wit.data.conj() @ SWAP @ wit.data).real
        assert val < -0.9

    def test_non_hermitian_is_not_cp_and_has_no_witness(self):
        rng = np.random.default_rng(23)
        ok, wit = ch.is_completely_positive(random_channel(rng, 2, 2))
        assert not ok and wit is None

    def test_positivity_search_clears_transpose(self):
        verdict = ch.check_positive_preserving(transpose_channel(), samples=3000, seed=0)
        assert verdict.outcome == "NoViolationFound"
        assert verdict.min_value > -1e-12
        assert verdict.witness_psi is None and verdict.witness_phi is None
        assert verdict.samples_used == 3000

    def test_positivity_search_finds_violation_with_valid_witness(self):
        c = ch.channel_from_choi(-bell_projector(2), S2)
        verdict = ch.check_positive_preserving(c, samples=200, seed=1)
        assert verdict.outcome == "NotPositive"
        psi, phi = verdict.witness_psi, verdict.witness_phi
        val = (phi.conj() @ ch.apply(c, np.outer(psi, psi.conj())) @ phi).real
        assert val < 0
        assert verdict.min_value <= val

    def test_positivity_search_is_deterministic(self):
        a = ch.check_positive_preserving(transpose_channel(), samples=500, seed=7)
        b = ch.check_positive_preserving(transpose_channel(), samples=500, seed=7)
        assert a.min_value == b.min_value

    def test_sample_count_is_bounded(self):
        for samples in (0, ch.MAX_SAMPLES + 1, 10**20):
            with pytest.raises(InvalidValue, match="samples"):
                ch.check_positive_preserving(transpose_channel(), samples=samples)


def _one_batch_values(c, samples, seed):
    """The positivity search's values with every pair in one batch, as the
    golden files were made: the byte reference for the chunked search."""
    m, n = c.shape.m, c.shape.n
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    phi = rng.standard_normal((samples, m)) + 1j * rng.standard_normal((samples, m))
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    proj = (psi[:, :, None] * psi.conj()[:, None, :]).reshape(samples, n * n)
    outs = (proj @ ch.superop_from_channel(c).T).reshape(samples, m, m)
    vals = np.einsum("sp,spq,sq->s", phi.conj(), outs, phi).real
    return vals, psi, phi


def _assert_search_equals_one_batch(c, tols, samples, seed):
    """Outcome, minimum and witnesses of the search, byte for byte those
    of :func:`_one_batch_values`, at each tolerance in ``tols``."""
    vals, psi, phi = _one_batch_values(c, samples, seed)
    for tol in tols:
        v = ch.check_positive_preserving(c, tol, samples=samples, seed=seed)
        bad = np.flatnonzero(vals < -tol.threshold(np.linalg.norm(c.choi_mat)))
        assert v.outcome == ("NotPositive" if bad.size else "NoViolationFound")
        assert np.float64(v.min_value).tobytes() == vals.min().tobytes()
        if bad.size:
            assert v.witness_psi.tobytes() == psi[bad[0]].tobytes()
            assert v.witness_phi.tobytes() == phi[bad[0]].tobytes()
        else:
            assert v.witness_psi is None and v.witness_phi is None


def _search_peak(c, samples):
    """Peak traced allocation of one positivity search, its draws included."""
    ch._held_draws = None
    tracemalloc.start()
    try:
        ch.check_positive_preserving(c, samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedPositivitySearch:
    D16 = bp.BipartiteShape(16, 16)

    @pytest.mark.parametrize(
        "m, n", [(2, 2), (3, 3), (16, 16), (2, 3), (4, 13), (2, 14), (8, 15), (13, 13)]
    )
    @pytest.mark.parametrize("samples", [1, 2, 1023, 1024, 1025, 1026, 1030, 2049, 2050])
    def test_bytes_equal_one_batch(self, monkeypatch, m, n, samples):
        rng = np.random.default_rng(m * n)
        c = ch.channel_from_choi(random_hermitian(rng, m * n), bp.BipartiteShape(m, n))
        vals = _one_batch_values(c, samples, seed=5)[0]
        low = np.sort(vals)[:2]
        # a threshold that only the smallest value violates puts the
        # witness anywhere in the draws, not just in the first chunk
        only_min = ml.Tolerance(abs=max((-low[0] + max(-low[-1], 0.0)) / 2, 0.0), rel=0.0)
        _assert_search_equals_one_batch(c, (ml.DEFAULT_TOL, only_min), samples, seed=5)
        # every value, not only the reported ones: with threaded BLAS a
        # short chunk's rows can round differently without being the minimum
        evaluated = []
        exact = ch._exact_values

        def recorded(st, psi, phi):
            evaluated.append(exact(st, psi, phi))
            return evaluated[-1]

        monkeypatch.setattr(ch, "_exact_values", recorded)
        ch.check_positive_preserving(c, samples=samples, seed=5)
        assert np.concatenate(evaluated).tobytes() == vals.tobytes()

    def test_memory_grows_only_with_the_draws(self):
        c = ch.channel_from_choi(random_hermitian(np.random.default_rng(2), 256), self.D16)
        ch.check_positive_preserving(c, samples=2)  # first-call set-up is not measured
        extra_draws = (8192 - 2048) * (16 + 16) * np.dtype(complex).itemsize
        # one-batch evaluation grows by about 17 times the extra draws
        assert _search_peak(c, 8192) - _search_peak(c, 2048) <= 2 * extra_draws

    def test_screen_keeps_the_memory_bound(self):
        kraus = random_tp_channel(np.random.default_rng(2), 16, 16, 4)
        choi = ch.channel_from_choi(kraus.choi_mat, self.D16)
        full = ch.channel_from_choi(random_hermitian(np.random.default_rng(2), 256), self.D16)
        for c in (kraus, choi, full):  # the spectra are taken here, not measured
            ch.check_positive_preserving(c, samples=2)
        extra_draws = (8192 - 2048) * (16 + 16) * np.dtype(complex).itemsize
        assert _search_peak(kraus, 8192) - _search_peak(kraus, 2048) <= 2 * extra_draws
        unscreened = _search_peak(full, 8192)
        # beyond the unscreened search's peak, only a few floats per pair
        assert _search_peak(kraus, 8192) <= unscreened + 3 * 8192 * 8
        # and at most the one (mn)^2 buffer of the remainder E
        assert _search_peak(choi, 8192) <= unscreened + 256**2 * np.dtype(complex).itemsize


class TestScreenedPositivitySearch:
    """Every channel whose spectrum is c*I plus at most mn/4 directions is
    screened through that spectrum, in Kraus and in Choi form alike; the
    reported numbers stay those of the unscreened search."""

    TOLS = (ml.DEFAULT_TOL, ml.Tolerance(abs=0.0, rel=0.0))  # the second flags any value < 0

    @pytest.fixture
    def rows(self, monkeypatch):
        rows = []
        exact = ch._exact_values

        def counted(st, psi, phi):
            rows.append(psi.shape[0])
            return exact(st, psi, phi)

        monkeypatch.setattr(ch, "_exact_values", counted)
        return rows

    def test_exact_rows_only_near_the_minimum(self, rows):
        kraus = random_cp_channel(np.random.default_rng(9), 16, 16, 2)
        ch.check_positive_preserving(kraus, samples=10000)
        # one pair near the minimum, so one chunk of 1000 goes through the
        # superoperator, and the same one for the same matrix in Choi form
        assert rows == [1000]
        rows.clear()
        ch.check_positive_preserving(ch.channel_from_choi(kraus.choi_mat, kraus.shape), samples=10000)
        assert rows == [1000]

    def test_one_candidate_keeps_its_bytes(self, rows):
        # one pair near the minimum, in the second of three chunks of 683 rows
        kraus = random_cp_channel(np.random.default_rng(1), 16, 16, 2)
        _assert_search_equals_one_batch(kraus, self.TOLS, samples=2049, seed=3)
        assert rows == [683, 683]

    def test_full_rank_family_is_not_screened(self, rows):
        paulis = ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
        c = ch.channel_from_kraus(ch.KrausSet(S2, tuple(np.array(p) / 2 for p in paulis)))
        # s = I/2 has no direction apart from the shift: the screen is the
        # constant 1/2, so every pair is a possible minimiser
        _assert_search_equals_one_batch(c, self.TOLS, samples=3000, seed=1)
        assert sum(rows) == 2 * 3000

    def test_identity_minus_a_direction_takes_at_most_two_chunks(self, rows):
        c = identity_minus_a_direction(np.random.default_rng(3), 16)
        v = ch.check_positive_preserving(c, samples=10000)
        # the first chunk holds the first certain violation, and the one
        # holding the minimum of the screen is the only other kept
        assert v.outcome == "NotPositive"
        assert len(rows) <= 2 and set(rows) == {1000}
        assert_same_search(v, unscreened_search(c))

    @pytest.mark.parametrize("rotated", [False, True])
    def test_boundary_matrix_takes_one_chunk(self, rows, rotated):
        c = ch.channel_from_choi(boundary_choi(rotated), bp.BipartiteShape(8, 8))
        v = ch.check_positive_preserving(c, samples=10000)
        assert rows == [1000]
        assert_same_search(v, unscreened_search(c))

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_full_spread_matrix_is_not_screened(self, rows, monkeypatch, hermitian):
        rng = np.random.default_rng(6)
        mat = random_hermitian(rng, 64) if hermitian else crandn(rng, 64, 64)
        c = ch.channel_from_choi(mat, bp.BipartiteShape(8, 8))
        monkeypatch.setattr(ch, "_screen_values", forbidden)
        v = ch.check_positive_preserving(c, samples=10000)
        assert sum(rows) == 10000
        assert_same_search(v, unscreened_search(c))

    @pytest.mark.parametrize("r", [32, 48, 63])
    @pytest.mark.parametrize("equal", [False, True])
    def test_wide_kraus_family_is_not_screened(self, rows, monkeypatch, r, equal):
        # mn/2 <= r < mn: the factor's spectrum has r < mn vectors, so the
        # shift is 0, even where the median eigenvalue is the members' weight
        rng = np.random.default_rng(r)
        if equal:
            iso = random_isometry(rng, 64, r) / np.sqrt(r)
            c = ch.channel_from_kraus(ch.KrausSet(bp.BipartiteShape(8, 8), tuple(iso.T.reshape(r, 8, 8))))
        else:
            c = random_cp_channel(rng, 8, 8, r)
        assert c.factor is not None
        monkeypatch.setattr(ch, "_screen_values", forbidden)
        v = ch.check_positive_preserving(c, samples=10000)
        assert sum(rows) == 10000
        assert_same_search(v, unscreened_search(c))

    def test_screen_only_when_four_r_fits_in_mn(self, rows, monkeypatch):
        rng = np.random.default_rng(4)
        narrow, wide = random_cp_channel(rng, 8, 8, 16), random_cp_channel(rng, 8, 8, 32)
        ch.check_positive_preserving(narrow, samples=10000)
        assert rows == [1000]
        rows.clear()
        monkeypatch.setattr(ch, "_screen_values", forbidden)
        ch.check_positive_preserving(wide, samples=10000)
        assert sum(rows) == 10000


class TestHeldDraws:
    """The search's pairs depend on (seed, samples, n, m) alone, and the last
    set drawn is kept for the next call with the same four."""

    def test_interleaved_calls_equal_fresh_draws(self, monkeypatch):
        rng = np.random.default_rng(12)
        d16 = bp.BipartiteShape(16, 16)
        kraus16 = random_cp_channel(rng, 16, 16, 3)
        calls = [
            (ch.channel_from_choi(random_hermitian(rng, 256), d16), 2000, 1),
            (kraus16, 2000, 1),
            (ch.channel_from_choi(kraus16.choi_mat, d16), 2000, 1),
            (kraus16, 1500, 1),
            (kraus16, 1500, 2),
            (ch.channel_from_choi(random_hermitian(rng, 64), bp.BipartiteShape(8, 8)), 1500, 2),
            (ch.channel_from_choi(random_hermitian(rng, 6), bp.BipartiteShape(2, 3)), 1500, 2),
            (ch.channel_from_choi(random_hermitian(rng, 256), d16), 2000, 1),
        ]
        fresh = []
        for c, samples, seed in calls:
            ch._held_draws = None
            fresh.append(ch.check_positive_preserving(c, samples=samples, seed=seed))
        assert any(v.outcome == "NotPositive" for v in fresh)
        drawn = []
        default_rng = np.random.default_rng

        def counted(seed):
            drawn.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        ch._held_draws = None
        for (c, samples, seed), want in zip(calls, fresh):
            assert ch.check_positive_preserving(c, samples=samples, seed=seed) == want
        # the second and third calls, of another channel each, draw nothing
        assert drawn == [1, 1, 2, 2, 2, 1]

    def test_held_draws_are_read_only_and_never_returned(self):
        c = ch.channel_from_choi(-bell_projector(2), S2)
        v = ch.check_positive_preserving(c, samples=200, seed=1)
        _, psi, phi = ch._held_draws
        assert not psi.flags.writeable and not phi.flags.writeable
        assert v.outcome == "NotPositive"
        assert not np.shares_memory(v.witness_psi, psi)
        assert not np.shares_memory(v.witness_phi, phi)

    def test_old_set_is_dropped_before_the_next_is_drawn(self, monkeypatch):
        c = transpose_channel()
        ch.check_positive_preserving(c, samples=100, seed=0)
        old = weakref.ref(ch._held_draws[1])
        alive = []
        default_rng = np.random.default_rng

        def spied(seed):
            alive.append(old() is not None)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spied)
        ch.check_positive_preserving(c, samples=100, seed=1)
        assert alive == [False]


@settings(derandomize=True, deadline=None, max_examples=24, database=None)
@given(
    m=st.integers(2, 16),
    n=st.integers(2, 16),
    r=st.integers(1, 4),
    tp=st.booleans(),
    samples=st.sampled_from([1, 2, 1025, 2049, 10000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_screened_search_equals_one_batch(m, n, r, tp, samples, seed):
    rng = np.random.default_rng(seed)
    r = min(r, m * n - 1)
    kraus = random_tp_kraus(rng, m, n, r) if tp and r * m >= n else random_kraus(rng, m, n, r)
    c = ch.channel_from_kraus(kraus)
    _assert_search_equals_one_batch(c, TestScreenedPositivitySearch.TOLS, samples, seed % 1000)


@settings(derandomize=True, deadline=None, max_examples=48, database=None)
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    directions=st.integers(0, 16),
    shift=st.sampled_from(["zero", "one over mn", "random"]),
    noise=st.sampled_from([0.0, 0.5, 2.0, "1e-6"]),
    samples=st.sampled_from([1, 7, 1000, 1025, 2049, 3001]),
    seed=st.integers(0, 2**32 - 1),
)
def test_screened_search_equals_the_unscreened_one(m, n, directions, shift, noise, samples, seed):
    # s = c*I + a few signed directions + Hermitian noise, in Choi form
    rng = np.random.default_rng(seed)
    dim = m * n
    k = min(directions, dim // 4)
    u = random_isometry(rng, dim, k) if k else np.zeros((dim, 0))
    c0 = {"zero": 0.0, "one over mn": 1.0 / dim, "random": rng.uniform(-1.0, 1.0) / dim}[shift]
    s = c0 * np.eye(dim) + (u * rng.standard_normal(k) / dim) @ u.conj().T
    s = (s + s.conj().T) / 2
    scale = np.linalg.norm(s)
    level = 1e-6 * scale if noise == "1e-6" else noise * ml.DEFAULT_TOL.threshold(scale)
    if level:
        h = random_hermitian(rng, dim)
        s = s + level * h / np.linalg.norm(h)
    c = ch.channel_from_choi(s, bp.BipartiteShape(m, n))
    seed %= 1000
    tols = [ml.DEFAULT_TOL, ml.Tolerance(abs=0.0, rel=0.0)]
    low = unscreened_search(c, samples=samples, seed=seed).min_value
    if low < 0:  # a threshold that about half the violations cross
        tols.append(ml.Tolerance(abs=-low / 2, rel=0.0))
    for tol in tols:
        with mock.patch.object(ch, "_screen_values", wraps=ch._screen_values) as screen:
            got = ch.check_positive_preserving(c, tol, samples=samples, seed=seed)
        assert_same_search(got, unscreened_search(c, tol, samples=samples, seed=seed))
        if tol is ml.DEFAULT_TOL and noise in (0.0, 0.5):
            # every eigenvalue of the noisy c*I stays within thr of c
            assert screen.called


@pytest.mark.slow
@pytest.mark.parametrize("form", ["rank-4 Choi", "identity minus a direction"])
def test_screened_search_at_d32_equals_the_unscreened_one(form):
    rng = np.random.default_rng(32)
    if form == "rank-4 Choi":
        c = ch.channel_from_choi(random_tp_channel(rng, 32, 32, 4).choi_mat, bp.BipartiteShape(32, 32))
    else:
        c = identity_minus_a_direction(rng, 32)
    with mock.patch.object(ch, "_exact_values", wraps=ch._exact_values) as exact:
        got = ch.check_positive_preserving(c)
    assert exact.call_count <= 2  # of 10 chunks
    assert_same_search(got, unscreened_search(c))


class TestTracePreservation:
    def test_six_conditions_unanimous_true_on_tp(self):
        rng = np.random.default_rng(25)
        for m, n in [(2, 2), (3, 2)]:
            c = random_tp_channel(rng, m, n, 2)
            cond = ch.six_tp_conditions(c)
            assert astuple(cond) == (True,) * 6
            assert cond.unanimous()
            assert ch.is_trace_preserving(c)

    def test_six_conditions_unanimous_false_off_tp(self):
        rng = np.random.default_rng(27)
        c = random_cp_channel(rng, 2, 2, 2)  # generic, not TP
        cond = ch.six_tp_conditions(c)
        assert astuple(cond) == (False,) * 6
        assert cond.unanimous()
        assert not ch.is_trace_preserving(c)

    def test_kraus_conditions_skipped_off_cp(self):
        cond = ch.six_tp_conditions(transpose_channel())
        assert cond.kraus_gram is None and cond.check_gram is None
        # transpose is trace preserving, so the other four hold
        assert tuple(x for x in astuple(cond) if x is not None) == (True,) * 4
        assert cond.unanimous()

    def test_unital_and_bistochastic(self):
        rng = np.random.default_rng(29)
        u = random_unitary(rng, 2)
        uc = ch.channel_from_kraus(ch.KrausSet(S2, (u,)))
        assert ch.is_unital(uc) and ch.channel_verdict(uc).bistochastic
        e00 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        reset = ch.channel_from_kraus(ch.KrausSet(S2, (e00, e01)))
        assert ch.is_trace_preserving(reset)
        assert not ch.is_unital(reset)
        assert not ch.channel_verdict(reset).bistochastic

    def test_unital_matches_action_on_identity(self):
        rng = np.random.default_rng(31)
        c = random_cp_channel(rng, 3, 2, 2)
        claimed = ch.is_unital(c)
        direct = np.allclose(ch.apply(c, np.eye(2)), np.eye(3), atol=1e-9)
        assert claimed == direct


class TestFactorizability:
    def test_single_conjugation_is_factorizable(self):
        rng = np.random.default_rng(33)
        a = crandn(rng, 2, 2)
        c = ch.channel_from_kraus(ch.KrausSet(S2, (a,)))
        assert ch.is_factorizable(c)
        assert ch.higher_rank(c) == 1

    def test_uniform_mixing_scalar_is_dimension_squared_minus_one(self):
        for n in (2, 3):
            units = []
            for i in range(n):
                for j in range(n):
                    e = np.zeros((n, n))
                    e[i, j] = 1.0
                    units.append(e / np.sqrt(n))
            shape = bp.BipartiteShape(n, n)
            c = ch.channel_from_kraus(ch.KrausSet(shape, tuple(units)))
            s = ch.superop_from_channel(c)
            t1 = np.trace(ch.apply(c, np.eye(n))).real
            value = t1 * t1 - np.vdot(s, s).real
            assert np.isclose(value, n * n - 1.0, atol=1e-12)
            assert not ch.is_factorizable(c)
            assert ch.higher_rank(c) == n * n

    def test_requires_cp(self):
        with pytest.raises(NotCompletelyPositive):
            ch.is_factorizable(transpose_channel())

    def test_agrees_with_rank_one(self):
        rng = np.random.default_rng(35)
        for count in (1, 2, 3):
            c = random_cp_channel(rng, 2, 2, count)
            assert ch.is_factorizable(c) == (ch.higher_rank(c) == 1)

    @pytest.mark.parametrize("form", ["choi", "kraus"])
    @pytest.mark.parametrize("ratio", [0.5, 0.7, 2.0])
    def test_agrees_with_the_rank_rule_at_the_boundary(self, form, ratio):
        # a second eigenvalue near the rank threshold rel * |s|_F
        lam = ratio * ml.DEFAULT_TOL.rel
        if form == "choi":
            c = ch.channel_from_choi(np.diag([1.0, lam, 0.0, 0.0]), S2)
        else:
            units = np.eye(4).reshape(4, 2, 2)
            c = ch.channel_from_kraus(ch.KrausSet(S2, (units[0], np.sqrt(lam) * units[1])))
        single = ch.higher_rank(c) == 1
        assert single == (ratio < 1)
        assert ch.is_factorizable(c) == single
        assert (len(ch.kraus_from_channel(c)) == 1) == single
        kind = alg.classify_entanglement(c.choi).kind
        assert (kind is not alg.EntanglementKind.MIXED) == single


class TestRankAndIsometric:
    def test_higher_rank_frozen_cases(self):
        assert ch.higher_rank(ch.channel_from_choi(np.eye(4) / 2, S2)) == 4
        assert ch.higher_rank(ch.channel_from_choi(np.diag([1.0, 0, 0, 1.0]), S2)) == 2
        assert ch.higher_rank(ch.channel_from_choi(bell_projector(2), S2)) == 1
        assert ch.higher_rank(transpose_channel()) == 4

    def test_zero_operation_has_rank_zero_and_one_zero_operator(self):
        # a Kraus family has at least one member, so here the two counts differ
        c = ch.channel_from_choi(np.zeros((4, 4)), S2)
        assert ch.higher_rank(c) == 0 and ch.channel_verdict(c).higher_rank == 0
        k = ch.kraus_from_channel(c)
        assert len(k) == 1 and not k.ops[0].any()

    def test_higher_rank_needs_hermitian(self):
        rng = np.random.default_rng(37)
        with pytest.raises(NotHermitian):
            ch.higher_rank(random_channel(rng, 2, 2))

    def test_higher_rank_counts_kraus_terms(self):
        rng = np.random.default_rng(39)
        for count in (1, 2, 3, 4):
            c = random_cp_channel(rng, 2, 2, count)
            assert ch.higher_rank(c) == count

    def test_isometric_channel_detection(self):
        rng = np.random.default_rng(41)
        v = random_isometry(rng, 3, 2)
        iso = ch.channel_from_kraus(ch.KrausSet(bp.BipartiteShape(3, 2), (v,)))
        assert ch.is_isometric_channel(iso)
        # single conjugation that is not trace preserving
        a = 2.0 * v
        assert not ch.is_isometric_channel(
            ch.channel_from_kraus(ch.KrausSet(bp.BipartiteShape(3, 2), (a,)))
        )
        # trace preserving but rank two
        assert not ch.is_isometric_channel(random_tp_channel(rng, 2, 2, 2))
        # not even hermitian preserving
        assert not ch.is_isometric_channel(random_channel(rng, 2, 2))


class TestExtremality:
    def test_unitary_conjugation_is_extremal(self):
        rng = np.random.default_rng(43)
        u = random_unitary(rng, 3)
        c = ch.channel_from_kraus(ch.KrausSet(bp.BipartiteShape(3, 3), (u,)))
        assert ch.is_extremal_tp(c)

    def test_equal_mixture_of_identity_and_flip_is_not_extremal(self):
        s = 2**-0.5
        k = ch.KrausSet(S2, (s * np.eye(2), s * np.diag([1.0, -1.0])))
        c = ch.channel_from_kraus(k)
        assert ch.is_trace_preserving(c)
        assert not ch.is_extremal_tp(c)
        assert ch.extremal_span_dimension(k) == 2

    def test_reset_channel_is_extremal(self):
        e00 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        k = ch.KrausSet(S2, (e00, e01))
        assert ch.is_extremal_tp(ch.channel_from_kraus(k))
        assert ch.extremal_span_dimension(k) == 4

    def test_gram_route_agrees_with_span_route(self):
        # generic families sit far from the span threshold, where the
        # superoperator Gram reference is valid
        rng = np.random.default_rng(45)
        for m, n in [(2, 2), (3, 3)]:
            for count in (1, 2, n + 1):
                c = random_tp_channel(rng, m, n, count)
                assert ch.is_extremal_tp(c) == extremal_by_superop_gram(c) == (count <= n)

    def test_gram_matrix_is_block_form_of_adjoint_composition(self):
        # E[(j,j'),(l,l')] = sum_ik conj(s[(i,j),(k,l)]) s[(i,j'),(k,l')]
        # equals the block matrix of (adjoint after original).
        rng = np.random.default_rng(47)
        c = random_cp_channel(rng, 3, 2, 2)
        m, n = c.shape.m, c.shape.n
        c4 = c.choi_mat.reshape(m, n, m, n)
        gram = np.einsum("ijkl,iJkL->jJlL", c4.conj(), c4).reshape(n * n, n * n)
        composed = ch.compose(ch.adjoint_channel(c), c)
        assert np.allclose(gram, composed.choi_mat, atol=1e-12)

    @staticmethod
    def _forbidden(*args, **kwargs):
        raise AssertionError("not expected on this route")

    @pytest.fixture
    def svd_shapes(self, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        monkeypatch.setattr(ch, "superop_from_channel", self._forbidden)
        return shapes

    def test_kraus_form_takes_one_n_squared_by_r_squared_svd(self, svd_shapes):
        c = random_tp_channel(np.random.default_rng(53), 16, 16, 3)
        assert ch.higher_rank(c) == 3  # the channel's one spectral analysis
        svd_shapes.clear()
        assert ch.is_extremal_tp(c)
        assert svd_shapes == [(256, 9)]

    def test_dependent_members_take_the_minimal_family(self, svd_shapes):
        # 15 mixtures of two unitaries: rank 2, span{u† v} of dimension 3
        rng = np.random.default_rng(57)
        u, v = random_unitary(rng, 4), random_unitary(rng, 4)
        mix = random_isometry(rng, 15, 2) / np.sqrt(2)
        c = ch.channel_from_kraus(ch.KrausSet(bp.BipartiteShape(4, 4), tuple(x * u + y * v for x, y in mix)))
        assert c.factor.shape == (16, 15) and ch.higher_rank(c) == 2
        svd_shapes.clear()
        assert not ch.is_extremal_tp(c)
        assert svd_shapes == [(16, 4)]

    def test_more_members_than_inputs_needs_no_eigensolver(self, monkeypatch):
        k = random_tp_channel(np.random.default_rng(55), 16, 16, 17)
        c = ch.channel_from_choi(k.choi_mat, k.shape)
        assert ch.is_completely_positive(c)[0]  # the channel's one spectral analysis
        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, self._forbidden)
        monkeypatch.setattr(ch, "superop_from_channel", self._forbidden)
        assert ch.higher_rank(c) == 17
        assert ch.is_extremal_tp(c) is False

    def test_preconditions(self):
        with pytest.raises(NotCompletelyPositive):
            ch.is_extremal_tp(transpose_channel())
        rng = np.random.default_rng(49)
        with pytest.raises(NotTracePreserving):
            ch.is_extremal_tp(random_cp_channel(rng, 2, 2, 2))


class TestAdjointAndCompose:
    def test_adjoint_kraus_are_adjoints(self):
        rng = np.random.default_rng(51)
        k = random_kraus(rng, 3, 2, 2)
        adj_direct = ch.channel_from_kraus(
            ch.KrausSet(bp.BipartiteShape(2, 3), tuple(a.conj().T for a in k.ops))
        )
        adj = ch.adjoint_channel(ch.channel_from_kraus(k))
        assert np.allclose(adj.choi_mat, adj_direct.choi_mat, atol=1e-12)

    def test_adjoint_is_frobenius_dual(self):
        rng = np.random.default_rng(53)
        c = random_channel(rng, 3, 2)
        kappa, rho = crandn(rng, 3, 3), crandn(rng, 2, 2)
        lhs = np.vdot(kappa, ch.apply(c, rho))
        rhs = np.vdot(ch.apply(ch.adjoint_channel(c), kappa), rho)
        assert np.isclose(lhs, rhs)

    def test_compose_acts_in_order(self):
        rng = np.random.default_rng(55)
        inner = random_channel(rng, 3, 2)
        outer = random_channel(rng, 2, 3)
        rho = crandn(rng, 2, 2)
        got = ch.apply(ch.compose(outer, inner), rho)
        want = ch.apply(outer, ch.apply(inner, rho))
        assert np.allclose(got, want, atol=1e-12)

    def test_compose_shape_check(self):
        rng = np.random.default_rng(57)
        with pytest.raises(DimensionMismatch):
            ch.compose(random_channel(rng, 2, 2), random_channel(rng, 3, 2))

    def test_channel_equal_tolerance(self):
        rng = np.random.default_rng(59)
        c = random_channel(rng, 2, 2)
        shifted = ch.channel_from_choi(c.choi_mat + 1e-13, c.shape)
        assert ch.channel_equal(c, shifted)
        far = ch.channel_from_choi(c.choi_mat + 1e-3, c.shape)
        assert not ch.channel_equal(c, far)
        with pytest.raises(DimensionMismatch):
            ch.channel_equal(c, random_channel(rng, 3, 2))


class TestUnitaryFreedom:
    def test_isometrically_mixed_families_share_the_block_matrix(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            k = random_kraus(rng, 2, 2, 2)
            u = random_isometry(rng, 4, 2)
            mixed = tuple(
                sum(u[x, y] * k.ops[y] for y in range(2)) for x in range(4)
            )
            c1 = ch.channel_from_kraus(k)
            c2 = ch.channel_from_kraus(ch.KrausSet(S2, mixed))
            assert np.allclose(c1.choi_mat, c2.choi_mat, atol=1e-12)


class TestTraceOfFirstFactorIdentity:
    def test_partial_trace_commutes_with_folding(self):
        # For an operation into a tensor product M_r (x) M_m, tracing the
        # r factor of the block matrix gives the block matrix of the
        # operation followed by that partial trace.  Oracle: plain loops.
        rng = np.random.default_rng(63)
        r, m, n = 2, 2, 2
        big = random_channel(rng, r * m, n)

        # left side: trace the r factor out of the block matrix, seen as
        # an operator on C^r (x) C^(m n)
        six = big.choi_mat.reshape(r, m, n, r, m, n)
        traced = np.zeros((m * n, m * n), dtype=complex)
        for p in range(r):
            for i in range(m):
                for j in range(n):
                    for k in range(m):
                        for l in range(n):
                            traced[i * n + j, k * n + l] += six[p, i, j, p, k, l]

        # right side: compose with the partial trace at superoperator level
        s_big = ch.superop_from_channel(big)
        s8 = s_big.reshape(r, m, r, m, n, n)
        s_small = np.zeros((m * m, n * n), dtype=complex)
        for i in range(m):
            for k in range(m):
                for j in range(n):
                    for l in range(n):
                        for p in range(r):
                            s_small[i * m + k, j * n + l] += s8[p, i, p, k, j, l]
        small = ch.channel_from_superop(s_small, bp.BipartiteShape(m, n))
        assert np.allclose(traced, small.choi_mat, atol=1e-13)


class TestImmutability:
    def test_later_write_to_input_does_not_reach_the_channel(self):
        m = np.eye(4) / 2
        c = ch.channel_from_choi(m, S2)
        m[0, 0] = -5
        assert ch.is_completely_positive(c) == (True, None)
        assert m.flags.writeable

    def test_choi_matrix_is_read_only(self):
        c = ch.channel_from_choi(np.eye(4) / 2, S2)
        with pytest.raises(ValueError):
            c.choi_mat[0, 0] = -5

    def test_kraus_family_holds_read_only_copies(self):
        op = np.eye(2)
        k = ch.KrausSet(S2, (op,))
        op[0, 0] = 3.0
        assert k.ops[0][0, 0] == 1.0
        with pytest.raises(ValueError):
            k.ops[0][0, 0] = 3.0

    def test_kraus_family_is_one_stack_its_channel_and_dilation_share(self):
        from choikit import decomp

        k = random_kraus(np.random.default_rng(5), 3, 2, 2)
        assert k.stack.shape == (2, 6) and not k.stack.flags.writeable
        for x, op in enumerate(k.ops):
            assert np.shares_memory(op, k.stack) and not op.flags.writeable
            assert np.array_equal(op.reshape(-1), k.stack[x])
        assert np.shares_memory(ch.channel_from_kraus(k).factor, k.stack)
        assert np.shares_memory(decomp.dilate(k).matrix, k.stack)
        # members can still be extended as a tuple
        assert len(ch.KrausSet(k.shape, k.ops + (np.ones((3, 2)),))) == 3

    @staticmethod
    def _result_arrays():
        from choikit import decomp

        v = bp.BipartiteVector(S2, [0.8, 0.1, 0.2, 0.55])
        k = random_tp_kraus(np.random.default_rng(6), 2, 2, 2)
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        mixed = ch.KrausSet(S2, tuple((hadamard @ k.stack).reshape(2, 2, 2)))
        schmidt = decomp.schmidt(v)
        one, two = decomp.one_sided_triangular(v), decomp.two_sided_triangular(v)
        positivity = ch.check_positive_preserving(
            ch.channel_from_choi(-bell_projector(2), S2), samples=200, seed=1
        )
        return {
            "SchmidtForm.coefficients": schmidt.coefficients,
            "SchmidtForm.left_basis": schmidt.left_basis,
            "SchmidtForm.right_basis": schmidt.right_basis,
            "TriangularForm(qr).basis_left": one.basis_left,
            "TriangularForm(qr).coefficients": one.coefficients,
            "TriangularForm(schur).basis_left": two.basis_left,
            "TriangularForm(schur).coefficients": two.coefficients,
            "TriangularForm(schur).basis_right": two.basis_right,
            "Dilation.gram": decomp.dilate(k).gram,
            "KrausIsometry.matrix": decomp.find_kraus_isometry(mixed, k).matrix,
            "EntanglementClass.coefficients": alg.classify_entanglement(v).coefficients,
            "PositivityVerdict.witness_psi": positivity.witness_psi,
            "PositivityVerdict.witness_phi": positivity.witness_phi,
        }

    def test_result_arrays_are_read_only(self):
        for name, arr in self._result_arrays().items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 9.0

    @staticmethod
    def _owned_results():
        """(name, caller's arrays, call): each call returns a wrapper around
        an array it computed from the caller's arrays; with a factor of
        dimension 1 the reshuffle and the unfold are views of them."""
        rng = np.random.default_rng(7)
        row, col, mat = crandn(rng, 1, 9), crandn(rng, 9, 1), crandn(rng, 2, 3)
        ops = [crandn(rng, 1, 3) for _ in range(2)]
        vec = crandn(rng, 4)
        a = crandn(rng, 2, 2)
        return [
            ("channel_from_superop(1, 3)", [row], lambda: ch.channel_from_superop(row, bp.BipartiteShape(1, 3)).choi_mat),
            ("channel_from_superop(3, 1)", [col], lambda: ch.channel_from_superop(col, bp.BipartiteShape(3, 1)).choi_mat),
            ("unhat", [mat], lambda: bp.unhat(mat, bp.BipartiteShape(2, 3)).data),
            (
                "compose",
                [row, col],
                lambda: ch.compose(
                    ch.channel_from_superop(row, bp.BipartiteShape(1, 3)),
                    ch.channel_from_superop(col, bp.BipartiteShape(3, 1)),
                ).choi_mat,
            ),
            ("channel_from_kraus", ops, lambda: ch.channel_from_kraus(ch.KrausSet(bp.BipartiteShape(1, 3), tuple(ops))).choi_mat),
            ("_pure", [vec], lambda: alg._pure(bp.BipartiteVector(S2, vec)).mat),
            ("phi_homomorphism", [a], lambda: alg.phi_homomorphism(a).mat),
        ]

    def test_owned_results_do_not_alias_the_caller(self):
        for name, inputs, call in self._owned_results():
            got = call()
            kept = got.copy()
            for x in inputs:
                x[...] = 7.0
            assert np.array_equal(got, kept), name
            assert not got.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                got[(0,) * got.ndim] = 9.0

    def test_channel_is_its_block_matrix_alone(self):
        op = bp.BipartiteOperator(bp.BipartiteShape(3, 2), np.eye(6))
        assert ch.Channel(op).shape is op.shape


class TestToleranceBoundary:
    D8 = bp.BipartiteShape(8, 8)

    @pytest.fixture
    def boundary(self):
        return boundary_choi()

    def test_rank_kraus_count_and_verdict_agree(self, boundary):
        c = ch.channel_from_choi(boundary, self.D8)
        v = ch.channel_verdict(c)
        assert v.completely_positive
        assert ch.higher_rank(c) == len(ch.kraus_from_channel(c)) == v.higher_rank

    def test_state_predicates_accept_what_the_channel_ones_do(self, boundary):
        # the same matrix as a state: positivity is decided by the same rule
        op = bp.BipartiteOperator(self.D8, boundary)
        assert alg.classify_entanglement(op).kind is alg.EntanglementKind.MIXED
        root = ml.sqrt_psd(boundary)
        assert np.allclose(root @ root, boundary, rtol=0.0, atol=1e-9)
        assert isinstance(alg.ppt_test(op), alg.PPTVerdict)


class TestSharedSpectrum:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"hermitian_eig": 0, "svd": 0}
        for name in counts:
            original = getattr(ml, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ml, name, counted)
        return counts

    @staticmethod
    def _suite(c, tol, counts, expected):
        v = ch.channel_verdict(c, tol)
        assert v.completely_positive and v.trace_preserving
        assert counts == expected
        ch.kraus_from_channel(c, tol)
        ch.six_tp_conditions(c, tol)
        ch.is_isometric_channel(c, tol)
        assert counts == expected

    def test_verdict_factorises_the_choi_matrix_once(self, counts):
        k = random_tp_channel(np.random.default_rng(4), 3, 3, 2)
        c = ch.channel_from_choi(k.choi_mat, k.shape)
        tol = ml.Tolerance()
        self._suite(c, tol, counts, {"hermitian_eig": 1, "svd": 0})
        ch.higher_rank(c, ml.Tolerance(rel=1e-6))
        assert counts == {"hermitian_eig": 2, "svd": 0}

    def test_kraus_form_reads_the_spectrum_off_its_factor(self, counts):
        c = random_tp_channel(np.random.default_rng(4), 3, 3, 2)
        tol = ml.Tolerance()
        self._suite(c, tol, counts, {"hermitian_eig": 0, "svd": 1})
        ch.higher_rank(c, ml.Tolerance(rel=1e-6))
        assert counts == {"hermitian_eig": 0, "svd": 1}

    def test_family_of_mn_members_takes_eigh(self, counts):
        c = random_tp_channel(np.random.default_rng(4), 2, 2, 4)
        self._suite(c, ml.Tolerance(), counts, {"hermitian_eig": 1, "svd": 0})

    def test_factor_spectrum_keeps_what_the_kraus_cut_keeps(self):
        # singular value 1.5 is under the absolute tolerance 2, its square is over it
        c = ch.channel_from_kraus(ch.KrausSet(S2, (1.5 * np.eye(2) / np.sqrt(2),)))
        k = ch.kraus_from_channel(c, ml.Tolerance(abs=2.0, rel=0.0))
        assert len(k) == 1 and np.allclose(k.ops[0], c.factor.reshape(2, 2))

    def test_only_kraus_input_carries_a_factor(self):
        c = random_tp_channel(np.random.default_rng(4), 3, 3, 2)
        assert c.factor.shape == (9, 2) and not c.factor.flags.writeable
        assert ch.compose(c, c).factor is None
        assert ch.channel_from_superop(ch.superop_from_channel(c), c.shape).factor is None
        assert ch.adjoint_channel(c).factor is None
        # a family of mn or more members has no thin factor to read
        assert random_tp_channel(np.random.default_rng(4), 2, 2, 4).factor is None
        with pytest.raises(TypeError):
            ch.Channel(c.choi, factor=np.ones((9, 2)))


def _boundary_tp_family(rng, shape, ops, band):
    """``ops`` plus one member whose weight sits a factor ``band`` off the
    rank threshold (inside the band for 0.5, just over it for 2.0), made
    trace preserving again."""
    norm_s = np.linalg.norm(ch.channel_from_kraus(ch.KrausSet(shape, ops)).choi_mat)
    extra = crandn(rng, shape.m, shape.n)
    ops += (np.sqrt(band * ml.DEFAULT_TOL.threshold(norm_s)) * extra / np.linalg.norm(extra),)
    w, u = np.linalg.eigh(sum(op.conj().T @ op for op in ops))
    return tuple(op @ (u / np.sqrt(w)) @ u.conj().T for op in ops)


@settings(derandomize=True, deadline=None, max_examples=12, database=None)
@given(
    m=st.integers(8, 16),
    n=st.integers(8, 16),
    r=st.integers(1, 4),
    band=st.sampled_from([None, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_and_eigh_routes_give_one_verdict(m, n, r, band, seed):
    rng = np.random.default_rng(seed)
    shape = bp.BipartiteShape(m, n)
    r = max(r, -(-n // m))  # a trace-preserving family needs r*m >= n
    ops = random_tp_kraus(rng, m, n, r).ops
    if band is not None:
        ops = _boundary_tp_family(rng, shape, ops, band)
    by_factor = ch.channel_from_kraus(ch.KrausSet(shape, ops))
    by_eigh = ch.channel_from_choi(by_factor.choi_mat, shape)
    verdict = ch.channel_verdict(by_factor)
    assert verdict == ch.channel_verdict(by_eigh)
    assert verdict.trace_preserving and verdict.extremal_tp is not None
    assert verdict.higher_rank == r + (band == 2.0)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    m=st.integers(8, 16),
    n=st.integers(8, 16),
    r=st.sampled_from([1, 2, 3, 4, 5]),
    commuting=st.booleans(),
    band=st.sampled_from([None, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_extremality_agrees_with_the_superoperator_gram(m, n, r, commuting, band, seed):
    rng = np.random.default_rng(seed)
    m, n = max(m, n), min(m, n)  # so every family below can be trace preserving
    shape = bp.BipartiteShape(m, n)
    if r == 5:
        r = n + 1  # more members than the span can hold: never extremal
    if commuting:
        # equal mixtures of diagonal isometries span only diagonal products
        ops = tuple(
            np.eye(m, n) * np.exp(2j * np.pi * rng.uniform(size=n)) / np.sqrt(r) for _ in range(r)
        )
    else:
        ops = random_tp_kraus(rng, m, n, r).ops
    if band is not None:
        ops = _boundary_tp_family(rng, shape, ops, band)
    by_factor = ch.channel_from_kraus(ch.KrausSet(shape, ops))
    by_eigh = ch.channel_from_choi(by_factor.choi_mat, shape)
    expected = extremal_by_superop_gram(by_eigh)
    assert ch.is_extremal_tp(by_factor) == ch.is_extremal_tp(by_eigh) == expected
    assert ch.higher_rank(by_eigh) == len(ch.kraus_from_channel(by_eigh))
    assert ch.higher_rank(by_factor) == ch.higher_rank(by_eigh)


class TestVerdict:
    def test_channels_and_verdicts_compare_by_value(self):
        mixed = ch.channel_from_choi(np.eye(4) / 2, S2)
        assert mixed == ch.channel_from_choi(np.eye(4) / 2, S2)
        assert mixed != transpose_channel()
        v = ch.channel_verdict(transpose_channel())
        assert v.cp_witness is not None
        assert v == ch.channel_verdict(transpose_channel())
        assert v != ch.channel_verdict(ch.channel_from_choi(-SWAP, S2))

    def test_transpose_summary(self):
        v = ch.channel_verdict(transpose_channel())
        assert v.hermitian_preserving
        assert not v.completely_positive
        assert v.cp_witness is not None
        assert v.trace_preserving and v.unital and v.bistochastic
        assert not v.factorizable
        assert v.higher_rank == 4
        assert v.extremal_tp is None

    def test_identity_summary(self):
        c = ch.channel_from_kraus(ch.KrausSet(S2, (np.eye(2),)))
        v = ch.channel_verdict(c)
        assert v.completely_positive and v.trace_preserving and v.unital
        assert v.factorizable and v.higher_rank == 1 and v.extremal_tp is True
        assert v.cp_witness is None

    def test_reset_summary(self):
        e00 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        v = ch.channel_verdict(ch.channel_from_kraus(ch.KrausSet(S2, (e00, e01))))
        assert v.trace_preserving and not v.unital and not v.bistochastic
        assert v.higher_rank == 2 and v.extremal_tp is True
