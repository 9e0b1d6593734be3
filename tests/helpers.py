"""Shared generators and independent oracles for the test suite.

The oracles intentionally avoid the code paths they are used to check:
eigenvalues come from characteristic-polynomial roots, superoperators
from explicit basis probing, partial operations from plain Python
loops.  ``ppt_by_both_spectra`` and ``measurement_by_kron`` are the
earlier, costlier forms of the routines they check,
``diamond_by_reshuffle`` is the diamond product written out apart from
``channel.compose``, ``unscreened_search`` is the positivity search
with every pair through the superoperator in arithmetic of its own, and
``pure_vector_by_spectrum`` decides rank one from the eigenvalues alone;
all five are kept as references.
"""

import numpy as np

from choikit import (
    BipartiteOperator,
    BipartiteShape,
    Channel,
    KrausSet,
    channel_from_choi,
    channel_from_kraus,
    higher_rank,
    superop_from_channel,
)
from choikit import bipartite as bp
from choikit import channel as ch
from choikit import matlin as ml
from choikit.algebra import PPTVerdict, StateSquare
from choikit.errors import NumericalFailure
from choikit.matlin import DEFAULT_TOL, numeric_rank


def crandn(rng, *shape):
    """Complex standard normal array."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, d):
    q, r = np.linalg.qr(crandn(rng, d, d))
    dg = np.diagonal(r)
    return q * (dg / np.abs(dg))[np.newaxis, :]


def jordan_block(n, eigenvalue=0.0):
    """n x n Jordan block: the eigenvalue on the diagonal, ones above it."""
    return np.diag(np.full(n, eigenvalue, dtype=complex)) + np.diag(np.ones(n - 1), 1)


def random_isometry(rng, p, q):
    """p x q matrix with orthonormal columns, p >= q."""
    if p < q:
        raise ValueError("isometry needs p >= q")
    m = crandn(rng, p, q)
    qq, r = np.linalg.qr(m)
    dg = np.diagonal(r)
    return qq * (dg / np.abs(dg))[np.newaxis, :]


def random_kraus(rng, m, n, count):
    scale = np.sqrt(2.0 * m * n * count)
    return KrausSet(
        BipartiteShape(m, n), tuple(crandn(rng, m, n) / scale for _ in range(count))
    )


def random_tp_kraus(rng, m, n, count):
    """Kraus family with sum a_x† a_x = id_n exactly (up to rounding)."""
    iso = random_isometry(rng, count * m, n)
    ops = tuple(iso[x * m : (x + 1) * m] for x in range(count))
    return KrausSet(BipartiteShape(m, n), ops)


def random_channel(rng, m, n):
    """Channel with a generic (non-Hermitian) block matrix, unit norm."""
    mat = crandn(rng, m * n, m * n)
    return channel_from_choi(mat / np.linalg.norm(mat), BipartiteShape(m, n))


def random_cp_channel(rng, m, n, count):
    return channel_from_kraus(random_kraus(rng, m, n, count))


def random_tp_channel(rng, m, n, count):
    return channel_from_kraus(random_tp_kraus(rng, m, n, count))


def random_hermitian(rng, d):
    a = crandn(rng, d, d)
    return (a + a.conj().T) / 2.0


def random_density(rng, d):
    a = crandn(rng, d, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def char_poly_eigvals(a):
    """Eigenvalues as roots of the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier recursion, so this
    never touches an eigensolver.  Fine for the small matrices used in
    tests; unstable for large ones.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    eye = np.eye(d)
    mk = np.zeros_like(a)
    coeffs = [1.0 + 0.0j]
    for k in range(1, d + 1):
        mk = a @ mk + coeffs[-1] * eye
        coeffs.append(-np.trace(a @ mk) / k)
    return np.roots(np.array(coeffs))


def multiset_distance(x, y):
    """Greedy matching distance between two complex multisets."""
    x = list(np.asarray(x, dtype=complex))
    y = list(np.asarray(y, dtype=complex))
    assert len(x) == len(y)
    worst = 0.0
    for xv in x:
        gaps = [abs(xv - yv) for yv in y]
        best = int(np.argmin(gaps))
        worst = max(worst, gaps[best])
        y.pop(best)
    return worst


def superop_by_probing(c: Channel):
    """Superoperator from the block matrix by explicit index loops.

    Uses the contraction F(rho)[i,k] = sum_jl s[(i,j),(k,l)] rho[j,l]
    on matrix units, with no reshape tricks, so it is an independent
    oracle for the reshuffling code.
    """
    m, n = c.shape.m, c.shape.n
    choi = c.choi_mat
    out = np.zeros((m * m, n * n), dtype=complex)
    for i in range(m):
        for k in range(m):
            for j in range(n):
                for l in range(n):
                    out[i * m + k, j * n + l] = choi[i * n + j, k * n + l]
    return out


def kraus_apply(ops, rho):
    return sum(a @ rho @ a.conj().T for a in ops)


def extremal_by_superop_gram(c: Channel, tol=DEFAULT_TOL) -> bool:
    """Extremality of a CP trace-preserving channel through the n^2 x n^2
    matrix ``E = (S† S)`` regrouped as ``E[(j,j'),(l,l')]``, with S the
    superoperator: its rank is the dimension of span{ a_x† a_y } for any
    Kraus family, to be compared with r^2 for r = higher_rank(c).  Reads
    the block matrix only, never a Kraus family; preconditions unchecked.
    E is a Gram matrix, so its eigenvalues are the squared singular values
    of the products and fall below the rank threshold while those are
    still above it: the reference is valid only away from the span
    threshold, not at it.
    """
    n = c.shape.n
    s = superop_from_channel(c)
    gram = (s.conj().T @ s).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    r = higher_rank(c, tol)
    return numeric_rank(np.linalg.eigvalsh(gram), tol) == r * r


def forbidden(*args, **kwargs):
    """Stand-in for a function a work-count test patches out."""
    raise AssertionError("not expected on this route")


def ppt_by_both_spectra(s: BipartiteOperator, tol=DEFAULT_TOL) -> PPTVerdict:
    """The partial-transpose test through full eigensystems of both partial
    transposes, reporting the side with the smaller minimum eigenvalue and
    the second on a tie; disagreeing verdicts raise NumericalFailure."""
    w1, _ = ml.hermitian_eig(bp.partial_transpose_1(s).mat, tol)
    w2, _ = ml.hermitian_eig(bp.partial_transpose_2(s).mat, tol)
    ok1, ok2 = ml._is_psd(w1, tol), ml._is_psd(w2, tol)
    if ok1 != ok2:
        raise NumericalFailure("the two partial transposes disagreed on positivity")
    if w1[-1] < w2[-1]:
        return PPTVerdict(ok1, float(w1[-1]), "first")
    return PPTVerdict(ok2, float(w2[-1]), "second")


def pure_vector_by_spectrum(s: BipartiteOperator, tol=DEFAULT_TOL):
    """``algebra._pure_vector`` without its rank-one certificate: ``(psd, u)``
    from the eigenvalues of ``hermitian_eigvals``, u read from the column of
    the largest diagonal entry whenever they give rank one with the
    eigenvalue of largest modulus positive."""
    w = ml.hermitian_eigvals(s.mat, tol)
    psd = ml._is_psd(w, tol)
    if numeric_rank(w, tol) != 1 or w[0] <= -w[-1]:
        return psd, None
    j = int(np.argmax(s.mat.diagonal().real))
    return psd, bp.BipartiteVector(s.shape, s.mat[:, j] / np.sqrt(s.mat[j, j].real))


def measurement_by_kron(s: BipartiteOperator, m_op):
    """Tr_2((id (x) m) s (id (x) m†)) with the sandwich formed on the whole
    space by Kronecker products."""
    m_op = ml.as_matrix(m_op)
    eye_m = np.eye(s.shape.m)
    sandwiched = bp.kron(eye_m, m_op) @ s.mat @ bp.kron(eye_m, m_op.conj().T)
    return bp.partial_trace_2(BipartiteOperator(s.shape, sandwiched))


def diamond_by_reshuffle(a: StateSquare, b: StateSquare) -> np.ndarray:
    """The diamond product without ``compose``: multiply the reshuffled
    forms, then fold back."""
    s = bp.reshuffle_hat(a.op) @ bp.reshuffle_hat(b.op)
    return bp.unreshuffle_hat(s, a.op.shape).mat


def batch_values(st, psi, phi):
    """``<phi| F(psi psi†) |phi>`` for each row of one batch of draws, from
    the transposed superoperator ``st``: the projector batch, its product
    with ``st`` and a three-operand sum, the search's arithmetic."""
    k, n = psi.shape
    proj = (psi[:, :, None] * psi.conj()[:, None, :]).reshape(k, n * n)
    outs = (proj @ st).reshape(k, phi.shape[1], phi.shape[1])
    return np.einsum("sp,spq,sq->s", phi.conj(), outs, phi).real


def chunked_values(c: Channel, samples: int, seed: int, chunk: int = 1024):
    """``(vals, psi, phi)``: the search's pairs drawn afresh in the
    documented order, and the value of each, evaluated in near-equal chunks
    of at most ``chunk`` by :func:`batch_values`."""
    m, n = c.shape.m, c.shape.n
    rng = np.random.default_rng(seed)
    psi = crandn(rng, samples, n)
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    phi = crandn(rng, samples, m)
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    st = superop_from_channel(c).T
    k = -(-samples // chunk)
    edges = [samples * i // k for i in range(k + 1)]
    vals = np.concatenate([batch_values(st, psi[lo:hi], phi[lo:hi]) for lo, hi in zip(edges, edges[1:])])
    return vals, psi, phi


def unscreened_search(c: Channel, tol=DEFAULT_TOL, samples=10000, seed=0) -> ch.PositivityVerdict:
    """The positivity search with no screen: every pair evaluated apart
    from ``channel`` (:func:`chunked_values`), so its numbers are the bytes
    the screened search must report."""
    vals, psi, phi = chunked_values(c, samples, seed)
    bad = np.flatnonzero(vals < -tol.threshold(np.linalg.norm(c.choi_mat)))
    return ch.PositivityVerdict(
        outcome="NotPositive" if bad.size else "NoViolationFound",
        samples_used=samples,
        min_value=float(vals.min()),
        witness_psi=psi[bad[0]] if bad.size else None,
        witness_phi=phi[bad[0]] if bad.size else None,
    )


def gathered_mismatches(shapes, sizes, samples=2050, seed=0) -> int:
    """How many values of ``channel._pair_values``, on random sets of pairs
    of each size in ``sizes`` gathered from anywhere in the draws, differ in
    any byte from the same pairs' values in the draws' own chunks
    (:func:`chunked_values`), for a random Hermitian block matrix of each
    (m, n) in ``shapes``."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for m, n in shapes:
        c = channel_from_choi(random_hermitian(rng, m * n), BipartiteShape(m, n))
        whole, psi, phi = chunked_values(c, samples, seed)
        st = superop_from_channel(c).T
        for size in sizes:
            pairs = np.sort(rng.choice(samples, size, replace=False))
            got = ch._pair_values(st, psi, phi, pairs)[pairs]
            mismatches += int(np.count_nonzero(got.view(np.uint64) != whole[pairs].view(np.uint64)))
    return mismatches


def assert_same_search(got: ch.PositivityVerdict, want: ch.PositivityVerdict):
    """Outcome, sample count, minimum and witnesses, byte for byte."""
    assert (got.outcome, got.samples_used) == (want.outcome, want.samples_used)
    assert np.float64(got.min_value).tobytes() == np.float64(want.min_value).tobytes()
    for a, b in ((got.witness_psi, want.witness_psi), (got.witness_phi, want.witness_phi)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()
