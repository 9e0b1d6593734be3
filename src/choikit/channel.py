"""Linear operations on matrix algebras and their three representations.

An operation mapping n x n inputs to m x m outputs is stored canonically
through its block matrix (Choi form): the operator ``s`` on
``C^m (x) C^n`` with blocks ``s[(i,j),(k,l)]``.  The other two forms are

* the superoperator ``reshuffle_hat(s)``, an ``m^2 x n^2`` matrix acting
  on row-major vectorized inputs, and
* Kraus decompositions ``rho -> sum_x  a_x rho a_x†`` with each
  ``a_x`` of size ``m x n``, existing exactly when ``s`` is positive
  semidefinite.

Conversions between the three are exact reindexings or eigensystem
computations; no optimization is involved.  The predicate suite
(Hermiticity preserving, complete positivity, trace preservation,
unitality, factorizability, extremality) reads everything off ``s``,
its spectrum from one analysis per tolerance (see :func:`_spectrum`).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Optional

import numpy as np

from . import bipartite as bp
from . import matlin as ml
from .errors import (
    DimensionMismatch,
    InvalidValue,
    NotCompletelyPositive,
    NotHermitian,
    NotTracePreserving,
    NumericalFailure,
)
from .matlin import DEFAULT_TOL, Tolerance

__all__ = [
    "Channel",
    "KrausSet",
    "TPConditions",
    "PositivityVerdict",
    "ChannelVerdict",
    "channel_from_choi",
    "channel_from_kraus",
    "kraus_from_channel",
    "superop_from_channel",
    "channel_from_superop",
    "apply",
    "sandwich_identity_check",
    "extend_with_identity",
    "is_hermitian_preserving",
    "is_completely_positive",
    "check_positive_preserving",
    "MAX_SAMPLES",
    "is_trace_preserving",
    "six_tp_conditions",
    "is_unital",
    "is_bistochastic",
    "is_factorizable",
    "higher_rank",
    "is_isometric_channel",
    "extremal_span_dimension",
    "is_extremal_tp",
    "adjoint_channel",
    "compose",
    "channel_equal",
    "channel_verdict",
]


@dataclass(frozen=True)
class Channel:
    """An operation from n x n to m x m matrices, held as its block matrix.

    ``shape`` is the block matrix's: ``m`` the output, ``n`` the input
    dimension.  The block matrix is read-only, so its spectral analysis is
    kept here, one per tolerance.  ``factor`` is None, or the read-only
    (m*n) x r matrix A with ``s = A A†`` and r < m*n that
    :func:`channel_from_kraus` sets; the spectrum is then read off A.
    """

    choi: bp.BipartiteOperator
    factor: Optional[np.ndarray] = field(default=None, init=False, compare=False, repr=False)
    _spectra: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def shape(self) -> bp.BipartiteShape:
        return self.choi.shape

    @property
    def choi_mat(self) -> np.ndarray:
        return self.choi.mat


@dataclass(frozen=True)
class KrausSet:
    """A family of r >= 1 operators a_x of size m x n, stored once: ``stack``
    is a read-only r x (m*n) copy whose row x is the row-major vec of a_x,
    and ``ops`` the tuple of its rows as read-only m x n views."""

    shape: bp.BipartiteShape
    ops: tuple = field(compare=False)
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m, n = self.shape.m, self.shape.n
        if len(self.ops) == 0:
            raise InvalidValue("a Kraus family must contain at least one operator")
        for op in self.ops:
            if np.shape(op) != (m, n):
                raise DimensionMismatch(f"operator of shape {np.shape(op)} in a {m} x {n} family")
        stack = ml._frozen_copy(np.reshape(self.ops, (len(self.ops), m * n)))
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "ops", tuple(stack.reshape(-1, m, n)))

    __eq__ = bp._value_eq

    def __len__(self) -> int:
        return len(self.ops)


def _spectrum(c: Channel, tol: Tolerance):
    """``hermitian_eig(s, tol)`` of the block matrix s, or None when s is
    not Hermitian within tolerance; computed once per tolerance and kept.

    With a factor A it is read off the SVD of A instead: the squared
    singular values, padded with zeros to m*n, and the left singular
    vectors of the nonzero ones.  The SVD cuts at zero tolerance, so the
    Kraus cut on the eigenvalues is the only one, and it is computed once
    for all tolerances.  s = A A† is Hermitian and positive semidefinite
    by construction, so no Hermiticity residual is taken and no
    negative-eigenvalue witness is ever asked for.
    """
    a = c.factor
    key = tol if a is None else None
    if key not in c._spectra:
        try:
            if a is not None:
                v, sv, _ = ml.svd(a, Tolerance(abs=0.0, rel=0.0))
                w = np.zeros(a.shape[0])
                w[: sv.size] = sv**2
            else:
                w, v = ml.hermitian_eig(c.choi_mat, tol)
            w.flags.writeable = v.flags.writeable = False
            c._spectra[key] = (w, v)
        except NotHermitian:
            c._spectra[key] = None
    return c._spectra[key]


def channel_from_choi(mat, shape: bp.BipartiteShape) -> Channel:
    """Wrap an (m*n) x (m*n) matrix as a channel in block-matrix form."""
    return Channel(bp.BipartiteOperator(shape, mat))


def channel_from_kraus(k: KrausSet) -> Channel:
    """Block matrix of ``rho -> sum_x a_x rho a_x†``.

    Equals ``A A†`` with ``A = [vec(a_1) ... vec(a_r)] = k.stack.T``; it
    is Hermitian positive semidefinite by construction.  A, a view of the
    stack, is kept as the channel's ``factor`` when r < m*n.
    """
    c = channel_from_choi(k.stack.T @ k.stack.conj(), k.shape)
    if len(k) < k.shape.dim:
        # set only here, so A A† is the block matrix
        object.__setattr__(c, "factor", k.stack.T)
    return c


def kraus_from_channel(c: Channel, tol: Tolerance = DEFAULT_TOL) -> KrausSet:
    """Minimal Kraus family from the eigensystem of the block matrix.

    Requires the block matrix to be Hermitian positive semidefinite
    within tolerance; a negative eigenvalue beyond the threshold raises
    :class:`NotCompletelyPositive` carrying the witness eigenvector.
    It keeps the first ``higher_rank(c)`` eigenpairs, so eigenvalues
    inside the tolerance band of :func:`matlin.numeric_rank` are dropped
    and the members are ordered by decreasing weight; a family is never
    empty, so the zero operation (rank 0) gets one zero operator.
    """
    _require_cp(c, tol, "block matrix is not positive semidefinite")
    w, v = _spectrum(c, tol)
    r = ml.numeric_rank(w, tol)
    if r == 0:
        return KrausSet(c.shape, (np.zeros((c.shape.m, c.shape.n)),))
    ops = (v[:, :r] * np.sqrt(w[:r])).T.reshape(r, c.shape.m, c.shape.n)
    return KrausSet(c.shape, tuple(ops))


def superop_from_channel(c: Channel) -> np.ndarray:
    """The m^2 x n^2 matrix acting on row-major vectorized inputs."""
    return bp.reshuffle_hat(c.choi)


def channel_from_superop(mat, shape: bp.BipartiteShape) -> Channel:
    """Inverse of :func:`superop_from_channel`."""
    return Channel(bp.unreshuffle_hat(mat, shape))


def apply(c: Channel, rho) -> np.ndarray:
    """Evaluate the operation on an n x n input, returning m x m."""
    rho = ml.as_matrix(rho)
    n = c.shape.n
    if rho.shape != (n, n):
        raise DimensionMismatch(f"expected {n} x {n} input, got {rho.shape}")
    out = superop_from_channel(c) @ rho.reshape(n * n)
    return out.reshape(c.shape.m, c.shape.m)


def sandwich_identity_check(
    c: Channel, kappa, rho, sigma, tau, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Verify that outer multiplication commutes through the block form.

    Checks ``kappa @ F(rho @ sigma) @ tau`` against the partial trace of
    ``(kappa (x) rho^T) s (tau (x) sigma^T)`` over the second factor,
    where ``F`` is the operation and ``s`` its block matrix.  This holds
    for every channel; a False return signals corrupted data.
    """
    m, n = c.shape.m, c.shape.n
    kappa, tau = ml.as_matrix(kappa), ml.as_matrix(tau)
    rho, sigma = ml.as_matrix(rho), ml.as_matrix(sigma)
    if kappa.shape != (m, m) or tau.shape != (m, m):
        raise DimensionMismatch("outer factors must be m x m")
    if rho.shape != (n, n) or sigma.shape != (n, n):
        raise DimensionMismatch("inner factors must be n x n")
    lhs = kappa @ apply(c, rho @ sigma) @ tau
    sandwiched = bp.kron(kappa, rho.T) @ c.choi_mat @ bp.kron(tau, sigma.T)
    rhs = bp.partial_trace_2(bp.BipartiteOperator(c.shape, sandwiched))
    return ml.nearly_equal(lhs, rhs, tol)


def extend_with_identity(c: Channel, r: int) -> Channel:
    """Tensor the operation with the identity on an r-dimensional factor.

    The result maps (n*r) x (n*r) inputs to (m*r) x (m*r) outputs, the
    extra factor sitting second in the tensor order.
    """
    if r < 1:
        raise InvalidValue("extension dimension must be positive")
    m, n = c.shape.m, c.shape.n
    s4 = superop_from_channel(c).reshape(m, m, n, n)
    eye = np.eye(r)
    big = np.einsum("ikjl,su,tv->isktjulv", s4, eye, eye)
    big = big.reshape((m * r) ** 2, (n * r) ** 2)
    return channel_from_superop(big, bp.BipartiteShape(m * r, n * r))


def is_hermitian_preserving(c: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the block matrix is Hermitian within tolerance."""
    return _spectrum(c, tol) is not None


def is_completely_positive(c: Channel, tol: Tolerance = DEFAULT_TOL):
    """Positive semidefiniteness of the block matrix.

    Returns ``(True, None)`` when every eigenvalue clears the negative
    tolerance band, else ``(False, witness)`` where the witness is the
    unit eigenvector of the most negative eigenvalue (or None when the
    block matrix is not even Hermitian).  The band is
    ``tol.threshold(|s|_F)`` wide (:func:`matlin.numeric_rank`).
    """
    spec = _spectrum(c, tol)
    if spec is None:
        return False, None
    w, v = spec
    if not ml._is_psd(w, tol):
        return False, bp.BipartiteVector(c.shape, v[:, -1])
    return True, None


def _require_cp(c: Channel, tol: Tolerance, message: str) -> None:
    ok, witness = is_completely_positive(c, tol)
    if not ok:
        raise NotCompletelyPositive(message, witness=witness)


@dataclass(frozen=True)
class PositivityVerdict:
    """Result of randomized positivity-preservation testing.

    ``outcome`` is ``"NotPositive"`` when a pure input/output pair with a
    negative expectation was found (witnesses attached), otherwise
    ``"NoViolationFound"`` -- which is evidence, not proof.
    """

    outcome: str
    samples_used: int
    min_value: float
    witness_psi: Optional[np.ndarray]
    witness_phi: Optional[np.ndarray]

    __eq__ = bp._value_eq


MAX_SAMPLES = 10**6
_CHUNK = 1024


def _exact_values(st: np.ndarray, psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``<phi| F(psi psi†) |phi>`` for one batch of draws, given the
    transposed superoperator ``st``: the projector batch, its product with
    ``st`` and a three-operand sum."""
    k, n = psi.shape
    m = phi.shape[1]
    proj = (psi[:, :, None] * psi.conj()[:, None, :]).reshape(k, n * n)
    outs = (proj @ st).reshape(k, m, m)
    return np.einsum("sp,spq,sq->s", phi.conj(), outs, phi).real


def _screen_values(ops: np.ndarray, psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``sum_x |phi† a_x psi|^2`` for one batch of draws, from the Kraus
    operators ``ops`` (r x m x n): the same values as :func:`_exact_values`
    for ``rho -> sum_x a_x rho a_x†``, at r*m*n cost per pair."""
    f = np.zeros(psi.shape[0])
    bra = phi.conj()
    for op in ops:
        y = np.einsum("si,si->s", bra, psi @ op.T)
        f += y.real**2 + y.imag**2
    return f


def check_positive_preserving(
    c: Channel,
    tol: Tolerance = DEFAULT_TOL,
    samples: int = 10000,
    seed: int = 0,
) -> PositivityVerdict:
    """Search for a violation of positivity on pure states.

    Draws ``samples`` Haar-like pairs (psi in C^n, phi in C^m) from
    ``numpy.random.default_rng(seed)`` in the fixed order: psi real
    block, psi imaginary block, phi real block, phi imaginary block
    (each of shape ``(samples, dim)``).  Reports the minimum of
    ``<phi| F(psi psi†) |phi>`` and the first violating pair, if any:
    the first value below ``-thr``, ``thr = tol.threshold(|s|_F)``.

    The pairs are evaluated in near-equal chunks of at most 1024, so
    beyond the draws (``samples * (n + m)`` complex numbers) memory stays
    at one chunk's ``1024 * (n^2 + m^2)`` whatever ``samples`` is.  The
    values are the bytes of evaluating all pairs in one batch.
    ``samples`` runs from 1 to :data:`MAX_SAMPLES`, else
    :class:`InvalidValue`.

    A channel with a factor A of r < m*n columns (:class:`Channel`) is
    screened first, and only the chunks holding a pair that the screen
    cannot rule out go through the superoperator.  The screen value
    ``f = sum_x |phi† a_x psi|^2`` costs r*m*n per pair against (m*n)^2,
    and f >= 0 as computed.  Its distance from the computed value v
    follows from the standard forward-error bounds: a complex inner
    product of length k is within ``sqrt(2)*gamma_(k+2) |x|.|y|``, with
    ``gamma_k = k*u / (1 - k*u)``, u = eps/2 and eps the machine epsilon.
    With ``|psi| = |phi| = 1``, ``|psi psi†|_F = 1``, ``|S|_F = |s|_F``
    (S the superoperator) and ``sum_x |a_x|_F^2 = tr s``:

    * v is within ``sqrt(2)*(gamma_2 + gamma_(n^2+2) + gamma_(m^2+4)) |s|_F
      <= (m^2 + n^2 + 8)*eps*|s|_F`` of the true value for s, through the
      projector, the product with S and the three-operand sum;
    * f is within ``(2*sqrt(2)*(gamma_(m+2) + gamma_(n+2)) + gamma_(r+2)) tr s
      <= (2*(m + n) + r + 8)*eps*tr s`` of the true value for A, through
      a_x psi, phi† (a_x psi) and the sum of squares;
    * the stored s is the rounded A A†, within
      ``sqrt(2)*gamma_(r+2) tr s <= (r + 2)*eps*tr s`` of it in Frobenius
      norm, so the two true values differ by no more.

    As r < mn, these add to at most 2N with ``N = m^2 + n^2 + r*(m + n) + 8``,
    a quarter of ``delta = 8*N*eps*max(|s|_F, tr s)``; the rest covers
    second-order terms, unit norms that hold only to rounding and the
    rounding of the comparison below.  So ``|f - v| <= delta`` for every
    pair, and a chunk is evaluated exactly when it holds a pair with
    ``f <= min f + 2*delta``.  Any other pair has v > min f + delta, which
    is at least v of the pair minimising f, so the minimum of v lies among
    these pairs.  So does every violation: v < -thr <= 0 gives
    f < delta <= min f + 2*delta, as f >= 0.  A chunk is evaluated as it
    is without the screen, so every number reported keeps its bytes.
    """
    if not 1 <= samples <= MAX_SAMPLES:
        raise InvalidValue(f"samples must lie in [1, {MAX_SAMPLES}], got {samples}")
    m, n = c.shape.m, c.shape.n
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    phi = rng.standard_normal((samples, m)) + 1j * rng.standard_normal((samples, m))
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    st = superop_from_channel(c).T
    norm_s = ml.frobenius_norm(c.choi_mat)
    thr = tol.threshold(norm_s)
    # with threaded BLAS a short product can round differently from a
    # long one, so no chunk is much shorter than the others
    k = -(-samples // _CHUNK)
    edges = [samples * i // k for i in range(k + 1)]
    chunks = list(zip(edges, edges[1:]))
    a = c.factor
    if a is not None:
        # whole chunks, not single pairs: with threaded BLAS a product's
        # bytes can depend on its row count
        ops = a.T.reshape(-1, m, n)
        f = np.concatenate([_screen_values(ops, psi[lo:hi], phi[lo:hi]) for lo, hi in chunks])
        big_n = m * m + n * n + a.shape[1] * (m + n) + 8
        delta = 8 * big_n * np.finfo(float).eps * max(norm_s, float(np.linalg.norm(a)) ** 2)
        keep = f <= f.min() + 2 * delta
        chunks = [(lo, hi) for lo, hi in chunks if keep[lo:hi].any()]
    vals = np.full(samples, np.inf)
    for lo, hi in chunks:
        vals[lo:hi] = _exact_values(st, psi[lo:hi], phi[lo:hi])
    bad = np.flatnonzero(vals < -thr)
    first = int(bad[0]) if bad.size else None
    return PositivityVerdict(
        outcome="NoViolationFound" if first is None else "NotPositive",
        samples_used=samples,
        min_value=float(vals.min()),
        witness_psi=None if first is None else psi[first].copy(),
        witness_phi=None if first is None else phi[first].copy(),
    )


def is_trace_preserving(c: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff tracing the first factor of the block matrix gives id_n."""
    return ml.nearly_equal(bp.partial_trace_1(c.choi), np.eye(c.shape.n), tol)


@dataclass(frozen=True)
class TPConditions:
    """Six equivalent trace-preservation readings of one operation.

    ``kraus_gram`` and ``check_gram`` need a Kraus family, so they are
    None (skipped) when the operation is not completely positive; the
    other four are always decided.
    """

    kraus_gram: Optional[bool]  # sum_x a_x† a_x = id_n
    superop_trace_row: bool  # sum_k S[(k,k),(j,l)] = delta_jl
    check_gram: Optional[bool]  # sum_x (a_x^T)(a_x^T)† = id_n
    check_on_identity: bool  # column-reshuffle sends vec(id_m) to vec(id_n)
    first_trace: bool  # partial trace over the first factor = id_n
    choi_delta_pattern: bool  # sum_k s[(k,j),(k,l)] = delta_jl

    def unanimous(self) -> bool:
        decided = [x for x in astuple(self) if x is not None]
        return all(decided) or not any(decided)


def six_tp_conditions(c: Channel, tol: Tolerance = DEFAULT_TOL) -> TPConditions:
    """Evaluate all six readings of trace preservation independently.

    They agree for every operation (the Kraus pair only exists on the
    completely positive cone); disagreement indicates numerical trouble
    at the tolerance boundary.
    """
    m, n = c.shape.m, c.shape.n
    eye_n = np.eye(n)

    cp, _ = is_completely_positive(c, tol)
    kraus_gram = check_gram = None
    if cp:
        ops = kraus_from_channel(c, tol).ops
        gram = sum(op.conj().T @ op for op in ops)
        kraus_gram = ml.nearly_equal(gram, eye_n, tol)
        gram_t = sum(op.T @ op.conj() for op in ops)
        check_gram = ml.nearly_equal(gram_t, eye_n, tol)

    s4 = superop_from_channel(c).reshape(m, m, n, n)
    superop_trace_row = ml.nearly_equal(np.einsum("kkjl->jl", s4), eye_n, tol)

    checked = bp.reshuffle_check(c.choi)
    on_identity = (checked @ np.eye(m).reshape(m * m)).reshape(n, n)
    check_on_identity = ml.nearly_equal(on_identity, eye_n, tol)

    first_trace = ml.nearly_equal(bp.partial_trace_1(c.choi), eye_n, tol)

    c4 = c.choi_mat.reshape(m, n, m, n)
    choi_delta_pattern = ml.nearly_equal(np.einsum("kjkl->jl", c4), eye_n, tol)

    return TPConditions(
        kraus_gram=kraus_gram,
        superop_trace_row=superop_trace_row,
        check_gram=check_gram,
        check_on_identity=check_on_identity,
        first_trace=first_trace,
        choi_delta_pattern=choi_delta_pattern,
    )


def is_unital(c: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the operation sends id_n to id_m (second partial trace)."""
    return ml.nearly_equal(bp.partial_trace_2(c.choi), np.eye(c.shape.m), tol)


def is_bistochastic(c: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Trace preserving and unital at once."""
    return is_trace_preserving(c, tol) and is_unital(c, tol)


def is_factorizable(c: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether a completely positive operation is a single conjugation.

    The operation is ``rho -> a rho a†`` for a single nonzero a exactly
    when the block matrix s has rank one, and that is decided by the rank
    rule of :func:`higher_rank` (so the zero operation is not
    factorizable).  The paper's scalar ``(tr F(id_n))^2 - |S|_F^2``
    (with S the superoperator), which vanishes exactly at rank at most
    one, is evaluated from the entries of s (``tr F(id_n) = tr s``, and
    ``|S|_F = |s|_F`` since reshuffling only permutes entries) and
    cross-checked against its eigenvalue form ``(tr s)^2 - tr(s^2)``.
    Requires complete positivity.
    """
    _require_cp(c, tol, "factorizability is defined on the completely positive cone")
    s = c.choi_mat
    t1 = np.trace(s).real
    norm2 = float(np.vdot(s, s).real)
    value = t1 * t1 - norm2
    w, _ = _spectrum(c, tol)
    alt = float(w.sum() ** 2 - w @ w)
    if abs(value - alt) > tol.threshold(t1 * t1 + norm2):
        raise NumericalFailure("factorizability cross-check disagreed")
    return ml.numeric_rank(w, tol) == 1


def higher_rank(c: Channel, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of significant eigenvalues of the Hermitian block matrix.

    Counts the eigenvalue moduli above ``tol.threshold(|s|_F)``
    (:func:`matlin.numeric_rank`), the threshold the positivity test and
    the Kraus cut use, so it equals
    ``len(kraus_from_channel(c, tol))`` on the completely positive cone:
    the minimal number of conjugation terms.  The zero operation is the
    exception, rank 0 with one zero Kraus operator.  Raises
    :class:`NotHermitian` off the Hermitian cone.
    """
    spec = _spectrum(c, tol)
    if spec is None:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return ml.numeric_rank(spec[0], tol)


def is_isometric_channel(c: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Single conjugation by an isometry: CP, trace preserving, rank one."""
    return (
        is_completely_positive(c, tol)[0]
        and is_trace_preserving(c, tol)
        and is_factorizable(c, tol)
    )


def extremal_span_dimension(k: KrausSet, tol: Tolerance = DEFAULT_TOL) -> int:
    """Dimension of span{ a_x† a_y } for a Kraus family.

    For a minimal family of r operators the family is extremal among
    trace-preserving operations exactly when this span has the full
    dimension r^2.
    """
    prods = np.stack(
        [(x.conj().T @ y).reshape(-1) for x in k.ops for y in k.ops]
    )
    return ml.matrix_rank(prods, tol)


def is_extremal_tp(c: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Extremality in the convex set of trace-preserving CP operations.

    Forms the n^2 x n^2 Gram-type matrix
    ``E[(j,j'),(l,l')] = sum_ik conj(s[(i,j),(k,l)]) s[(i,j'),(k,l')]``,
    which is ``(S† S)[(j,l),(j',l')]`` with S the superoperator, and
    whose rank equals the dimension of span{ a_x† a_y } for any minimal
    Kraus family; the operation is extremal iff that rank is r^2 with
    r = higher_rank(c).  Requires CP and trace preservation.
    """
    _require_cp(c, tol, "extremality is defined for completely positive operations")
    if not is_trace_preserving(c, tol):
        raise NotTracePreserving(
            "extremality is defined among trace-preserving operations"
        )
    n = c.shape.n
    s = superop_from_channel(c)
    gram = (s.conj().T @ s).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    with ml._linalg_guard():
        w = np.linalg.eigvalsh(gram)
    rank_gram = ml.numeric_rank(w, tol)
    r = higher_rank(c, tol)
    return rank_gram == r * r


def adjoint_channel(c: Channel) -> Channel:
    """The adjoint operation for the Frobenius pairing.

    Its superoperator is the conjugate transpose of the original one; in
    Kraus terms every a_x becomes a_x†, so input and output dimensions
    swap.
    """
    s = superop_from_channel(c)
    return channel_from_superop(s.conj().T, bp.BipartiteShape(c.shape.n, c.shape.m))


def compose(outer: Channel, inner: Channel) -> Channel:
    """The operation ``outer after inner`` (inner acts first)."""
    if inner.shape.m != outer.shape.n:
        raise DimensionMismatch(
            f"cannot compose: inner outputs {inner.shape.m}, outer expects {outer.shape.n}"
        )
    s = superop_from_channel(outer) @ superop_from_channel(inner)
    return channel_from_superop(s, bp.BipartiteShape(outer.shape.m, inner.shape.n))


def channel_equal(a: Channel, b: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Frobenius comparison of block matrices; shapes must match."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return ml.nearly_equal(a.choi_mat, b.choi_mat, tol)


@dataclass(frozen=True)
class ChannelVerdict:
    """All structural predicates of one operation, evaluated together.

    Every spectral field reads one analysis of the block matrix s (its
    eigensystem on the Hermitian cone, its singular values off it) and
    the one threshold ``tol.threshold(|s|_F)`` of
    :func:`matlin.numeric_rank`.  ``higher_rank`` counts the eigenvalue
    moduli (singular values off the Hermitian cone) above it, so it is
    defined everywhere and equals ``len(kraus_from_channel(c))`` on the
    CP cone, except 0 against 1 for the zero operation.  ``factorizable``
    is reported False off the CP cone, and ``extremal_tp`` is None unless
    the operation is CP and trace preserving.
    """

    hermitian_preserving: bool
    completely_positive: bool
    cp_witness: Optional[bp.BipartiteVector]
    trace_preserving: bool
    unital: bool
    bistochastic: bool
    factorizable: bool
    higher_rank: int
    extremal_tp: Optional[bool]


def channel_verdict(c: Channel, tol: Tolerance = DEFAULT_TOL) -> ChannelVerdict:
    """Evaluate the whole predicate suite on one operation."""
    hp = is_hermitian_preserving(c, tol)
    cp, witness = is_completely_positive(c, tol)
    tp = is_trace_preserving(c, tol)
    unital = is_unital(c, tol)
    rank = higher_rank(c, tol) if hp else ml.matrix_rank(c.choi_mat, tol)
    fact = is_factorizable(c, tol) if cp else False
    ext = is_extremal_tp(c, tol) if (cp and tp) else None
    return ChannelVerdict(
        hermitian_preserving=hp,
        completely_positive=cp,
        cp_witness=witness,
        trace_preserving=tp,
        unital=unital,
        bistochastic=tp and unital,
        factorizable=fact,
        higher_rank=rank,
        extremal_tp=ext,
    )
