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
Extremality reads the minimal Kraus family that spectrum gives
(:func:`kraus_from_channel`) and takes the rank of its products
a_x† a_y (:func:`extremal_span_dimension`), so it costs no second
analysis of ``s`` and never forms the superoperator.
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
    kept here, one per tolerance, and every predicate and the positivity
    search's screen read it.  ``factor`` is None, or the read-only
    (m*n) x r matrix A with ``s = A A†`` and r < m*n that
    :func:`channel_from_kraus` sets; :func:`_spectrum` alone reads it, to
    take the spectrum off A.
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
        stack = np.asarray(self.ops, dtype=complex).reshape(len(self.ops), m * n)
        # a tuple or list of operators is gathered into new memory
        stack = ml._frozen(stack, None if isinstance(self.ops, (tuple, list)) else self.ops)
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
    c = Channel(bp.BipartiteOperator._own(k.shape, ml._frozen(k.stack.T @ k.stack.conj())))
    if len(k) < k.shape.dim:
        # set only here, so A A† is the block matrix
        object.__setattr__(c, "factor", k.stack.T)
    return c


def kraus_from_channel(c: Channel, tol: Tolerance = DEFAULT_TOL) -> KrausSet:
    """Minimal Kraus family from the eigensystem of the block matrix.

    Requires the block matrix to be Hermitian positive semidefinite
    within tolerance; a negative eigenvalue beyond the threshold raises
    :class:`NotCompletelyPositive` carrying the witness eigenvector.
    Its members are the columns of ``v[:, :r] * sqrt(w[:r])`` for the
    memoised spectrum (w, v) and r = ``higher_rank(c)``, never the
    channel's ``factor``, whose members may be dependent.  So eigenvalues
    inside the tolerance band of :func:`matlin.numeric_rank` are dropped
    and the members are ordered by decreasing weight; a family is never
    empty, so the zero operation (rank 0) gets one zero operator.
    """
    _require_cp(c, tol, "block matrix is not positive semidefinite")
    w, v = _spectrum(c, tol)
    r = ml.numeric_rank(w, tol)
    if r == 0:
        return KrausSet(c.shape, (np.zeros((c.shape.m, c.shape.n)),))
    a = v[:, :r] * np.sqrt(w[:r])
    return KrausSet(c.shape, tuple(a.T.reshape(-1, c.shape.m, c.shape.n)))


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


def _screen_values(
    ops: np.ndarray, weights: np.ndarray, psi: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """``sum_x weights[x] |phi† a_x psi|^2`` for one batch of draws, from
    the operators ``ops`` (r x m x n) and one signed weight each: the value
    of ``rho -> sum_x weights[x] a_x rho a_x†``, at r*m*n cost per pair."""
    f = np.zeros(psi.shape[0])
    bra = phi.conj()
    for op, weight in zip(ops, weights):
        y = np.einsum("si,si->s", bra, psi @ op.T)
        f += weight * (y.real**2 + y.imag**2)
    return f


_held_draws = None  # (key, psi, phi) of the last set :func:`_draws` drew


def _draws(seed: int, samples: int, n: int, m: int):
    """The positivity search's pairs: ``samples`` unit psi in C^n and phi
    in C^m from ``numpy.random.default_rng(seed)``, in the order that
    :func:`check_positive_preserving` describes.

    They depend on these four arguments alone, so the last set is kept,
    read-only, and returned again for the same four.  On any other call
    the kept set is dropped before the new one is drawn, so no call holds
    two sets at once.
    """
    global _held_draws
    key = (seed, samples, n, m)
    held = _held_draws  # read once: a concurrent call may replace it
    if held is not None and held[0] == key:
        return held[1], held[2]
    _held_draws = held = None
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    phi = rng.standard_normal((samples, m)) + 1j * rng.standard_normal((samples, m))
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    psi.flags.writeable = phi.flags.writeable = False
    _held_draws = (key, psi, phi)
    return psi, phi


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
    The pairs are a function of ``(seed, samples, n, m)`` alone, never of
    the channel, so the last set drawn is kept read-only for the next call
    with the same four; the witnesses are copies of it.

    The pairs are evaluated in near-equal chunks of at most 1024, so
    beyond the draws (``samples * (n + m)`` complex numbers) memory stays
    at one chunk's ``1024 * (n^2 + m^2)`` whatever ``samples`` is.  The
    values are the bytes of evaluating all pairs in one batch.
    ``samples`` is an integer from 1 to :data:`MAX_SAMPLES` and ``seed`` a
    non-negative integer (``bool`` is neither), else :class:`InvalidValue`.

    The search is screened through the spectrum (w, v) of s that the
    predicates read (:func:`_spectrum`), so only the chunks holding a pair
    the screen cannot settle go through the superoperator.  On the product
    vector ``x = phi (x) conj(psi)`` the value is ``x† s x``.  With the
    shift c the median of w (c = 0 when v has fewer columns than w: a
    factor's spectrum stores no null vectors), K the indices with
    ``|w_i - c| > thr`` and u_i the columns of v,

        ``s = c*I + sum_(i in K) (w_i - c) u_i u_i† + E``.

    When 4*|K| <= m*n every pair gets the screen value
    ``f = c + sum_(i in K) (w_i - c) |phi† hat(u_i) psi|^2``, at |K|*m*n
    cost per pair against (m*n)^2, but in |K| passes over the pairs, so a
    wider K is not screened; nor is a channel off the Hermitian cone,
    which has no spectrum.  E is formed once, in one (m*n)^2 buffer.
    The distance of f from the computed value v follows from the standard
    forward-error bounds: a complex inner product of length k is within
    ``sqrt(2)*gamma_(k+2) |x|.|y|``, with ``gamma_k = k*u / (1 - k*u)``,
    u = eps/2 and eps the machine epsilon.  With
    ``|psi| = |phi| = |u_i| = 1``, ``|psi psi†|_F = 1``, ``|S|_F = |s|_F``
    (S the superoperator) and ``D = sum_(i in K) |w_i - c|``:

    * v is within ``sqrt(2)*(gamma_2 + gamma_(n^2+2) + gamma_(m^2+4)) |s|_F
      <= (m^2 + n^2 + 8)*eps*|s|_F`` of ``x† s x``, through the projector,
      the product with S and the three-operand sum;
    * f is within ``(2*sqrt(2)*(gamma_(m+2) + gamma_(n+2)) + gamma_(|K|+3)) D
      + gamma_|K| |c| <= (2*(m + n) + |K| + 8)*eps*D + |K|*eps*|c|`` of
      ``c + sum_(i in K) (w_i - c) |u_i† x|^2``, through hat(u_i) psi,
      phi† (hat(u_i) psi), the weighted square and the sum; ``|x|^2`` is 1
      within ``(m + n + 8)*eps``, so that value is within as much times |c|
      of ``c |x|^2 + ...``;
    * the two true values differ by ``x† E x``, at most ``|E|_F |x|^2``.
      E is formed as ``(s - P) - c*I``, P the product
      ``sum_(i in K) (w_i - c) u_i u_i†``, within
      ``sqrt(2)*gamma_(|K|+2) D + u*(|s|_F + D) <= (|K| + 3)*eps*D +
      eps*|s|_F`` of its true value in Frobenius norm, and its norm e is
      computed within ``(m^2 n^2 + 4)*eps/4`` relative, so with
      ``rho = 1 + 2*(m^2 n^2 + 8)*eps`` the difference is at most rho*e
      plus that forming error.

    With ``sigma = max(|s|_F, |c| + D)`` and
    ``N = m^2 + n^2 + (|K| + 2)*(m + n) + 8``, the eps terms add to at most
    2N*eps*sigma, a quarter of the second term of
    ``delta = rho*e + 8*N*eps*sigma``; the rest covers second-order terms,
    unit norms that hold only to rounding and the rounding of the
    comparisons below.  So ``|f - v| <= delta`` for every pair.  A chunk is
    evaluated exactly when it holds a possible minimiser, a pair with
    ``f <= min f + 2*delta``, or a possible violation, a pair with
    ``f < -thr + delta``, at or before the first certain one, the first
    pair with ``f < -thr - delta``.  A pair that is not a possible
    minimiser has ``v > min f + delta``, which is at least v of the pair
    minimising f, so the minimum of v lies among the evaluated pairs.  A
    pair that is not a possible violation has ``v >= -thr``, and the first
    certain one has ``v < -thr`` and is evaluated, so the first violation
    lies among them too.  A chunk is evaluated as it is without the
    screen, so every number reported keeps its bytes.
    """
    if not _is_int(samples) or not 1 <= samples <= MAX_SAMPLES:
        raise InvalidValue(f"samples must be an integer from 1 to {MAX_SAMPLES}, got {samples!r}")
    if not _is_int(seed) or seed < 0:
        raise InvalidValue(f"seed must be a non-negative integer, got {seed!r}")
    m, n = c.shape.m, c.shape.n
    psi, phi = _draws(seed, samples, n, m)
    norm_s = ml.frobenius_norm(c.choi_mat)
    thr = tol.threshold(norm_s)
    # with threaded BLAS a short product can round differently from a
    # long one, so no chunk is much shorter than the others
    k = -(-samples // _CHUNK)
    edges = [samples * i // k for i in range(k + 1)]
    chunks = list(zip(edges, edges[1:]))
    screen = _screen_form(c, tol, norm_s, thr)
    if screen is not None:
        # whole chunks, not single pairs: with threaded BLAS a product's
        # bytes can depend on its row count
        ops, weights, shift, delta = screen
        f = shift + np.concatenate(
            [_screen_values(ops, weights, psi[lo:hi], phi[lo:hi]) for lo, hi in chunks]
        )
        keep = f < -thr + delta
        sure = np.flatnonzero(f < -thr - delta)
        if sure.size:
            keep[sure[0] + 1 :] = False
        keep |= f <= f.min() + 2 * delta
        chunks = [(lo, hi) for lo, hi in chunks if keep[lo:hi].any()]
    st = superop_from_channel(c).T
    vals = np.full(samples, np.inf)
    for lo, hi in chunks:
        vals[lo:hi] = _exact_values(st, psi[lo:hi], phi[lo:hi])
    bad = np.flatnonzero(vals < -thr)
    witness_psi = witness_phi = None
    if bad.size:
        witness_psi, witness_phi = psi[bad[0]].copy(), phi[bad[0]].copy()
        witness_psi.flags.writeable = witness_phi.flags.writeable = False
    return PositivityVerdict(
        outcome="NoViolationFound" if witness_psi is None else "NotPositive",
        samples_used=samples,
        min_value=float(vals.min()),
        witness_psi=witness_psi,
        witness_phi=witness_phi,
    )


def _screen_form(c: Channel, tol: Tolerance, norm_s: float, thr: float):
    """``(ops, weights, c, delta)`` of the screen that
    :func:`check_positive_preserving` describes: the hat(u_i) and the
    w_i - c for i in K, the shift and the bound; None when the channel is
    not screened."""
    spec = _spectrum(c, tol)
    if spec is None:
        return None
    w, v = spec
    m, n, dim = c.shape.m, c.shape.n, w.size
    # w is in decreasing order; np.median would hold 0.6 MB from its first call on
    shift = (w[(dim - 1) // 2] + w[dim // 2]) / 2 if v.shape[1] == dim else 0.0
    big = np.flatnonzero(np.abs(w - shift) > thr)
    # measured at d = 8: 16 directions screen in 9.7 ms against 12.2 ms for
    # all pairs, 32 in 16.5 ms against 11.6 ms
    if 4 * big.size > dim:
        return None
    u = v[:, big]
    weights = w[big] - shift
    e = (u * weights) @ u.conj().T
    np.subtract(c.choi_mat, e, out=e)
    e.reshape(-1)[:: dim + 1] -= shift
    eps = np.finfo(float).eps
    rho = 1 + 2 * (dim * dim + 8) * eps
    big_n = m * m + n * n + (big.size + 2) * (m + n) + 8
    sigma = max(norm_s, abs(shift) + float(np.abs(weights).sum()))
    delta = rho * float(np.linalg.norm(e)) + 8 * big_n * eps * sigma
    return u.T.reshape(-1, m, n), weights, shift, delta


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
    """Dimension of span{ a_x† a_y } for a Kraus family: the numeric rank
    (:func:`matlin.matrix_rank`) of the n^2 x r^2 matrix whose columns are
    the vec(a_x† a_y).  A minimal family of r operators is extremal among
    trace-preserving operations exactly when it is r^2.
    """
    ops = k.stack.reshape(len(k), k.shape.m, k.shape.n)
    p = np.einsum("xij,yil->jlxy", ops.conj(), ops).reshape(k.shape.n**2, -1)
    return ml.matrix_rank(p, tol)


def is_extremal_tp(c: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Extremality in the convex set of trace-preserving CP operations.

    The operation is extremal iff span{ a_x† a_y } has the full dimension
    r^2, with r = higher_rank(c) and the a_x any Kraus family of it.  As
    the span lies in the n x n matrices, r > n is never extremal, and is
    answered at once.  Otherwise the span is that of the minimal family
    :func:`kraus_from_channel` reads off the memoised spectrum, and its
    dimension is :func:`extremal_span_dimension`.  Requires CP and trace
    preservation.
    """
    _require_cp(c, tol, "extremality is defined for completely positive operations")
    if not is_trace_preserving(c, tol):
        raise NotTracePreserving(
            "extremality is defined among trace-preserving operations"
        )
    r = higher_rank(c, tol)
    if r > c.shape.n:
        return False
    return extremal_span_dimension(kraus_from_channel(c, tol), tol) == r * r


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
