"""Dense complex matrix kernel.

Thin, convention-pinning wrappers around numpy's factorizations (the
Schur form is built from ``eig`` and ``qr``, so numpy is the one
dependency).  The wrappers exist so the rest of the package gets one fixed
normalization:

* eigen/singular systems are ordered by decreasing value;
* returned basis columns have their first significant component real and
  non-negative (fixes the arbitrary phase);
* ``qr`` returns an R factor with real non-negative diagonal;
* rank, positivity and invertibility decisions use one shared
  :class:`Tolerance` rule (see :func:`numeric_rank`).

All functions accept anything ``np.asarray`` turns into a complex 2-D
array; bad shapes, non-finite entries and failed factorizations raise
:class:`DimensionMismatch`, :class:`InvalidValue` and :class:`ConvergenceFailure`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidValue,
    NotCompletelyPositive,
    NotHermitian,
    NumericalFailure,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "frobenius_inner",
    "frobenius_norm",
    "nearly_equal",
    "numeric_rank",
    "matrix_rank",
    "hermitian_eig",
    "hermitian_eigvals",
    "svd",
    "qr",
    "schur",
    "polar",
    "sqrt_psd",
]


@dataclass(frozen=True)
class Tolerance:
    """Finite, non-negative absolute/relative tolerance pair.

    A comparison at scale ``s`` uses the threshold ``max(abs, rel * s)``,
    where ``s`` is the Frobenius norm of the largest operand involved and
    must be finite (else :class:`NumericalFailure`).  Rank and positive
    semidefiniteness are judged at a spectrum's 2-norm: the Frobenius norm
    of the matrix, for singular values or a Hermitian matrix's eigenvalues.
    """

    abs: float = 1e-12
    rel: float = 1e-9

    def __post_init__(self):
        if not all(0.0 <= t < math.inf for t in (self.abs, self.rel)):
            raise InvalidValue("tolerances must be finite and non-negative")

    def threshold(self, scale: float) -> float:
        if not math.isfinite(scale):
            raise NumericalFailure(f"cannot compare at a non-finite scale ({scale})")
        return max(self.abs, self.rel * float(scale))


DEFAULT_TOL = Tolerance()


def as_matrix(a) -> np.ndarray:
    """Coerce to a complex 2-D ndarray, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise InvalidValue("matrix entries must be finite")
    return m


@contextmanager
def _linalg_guard():
    """Re-raise numpy's ``LinAlgError`` as :class:`ConvergenceFailure`."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def _frozen_copy(a) -> np.ndarray:
    """Read-only copy of ``a``, checked like :func:`as_matrix`; the wrapper
    types store these, so no write reaches them or comes from them."""
    m = as_matrix(np.array(a, dtype=complex))
    m.flags.writeable = False
    return m


def frobenius_inner(a, b) -> complex:
    """Tr(a† b); conjugate linear in the first argument."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(as_matrix(a)))


def nearly_equal(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Frobenius-distance comparison at the scale of the larger operand."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    scale = max(frobenius_norm(a), frobenius_norm(b))
    return frobenius_norm(a - b) <= tol.threshold(scale)


def numeric_rank(values, tol: Tolerance = DEFAULT_TOL) -> int:
    """Count entries of a 1-D array whose modulus exceeds the rank threshold.

    The threshold is ``tol.threshold(|values|_2)``: for singular values,
    or the eigenvalues of a Hermitian matrix, that is the threshold at
    the matrix's Frobenius norm.  Uniform rescaling of the input does not
    change the answer while the threshold is above the absolute floor.
    """
    mods = np.abs(np.asarray(values))
    return int(np.count_nonzero(mods > tol.threshold(float(np.linalg.norm(mods)))))


def matrix_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """:func:`numeric_rank` of the singular values of ``a``."""
    with _linalg_guard():
        return numeric_rank(np.linalg.svd(as_matrix(a), compute_uv=False), tol)


def _is_psd(w: np.ndarray, tol: Tolerance) -> bool:
    """Whether the eigenvalues ``w`` of a Hermitian matrix clear the
    negative tolerance band, the band of :func:`numeric_rank`."""
    return bool(w.min(initial=0.0) >= -tol.threshold(float(np.linalg.norm(w))))


def _fix_column_phases(u: np.ndarray):
    """Rotate each column so its first significant entry is real >= 0.

    Returns the rotated copy and the unit factor each column was
    multiplied by (1 for a zero column).
    """
    u = np.asarray(u, dtype=complex)
    mags = np.abs(u)
    top = mags.max(axis=0, initial=0.0)
    lead = np.argmax(mags > top * 1e-8, axis=0)
    cols = np.arange(u.shape[1])
    live = top > 0.0
    factors = np.ones(u.shape[1], dtype=complex)
    factors[live] = mags[lead, cols][live] / u[lead, cols][live]
    # Scaling through the transpose runs numpy's column-times-scalar loop,
    # so the bytes match scaling one column at a time; a row-broadcast
    # product can round differently.
    return (u.T * factors[:, np.newaxis]).T, factors


def _hermitian_part(a, tol: Tolerance) -> np.ndarray:
    """(a + a†) / 2 of a square matrix, or :class:`NotHermitian` when ``a``
    deviates from its adjoint beyond tolerance."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {a.shape}")
    if frobenius_norm(a - a.conj().T) > tol.threshold(frobenius_norm(a)):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return (a + a.conj().T) / 2.0


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL):
    """Eigensystem of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` in decreasing order and
    orthonormal eigenvector columns ``v`` (phase-fixed as above), so that
    ``a ~= v @ diag(w) @ v†``.  Raises :class:`NotHermitian` when the
    input deviates from its adjoint beyond tolerance.
    """
    h = _hermitian_part(a, tol)
    with _linalg_guard():
        w, v = np.linalg.eigh(h)
    order = np.argsort(w)[::-1]
    return w[order], _fix_column_phases(v[:, order])[0]


def hermitian_eigvals(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, in decreasing order.

    The spectrum of :func:`hermitian_eig` without the eigenvectors, under
    the same Hermiticity check; it may differ from that one in the last
    digits, since LAPACK computes values alone by another algorithm.
    """
    h = _hermitian_part(a, tol)
    with _linalg_guard():
        w = np.linalg.eigvalsh(h)
    return w[::-1]


def svd(a, tol: Tolerance = DEFAULT_TOL):
    """Rank-truncated singular value decomposition.

    Returns ``(u, s, w)`` with ``a ~= u @ diag(s) @ w†`` where only the
    singular values above the rank threshold of :func:`numeric_rank`
    (``tol.threshold(|a|_F)``) are kept, ``s`` is strictly
    decreasing up to ties, and the columns of ``u`` are phase-fixed (the
    compensating phase goes into ``w``).
    """
    a = as_matrix(a)
    with _linalg_guard():
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = numeric_rank(s, tol)
    u, factors = _fix_column_phases(u[:, :r])
    return u, s[:r], vh[:r].conj().T * factors


def qr(a):
    """Reduced QR with the diagonal of R real and non-negative.

    Requires at least as many rows as columns; Q then has orthonormal
    columns and ``a = q @ r`` with ``r`` upper triangular.
    """
    a = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        raise DimensionMismatch(f"qr needs rows >= cols, got {a.shape}")
    with _linalg_guard():
        q, r = np.linalg.qr(a)
    d = np.diagonal(r).copy()
    # d / |d| overflows for a subnormal d; scaling it by 2**64 is exact
    d[np.abs(d) < np.finfo(float).tiny] *= 2.0**64
    phases = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    q = q * phases[np.newaxis, :]
    r = phases.conj()[:, np.newaxis] * r
    # kill the -0.0 that Householder reflections tend to leave behind
    r = r + 0.0
    return q, r


def schur(a):
    """Complex Schur form ``a = u @ t @ u†`` with t upper triangular.

    The eigenvalues of ``a`` appear on the diagonal of ``t``, and its
    strictly lower part is exactly zero.  The work is done on
    ``b = 2**-e * a``, with e the exponent of the largest real or
    imaginary part of an entry, so that no norm or product overflows or
    loses its digits to subnormal entries; ``t`` is scaled back by 2**e.

    The common path takes the eigenvectors V of b (one ``eig``) and Q of
    the QR of V.  In exact arithmetic V = Q R with R upper triangular, so
    each leading set of columns of Q spans an invariant subspace and
    T = Q† b Q is upper triangular.  The computed T is accepted when its
    strictly lower part L has ``|L|_F <= 8 * n * eps * |b|_F``, with eps
    the machine epsilon.  Where the 8 comes from: two rounding shares make
    L nonzero.  (1) T is two products with a unitary factor.  A complex
    inner product of length n errs by up to ``sqrt(2) * gamma_(n+2)``
    times ``|x|.|y|`` (``gamma_k = k*u / (1 - k*u)``, u = eps/2), and by
    about ``sqrt(2) * sqrt(n) * u`` times that when its roundings are
    independent.  With the n unit columns of Q each product then moves T
    by about ``sqrt(2) * n * u * |b|_F``, and the two by
    ``sqrt(2) * n * eps * |b|_F``.  (2) Each eigenpair from ``eig`` is
    exact for a perturbation of b of the same order (LAPACK's backward
    error), which the QR passes on to L multiplied by at most
    ``|R^-1|``, of order one while the eigenvectors are well conditioned.
    The two shares are about ``2.8 * n * eps * |b|_F`` together, and 8
    leaves a factor of about 3 over that.  On 3000 random complex and
    3000 random real draws for each n from 2 to 64, ``|L|_F`` reached
    ``1.7 * n * eps * |b|_F`` for complex input and 5.1 for real input,
    but for one real draw whose eigenvalues nearly met (20, which the
    deflation then took).  Setting L to zero makes ``u t u†`` exact for a
    perturbation of ``a`` within ``8 * n * eps * |a|_F`` plus share (1),
    the order of the backward error of a Householder-based Schur
    algorithm.

    When the bound fails (a defective or nearly defective ``a``, such as
    a rotated Jordan block, makes |R^-1| large) the form is built by
    deflation: at each step k one eigenvector x of the trailing block
    ``t[k:, k:]`` is mapped to a multiple of the first unit vector by a
    Householder reflection H, applied to the rows and columns of t and to
    the columns of u.  Column k of ``H t[k:, k:] H`` is then the
    eigenvalue times the first unit vector up to the pair's residual,
    which is of the order of eps times the block's norm whatever the
    conditioning, and that residual is set to zero.  This takes n - 1
    more ``eig`` calls, of sizes n down to 2.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {a.shape}")
    parts = _parts(a)
    e = int(np.frexp(np.abs(parts).max(initial=0.0))[1])
    b = np.ldexp(parts, -e).view(complex)
    lower = np.tri(n, k=-1, dtype=bool)
    with _linalg_guard():
        _, v = np.linalg.eig(b)
        u, _ = np.linalg.qr(v)
        t = u.conj().T @ b @ u
        if np.linalg.norm(t[lower]) > 8 * n * np.finfo(float).eps * np.linalg.norm(b):
            u, t = _schur_by_deflation(b)
    t[lower] = 0.0
    return u, np.ldexp(_parts(t), e).view(complex)


def _parts(x: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of a complex matrix side by side, as
    a float view.  :func:`schur` scales them by 2**e with ``np.ldexp``,
    which is exact while the result is normal; a complex product or
    quotient by 2**e can overflow in its intermediate terms, and 2**1074
    is inf."""
    return np.ascontiguousarray(x).view(float)


def _schur_by_deflation(b: np.ndarray):
    """``(u, t)`` with ``b ~= u @ t @ u†`` and the strictly lower part of
    t at rounding level, by one eigenvector and one Householder reflection
    per column (see :func:`schur`, which sets that part to zero); called
    inside its guard."""
    n = b.shape[0]
    t = b.copy()
    u = np.eye(n, dtype=complex)
    for k in range(n - 1):
        _, v = np.linalg.eig(t[k:, k:])
        x = v[:, 0]
        # w = x + phase(x_0) e_1 avoids cancellation; |x| = 1, so
        # |w|^2 = 2 (1 + |x_0|) and H = I - w w† / (1 + |x_0|).  The phase
        # comes from the angle: x_0 / |x_0| overflows for a subnormal x_0
        w = x.copy()
        w[0] += np.exp(1j * np.angle(x[0]))
        h = np.eye(n - k) - np.outer(w, w.conj()) / (1.0 + abs(x[0]))
        t[k:] = h @ t[k:]
        t[:, k:] = t[:, k:] @ h
        u[:, k:] = u[:, k:] @ h
    return u, t


def polar(a):
    """Isometric polar factor of a tall or square matrix.

    Returns ``u`` with ``u† u = id`` and ``a = u @ sqrt(a† a) =
    sqrt(a a†) @ u``, the positive parts restricted to the range of ``a``.
    """
    a = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        raise DimensionMismatch(f"polar needs rows >= cols, got {a.shape}")
    with _linalg_guard():
        u, _, vh = np.linalg.svd(a, full_matrices=False)
    return u @ vh


def sqrt_psd(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues inside the negative tolerance band are clipped to zero;
    anything below the band raises :class:`NotCompletelyPositive`.
    """
    w, v = hermitian_eig(a, tol)
    if not _is_psd(w, tol):
        raise NotCompletelyPositive("matrix has a negative eigenvalue beyond tolerance")
    w = np.clip(w, 0.0, None)
    return v @ (np.sqrt(w)[:, np.newaxis] * v.conj().T)
