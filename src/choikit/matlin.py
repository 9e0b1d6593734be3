"""Dense complex matrix kernel.

Thin, convention-pinning wrappers around numpy/scipy factorizations.  The
wrappers exist so the rest of the package gets one fixed normalization:

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
    if not np.all(np.isfinite(m)):
        raise InvalidValue("matrix entries must be finite")
    return m


@contextmanager
def _linalg_guard():
    """Re-raise a ``LinAlgError`` as :class:`ConvergenceFailure` (scipy's
    is numpy's class)."""
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


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL):
    """Eigensystem of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` in decreasing order and
    orthonormal eigenvector columns ``v`` (phase-fixed as above), so that
    ``a ~= v @ diag(w) @ v†``.  Raises :class:`NotHermitian` when the
    input deviates from its adjoint beyond tolerance.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {a.shape}")
    if frobenius_norm(a - a.conj().T) > tol.threshold(frobenius_norm(a)):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    with _linalg_guard():
        w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    return w[order], _fix_column_phases(v[:, order])[0]


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
    phases = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    q = q * phases[np.newaxis, :]
    r = phases.conj()[:, np.newaxis] * r
    # kill the -0.0 that Householder reflections tend to leave behind
    r = r + 0.0
    return q, r


def schur(a):
    """Complex Schur form ``a = u @ t @ u†`` with t upper triangular.

    The eigenvalues of ``a`` appear on the diagonal of ``t``.
    """
    import scipy.linalg  # imported here: the only scipy call, and a slow import

    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {a.shape}")
    with _linalg_guard():
        t, u = scipy.linalg.schur(a, output="complex")
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
