"""Decompositions of bipartite pure states and operator families.

Everything here works through the matrix form ``hat(v)`` of a bipartite
vector: singular values of ``hat(v)`` are the Schmidt coefficients, its
polar factors are square roots of the reduced states, QR and Schur give
triangular normal forms, and stacking a Kraus family block-wise gives
the dilation isometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bipartite as bp
from . import matlin as ml
from .channel import KrausSet, channel_equal, channel_from_kraus
from .errors import DifferentChannels, DimensionMismatch, NumericalFailure
from .matlin import DEFAULT_TOL, Tolerance

__all__ = [
    "SchmidtForm",
    "TriangularForm",
    "Dilation",
    "KrausIsometry",
    "schmidt",
    "polar_of_pure_channel",
    "one_sided_triangular",
    "two_sided_triangular",
    "dilate",
    "find_kraus_isometry",
]


@dataclass(frozen=True)
class SchmidtForm:
    """v = sum_i coefficients[i] * kron(left_basis[:, i], right_basis[:, i]).

    Coefficients are strictly positive and decreasing; both bases have
    orthonormal columns.  ``rank`` is the number of retained terms.
    """

    shape: bp.BipartiteShape
    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    rank: int

    __eq__ = bp._value_eq

    def reconstruct(self) -> bp.BipartiteVector:
        mat = (self.left_basis * self.coefficients) @ self.right_basis.T
        return bp.BipartiteVector(self.shape, mat.reshape(-1))


def schmidt(v: bp.BipartiteVector, tol: Tolerance = DEFAULT_TOL) -> SchmidtForm:
    """Schmidt decomposition of a bipartite vector.

    The squared coefficients are the nonzero eigenvalues of either
    reduced (partially traced) projector of v.
    """
    u, s, w = ml.svd(bp.hat(v), tol)
    return SchmidtForm(
        shape=v.shape,
        coefficients=s,
        left_basis=u,
        right_basis=w.conj(),
        rank=int(s.size),
    )


def polar_of_pure_channel(v: bp.BipartiteVector, tol: Tolerance = DEFAULT_TOL):
    """Polar factors of hat(v), tied back to the reduced states of v.

    Returns ``(u, j, k)`` with u = :func:`matlin.polar` of hat(v),
    ``j = u† hat(v)`` and ``k = hat(v) u†``, so ``hat(v) = u j = k u``.
    j is the transpose of sqrt of the trace of vv† over the first factor,
    k the sqrt of the trace over the second; both are verified, failure
    raising :class:`NumericalFailure`.  Requires m >= n (u isometric).
    """
    a = bp.hat(v)
    u = ml.polar(a)
    j, k = u.conj().T @ a, a @ u.conj().T
    proj = np.outer(v.data, v.data.conj())
    op = bp.BipartiteOperator(v.shape, proj)
    j_bridge = ml.sqrt_psd(bp.partial_trace_1(op), tol).T
    k_bridge = ml.sqrt_psd(bp.partial_trace_2(op), tol)
    scale = max(ml.frobenius_norm(j), 1.0)
    if ml.frobenius_norm(j - j_bridge) > tol.threshold(scale) * 1e3:
        raise NumericalFailure("first reduced state does not match the right polar part")
    if ml.frobenius_norm(k - k_bridge) > tol.threshold(scale) * 1e3:
        raise NumericalFailure("second reduced state does not match the left polar part")
    return u, j, k


@dataclass(frozen=True)
class TriangularForm:
    """Triangular normal form of hat(v).

    One-sided: ``hat(v) = basis_left @ coefficients`` with orthonormal
    columns on the left and upper triangular coefficients whose diagonal
    is real non-negative (``basis_right`` is None).  Two-sided:
    ``hat(v) = basis_left @ coefficients @ basis_right†`` with both
    bases unitary; the diagonal then carries the eigenvalues of hat(v).
    """

    basis_left: np.ndarray
    coefficients: np.ndarray
    basis_right: Optional[np.ndarray] = None

    __eq__ = bp._value_eq

    def reconstruct(self) -> np.ndarray:
        if self.basis_right is None:
            return self.basis_left @ self.coefficients
        return self.basis_left @ self.coefficients @ self.basis_right.conj().T


def one_sided_triangular(v: bp.BipartiteVector) -> TriangularForm:
    """QR form of hat(v); needs m >= n."""
    q, r = ml.qr(bp.hat(v))
    return TriangularForm(basis_left=q, coefficients=r)


def two_sided_triangular(v: bp.BipartiteVector) -> TriangularForm:
    """Schur form of hat(v); needs m == n.

    The same unitary appears on both sides, and the diagonal of the
    coefficient matrix is the eigenvalue multiset of hat(v).
    """
    u, t = ml.schur(bp.hat(v))
    return TriangularForm(basis_left=u, coefficients=t, basis_right=u)


@dataclass(frozen=True)
class Dilation:
    """Block-stacked isometry-like dilation of a Kraus family.

    ``matrix`` is the (r*m) x n stack of the r operators, a view of the
    family's ``stack``; ``gram`` is matrix† matrix = sum_x a_x† a_x, which
    equals id_n exactly when the family is trace preserving (making
    ``matrix`` an isometry).
    """

    ancilla_dim: int
    matrix: np.ndarray
    gram: np.ndarray

    __eq__ = bp._value_eq

    def act(self, rho) -> np.ndarray:
        """Conjugate by the dilation, then trace out the ancilla factor."""
        rho = ml.as_matrix(rho)
        n = self.matrix.shape[1]
        if rho.shape != (n, n):
            raise DimensionMismatch(f"expected {n} x {n} input, got {rho.shape}")
        big = self.matrix @ rho @ self.matrix.conj().T
        r = self.ancilla_dim
        m = self.matrix.shape[0] // r
        return np.einsum("pipk->ik", big.reshape(r, m, r, m))


def dilate(k: KrausSet) -> Dilation:
    """Stack a Kraus family into a single dilation block column."""
    matrix = k.stack.reshape(-1, k.shape.n)
    return Dilation(ancilla_dim=len(k), matrix=matrix, gram=matrix.conj().T @ matrix)


@dataclass(frozen=True)
class KrausIsometry:
    """Isometric mixing matrix between two Kraus families.

    For ``direction == "a_from_b"`` the relation is
    ``a_x = sum_y matrix[x, y] b_y`` with ``matrix† matrix = id``;
    ``"b_from_a"`` states the same with the roles swapped.  The larger
    family is always the one being expressed.
    """

    matrix: np.ndarray
    direction: str

    __eq__ = bp._value_eq


def _mix_isometry(big: np.ndarray, small: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Isometric u (p x q, p >= q) with u @ small == big, rows flattened ops.

    From big = u small, big small† = u G with G = small small† positive
    semidefinite, so the polar factor of big small† agrees with u on
    range(G), which contains range(small).
    """
    q = small.shape[0]
    u = ml.polar(big @ small.conj().T)
    resid = ml.frobenius_norm(u @ small - big)
    if resid > tol.threshold(ml.frobenius_norm(big)) * 1e3:
        raise NumericalFailure("mixing matrix does not reproduce the larger family")
    if ml.frobenius_norm(u.conj().T @ u - np.eye(q)) > tol.threshold(float(np.sqrt(q))) * 1e3:
        raise NumericalFailure("mixing matrix failed to be isometric")
    return u


def find_kraus_isometry(a: KrausSet, b: KrausSet, tol: Tolerance = DEFAULT_TOL) -> KrausIsometry:
    """Recover the isometry connecting two Kraus families of one operation.

    The families must have equal operator sizes (:class:`DimensionMismatch`
    from :func:`channel_equal` otherwise) and equal block matrices
    (:class:`DifferentChannels` otherwise).  The unitary freedom
    of Kraus decompositions guarantees such an isometry exists; the
    larger family is expressed in terms of the smaller one.
    """
    if not channel_equal(channel_from_kraus(a), channel_from_kraus(b), tol):
        raise DifferentChannels("the two families describe different operations")
    if len(a) >= len(b):
        return KrausIsometry(_mix_isometry(a.stack, b.stack, tol), "a_from_b")
    return KrausIsometry(_mix_isometry(b.stack, a.stack, tol), "b_from_a")
