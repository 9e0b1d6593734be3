"""Algebraic structure carried by states of a doubled system.

The "diamond" product of operators on ``C^n (x) C^n`` is the composition
of the operations they are the block matrices of (:func:`channel.compose`),
a semigroup whose identity is the unnormalized maximally entangled
projector.  Pure states with invertible matrix form are exactly the
invertible elements, and ``phi: a -> vec(a) vec(a)†`` is a morphism from
the invertible n x n matrices onto that group.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass
from typing import Optional, Union

import numpy as np

from . import bipartite as bp
from . import matlin as ml
from .channel import Channel, compose
from .errors import (
    DimensionMismatch,
    NotCompletelyPositive,
    NotTotallyEntangled,
    SingularMatrix,
)
from .matlin import DEFAULT_TOL, Tolerance

__all__ = [
    "StateSquare",
    "EntanglementKind",
    "EntanglementClass",
    "PPTVerdict",
    "diamond",
    "group_identity",
    "group_inverse",
    "phi_homomorphism",
    "classify_entanglement",
    "schur_product_channels",
    "dual_functional",
    "ppt_test",
    "state_as_measurement",
]


@dataclass(frozen=True)
class StateSquare:
    """Operator on C^n (x) C^n as a semigroup element; n is checked against op, not stored."""

    n: InitVar[int]
    op: bp.BipartiteOperator

    def __post_init__(self, n):
        if self.op.shape != bp.BipartiteShape(n, n):
            raise DimensionMismatch(f"operator lives on {self.op.shape}, expected ({n}, {n})")

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat


def _pure(v: bp.BipartiteVector) -> StateSquare:
    """The projector v v† of a vector on a square shape."""
    return StateSquare(v.shape.n, bp.BipartiteOperator._own(v.shape, ml._frozen(np.outer(v.data, v.data.conj()))))


def _pure_vector(s: bp.BipartiteOperator, tol: Tolerance):
    """``(psd, u)``: whether the Hermitian s is positive semidefinite, and u
    with s = u u† when s has rank one (else None), as the eigenvalues w of
    :func:`matlin.hermitian_eigvals` decide them: rank one is
    ``numeric_rank(w) == 1`` with ``w[0] > 0``, which makes s positive
    semidefinite too.  u is the column of the largest diagonal entry
    divided by its square root: u times conj(u_j) / |u_j|, a phase that
    drops out of every projector and Schmidt coefficient read from u.

    Rank one is certified without a spectrum when u shows it.  Let N be
    the order of s, T(x) = ``tol.threshold(x)``, ``r = |s - u u†|_F`` and
    eps the machine epsilon.  Then ``|s - s†|_F <= 2r``; the Hermitian
    part h of s is within r of u u† and ``|h|_F >= |s|_F - r``.  By
    Weyl's inequality the eigenvalues of h other than the largest lie
    within r of 0, and the largest is at least ``|u|^2 - r``.  LAPACK's
    eigenvalues are exact for h + E with ``|E|_F <= p(N)*eps*|h|_F``
    (Householder reduction to tridiagonal form, then the tridiagonal QR
    iteration), so by Hoffman-Wielandt each computed eigenvalue, and
    their 2-norm, on which ``numeric_rank`` sets its threshold, move by at
    most |E|_F.  The worst-case analysis of the N - 2 two-sided
    reflections gives p(N) of order N^2; on random rank-one h the error
    was below 5*eps*|h|_F for N from 4 to 256.  The computed h is within
    eps*|s|_F of (s + s†)/2, and the computed r, |u|^2 and |s|_F are sums
    of at most 2N^2 squares of entries rounded once or twice, so they are
    within ``(2N^2 + 4)*eps*(|s|_F + |u|^2)`` of the true values.  The
    margin ``mu = 8*N^2*eps*(|s|_F + |u|^2)`` covers
    both shares, so when

    * ``2r + mu < T(|s|_F)``, s passes the Hermiticity check of
      ``hermitian_eigvals``, which compares the computed ``|s - s†|_F``
      with that threshold;
    * ``r + mu < T(|s|_F - r - mu)``, every eigenvalue but the largest is
      inside the rank threshold;
    * ``|u|^2 - r - mu > T(|s|_F + mu)``, the largest is above it;

    and the eigenvalues would give rank one.  At N = 64 the margin is
    about 1.5e-11 of |s|_F, far inside the default rel of 1e-9.

    Otherwise the eigenvalues decide, exactly as without the certificate,
    and u is read again outside it.  The certificate ignores
    floating-point warnings: entries whose squares overflow, or a largest
    diagonal entry that is not positive, make a norm infinite or NaN,
    and it declines.
    """
    a = s.mat
    dim = a.shape[0]
    j = int(np.argmax(a.diagonal().real))
    with np.errstate(all="ignore"):
        norm_s = ml._norm(a)
        u = a[:, j] / np.sqrt(a[j, j].real)
        r = ml._norm(a - np.outer(u, u.conj()))
        uu = float(np.vdot(u, u).real)
    if math.isfinite(norm_s + r + uu):
        mu = 8 * dim * dim * np.finfo(float).eps * (norm_s + uu)
        if (
            2 * r + mu < tol.threshold(norm_s)
            and r + mu < tol.threshold(max(norm_s - r - mu, 0.0))
            and uu - r - mu > tol.threshold(norm_s + mu)
        ):
            return True, _owned_vector(s.shape, u)
    w = ml.hermitian_eigvals(a, tol)
    if ml.numeric_rank(w, tol) != 1 or w[0] <= 0:
        return ml._is_psd(w, tol), None
    return ml._is_psd(w, tol), _owned_vector(s.shape, a[:, j] / np.sqrt(a[j, j].real))


def _owned_vector(shape: bp.BipartiteShape, data: np.ndarray) -> bp.BipartiteVector:
    """The vector holding ``data``, a 1-D array just computed, checked
    and made read-only in place (:func:`matlin._frozen`)."""
    return bp.BipartiteVector._own(shape, ml._frozen(data[:, np.newaxis])[:, 0])


def diamond(a: StateSquare, b: StateSquare) -> StateSquare:
    """Semigroup product: the block matrix of ``a``'s operation after ``b``'s."""
    return StateSquare(a.op.shape.n, compose(Channel(a.op), Channel(b.op)).choi)


def group_identity(n: int) -> StateSquare:
    """The diamond identity: the unnormalized projector beta beta†."""
    return _pure(bp.canonical_bell(n))


def phi_homomorphism(a, tol: Tolerance = DEFAULT_TOL) -> StateSquare:
    """phi(a) = vec(a) vec(a)† for an invertible square matrix a.

    Satisfies phi(a b) = phi(a) <> phi(b) under the diamond product and
    phi(id) = the group identity.  Singular input raises
    :class:`SingularMatrix` since phi lands in the group of invertible
    elements only for invertible a.
    """
    a = ml._frozen_copy(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0 or ml.matrix_rank(a, tol) < n:
        raise SingularMatrix("matrix is singular within tolerance")
    data = a.reshape(n * n)  # a view of the checked copy, or a copy when a is column-major
    data.flags.writeable = False
    return _pure(bp.BipartiteVector._own(bp.BipartiteShape(n, n), data))


def group_inverse(s: StateSquare, tol: Tolerance = DEFAULT_TOL) -> StateSquare:
    """Diamond inverse of a totally entangled pure state.

    The input must be (a positive multiple of) a rank-one projector
    vv† whose matrix form hat(v) is invertible; then the inverse is
    phi of the inverse matrix, and s <> group_inverse(s) equals the
    group identity.  Mixed or degenerate inputs raise
    :class:`NotTotallyEntangled`.
    """
    _, v = _pure_vector(s.op, tol)
    if v is None:
        raise NotTotallyEntangled("state is not a rank-one projector")
    u, sv, wv = ml.svd(bp.hat(v), tol)
    if sv.size < v.shape.n:
        raise NotTotallyEntangled("matrix form of the state is singular")
    return _pure(_owned_vector(v.shape, ((wv / sv) @ u.conj().T).reshape(-1)))


class EntanglementKind(enum.Enum):
    PRODUCT = "product"
    ENTANGLED = "entangled"
    TOTALLY_ENTANGLED = "totally_entangled"
    MAXIMALLY_ENTANGLED = "maximally_entangled"
    MIXED = "mixed"


@dataclass(frozen=True)
class EntanglementClass:
    """Classification of a bipartite state by Schmidt structure.

    ``schmidt_rank`` and ``coefficients`` are set for pure inputs
    (rank-one operators included) and None for mixed ones.
    """

    kind: EntanglementKind
    coefficients: Optional[np.ndarray]

    __eq__ = bp._value_eq

    @property
    def schmidt_rank(self) -> Optional[int]:
        return None if self.coefficients is None else self.coefficients.size


def classify_entanglement(
    state: Union[bp.BipartiteVector, bp.BipartiteOperator],
    tol: Tolerance = DEFAULT_TOL,
) -> EntanglementClass:
    """Place a pure or rank-one state in the entanglement hierarchy.

    Product states have Schmidt rank one.  On square shapes (m == n),
    full Schmidt rank means totally entangled (the matrix form is
    invertible); equal coefficients on top of that means maximally
    entangled.  Operator inputs must be Hermitian positive semidefinite
    (:class:`NotCompletelyPositive` otherwise); those of rank two or more are
    mixed, and u u† is read as u from one column, its rank one certified
    without an eigensolve when the residual allows (:func:`_pure_vector`).
    """
    if isinstance(state, bp.BipartiteOperator):
        psd, state = _pure_vector(state, tol)
        if not psd:
            raise NotCompletelyPositive("operator input must be positive semidefinite")
        if state is None:
            return EntanglementClass(EntanglementKind.MIXED, None)
    u, s, wb = ml.svd(bp.hat(state), tol)
    s.flags.writeable = False
    rank = int(s.size)
    m, n = state.shape.m, state.shape.n
    if rank <= 1:
        kind = EntanglementKind.PRODUCT
    elif m == n and rank == n:
        spread = float(s[0] - s[-1])
        if spread <= tol.threshold(float(s[0])):
            kind = EntanglementKind.MAXIMALLY_ENTANGLED
        else:
            kind = EntanglementKind.TOTALLY_ENTANGLED
    else:
        kind = EntanglementKind.ENTANGLED
    return EntanglementClass(kind, s)


def schur_product_channels(a: Channel, b: Channel) -> Channel:
    """Entrywise product of block matrices (equivalently of superoperators).

    Because reshuffling permutes entries, the entrywise product commutes
    with it; the result is completely positive whenever both factors are
    (entrywise products of positive semidefinite matrices are positive
    semidefinite).
    """
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return Channel(bp.BipartiteOperator(a.shape, a.choi_mat * b.choi_mat))


def dual_functional(e: bp.BipartiteOperator):
    """The linear functional s -> Tr(e† s) induced by a fixed operator e.

    Evaluating it on the block matrix of an operation gives the same
    number as summing ``Tr(E(b)† F(b))`` over a matrix-unit basis, where
    E and F are the operations with block matrices e and s.
    """
    em = e.mat

    def functional(s: Union[bp.BipartiteOperator, np.ndarray]) -> complex:
        return ml.frobenius_inner(em, s.mat if isinstance(s, bp.BipartiteOperator) else s)

    return functional


@dataclass(frozen=True)
class PPTVerdict:
    """Outcome of the partial-transpose positivity test.

    ``side`` names the factor whose transposition produced the reported
    minimum eigenvalue.  The two partial transposes are transposes of
    each other, so their spectra are equal and only the second one is
    computed: ``side`` is always ``"second"``.
    """

    is_ppt: bool
    min_eigenvalue: float
    side: str


def ppt_test(s: bp.BipartiteOperator, tol: Tolerance = DEFAULT_TOL) -> PPTVerdict:
    """Check positivity of the partial transposes of a Hermitian operator.

    The two partial transposes are transposes of each other, hence have
    one spectrum; this takes the eigenvalues alone of the second.  A
    partial transpose has the Frobenius norm and the anti-Hermitian
    residual of ``s``, so :func:`matlin.hermitian_eigvals` raises
    :class:`NotHermitian` exactly when ``s`` is not Hermitian.
    """
    w = ml.hermitian_eigvals(bp.partial_transpose_2(s).mat, tol)
    return PPTVerdict(ml._is_psd(w, tol), float(w[-1]), "second")


def state_as_measurement(s: bp.BipartiteOperator, m_op) -> np.ndarray:
    """Use a state of the doubled system as an operation on measurements.

    Computes ``Tr_2((id (x) m) s (id (x) m†))``, an m x m matrix.  When
    s is the block matrix of an operation F, this equals
    ``F((m† m)^T)``, so measuring the second factor realizes the
    operation on the conjugated effect.  The trace over the second factor
    leaves only the effect m† m, so this is one contraction of s with it,
    ``sum_jl s[(a,j),(b,l)] (m† m)[l,j]``: O(m^2 n^2) work, with no
    operator on the whole space formed.
    """
    m_op = ml.as_matrix(m_op)
    m, n = s.shape.m, s.shape.n
    if m_op.shape != (n, n):
        raise DimensionMismatch(f"expected {n} x {n} measurement operator, got {m_op.shape}")
    return np.einsum("ajbl,lj->ab", s.mat.reshape(m, n, m, n), m_op.conj().T @ m_op)
