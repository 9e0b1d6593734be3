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
    return StateSquare(v.shape.n, bp.BipartiteOperator(v.shape, np.outer(v.data, v.data.conj())))


def _pure_vector(s: bp.BipartiteOperator, tol: Tolerance):
    """The eigenvalues of a Hermitian s, and u with s = u u† if s has rank one (else None):
    the column of the largest diagonal entry is u times conj(u_j) / |u_j|, a phase
    that drops out of every projector and Schmidt coefficient read from u."""
    w = ml.hermitian_eigvals(s.mat, tol)
    if ml.numeric_rank(w, tol) != 1 or w[0] <= 0:
        return w, None
    j = int(np.argmax(s.mat.diagonal().real))
    return w, bp.BipartiteVector(s.shape, s.mat[:, j] / np.sqrt(s.mat[j, j].real))


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
    a = ml.as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0 or ml.matrix_rank(a, tol) < n:
        raise SingularMatrix("matrix is singular within tolerance")
    return _pure(bp.unhat(a, bp.BipartiteShape(n, n)))


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
    return _pure(bp.unhat((wv / sv) @ u.conj().T, v.shape))


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
    mixed, and u u† is read as u from its eigenvalues and one column.
    """
    if isinstance(state, bp.BipartiteOperator):
        w, state = _pure_vector(state, tol)
        if not ml._is_psd(w, tol):
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
