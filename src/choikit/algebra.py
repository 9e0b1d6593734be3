"""Algebraic structure carried by states of a doubled system.

Operators on ``C^n (x) C^n`` compose through their reshuffled
(superoperator) forms; this "diamond" product makes them a semigroup
whose identity element is the unnormalized maximally entangled
projector.  Pure states with invertible matrix form are exactly the
invertible elements, and ``phi: a -> vec(a) vec(a)†`` is a morphism
from the invertible n x n matrices onto that group.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import bipartite as bp
from . import matlin as ml
from .channel import Channel
from .errors import (
    DimensionMismatch,
    NotCompletelyPositive,
    NotTotallyEntangled,
    NumericalFailure,
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
    """Operator on C^n (x) C^n regarded as an element of the semigroup."""

    n: int
    op: bp.BipartiteOperator

    def __post_init__(self):
        if self.op.shape != bp.BipartiteShape(self.n, self.n):
            raise DimensionMismatch(
                f"operator lives on {self.op.shape}, expected ({self.n}, {self.n})"
            )

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat


def diamond(a: StateSquare, b: StateSquare) -> StateSquare:
    """Semigroup product: compose the reshuffled forms, then fold back."""
    if a.n != b.n:
        raise DimensionMismatch(f"dimensions differ: {a.n} vs {b.n}")
    s = bp.reshuffle_hat(a.op) @ bp.reshuffle_hat(b.op)
    return StateSquare(a.n, bp.unreshuffle_hat(s, a.op.shape))


def group_identity(n: int) -> StateSquare:
    """The diamond identity: the unnormalized projector beta beta†."""
    beta = bp.canonical_bell(n).data
    return StateSquare(n, bp.BipartiteOperator(bp.BipartiteShape(n, n), np.outer(beta, beta.conj())))


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
    v = a.reshape(n * n)
    return StateSquare(n, bp.BipartiteOperator(bp.BipartiteShape(n, n), np.outer(v, v.conj())))


def group_inverse(s: StateSquare, tol: Tolerance = DEFAULT_TOL) -> StateSquare:
    """Diamond inverse of a totally entangled pure state.

    The input must be (a positive multiple of) a rank-one projector
    vv† whose matrix form hat(v) is invertible; then the inverse is
    phi of the inverse matrix, and s <> group_inverse(s) equals the
    group identity.  Mixed or degenerate inputs raise
    :class:`NotTotallyEntangled`.
    """
    w, vecs = ml.hermitian_eig(s.mat, tol)
    if ml.numeric_rank(w, tol) != 1 or w[0] <= 0:
        raise NotTotallyEntangled("state is not a rank-one projector")
    a = np.sqrt(w[0]) * vecs[:, 0].reshape(s.n, s.n)
    u, sv, wv = ml.svd(a, tol)
    if sv.size < s.n:
        raise NotTotallyEntangled("matrix form of the state is singular")
    v = ((wv / sv) @ u.conj().T).reshape(s.n * s.n)
    return StateSquare(s.n, bp.BipartiteOperator(s.op.shape, np.outer(v, v.conj())))


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
    schmidt_rank: Optional[int]
    coefficients: Optional[np.ndarray]

    __eq__ = bp._value_eq


def classify_entanglement(
    state: Union[bp.BipartiteVector, bp.BipartiteOperator],
    tol: Tolerance = DEFAULT_TOL,
) -> EntanglementClass:
    """Place a pure or rank-one state in the entanglement hierarchy.

    Product states have Schmidt rank one.  On square shapes (m == n),
    full Schmidt rank means totally entangled (the matrix form is
    invertible); equal coefficients on top of that means maximally
    entangled.  Operator inputs must be Hermitian positive semidefinite
    (:class:`NotCompletelyPositive` otherwise); those of rank two or more
    are reported as mixed.
    """
    if isinstance(state, bp.BipartiteOperator):
        w, vecs = ml.hermitian_eig(state.mat, tol)
        if not ml._is_psd(w, tol):
            raise NotCompletelyPositive("operator input must be positive semidefinite")
        if ml.numeric_rank(w, tol) != 1:
            return EntanglementClass(EntanglementKind.MIXED, None, None)
        state = bp.BipartiteVector(state.shape, np.sqrt(w[0]) * vecs[:, 0])
    u, s, wb = ml.svd(bp.hat(state), tol)
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
    return EntanglementClass(kind, rank, s)


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
    minimum eigenvalue; both sides always agree on the verdict because
    the two partial transposes are transposes of each other.
    """

    is_ppt: bool
    min_eigenvalue: float
    side: str


def ppt_test(s: bp.BipartiteOperator, tol: Tolerance = DEFAULT_TOL) -> PPTVerdict:
    """Check positivity of both partial transposes of a Hermitian operator.

    A partial transpose has the Frobenius norm and the anti-Hermitian
    residual of ``s``, so :func:`matlin.hermitian_eig` raises
    :class:`NotHermitian` exactly when ``s`` is not Hermitian.
    """
    w1, _ = ml.hermitian_eig(bp.partial_transpose_1(s).mat, tol)
    w2, _ = ml.hermitian_eig(bp.partial_transpose_2(s).mat, tol)
    ok1, ok2 = ml._is_psd(w1, tol), ml._is_psd(w2, tol)
    if ok1 != ok2:
        raise NumericalFailure("the two partial transposes disagreed on positivity")
    if w1[-1] < w2[-1]:
        return PPTVerdict(ok1, float(w1[-1]), "first")
    return PPTVerdict(ok2, float(w2[-1]), "second")


def state_as_measurement(s: bp.BipartiteOperator, m_op) -> np.ndarray:
    """Use a state of the doubled system as an operation on measurements.

    Computes ``Tr_2((id (x) m) s (id (x) m†))``, an m x m matrix.  When
    s is the block matrix of an operation F, this equals
    ``F((m† m)^T)``, so measuring the second factor realizes the
    operation on the conjugated effect.
    """
    m_op = ml.as_matrix(m_op)
    n = s.shape.n
    if m_op.shape != (n, n):
        raise DimensionMismatch(f"expected {n} x {n} measurement operator, got {m_op.shape}")
    eye_m = np.eye(s.shape.m)
    sandwiched = bp.kron(eye_m, m_op) @ s.mat @ bp.kron(eye_m, m_op.conj().T)
    return bp.partial_trace_2(bp.BipartiteOperator(s.shape, sandwiched))
