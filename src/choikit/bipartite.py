"""Bipartite index bookkeeping: vec/unvec, reshuffling, partial maps.

Conventions, fixed once for the whole package:

* The product basis vector ``|i>|j>`` of ``C^m (x) C^n`` sits at flat
  position ``i*n + j`` (row-major, matching ``np.kron``).
* ``hat`` folds a length ``m*n`` vector into the ``m x n`` matrix whose
  ``(i, j)`` entry is component ``i*n + j``; ``unhat`` is its inverse.
  So ``hat(kron(x, y)) == outer(x, y)`` and matrix action reads
  ``hat(v) @ w``.
* For an operator ``s`` on ``C^m (x) C^n`` with entries
  ``s[(i,j),(k,l)]``, ``reshuffle_hat`` produces the ``m^2 x n^2``
  matrix ``S[(i,k),(j,l)] = s[(i,j),(k,l)]`` with row groups of size m
  and column groups of size n.  ``reshuffle_check`` is its transpose.
  When ``s`` is the block matrix of an operation, ``reshuffle_hat(s)``
  is the matrix of the linear map it induces on vectorized operators.
* ``partial_trace_1`` sums over the first factor (result ``n x n``),
  ``partial_trace_2`` over the second (result ``m x m``).
* ``partial_transpose_1`` / ``_2`` transpose one factor's indices in
  place; the two results are transposes of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidValue
from .matlin import _frozen_copy, as_matrix

__all__ = [
    "BipartiteShape",
    "BipartiteVector",
    "BipartiteOperator",
    "kron",
    "hat",
    "unhat",
    "check",
    "reshuffle_hat",
    "unreshuffle_hat",
    "reshuffle_check",
    "partial_trace_1",
    "partial_trace_2",
    "partial_transpose_1",
    "partial_transpose_2",
    "canonical_bell",
]


@dataclass(frozen=True)
class BipartiteShape:
    """Factor dimensions (m, n) of C^m (x) C^n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InvalidValue(f"factor dimensions must be positive, got {self}")

    @property
    def dim(self) -> int:
        return self.m * self.n


def _as_vector(data, length: int) -> np.ndarray:
    v = np.asarray(data, dtype=complex)
    if v.ndim == 2 and v.shape[1] == 1:
        v = v[:, 0]
    if v.ndim != 1 or v.shape[0] != length:
        raise DimensionMismatch(f"expected a vector of length {length}, got shape {v.shape}")
    return _frozen_copy(v[:, np.newaxis])[:, 0]


def _array_eq(name: str):
    """``__eq__`` of a wrapper of one array: the same type, an equal shape
    and equal entries.  The generated one would compare the arrays as
    tuple members, which raises for more than one entry."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(getattr(self, name), getattr(other, name))
        )

    return __eq__


@dataclass(frozen=True)
class BipartiteVector:
    """Vector in C^m (x) C^n, stored flat (a read-only copy) as above."""

    shape: BipartiteShape
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_vector(self.data, self.shape.dim))

    __eq__ = _array_eq("data")


@dataclass(frozen=True)
class BipartiteOperator:
    """Operator on C^m (x) C^n as a dense (m*n) x (m*n) read-only copy."""

    shape: BipartiteShape
    mat: np.ndarray

    def __post_init__(self):
        m = _frozen_copy(self.mat)
        d = self.shape.dim
        if m.shape != (d, d):
            raise DimensionMismatch(f"expected a {d} x {d} matrix, got {m.shape}")
        object.__setattr__(self, "mat", m)

    __eq__ = _array_eq("mat")


def kron(a, b) -> np.ndarray:
    """Kronecker product in the fixed basis order."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hat(v: BipartiteVector) -> np.ndarray:
    """Fold a bipartite vector into its m x n matrix form."""
    return v.data.reshape(v.shape.m, v.shape.n)


def unhat(mat, shape: BipartiteShape) -> BipartiteVector:
    """Unfold an m x n matrix back into the bipartite vector."""
    mat = as_matrix(mat)
    if mat.shape != (shape.m, shape.n):
        raise DimensionMismatch(f"expected {shape.m} x {shape.n}, got {mat.shape}")
    return BipartiteVector(shape, mat.reshape(shape.dim))


def check(v: BipartiteVector) -> np.ndarray:
    """Transposed matrix form: check(v) = hat(v).T, an n x m matrix."""
    return hat(v).T


def reshuffle_hat(s: BipartiteOperator) -> np.ndarray:
    """Row-group reshuffle: S[(i,k),(j,l)] = s[(i,j),(k,l)], m^2 x n^2."""
    m, n = s.shape.m, s.shape.n
    return s.mat.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)


def unreshuffle_hat(mat, shape: BipartiteShape) -> BipartiteOperator:
    """Inverse of :func:`reshuffle_hat`."""
    mat = as_matrix(mat)
    m, n = shape.m, shape.n
    if mat.shape != (m * m, n * n):
        raise DimensionMismatch(f"expected {m * m} x {n * n}, got {mat.shape}")
    back = mat.reshape(m, m, n, n).transpose(0, 2, 1, 3).reshape(shape.dim, shape.dim)
    return BipartiteOperator(shape, back)


def reshuffle_check(s: BipartiteOperator) -> np.ndarray:
    """Column-group reshuffle, the transpose of :func:`reshuffle_hat`."""
    return reshuffle_hat(s).T


def partial_trace_1(s: BipartiteOperator) -> np.ndarray:
    """Trace out the first factor; returns an n x n matrix."""
    m, n = s.shape.m, s.shape.n
    return np.einsum("ijil->jl", s.mat.reshape(m, n, m, n))


def partial_trace_2(s: BipartiteOperator) -> np.ndarray:
    """Trace out the second factor; returns an m x m matrix."""
    m, n = s.shape.m, s.shape.n
    return np.einsum("ijkj->ik", s.mat.reshape(m, n, m, n))


def partial_transpose_1(s: BipartiteOperator) -> BipartiteOperator:
    """Transpose the first factor's indices: (i,j),(k,l) -> (k,j),(i,l)."""
    m, n = s.shape.m, s.shape.n
    four = s.mat.reshape(m, n, m, n).transpose(2, 1, 0, 3)
    return BipartiteOperator(s.shape, four.reshape(s.shape.dim, s.shape.dim))


def partial_transpose_2(s: BipartiteOperator) -> BipartiteOperator:
    """Transpose the second factor's indices: (i,j),(k,l) -> (i,l),(k,j)."""
    m, n = s.shape.m, s.shape.n
    four = s.mat.reshape(m, n, m, n).transpose(0, 3, 2, 1)
    return BipartiteOperator(s.shape, four.reshape(s.shape.dim, s.shape.dim))


def canonical_bell(n: int) -> BipartiteVector:
    """Unnormalized maximally entangled vector sum_j |j>|j> in C^n (x) C^n.

    Its matrix form is the identity: hat(canonical_bell(n)) == eye(n),
    and its squared norm is n.
    """
    data = np.zeros(n * n, dtype=complex)
    data[np.arange(n) * n + np.arange(n)] = 1.0
    return BipartiteVector(BipartiteShape(n, n), data)
