"""Finite-dimensional Lie algebras given by structure constants.

A Lie algebra on basis (e_1, ..., e_n) is stored as the dense coefficient
tensor c with [e_i, e_j] = sum_k c[i,j,k] e_k.  Everything here is plain
numpy on (n, n, n) arrays; at n = 5 sparsity is not worth any indirection.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "StructureConstants",
    "BasisChange",
    "jacobi_residual",
    "jacobi_residuals",
    "unimodularity_defect",
    "unimodularity_defects",
    "change_basis",
]

_ANTISYM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Bracket coefficients c[i,j,k] of [e_i, e_j] on basis vector e_k.

    The tensor must be finite and antisymmetric in (i, j); that is checked
    at construction.  The Jacobi identity is *not* enforced here, so that
    :func:`jacobi_residual` can be used to measure how badly a candidate
    table fails it.  Equality is identity, and a table hashes by identity.
    """

    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError(f"structure tensor must be cubic, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("structure constants must be finite")
        asym = np.abs(c + c.swapaxes(0, 1)).max()
        if asym > _ANTISYM_TOL:
            raise ValueError(f"structure tensor not antisymmetric (defect {asym:.3e})")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "StructureConstants":
        """The abelian algebra: all brackets vanish."""
        return cls(np.zeros((dim, dim, dim)))

    @classmethod
    def from_brackets(
        cls, dim: int, entries: Mapping[tuple[int, int, int], float]
    ) -> "StructureConstants":
        """Build from {(i, j, k): coeff} for i < j; the antisymmetric
        completion c[j,i,k] = -c[i,j,k] is filled in automatically."""
        c = np.zeros((dim, dim, dim))
        for (i, j, k), v in entries.items():
            if i == j:
                raise ValueError("diagonal bracket [e_i, e_i] must vanish")
            c[i, j, k] += v
            c[j, i, k] -= v
        return cls(c)


@dataclass(frozen=True, eq=False)
class BasisChange:
    """Lower-unitriangular change of basis y_i = sum_k matrix[i,k] x_k.
    Equality is identity, as for :class:`StructureConstants`."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("basis change must be a square matrix")
        if np.max(np.abs(np.diag(m) - 1.0)) > 1e-14:
            raise ValueError("basis change must have unit diagonal")
        if np.max(np.abs(np.triu(m, 1))) > 0:
            raise ValueError("basis change must be lower triangular")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "BasisChange":
        return cls(np.eye(dim))

    @classmethod
    def from_offdiag(cls, a: Sequence[float]) -> "BasisChange":
        """5x5 unitriangular matrix from the ten subdiagonal entries
        (a1, ..., a10), filled column-major below the diagonal:

            [ 1                ]
            [ a1  1            ]
            [ a2  a5  1        ]
            [ a3  a6  a8  1    ]
            [ a4  a7  a9  a10 1]
        """
        a = list(a)
        if len(a) != 10:
            raise ValueError("expected 10 subdiagonal entries")
        m = np.eye(5)
        slots = [(1, 0), (2, 0), (3, 0), (4, 0), (2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (4, 3)]
        for (i, j), v in zip(slots, a):
            m[i, j] = v
        return cls(m)

    def inverse(self) -> "BasisChange":
        # unitriangular: invert by forward substitution, never a general solve
        m = self.matrix
        inv = np.eye(self.dim)
        for i in range(1, self.dim):
            inv[i] -= m[i, :i] @ inv[:i]
        return BasisChange(inv)


def _jacobi_defects(c: np.ndarray) -> np.ndarray:
    """Max |Jacobi cyclic sum| of each tensor stacked on the leading axes of c.

    [[e_i,e_j],e_l] + [[e_j,e_l],e_i] + [[e_l,e_i],e_j] has k-component
    T[i,j,l,k] + T[j,l,i,k] + T[l,i,j,k] with T[i,j,l,k] = c[i,j,m] c[m,l,k];
    zero for a genuine Lie algebra.
    """
    t = np.einsum("...ijm,...mlk->...ijlk", c, c)
    # the two cyclic index permutations of the last four axes, as views
    cyc = t + t.swapaxes(-4, -3).swapaxes(-3, -2) + t.swapaxes(-4, -2).swapaxes(-3, -2)
    return np.abs(cyc).max(axis=(-4, -3, -2, -1))


def _trace_defects(c: np.ndarray) -> np.ndarray:
    """max_j |sum_i c[j,i,i]| of each tensor stacked on the leading axes of c."""
    return np.abs(np.einsum("...jii->...j", c)).max(axis=-1)


def jacobi_residual(sc: StructureConstants) -> float:
    """Max component of the Jacobi cyclic sum over all index triples; zero
    for a genuine Lie algebra."""
    return float(_jacobi_defects(sc.c))


def jacobi_residuals(tables: Sequence[StructureConstants]) -> np.ndarray:
    """:func:`jacobi_residual` of each table, from one contraction over the
    stack of tables (all of one dimension)."""
    return _jacobi_defects(np.array([sc.c for sc in tables]))


def unimodularity_defect(sc: StructureConstants) -> float:
    """max_j |tr ad_{e_j}| = max_j |sum_i c[j,i,i]|; zero iff unimodular."""
    return float(_trace_defects(sc.c))


def unimodularity_defects(tables: Sequence[StructureConstants]) -> np.ndarray:
    """:func:`unimodularity_defect` of each table, over the stack of tables."""
    return _trace_defects(np.array([sc.c for sc in tables]))


def change_basis(sc: StructureConstants, t: BasisChange) -> StructureConstants:
    """Structure constants in the basis y_i = t.matrix[i,k] x_k."""
    if t.dim != sc.dim:
        raise ValueError("basis change dimension mismatch")
    m = t.matrix
    inv = t.inverse().matrix
    c_new = np.einsum("pi,qj,ijk,kr->pqr", m, m, sc.c, inv)
    return StructureConstants(c_new)
