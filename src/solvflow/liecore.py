"""Finite-dimensional Lie algebras given by structure constants.

A Lie algebra on basis (e_1, ..., e_n) is stored as the dense coefficient
tensor c with [e_i, e_j] = sum_k c[i,j,k] e_k.  Everything here is plain
numpy on (n, n, n) arrays; at n = 5 sparsity is not worth any indirection.
A stack of tables is one array (..., n, n, n), which the stacked defects
take and which :func:`_check_tensors` holds to the rule of a single table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
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


def _check_tensors(c: np.ndarray) -> None:
    """Refuse a structure tensor c (n, n, n), or a stack of them on the
    leading axes of c, that is not finite or not antisymmetric in (i, j).
    A stack's message names the index of its first table that fails."""
    if not np.isfinite(c).all():
        bad = ~np.isfinite(c).all(axis=(-3, -2, -1))
        message = "structure constants must be finite"
    else:
        asym = np.abs(c + c.swapaxes(-3, -2))
        if asym.max() <= _ANTISYM_TOL:
            return
        defects = asym.max(axis=(-3, -2, -1))
        bad = defects > _ANTISYM_TOL
        message = f"structure tensor not antisymmetric (defect {defects[bad].flat[0]:.3e})"
    where = "" if c.ndim == 3 else f"table {', '.join(map(str, np.argwhere(bad)[0]))}: "
    raise ValueError(where + message)


def _bracket_tensor(dim: int, entries: Mapping[tuple[int, int, int], object],
                    shape: tuple[int, ...] = ()) -> np.ndarray:
    """The tensor c[i, j, k, ...] of the brackets {(i, j, k): coeff}, with
    the antisymmetric completion c[j, i, k] = -c[i, j, k] filled in.  Each
    coeff is a number or an array of ``shape``: a stack of tables, which
    the trailing axes of c hold."""
    half = np.zeros((dim, dim, dim, *shape))
    for (i, j, k), v in entries.items():
        if i == j:
            raise ValueError("diagonal bracket [e_i, e_i] must vanish")
        half[i, j, k] += v
    # distinct keys give each entry of c at most a v from (i, j, k) and a w
    # from (j, i, k): 0 + v - (0 + w) here, the same float as completing
    # entry by entry, with one subtraction per table instead of per entry
    return half - half.swapaxes(0, 1)


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
        c = np.array(self.c, dtype=float)  # a copy, which nothing else can write
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError(f"structure tensor must be cubic, got shape {c.shape}")
        _check_tensors(c)
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
        return cls(_bracket_tensor(dim, entries))


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


@cache
def _cyclic_terms(n: int) -> np.ndarray:
    """Flat indices into T[i, j, l] (n**3 rows) that give the Jacobi cyclic
    sum at each of the triples i < j < l in its three float orderings:
    [r, o, q] is the r-th summand of ordering o at the q-th triple, where
    ordering o starts at term o of T[i,j,l], T[j,l,i], T[l,i,j]."""
    i, j, l = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    terms = np.stack([(x * n + y) * n + z for x, y, z in ((i, j, l), (j, l, i), (l, i, j))])
    index = np.stack([np.roll(terms, -r, axis=0) for r in range(3)])
    index.flags.writeable = False  # one array, shared by every call
    return index


def _jacobi_defects(c: np.ndarray) -> np.ndarray:
    """Max |Jacobi cyclic sum| of each tensor stacked on the leading axes of c.

    [[e_i,e_j],e_l] + [[e_j,e_l],e_i] + [[e_l,e_i],e_j] has k-component
    T[i,j,l,k] + T[j,l,i,k] + T[l,i,j,k] with T[i,j,l,k] = c[i,j,m] c[m,l,k];
    zero for a genuine Lie algebra.  For c antisymmetric in (i, j), as every
    table built from brackets is exactly, the sum is alternating in
    (i, j, l): an odd permutation gives the exact negative and a repeated
    index exactly 0.  So the maximum over all n**3 triples is the maximum
    over i < j < l of the sum in its three cyclic orderings
    (a+b)+c, (b+c)+a, (c+a)+b, which is what is computed, from one gather.
    A table antisymmetric only to rounding, as :func:`change_basis` makes
    them, can read a few ulps off the maximum over all triples.
    """
    n = c.shape[-1]
    t = np.einsum("...ijm,...mlk->...ijlk", c, c)
    g = t.reshape(*t.shape[:-4], n**3, n).take(_cyclic_terms(n), axis=-2)
    cyc = (g[..., 0, :, :, :] + g[..., 1, :, :, :]) + g[..., 2, :, :, :]
    return np.abs(cyc).max(axis=(-3, -2, -1), initial=0.0)


def _trace_defects(c: np.ndarray) -> np.ndarray:
    """max_j |sum_i c[j,i,i]| of each tensor stacked on the leading axes of c."""
    return np.abs(np.einsum("...jii->...j", c)).max(axis=-1)


def jacobi_residual(sc: StructureConstants) -> float:
    """Max component of the Jacobi cyclic sum over all index triples; zero
    for a genuine Lie algebra."""
    return float(_jacobi_defects(sc.c))


def jacobi_residuals(c: np.ndarray) -> np.ndarray:
    """:func:`jacobi_residual` of each table of the stack c (..., n, n, n),
    from one contraction over the stack."""
    return _jacobi_defects(np.asarray(c, dtype=float))


def unimodularity_defect(sc: StructureConstants) -> float:
    """max_j |tr ad_{e_j}| = max_j |sum_i c[j,i,i]|; zero iff unimodular."""
    return float(_trace_defects(sc.c))


def unimodularity_defects(c: np.ndarray) -> np.ndarray:
    """:func:`unimodularity_defect` of each table of the stack c
    (..., n, n, n)."""
    return _trace_defects(np.asarray(c, dtype=float))


def change_basis(sc: StructureConstants, t: BasisChange) -> StructureConstants:
    """Structure constants in the basis y_i = t.matrix[i,k] x_k, exactly
    antisymmetric: the einsum sums c[i,j,k] and c[j,i,k] in different
    orders, so only its i < j half is kept and completed as in
    :func:`_bracket_tensor`."""
    if t.dim != sc.dim:
        raise ValueError("basis change dimension mismatch")
    m = t.matrix
    inv = t.inverse().matrix
    c_new = np.einsum("pi,qj,ijk,kr->pqr", m, m, sc.c, inv)
    r = np.arange(sc.dim)
    half = np.where((r[:, None] < r)[:, :, None], c_new, 0.0)
    return StructureConstants(half - half.swapaxes(0, 1))
