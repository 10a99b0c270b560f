"""Conserved quantities of the diagonal flows.

A monomial prod_i g_i^{e_i} is conserved iff sum_i e_i * (dg_i/dt)/g_i
vanishes identically.  Each rate (dg_i/dt)/g_i is an exact finite sum of
Laurent monomials (:func:`solvflow.curvature.compile_flow`), and distinct
monomials are linearly independent functions, so the condition is the
linear system M e = 0 with one row per rate monomial.  Detection returns
the canonical Hermite basis of its integer kernel: the full lattice of
conserved monomials, with no search box and no sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import catalog
from .catalog import InvariantMonomial, ModelId
from .curvature import compile_flow
from .flow import Trajectory
from .liecore import StructureConstants

__all__ = [
    "InvariantMonomial",
    "RatioDiagnostic",
    "detect_monomials",
    "detect_monomials_brackets",
    "drift_report",
    "ratio_diagnostics",
    "hermite_basis",
    "in_lattice",
]

# ---------------------------------------------------------------------------
# integer lattice utilities (exact arithmetic on Python ints)
# ---------------------------------------------------------------------------

def _extgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _canon_sign(v: list[int]) -> list[int]:
    for x in v:
        if x:
            return v if x > 0 else [-y for y in v]
    return v


def hermite_basis(rows: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """Canonical (Hermite-style) basis of the integer row lattice.

    Echelon rows with positive pivots, entries above each pivot reduced to
    [0, pivot); deterministic regardless of input order.  All rows must
    have the same length.
    """
    basis: dict[int, list[int]] = {}
    for row in rows:
        v = [int(x) for x in row]
        ncols = len(v)
        for col in range(ncols):
            if v[col] == 0:
                continue
            if col in basis:
                b = basis[col]
                g, x, y = _extgcd(b[col], v[col])
                new_b = [x * bi + y * vi for bi, vi in zip(b, v)]
                v = [(b[col] // g) * vi - (v[col] // g) * bi for bi, vi in zip(b, v)]
                if new_b[col] < 0:
                    new_b = [-z for z in new_b]
                basis[col] = new_b
            else:
                basis[col] = _canon_sign(v)
                v = [0] * ncols
                break
        if len(basis) == ncols and all(basis[c][c] == 1 for c in range(ncols)):
            break  # lattice is all of Z^n already
    # reduce entries above each pivot
    for p in sorted(basis):
        prow = basis[p]
        for q in sorted(basis):
            if q == p:
                continue
            row = basis[q]
            if row[p] != 0 and p > q:
                f = row[p] // prow[p]
                basis[q] = [a - f * b for a, b in zip(row, prow)]
    return [tuple(basis[p]) for p in sorted(basis)]


def in_lattice(vec: Sequence[int], basis: Sequence[Sequence[int]]) -> bool:
    """Exact membership of an integer vector in the row lattice of an
    echelon basis (as produced by :func:`hermite_basis`)."""
    w = [int(x) for x in vec]
    pivots = {next(i for i, x in enumerate(row) if x): row for row in basis}
    for col in range(len(w)):
        if w[col] == 0:
            continue
        row = pivots.get(col)
        if row is None:
            return False
        q, r = divmod(w[col], row[col])
        if r != 0:
            return False
        w = [a - q * b for a, b in zip(w, row)]
    return not any(w)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def _integer_row(values: Sequence[float]) -> list[int]:
    """The floats scaled exactly to integers by their common denominator."""
    fracs = [Fraction(float(x)) for x in values]
    scale = math.lcm(*(f.denominator for f in fracs))
    return [int(f * scale) for f in fracs]


def integer_kernel(matrix) -> list[tuple[int, ...]]:
    """The integer vectors x with ``matrix`` @ x = 0, as the canonical
    basis of :func:`hermite_basis`: exact, each row of the (rows, width)
    float ``matrix`` scaled to integers by its common denominator.  A matrix
    without rows gives all of Z^width."""
    matrix = np.asarray(matrix, dtype=float)
    n_rows, width = matrix.shape
    m = [_integer_row(r) for r in matrix]
    # [M[:, p] | unit_p] span {[M x | x]}; in their echelon basis the rows
    # that vanish on the M block span exactly the x with M x = 0
    rows = [[mk[p] for mk in m] + [int(p == q) for q in range(width)] for p in range(width)]
    return [row[n_rows:] for row in hermite_basis(rows) if not any(row[:n_rows])]


def detect_monomials_brackets(
    sc: StructureConstants,
    named: Sequence[InvariantMonomial] = (),
) -> list[InvariantMonomial]:
    """The full lattice of monomials conserved by the flow of ``sc``, as a
    canonical basis: exact, with no search box and no random points.

    Any of the ``named`` vectors lying in the lattice are listed first (and
    count toward spanning it), so well-known combinations keep their
    familiar form in the output.
    """
    # e is conserved iff rates @ e = 0, one row per monomial of the rates
    basis = integer_kernel(compile_flow(sc).rates)
    out: list[InvariantMonomial] = []
    listed: set[tuple[int, ...]] = set()
    for named_mono in named:
        # named combinations are kept verbatim, even when linearly dependent
        if in_lattice(named_mono.e, basis) and named_mono.e not in listed:
            out.append(named_mono)
            listed.add(named_mono.e)
    spanned = [m.e for m in out]
    for row in basis:
        if not in_lattice(row, hermite_basis(spanned)):
            out.append(InvariantMonomial(tuple(_canon_sign(list(row)))))
            spanned.append(row)
    return out


def detect_monomials(
    model: ModelId,
    max_exp: int = 5,
    params=None,
    seed: int | None = 0,
) -> list[InvariantMonomial]:
    """Conserved monomials of a catalog model (constrained parameters by
    default), with the model's named invariants listed first.  ``max_exp``
    and ``seed`` are accepted for compatibility and have no effect, since
    the lattice is exact (``max_exp < 1`` is still rejected)."""
    if max_exp < 1:
        raise ValueError("max_exp must be a positive integer")
    model = ModelId(model)
    if params is None:
        params = catalog.constrained_params(model)
    sc = catalog.build_model(model, params)
    named = catalog.model_invariants(model).monomials
    return detect_monomials_brackets(sc, named=named)


# ---------------------------------------------------------------------------
# drift along trajectories
# ---------------------------------------------------------------------------

def drift_report(traj: Trajectory, inv: InvariantMonomial) -> float:
    """Worst relative drift of the monomial from its initial value."""
    return inv.drift(traj.coeffs)


# ---------------------------------------------------------------------------
# ratio diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioDiagnostic:
    """A scalar series along the flow together with its expected limit."""

    name: str
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    target: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape:
            raise ValueError("times and values must align")
        if not (np.all(np.isfinite(v)) and np.isfinite(self.target)):
            raise ValueError("diagnostic values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def final(self) -> float:
        return float(self.values[-1])


def ratio_diagnostics(model: ModelId, traj: Trajectory) -> list[RatioDiagnostic]:
    """Model-specific convergence diagnostics; empty where none are known."""
    model = ModelId(model)
    if traj.model is not None and traj.model is not model:
        raise ValueError(f"trajectory belongs to {traj.model}, not {model.value}")
    t = traj.times
    A, B, C, D, E = traj.coeffs.T
    if model is ModelId.D2:
        return [RatioDiagnostic("AC/B^2", t, A * C / B**2, 1.0)]
    if model is ModelId.D3:
        x = A / (B * E)
        y = A / (C * D)
        z = B / (C * E)
        w = C / (D * E)
        return [
            RatioDiagnostic("x/y", t, x / y, 1.0),
            RatioDiagnostic("z/w", t, z / w, 1.0),
            RatioDiagnostic("x/z", t, x / z, 2.0 / 3.0),
            RatioDiagnostic("y/w", t, y / w, 2.0 / 3.0),
        ]
    if model is ModelId.D11:
        out = [RatioDiagnostic("B/C", t, B / C, 1.0)]
        # D converges to an (unpredicted) constant; report the observed limit
        out.append(RatioDiagnostic("D", t, D, float(D[-1])))
        return out
    return []
