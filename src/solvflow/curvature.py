"""Ricci curvature of diagonal left-invariant metrics.

For a metric g = A th1^2 + ... + E th5^2 the frame Yhat_i = Y_i / sqrt(g_i)
is orthonormal and the Ricci tensor of the (unimodular) group is the
quadratic form

    Ric(W, W) = -1/2 sum_i |[W, Yhat_i]|^2
                -1/2 sum_i <[W, [W, Yhat_i]], Yhat_i>
                +1/2 sum_{i<j} <[Yhat_i, Yhat_j], W>^2 ,

evaluated on the rescaled structure constants.  The flow of the diagonal
coefficients is dg_i/dt = -2 g_i Ric(Yhat_i, Yhat_i), which is consistent
only while the off-diagonal components vanish.  Every Ricci entry is a
finite sum of Laurent monomials in g; :func:`compile_flow` collects them
once per bracket table, and the flow, its diagonality and its conserved
monomials are read off that; ``ricci_tensor`` and ``ricci_quadratic`` are
its oracles.  :func:`ricci_forms` evaluates the Ricci form of a whole stack
of metrics with one contraction, and :func:`ricci_tensor` is bitwise each of
its rows, checked once.  :func:`ricci_quadratic` evaluates the formula above
term by term, each term one contraction of W with the frame tensor; it does
not go through the polarized matrix, so it stays an independent oracle of
both.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .liecore import StructureConstants

__all__ = [
    "COMPONENTS",
    "DiagonalMetric",
    "RicciForm",
    "DiagonalityViolation",
    "NonpositiveMetricError",
    "ricci_quadratic",
    "ricci_forms",
    "ricci_tensor",
    # FlowTerms is not listed: perfbench/tracing.py wraps the methods of
    # listed classes, and FlowTerms.log_rhs runs at every solver stage
    "compile_flow",
    "flow_rhs",
]


class NonpositiveMetricError(ValueError):
    """A diagonal metric coefficient is not finite and strictly positive."""


class DiagonalityViolation(RuntimeError):
    """Off-diagonal Ricci monomials survive cancellation: the diagonal
    ansatz is inconsistent (the bracket parameters are unconstrained)."""


# the names of the metric coefficients, in order; their number is the dimension
COMPONENTS = "ABCDE"


def _check_coeffs(coeffs) -> None:
    """Refuse metric coefficients unless every one is finite and > 0: one
    metric's tuple of floats, compared as scalars, or an array with one
    metric per row, whose first bad row is named."""
    if isinstance(coeffs, tuple):
        if all(0.0 < x < math.inf for x in coeffs):  # False for NaN too
            return
        bad = coeffs
    else:
        ok = (coeffs > 0.0) & (coeffs < np.inf)
        if ok.all():
            return
        k = int(np.argmin(ok.all(axis=-1)))
        bad = f"row {k} is {tuple(coeffs[k].tolist())}"
    raise NonpositiveMetricError(
        f"metric coefficients must be finite and strictly positive: {bad}")


@dataclass(frozen=True)
class DiagonalMetric:
    """Coefficients (A, B, C, D, E) of a diagonal left-invariant metric, all
    finite and > 0.  It is also a flow's initial data, under the name
    ``catalog.InitialData``, whose ``lam`` reads ``coeffs``."""

    coeffs: tuple[float, float, float, float, float]

    def __post_init__(self):
        coeffs = tuple(float(x) for x in self.coeffs)
        if len(coeffs) != len(COMPONENTS):
            raise ValueError(f"expected {len(COMPONENTS)} metric coefficients, got {len(coeffs)}")
        _check_coeffs(coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def lam(self) -> tuple[float, ...]:
        return self.coeffs

    @property
    def array(self) -> np.ndarray:
        return np.array(self.coeffs)

    @classmethod
    def unit(cls) -> "DiagonalMetric":
        return cls((1.0,) * len(COMPONENTS))


@dataclass(frozen=True)
class RicciForm:
    """Ricci components Ric(Yhat_i, Yhat_j) in the orthonormal frame."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        n = len(COMPONENTS)
        if m.shape != (n, n):
            raise ValueError(f"Ricci form must be a symmetric {n}x{n} matrix")
        _check_forms(m)
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries).copy()

    @property
    def max_offdiag(self) -> float:
        off = self.entries - np.diag(np.diag(self.entries))
        return float(np.max(np.abs(off)))


def _check_forms(m: np.ndarray) -> None:
    """Refuse Ricci matrices, stacked on leading axes, that are not exactly
    symmetric or not finite.  :func:`_ricci_matrix` returns (r + r^T)/2,
    whose transpose is the same sum with its terms swapped, so exact
    symmetry is a fact of the formula, not a tolerance."""
    if not (m == m.swapaxes(-1, -2)).all():
        raise ValueError("Ricci form must be a symmetric matrix")
    if not np.isfinite(m).all():
        raise ValueError("Ricci form entries must be finite")


def _unit_frame_tensor(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """chat[..., i,j,k] = c[i,j,k] * sqrt(g_k / (g_i g_j)) for metric
    coefficients g of shape (..., n)."""
    s = np.sqrt(g)
    return c * (s[..., None, None, :] / (s[..., :, None, None] * s[..., None, :, None]))


def ricci_quadratic(sc: StructureConstants, g: DiagonalMetric, w: np.ndarray) -> float:
    """Ric(W, W) for W = sum_i w_i Yhat_i, by the three-term formula.

    Each term is one contraction of W with the frame tensor, taken as the
    formula states it: with m[i, k] the Yhat_k-component of [W, Yhat_i],
    term 1 is -1/2 m.m, term 2 is -1/2 sum_i [W, [W, Yhat_i]]_i = -1/2 m.m^T
    and term 3 is 1/2 sum_{i<j} <[Yhat_i, Yhat_j], W>^2.  It shares nothing
    with :func:`_ricci_matrix` or :func:`compile_flow` but the frame
    tensor, so it stays the independent oracle of both.
    """
    w = np.asarray(w, dtype=float)
    n = sc.dim
    if w.shape != (n,):
        raise ValueError(f"frame vector must have length {n}")
    chat = _unit_frame_tensor(sc.c, g.array)

    m = (w @ chat.reshape(n, n * n)).reshape(n, n)  # m[i, :] = [W, Yhat_i]
    term1 = -0.5 * float(m.ravel() @ m.ravel())
    term2 = -0.5 * float(m.ravel() @ m.T.ravel())
    r = np.arange(n)
    v = (chat @ w)[r[:, None] < r]  # <[Yhat_i, Yhat_j], W> for i < j
    term3 = 0.5 * float(v @ v)
    return term1 + term2 + term3


def _ricci_matrix(chat: np.ndarray) -> np.ndarray:
    """Symmetric matrices R with w.R.w = Ric(W, W), one per leading index of
    chat; three contractions.

    Polarizing the quadratic form gives, term by term,
      term1 -> -1/2 chat[p,i,k] chat[q,i,k]
      term2 -> -1/4 (S + S^T),  S[p,q] = chat[q,i,k] chat[p,k,i]
      term3 -> +1/4 chat[i,j,p] chat[i,j,q]
    """
    b1 = -0.5 * np.einsum("...pik,...qik->...pq", chat, chat)
    s = np.einsum("...qik,...pki->...pq", chat, chat)
    b2 = -0.25 * (s + s.swapaxes(-1, -2))
    b3 = 0.25 * np.einsum("...ijp,...ijq->...pq", chat, chat)
    r = b1 + b2 + b3
    return 0.5 * (r + r.swapaxes(-1, -2))


def ricci_forms(sc: StructureConstants, coeffs) -> np.ndarray:
    """Ricci forms in the orthonormal frame of a stack of diagonal metrics.

    ``coeffs`` is an (N, 5) array of metric coefficients, one metric per
    row; the result is the read-only (N, 5, 5) array whose row k is
    ``ricci_tensor(sc, DiagonalMetric(coeffs[k])).entries``.  Raises
    NonpositiveMetricError, naming the first bad row, if any coefficient is
    not finite and positive.
    """
    g = np.asarray(coeffs, dtype=float)
    if g.ndim != 2 or g.shape[1] != sc.dim:
        raise ValueError(f"expected an (N, {sc.dim}) array of metric coefficients, "
                         f"got shape {g.shape}")
    _check_coeffs(g)
    m = _ricci_matrix(_unit_frame_tensor(sc.c, g))
    _check_forms(m)
    m.flags.writeable = False
    return m


def ricci_tensor(sc: StructureConstants, g: DiagonalMetric) -> RicciForm:
    """Full Ricci form in the orthonormal frame: the contraction of
    :func:`ricci_forms` on one metric, bitwise each row of a stack.  ``g``
    is valid by construction, so the form is checked once, by
    :class:`RicciForm`.

    Diagonal entries equal ricci_quadratic(Yhat_i); off-diagonal entries are
    the polarization (Q(Yhat_i+Yhat_j) - Q(Yhat_i) - Q(Yhat_j))/2.
    """
    return RicciForm(_ricci_matrix(_unit_frame_tensor(sc.c, g.array)))


@dataclass(frozen=True)
class FlowTerms:
    """The diagonal flow of one bracket table as Laurent monomials.

    ``rates[k, p]`` is the coefficient of prod_i g_i^exps[k, i] in
    d(log g_p)/dt = -2 Ric(Yhat_p, Yhat_p).  ``offdiag`` lists the
    off-diagonal Ricci monomials that survive cancellation, as
    (p, q, exponents, coefficient) with p < q; the flow keeps diagonal
    metrics diagonal exactly when it is empty.
    """

    exps: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    offdiag: tuple[tuple[int, int, tuple[float, ...], float], ...]

    def log_rhs(self, u: np.ndarray) -> np.ndarray:
        """du/dt at u = log g (shape (..., dim))."""
        return np.exp(u @ self.exps.T) @ self.rates

    def check_diagonal(self) -> None:
        if self.offdiag:
            raise DiagonalityViolation(
                f"off-diagonal Ricci monomials (p, q, exponents, coef) survive: {self.offdiag}")


def compile_flow(sc: StructureConstants) -> FlowTerms:
    """Collect the Ricci form of ``sc`` into exact monomial terms.

    chat[i,j,k] = c[i,j,k] prod_m g_m^(h_m/2) with h = e_k - e_i - e_j, so
    each product of two structure constants contracted by
    :func:`_ricci_matrix` is one monomial.  Contributions to the same entry
    with the same exponents are summed, and the sum counts as zero when it
    lies within the rounding of its own contributions: each is one rounded
    product and ``fsum`` rounds once, so an exact zero comes out at most
    eps * sum |term|.
    """
    n = sc.dim
    entries = [
        (int(i), int(j), int(k), float(sc.c[i, j, k]),
         [int(m == k) - int(m == i) - int(m == j) for m in range(n)])
        for i, j, k in zip(*np.nonzero(sc.c))
    ]
    sums: dict[tuple[int, ...], list[float]] = defaultdict(list)

    def add(p, q, x, y, w):
        # entry (p, q) of the symmetric form gets half of R[p,q] and of R[q,p]
        key = (min(p, q), max(p, q), *(a + b for a, b in zip(x[4], y[4])))
        sums[key].append(x[3] * y[3] * (w if p == q else 0.5 * w))

    for x in entries:
        for y in entries:
            if x[1:3] == y[1:3]:  # -1/2 chat[p,i,k] chat[q,i,k]
                add(x[0], y[0], x, y, -0.5)
            # -1/4 (S + S^T) with S[p,q] = chat[q,i,k] chat[p,k,i]: each S term
            # enters R[p,q] and R[q,p], so -1/2 before the split below
            if (x[1], x[2]) == (y[2], y[1]):
                add(y[0], x[0], x, y, -0.5)
            if x[:2] == y[:2]:  # +1/4 chat[i,j,p] chat[i,j,q]
                add(x[2], y[2], x, y, 0.25)

    rates: dict[tuple[int, ...], np.ndarray] = defaultdict(lambda: np.zeros(n))
    offdiag = []
    for (p, q, *twice_exp), terms in sorted(sums.items()):
        total = math.fsum(terms)
        if abs(total) <= np.finfo(float).eps * sum(map(abs, terms)):
            continue
        if p == q:  # diagonal exponents are whole: the h's pair up
            rates[tuple(x // 2 for x in twice_exp)][p] = -2.0 * total
        else:
            offdiag.append((p, q, tuple(x / 2 for x in twice_exp), total))
    exps = sorted(rates)
    return FlowTerms(
        np.array(exps, dtype=float).reshape(-1, n),
        np.array([rates[e] for e in exps]).reshape(-1, n),
        tuple(offdiag),
    )


def flow_rhs(sc: StructureConstants, g: DiagonalMetric) -> np.ndarray:
    """Right-hand side (dA/dt, ..., dE/dt) = -2 g_i Ric(Yhat_i, Yhat_i).

    Compiles ``sc`` on every call (repeated callers keep the
    :func:`compile_flow` terms).  Raises DiagonalityViolation if any
    off-diagonal Ricci monomial survives: the metric would not stay diagonal.
    """
    terms = compile_flow(sc)
    terms.check_diagonal()
    g = g.array
    return g * terms.log_rhs(np.log(g))
