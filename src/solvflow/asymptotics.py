"""Closed-form solutions, exact algebraic relations and power-law fits.

Each model family has some exactly solvable structure:

* D1 couples pairwise through B^2 = omega*C^2 + k and D^2 = eps*E^2 + ell;
  when l2*l4 = l3*l5 (case 1) both offsets vanish and the flow is solvable
  in quartic roots.  Otherwise each coefficient satisfies an implicit
  antiderivative relation F(coeff) = rate*t + const.
* D2 with B^2 = AC initially (case 1) keeps B constant and A, D satisfy the
  linearized Bernoulli relation 1/A = (ell/2) D^3 + K D.
* D3 admits a self-similar solution in pure powers of (t + c) when the
  initial data satisfies three compatibility identities.
* D5 is exactly solvable for every initial value.

Long-time exponents are measured by least squares on log(coefficient)
against log(t) over a late window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import catalog
from .catalog import ModelId
from .curvature import DiagonalMetric
from .flow import Trajectory, component_index

__all__ = [
    "PreconditionViolation",
    "ClosedFormSolution",
    "PowerLawFit",
    "fit_power_law",
    "residual_check",
    "d1_pair_constants",
    "d2_bernoulli_constants",
]

class PreconditionViolation(ValueError):
    """Initial data does not satisfy the algebraic requirements of a case."""


def d1_pair_constants(lam: Sequence[float]) -> dict[str, float]:
    """omega, k (for B, C) and eps, ell (for D, E) of the D1 pair relations
    B^2 = omega C^2 + k and D^2 = eps E^2 + ell."""
    l1, l2, l3, l4, l5 = lam
    return {
        "omega": l2 * l5 / (l3 * l4),
        "k": (l2 / l4) * (l2 * l4 - l3 * l5),
        "eps": l3 * l4 / (l2 * l5),
        "ell": (l4 / l2) * (l2 * l4 - l3 * l5),
    }


def d2_bernoulli_constants(lam: Sequence[float]) -> dict[str, float]:
    """ell and K of the D2 case-1 relation 1/A = (ell/2) D^3 + K D, with K
    fixed by the initial values."""
    l1, l2, l3, l4, l5 = lam
    b_const = (l1 * l2 * l3) ** (1.0 / 3.0)
    ell = l3 / (l1 * l4**2 * l5 * b_const)
    K = (1.0 / l1 - 0.5 * ell * l4**3) / l4
    m = 2.0 / ell
    return {"ell": ell, "K": K, "m": m, "M": m**2 / b_const**2, "B": b_const}


# cases that hold only on the data catalog.classify_case assigns to them
_PRECONDITIONS = {
    (ModelId.D1, "case1"): "D1 case 1 needs l2*l4 = l3*l5",
    (ModelId.D2, "case1"): "D2 case 1 needs l2^2 = l1*l3",
    (ModelId.D3, "self_similar"):
        "D3 self-similar data needs l2*l5 = l3*l4, l2*l4 = l3^2, 3*l1*l5 = 2*l3^2",
}


@dataclass(frozen=True)
class ClosedFormSolution:
    """An exactly known solution family, pinned to initial data.

    Derived constants are recomputed from ``lam`` on evaluation and never
    cached, so they cannot go stale.
    """

    model: ModelId
    case: str
    lam: DiagonalMetric

    def __post_init__(self):
        model = ModelId(self.model)
        object.__setattr__(self, "model", model)
        if self.case not in catalog.case_labels(model):
            raise ValueError(f"unknown case {self.case!r} for {model.value}")
        if not isinstance(self.lam, DiagonalMetric):
            object.__setattr__(self, "lam", DiagonalMetric(tuple(self.lam)))
        self._check_preconditions()

    def _check_preconditions(self):
        need = _PRECONDITIONS.get((self.model, self.case))
        if need and catalog.classify_case(self.model, self.lam) != self.case:
            raise PreconditionViolation(need)

    def eval_array(self, t) -> np.ndarray:
        """Coefficients at times t (scalar or array); shape (..., 5)."""
        t = np.asarray(t, dtype=float)
        l1, l2, l3, l4, l5 = self.lam.coeffs
        if self.model is ModelId.D5:
            s = 1.0 + 3.0 * l1 * t / (l2 * l3)
            # AB and AC are conserved, so B and C grow as A decays
            return np.stack(
                [
                    l1 * s ** (-1.0 / 3.0),
                    l2 * s ** (1.0 / 3.0),
                    l3 * s ** (1.0 / 3.0),
                    np.full_like(t, l4),
                    4.0 * t + l5,
                ],
                axis=-1,
            )
        if self.model is ModelId.D1 and self.case == "case1":
            c = d1_pair_constants(self.lam.coeffs)
            om, ep = c["omega"], c["eps"]
            rb = 4.0 * l1 * l3 * math.sqrt(om) / (l2**2 * l4)
            rc = 4.0 * l1 * l2 / (l3**2 * l5 * math.sqrt(om))
            rd = 4.0 * l1 * l5 * math.sqrt(ep) / (l2 * l4**2)
            re = 4.0 * l1 * l4 / (l3 * l5**2 * math.sqrt(ep))
            return np.stack(
                [
                    l1 * (rb * t + 1.0) ** (-0.25) * (rc * t + 1.0) ** (-0.25),
                    l2 * (rb * t + 1.0) ** 0.25,
                    l3 * (rc * t + 1.0) ** 0.25,
                    l4 * (rd * t + 1.0) ** 0.25,
                    l5 * (re * t + 1.0) ** 0.25,
                ],
                axis=-1,
            )
        if self.model is ModelId.D3 and self.case == "self_similar":
            c = (2.0 / 11.0) * l2 * l5 / l1
            powers = np.array([-4.0, -1.0, 2.0, 5.0, 8.0]) / 11.0
            base = np.asarray(1.0 + t / c)
            return self.lam.array * np.power(base[..., None], powers)
        raise ValueError(
            f"{self.model.value} {self.case}: no explicit time law "
            "(verify via residual_check instead)"
        )


# ---------------------------------------------------------------------------
# power-law fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of log g = exponent*log t + log_prefactor."""

    exponent: float
    log_prefactor: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int

    def __post_init__(self):
        lo, hi = self.window
        if not lo < hi:
            raise ValueError("fit window must be increasing")
        if self.r_squared > 1.0:
            raise ValueError("r_squared cannot exceed 1")

    @property
    def prefactor(self) -> float:
        return math.exp(self.log_prefactor)


def fit_power_law(
    traj: Trajectory,
    component: int | str,
    window: tuple[float, float] | None = None,
) -> PowerLawFit:
    """Fit a power law to one coefficient over a log-time window.

    The window defaults to the last two decades of the trajectory and must
    start at t >= 1 so log-spaced samples are available.
    """
    t = traj.times
    if window is None:
        hi = float(t[-1])
        window = (max(1.0, hi / 100.0), hi)
    lo, hi = float(window[0]), float(window[1])
    if lo < 1.0:
        raise ValueError("fit window must start at t >= 1")
    if not (t[0] <= lo and hi <= t[-1] * (1 + 1e-12)):
        raise ValueError("fit window exceeds trajectory range")
    mask = (t >= lo) & (t <= hi)
    n = int(np.count_nonzero(mask))
    if n < 8:
        raise ValueError(f"only {n} samples in fit window; need at least 8")
    x = np.log(t[mask])
    y = np.log(traj.coeffs[mask, component_index(component)])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    yc = y - y.mean()
    ss_tot = float(yc @ yc)
    if ss_tot > 0.0:
        r2 = max(0.0, 1.0 - ss_res / ss_tot)
    else:
        r2 = 1.0 if ss_res <= 1e-28 else 0.0
    return PowerLawFit(float(slope), float(intercept), r2, (lo, hi), n)


# ---------------------------------------------------------------------------
# exact-relation residuals
# ---------------------------------------------------------------------------

def _d1_implicit_f_scaled(x: np.ndarray, om: float, k: float) -> np.ndarray:
    """Antiderivative of x^2 sqrt(om x^2 + k); appears in the D1 implicit
    laws F(coeff) = rate*t + const, with om = 1 and -k for B and D."""
    root = np.sqrt(om * om * x * x + om * k)
    return (
        root * (2.0 * om * x**3 + k * x) - k * k * np.log(om * x + root)
    ) / (8.0 * om**1.5)


def _rel_drift(series: np.ndarray, scale: np.ndarray) -> float:
    return float(np.max(np.abs(series) / np.maximum(scale, 1e-300)))


def residual_check(model: ModelId, case: str, traj: Trajectory) -> float:
    """Worst relative residual of the exact algebraic relations of a case.

    D1 (both cases): the pair relations B^2 - omega C^2 - k and
    D^2 - eps E^2 - ell; case 2 additionally the four implicit
    antiderivative laws F(coeff(t)) - rate*t, with constants fixed at t=0.
    D2 case 1: the Bernoulli relation 1/A - (ell/2) D^3 - K D.
    D11 (both cases): drift of the conserved product A^2 B C D^2, the only
    exact algebraic relation of the model (the once-tabulated ratio
    (B+C) D^2 / ((B-C) E^2) has log-derivative 8/E - 2(B^2+C^2)/(BCE) > 0
    for B != C and diverges; see the special-invariant behavior checks).
    """
    model = ModelId(model)
    if case not in catalog.case_labels(model):
        raise ValueError(f"unknown case {case!r} for {model.value}")
    if traj.model is not None and traj.model is not model:
        raise ValueError(f"trajectory belongs to {traj.model}, not {model.value}")
    lam = traj.coeffs[0]
    observed = catalog.classify_case(model, DiagonalMetric(tuple(lam)))
    if observed != case:
        raise ValueError(
            f"trajectory initial data classifies as {observed!r}, not {case!r}"
        )
    t = traj.times
    A, B, C, D, E = traj.coeffs.T

    if model is ModelId.D1:
        cst = d1_pair_constants(lam)
        om, k, ep, ell = cst["omega"], cst["k"], cst["eps"], cst["ell"]
        worst = _rel_drift(B**2 - om * C**2 - k, B**2 + om * C**2 + abs(k))
        worst = max(worst, _rel_drift(D**2 - ep * E**2 - ell, D**2 + ep * E**2 + abs(ell)))
        if case == "case2":
            l1, l2, l3, l4, l5 = lam
            laws = [
                (_d1_implicit_f_scaled(B, 1.0, -k), l1 * l2**2 * l3 * math.sqrt(om) / l4),
                (_d1_implicit_f_scaled(C, om, k), l1 * l2 * l3**2 / l5),
                (_d1_implicit_f_scaled(D, 1.0, -ell), l1 * l4**2 * l5 * math.sqrt(ep) / l2),
                (_d1_implicit_f_scaled(E, ep, ell), l1 * l4 * l5**2 / l3),
            ]
            for series, rate in laws:
                resid = series - series[0] - rate * t
                scale = np.maximum(np.abs(series), np.abs(series[0]))
                worst = max(worst, _rel_drift(resid, scale))
        return worst

    if model is ModelId.D2 and case == "case1":
        cst = d2_bernoulli_constants(lam)
        resid = 1.0 / A - 0.5 * cst["ell"] * D**3 - cst["K"] * D
        return _rel_drift(resid, 1.0 / A)

    if model is ModelId.D11:
        (product,) = catalog.model_invariants(model).monomials
        return product.drift(traj.coeffs)

    raise ValueError(f"no exact relations recorded for {model.value} {case!r}")
