"""Time integration of the diagonal Ricci-flow systems.

The flow is solved for u = log g: the compiled terms give du/dt directly
(:meth:`solvflow.curvature.FlowTerms.log_rhs`), every conserved monomial
is a linear first integral of u, which Runge-Kutta methods keep to
rounding, and g = exp(u) stays positive without a floor or an event.  A
finite-time collapse (u -> -inf) ends the run as a step-size underflow.

Integration is delegated to scipy's DOP853 (an 8(5,3) embedded pair with
PI step control).  Generic D11 is stiff: its B-C mode decays at a rate
near 4/E while the flow moves on the time scale t, so there stability
rather than accuracy limits the step.  DOP853 is kept because the stiff
solvers tried in u miss a verification gate or the time budget: LSODA with
the analytic Jacobian and BDF leave D5's E(t) - (4t+1) at 2.6e-10 and
4.5e-9 against the 1e-10 gate of criterion 3 (DOP853: 3.5e-11), and
Radau passes but makes ``solvflow check`` take 97 s instead of about 5 s
(2 cores).  Samples are recorded on a linear grid on [0, 1] and a
geometric grid afterwards, which is what the power-law fits consume.
"""
from __future__ import annotations

import csv as _csv
import json as _json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from . import catalog
from .catalog import InitialData, ModelId
from .curvature import compile_flow
from .liecore import StructureConstants, jacobi_residual

__all__ = [
    "FlowProblem",
    "Trajectory",
    "integrate",
    "integrate_brackets",
    "resample_log",
    "CSV_HEADER",
]

CSV_HEADER = ("t", "A", "B", "C", "D", "E", "max_drift", "max_offdiag")

TERM_REACHED = "reached_t_end"
TERM_STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class FlowProblem:
    """One flow run: model, initial data and integration controls.

    The flow is solved for log g, so ``rel_tol`` and ``abs_tol`` bound the
    error in log g, i.e. the relative error in g.  Diagonality has no
    control: it is decided exactly from the brackets (see
    :func:`solvflow.curvature.compile_flow`) before the run starts.
    """

    model: ModelId | None
    initial: InitialData
    t_end: float
    params: Mapping[str, float] | None = None  # None -> constrained parameters
    rel_tol: float = 1e-11
    abs_tol: float = 1e-13
    samples_per_decade: int = 64
    linear_samples: int = 33

    def __post_init__(self):
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.samples_per_decade < 1 or self.linear_samples < 2:
            raise ValueError("sampling grid too coarse")
        if not isinstance(self.initial, InitialData):
            object.__setattr__(self, "initial", InitialData(tuple(self.initial)))

    def resolved_params(self) -> dict[str, float] | None:
        if self.model is None:
            return None
        if self.params is None:
            return catalog.constrained_params(self.model)
        return dict(self.params)


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow: times, coefficients and per-sample diagnostics.

    ``max_drift`` is the worst relative drift of the model's conserved
    monomials up to that sample.  ``max_offdiag`` is the off-diagonal Ricci
    component at the sample; :func:`integrate` only runs tables whose
    off-diagonal monomials all cancel, so it writes 0.0 throughout.
    """

    times: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    max_drift: np.ndarray = field(repr=False)
    max_offdiag: np.ndarray = field(repr=False)
    termination: str
    model: ModelId | None = None
    params: dict | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        g = np.asarray(self.coeffs, dtype=float)
        if t.ndim != 1 or g.shape != (t.size, 5):
            raise ValueError("trajectory arrays have inconsistent shapes")
        if t.size == 0:
            raise ValueError("trajectory must contain at least one sample")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if np.any(g <= 0):
            raise ValueError("sampled metrics must be positive")
        for name, arr in (("times", t), ("coeffs", g),
                          ("max_drift", np.asarray(self.max_drift, dtype=float)),
                          ("max_offdiag", np.asarray(self.max_offdiag, dtype=float))):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.times.size

    @property
    def initial(self) -> np.ndarray:
        return self.coeffs[0].copy()

    @property
    def final(self) -> np.ndarray:
        return self.coeffs[-1].copy()

    def component(self, which: int | str) -> np.ndarray:
        return self.coeffs[:, component_index(which)].copy()

    # -- serialization ------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(CSV_HEADER)
            for i in range(len(self)):
                row = [self.times[i], *self.coeffs[i], self.max_drift[i], self.max_offdiag[i]]
                w.writerow([repr(float(x)) for x in row])

    @classmethod
    def read_csv(cls, path) -> "Trajectory":
        with open(path, newline="") as fh:
            r = _csv.reader(fh)
            header = tuple(next(r))
            if header != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {header}")
            rows = [[float(x) for x in row] for row in r if row]
        data = np.array(rows)
        return cls(
            times=data[:, 0],
            coeffs=data[:, 1:6],
            max_drift=data[:, 6],
            max_offdiag=data[:, 7],
            termination="unknown",
        )

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.value if self.model is not None else None,
            "params": self.params,
            "lambda": [float(x) for x in self.coeffs[0]],
            "termination": self.termination,
            "meta": self.meta,
            "samples": {
                "t": [float(x) for x in self.times],
                **{
                    name: [float(x) for x in self.coeffs[:, k]]
                    for k, name in enumerate("ABCDE")
                },
                "max_drift": [float(x) for x in self.max_drift],
                "max_offdiag": [float(x) for x in self.max_offdiag],
            },
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            _json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def read_json(cls, path) -> "Trajectory":
        with open(path) as fh:
            doc = _json.load(fh)
        s = doc["samples"]
        coeffs = np.column_stack([s[name] for name in "ABCDE"])
        return cls(
            times=np.asarray(s["t"], dtype=float),
            coeffs=coeffs,
            max_drift=np.asarray(s["max_drift"], dtype=float),
            max_offdiag=np.asarray(s["max_offdiag"], dtype=float),
            termination=doc.get("termination", "unknown"),
            model=ModelId(doc["model"]) if doc.get("model") else None,
            params=doc.get("params"),
            meta=doc.get("meta", {}),
        )


def component_index(which: int | str) -> int:
    if isinstance(which, str):
        try:
            return "ABCDE".index(which.upper())
        except ValueError:
            raise ValueError(f"unknown component {which!r}") from None
    if not 0 <= int(which) < 5:
        raise ValueError("component index out of range")
    return int(which)


def _sample_times(t_end: float, per_decade: int, linear_samples: int) -> np.ndarray:
    if t_end <= 1.0:
        return np.linspace(0.0, t_end, linear_samples)
    lin = np.linspace(0.0, 1.0, linear_samples)
    decades = math.log10(t_end)
    n_log = max(2, math.ceil(per_decade * decades) + 1)
    logt = np.logspace(0.0, decades, n_log)[1:]
    logt[-1] = t_end
    return np.unique(np.concatenate([lin, logt]))


def _drift_series(model: ModelId | None, coeffs: np.ndarray) -> np.ndarray:
    if model is None:
        return np.zeros(coeffs.shape[0])
    monos = catalog.model_invariants(model).monomials
    if not monos:
        return np.zeros(coeffs.shape[0])
    worst = np.zeros(coeffs.shape[0])
    for m in monos:
        vals = m.value(coeffs)
        worst = np.maximum(worst, np.abs(vals / vals[0] - 1.0))
    return worst


def integrate(problem: FlowProblem, sc: StructureConstants | None = None) -> Trajectory:
    """Integrate the flow for ``problem`` and sample the solution.

    If ``sc`` is omitted the brackets come from the catalog model with the
    problem's (or the constrained) parameters.  Raises DiagonalityViolation
    before solving if the brackets do not keep a diagonal metric diagonal.
    """
    params = problem.resolved_params()
    if sc is None:
        if problem.model is None:
            raise ValueError("need either a catalog model or explicit brackets")
        sc = catalog.build_model(problem.model, params)
    res = jacobi_residual(sc)
    if res > 1e-10:
        raise ValueError(f"brackets violate the Jacobi identity (residual {res:.3e})")
    terms = compile_flow(sc)
    terms.check_diagonal()

    lam = problem.initial.array
    t_eval = _sample_times(problem.t_end, problem.samples_per_decade, problem.linear_samples)
    meta = {"t_end": problem.t_end, "rel_tol": problem.rel_tol, "abs_tol": problem.abs_tol,
            "solver": "DOP853 on log g"}

    sol = solve_ivp(
        lambda t, u: terms.log_rhs(u),
        (0.0, problem.t_end),
        np.log(lam),
        method="DOP853",
        t_eval=t_eval,
        rtol=problem.rel_tol,
        atol=problem.abs_tol,
        max_step=0.1 * (problem.t_end + 1.0),
    )
    meta["nfev"] = int(sol.nfev)

    times = sol.t
    coeffs = np.exp(sol.y.T)
    termination = TERM_REACHED
    if sol.status == -1:
        termination = TERM_STEP_FAILURE
        meta["solver_message"] = sol.message

    if times.size == 0 or times[0] != 0.0:
        times = np.concatenate([[0.0], times])
        coeffs = np.vstack([lam, coeffs])
    coeffs[0] = lam  # exp(log(lam)) can be an ulp off the initial data

    drift = _drift_series(problem.model, coeffs)

    return Trajectory(
        times=times,
        coeffs=coeffs,
        max_drift=drift,
        max_offdiag=np.zeros(times.size),
        termination=termination,
        model=problem.model,
        params=params,
        meta=meta,
    )


def integrate_brackets(
    sc: StructureConstants,
    lam,
    t_end: float,
    **kwargs,
) -> Trajectory:
    """Integrate the flow of arbitrary (non-catalog) brackets."""
    problem = FlowProblem(model=None, initial=InitialData(tuple(lam)), t_end=t_end, **kwargs)
    return integrate(problem, sc=sc)


def resample_log(traj: Trajectory, per_decade: int) -> Trajectory:
    """Resample onto a geometric time grid via monotone cubic interpolation
    of log(coefficient) against log(t); endpoints are preserved exactly."""
    if per_decade < 1:
        raise ValueError("per_decade must be a positive integer")
    mask = traj.times > 0.0
    if np.count_nonzero(mask) < 2:
        raise ValueError("need at least two samples at positive times to resample")
    t = traj.times[mask]
    g = traj.coeffs[mask]
    lo, hi = t[0], t[-1]
    n = max(2, math.ceil(per_decade * math.log10(hi / lo)) + 1)
    new_t = np.geomspace(lo, hi, n)
    new_t[0], new_t[-1] = lo, hi

    logt = np.log(t)
    new_logt = np.log(new_t)
    new_g = np.empty((n, 5))
    for k in range(5):
        interp = PchipInterpolator(logt, np.log(g[:, k]))
        new_g[:, k] = np.exp(interp(new_logt))
    new_g[0], new_g[-1] = g[0], g[-1]

    drift = np.interp(new_logt, logt, traj.max_drift[mask])
    offd = np.interp(new_logt, logt, traj.max_offdiag[mask])
    meta = dict(traj.meta)
    meta["resampled_per_decade"] = per_decade
    return Trajectory(
        times=new_t,
        coeffs=new_g,
        max_drift=drift,
        max_offdiag=offd,
        termination=traj.termination,
        model=traj.model,
        params=traj.params,
        meta=meta,
    )
