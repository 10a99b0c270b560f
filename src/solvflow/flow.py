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
Radau passes but made ``solvflow check`` take 97 s when it took about 5 s
with DOP853 (2 cores, before criterion 4's runs were stacked; ``check``
now takes about 2 s).  Samples are recorded on a linear grid on [0, 1]
and a geometric grid afterwards, which is what the power-law fits consume.

Problems that differ only in their initial data can be solved together
(:func:`integrate_many`): their M states log g are stacked into one system
of 5M components, so scipy's per-step overhead is paid once for all rows,
and :func:`integrate` is the batch of one.  scipy's error norm is an RMS
over all components, so rtol and atol are divided by sqrt(M), which keeps
each row's share of the norm within the row's own tolerance.  DOP853 mixes
its 5th- and 3rd-order estimates nonlinearly, so this bound is measured,
not strict: on criterion 4's draws of D1, D2, D3 and D5 each row of a
20-row batch lies closer to a tight-tolerance reference than its own
single run does.
"""
from __future__ import annotations

import csv as _csv
import json as _json
import logging
import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Mapping, Sequence

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
    "integrate_many",
    "integrate_brackets",
    "resample_log",
    "CSV_HEADER",
]

CSV_HEADER = ("t", "A", "B", "C", "D", "E")

log = logging.getLogger(__name__)

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
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
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
    """Sampled flow: strictly increasing finite times and the finite,
    positive coefficients (A, B, C, D, E) at each of them.

    ``meta`` says how the run was produced: the problem's tolerances, the
    solver, the number of rows solved together (``batch_size``), the
    tolerances the solver was given, and ``nfev`` and ``wall_s`` of that
    solve.  For a catalog model it also gives the worst relative drift of
    its named conserved monomials over the run (``max_drift``).
    Diagonality needs no per-sample record: :func:`integrate` refuses,
    before solving, any brackets whose off-diagonal Ricci monomials do not
    all cancel.
    """

    times: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
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
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(g))):
            raise ValueError("sample times and coefficients must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if np.any(g <= 0):
            raise ValueError("sampled metrics must be positive")
        for name, arr in (("times", t), ("coeffs", g)):
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
                w.writerow([repr(float(x)) for x in (self.times[i], *self.coeffs[i])])

    @classmethod
    def read_csv(cls, path) -> "Trajectory":
        with open(path, newline="") as fh:
            r = _csv.reader(fh)
            header = next(r, None)
            if header is None:
                raise ValueError(f"{path}: empty CSV file")
            # later columns, such as the two diagnostic ones of older files, are ignored
            if tuple(header[:len(CSV_HEADER)]) != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {tuple(header)}")
            rows = [[float(x) for x in row[:len(CSV_HEADER)]] for row in r if row]
        if not rows:
            raise ValueError(f"{path}: no samples after the CSV header")
        data = np.array(rows)
        return cls(
            times=data[:, 0],
            coeffs=data[:, 1:6],
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


def integrate(problem: FlowProblem, sc: StructureConstants | None = None) -> Trajectory:
    """Integrate the flow for ``problem`` and sample the solution: the
    batch of one of :func:`integrate_many`.

    If ``sc`` is omitted the brackets come from the catalog model with the
    problem's (or the constrained) parameters.  Raises DiagonalityViolation
    before solving if the brackets do not keep a diagonal metric diagonal.
    """
    # the shared private solve, not integrate_many: a single run's solver
    # call then nests directly in this function's span when perfbench wraps
    # the public names for tracing
    return _integrate_batch([problem], sc)[0]


def integrate_many(problems: Sequence[FlowProblem],
                   sc: StructureConstants | None = None) -> list[Trajectory]:
    """Integrate problems that differ only in their initial data as one
    stacked system, and return one trajectory per problem, in order.

    Each trajectory's ``meta["nfev"]`` counts the evaluations of the whole
    stacked solve.  A finite-time collapse of one row stops the shared
    step, so a stacked solve that ends in a step failure is repeated one
    row at a time, and every row ends where its own run would.
    """
    problems = list(problems)
    trajs = _integrate_batch(problems, sc)
    if len(trajs) > 1 and trajs[0].termination == TERM_STEP_FAILURE:
        log.debug("stacked solve stopped at t=%g; solving its %d rows one at a time",
                  trajs[0].times[-1], len(trajs))
        trajs = [_integrate_batch([p], sc)[0] for p in problems]
    return trajs


def _integrate_batch(problems: list[FlowProblem],
                     sc: StructureConstants | None) -> list[Trajectory]:
    """One DOP853 solve of the M problems' stacked log g, at tolerances
    divided by sqrt(M) (see the module docstring)."""
    if not problems:
        raise ValueError("need at least one flow problem")
    first = problems[0]
    if any(replace(p, initial=first.initial) != first for p in problems):
        raise ValueError("problems solved together may differ only in their initial data")
    params = first.resolved_params()
    if sc is None:
        if first.model is None:
            raise ValueError("need either a catalog model or explicit brackets")
        sc = catalog.build_model(first.model, params)
    res = jacobi_residual(sc)
    if res > 1e-10:
        raise ValueError(f"brackets violate the Jacobi identity (residual {res:.3e})")
    terms = compile_flow(sc)
    terms.check_diagonal()

    m = len(problems)
    lam = np.array([p.initial.array for p in problems])
    u0 = np.log(lam).ravel()
    t_eval = _sample_times(first.t_end, first.samples_per_decade, first.linear_samples)
    rtol = first.rel_tol / math.sqrt(m)
    atol = first.abs_tol / math.sqrt(m)

    start = perf_counter()
    sol = solve_ivp(
        lambda t, u: terms.log_rhs(u.reshape(m, -1)).ravel(),
        (0.0, first.t_end),
        u0,
        method="DOP853",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        max_step=0.1 * (first.t_end + 1.0),
    )
    wall_s = perf_counter() - start
    meta = {"t_end": first.t_end, "rel_tol": first.rel_tol, "abs_tol": first.abs_tol,
            "solver": "DOP853 on log g", "batch_size": m, "solver_rtol": rtol,
            "solver_atol": atol, "nfev": int(sol.nfev), "wall_s": wall_s}
    termination = TERM_REACHED
    if sol.status == -1:
        termination = TERM_STEP_FAILURE
        meta["solver_message"] = sol.message
    log.debug("solved %s: M=%d t_end=%g nfev=%d wall=%.3fs %s",
              first.model.value if first.model is not None else "brackets",
              m, first.t_end, sol.nfev, wall_s, termination)

    times, u = sol.t, sol.y
    if times.size == 0 or times[0] != 0.0:
        times = np.concatenate([[0.0], times])
        u = np.column_stack([u0, u])
    monos = () if first.model is None else catalog.model_invariants(first.model).monomials
    trajs = []
    for lam_row, u_row in zip(lam, np.split(u, m)):
        coeffs = np.exp(u_row.T)
        coeffs[0] = lam_row  # exp(log(lam)) can be an ulp off the initial data
        trajs.append(Trajectory(
            times=times,
            coeffs=coeffs,
            termination=termination,
            model=first.model,
            params=params,
            meta=dict(meta, max_drift=max((mo.drift(coeffs) for mo in monos), default=0.0)),
        ))
    return trajs


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

    meta = dict(traj.meta)
    meta["resampled_per_decade"] = per_decade
    return Trajectory(
        times=new_t,
        coeffs=new_g,
        termination=traj.termination,
        model=traj.model,
        params=traj.params,
        meta=meta,
    )
