"""Time integration of the diagonal Ricci-flow systems.

The flow is solved for u = log g: the compiled terms give du/dt directly
(:meth:`solvflow.curvature.FlowTerms.log_rhs`), every conserved monomial
is a linear first integral of u, which Runge-Kutta methods keep to
rounding, and g = exp(u) stays positive without a floor or an event.  A
finite-time collapse (u -> -inf) ends the run as a step-size underflow.

Integration is delegated to scipy's DOP853 (an 8(5,3) embedded pair with
PI step control; Hairer, Norsett & Wanner, *Solving ODEs I*, II.10), and
scipy is loaded at the first solve, not on import.  Loading
``scipy.integrate``, with the ``scipy.linalg`` it pulls in, takes about
0.6 s on 2 cores, where ``import solvflow`` without it takes about 0.22 s;
so the commands and callers that never integrate skip that cost, and the
first solve in a process pays it.  The solver is always called through the
module attribute ``flow.solve_ivp``, with the step method
``flow.RowwiseDOP853``; the first access of each resolves or builds it and
stores it, so a tracer or a test that replaces ``solve_ivp`` sees every
solve.  Samples are recorded on a linear grid on [0, 1] and a geometric
grid afterwards, which is what the power-law fits consume.

The flow is solved in tau = log(1 + t), where dy/dtau = (1 + t) dy/dt.
Its solutions approach power laws g ~ c t^k, which are nearly straight
lines in log g against tau, so DOP853 crosses each decade past t = 100 in
about 5 steps, where in t it took about 23 (runs of D1, D2 and D3 to
t = 1e6 at rel_tol 1e-12).  The sample grid is mapped to tau by ``log1p``,
and each trajectory reports the grid's own times.  Criterion 4's 100-row
solve to t = 1e4 takes 1,136 evaluations instead of 1,970.

Some coordinates are reflected first.  Let a transposition (i j) of the
coordinates map the term table onto itself, and put r = u_i - u_j.  Pair
each monomial k with its image under the swap: at u_i = u_j = s the two
share an exponent mid_k and have opposite rate differences, so
r' = sum_k c_k exp(mid_k) sinh(d_k r/2), where c_k and d_k are the
differences of monomial k's rates and exponents in i and j.  r' is odd in
r, so r = 0 is invariant and no solution crosses it.
  * Equal rate columns make r constant: D1's (B D) and (C E) and D5's
    (B C).  These keep plain coordinates.
  * Otherwise r moves: D11's (B C), for either eps, with
    r' = -(4/E) sinh r.  In plain coordinates the solver carries u_i and
    u_j separately, and r soon falls below their absolute error.  DOP853
    then holds the r mode at the noise level, where it limits the step by
    stability, not accuracy, and changes sign.  That made generic D11 stiff
    (Hairer & Wanner, *Solving ODEs II*, IV.1) and left 89 of 289 samples
    of a run to t = 1e4 with B < C.  So such a pair is solved in
    s = (u_i + u_j)/2 and w = log|r|, each row keeping the sign of its r.
    w' = sum_k c_k exp(mid_k) sinh(d_k r/2)/r is smooth and stays finite
    once r underflows (for D11 it tends to -4/E), and the sign of B - C is
    fixed by construction; B and C tie once r is below an ulp of s.  In t,
    the run to t = 1e4 took 1,733 evaluations instead of 9,029, and
    criterion 4's 20-row D11 batch 1,706 instead of 12,233 (in tau, 962
    each).
  * A moving swap that shares a coordinate with another one (su(2) + R^2:
    A, B and C) keeps plain coordinates, and so does a row that starts with
    r = 0, where r = 0 holds exactly.
Before this, stiff solvers were tried in plain coordinates, and each missed
a verification gate or the time budget: LSODA with the analytic Jacobian
and BDF leave D5's E(t) - (4t+1) at 2.6e-10 and 4.5e-9 against the 1e-10
gate of criterion 3 (DOP853: 3.5e-11), and Radau passes but made
``solvflow check`` take 97 s when it took about 5 s with DOP853 (2 cores,
before criterion 4's runs were stacked).

Problems that share ``t_end``, tolerances and sampling grid are solved
together (:func:`integrate_many`), whatever their model, parameters and
initial data: the M rows are stacked into one system of 5M components, so
scipy's per-step overhead, which is about the same at any width, is paid
once for all of them, and :func:`integrate` is the batch of one.  Each
distinct (model, parameters) table is compiled once, and its rows form one
block per set of pairs they take reflected.  The right-hand side fills
each block's slice: a reflected block through its own coordinates, and the
plain rows of several blocks through one product with the union of their
tables, where the logs of the other tables' terms are -inf in each row, so
those terms add exactly 0.  A batch of one block uses that block's
right-hand side alone, as a single run does.  The step control holds each
row to its own tolerance: ``RowwiseDOP853`` takes DOP853's error norm of
every row on its own and accepts a step when the largest is below 1, so a
row's steps are at least as fine as its own run would take, whatever the
other rows do.  The solver runs at a tenth of the problem's rel_tol and
abs_tol, the divisor that keeps runs in tau at least as accurate as they
were in t.  Worst |delta log g| of criterion 4's seed-0 draws to t = 1e4
against a DOP853 solve in t at rtol 2.3e-14 and atol 1e-17 (for generic
D11, a Radau solve in plain coordinates at rtol 1e-13), for D1, D2, D3, D5
and D11:

  solve                                 D1       D2       D3       D5       D11
  in t, RMS norm at tol/sqrt(M), batch  1.1e-12  1.3e-12  1.6e-12  2.2e-12  2.9e-12
  in t, single runs                     8.8e-12  1.1e-11  1.2e-11  1.8e-11  7.5e-12
  in tau at tol, single runs            4.9e-11  2.1e-11  4.9e-11  6.5e-11  7.2e-11
  in tau at tol/10, row-wise, batch     1.7e-13  1.9e-13  2.4e-13  3.3e-13  2.9e-12
  in tau at tol/10, single runs         5.3e-12  2.9e-12  6.6e-12  8.5e-12  8.3e-12

In tau at the problem's own tolerances single runs lose accuracy, hence
the tenth.  With an RMS norm over all rows at tolerances divided by
sqrt(M), one D2 row of the batch lies 1.44 times as far from the reference
as its own run, at any divisor from 1 to 30; with the row-wise norm every
row lies at most 0.66 times as far (D11, 0.61; the D11 figures are set by
the Radau reference).  ``solvflow check`` solves its 111 rows in 6 solves.
Each solve's ``meta`` records its accepted and rejected steps and its
smallest step in tau.
"""
from __future__ import annotations

import csv as _csv
import json as _json
import logging
import math
import sys
from dataclasses import dataclass, field, replace
from itertools import accumulate, combinations
from time import perf_counter
from typing import Mapping, Sequence

import numpy as np

from . import catalog
from .catalog import InitialData, ModelId
from .curvature import FlowTerms, compile_flow
from .liecore import StructureConstants, jacobi_residual

__all__ = [
    "FlowProblem",
    "Trajectory",
    "integrate",
    "integrate_many",
    "integrate_brackets",
    "CSV_HEADER",
]

CSV_HEADER = ("t", "A", "B", "C", "D", "E")

log = logging.getLogger(__name__)

TERM_REACHED = "reached_t_end"
TERM_STEP_FAILURE = "step_failure"


# the solver runs at the problem's tolerances divided by this (see the
# module docstring), and scipy raises any rtol below 100 machine epsilons
_TOL_DIVISOR = 10
_RTOL_FLOOR = 100 * sys.float_info.epsilon


def _load_solve_ivp():
    start = perf_counter()
    from scipy.integrate import solve_ivp

    log.debug("loaded scipy.integrate in %.3fs", perf_counter() - start)
    return solve_ivp


def _build_rowwise_dop853():
    from scipy.integrate import DOP853

    class RowwiseDOP853(DOP853):
        """scipy's DOP853 with each of ``rows`` stacked rows of equal width
        held to its own tolerance: the error norm is the largest of the
        rows' own DOP853 norms.  scipy accepts a step exactly when that norm
        is below 1, so the norm also records, in the dict ``counts``, the
        accepted steps (``steps``), the rejected ones (``rejected_steps``)
        and the smallest accepted step (``min_step``)."""

        def __init__(self, fun, t0, y0, t_bound, *, rows, counts, **options):
            self.rows = rows
            self.counts = counts
            counts.update(steps=0, rejected_steps=0, min_step=math.inf)
            super().__init__(fun, t0, y0, t_bound, **options)

        def _estimate_error_norm(self, K, h, scale):
            err5 = (np.dot(K.T, self.E5) / scale).reshape(self.rows, -1)
            err3 = (np.dot(K.T, self.E3) / scale).reshape(self.rows, -1)
            err5_2 = np.einsum("ij,ij->i", err5, err5)
            denom = err5_2 + 0.01 * np.einsum("ij,ij->i", err3, err3)
            # a row without error has norm 0, and a NaN estimate stays NaN,
            # which rejects the step, as in scipy's own norm
            row_norms = np.divide(err5_2, np.sqrt(denom * err5.shape[1]),
                                  out=np.zeros_like(denom), where=denom != 0.0)
            norm = abs(h) * float(np.max(row_norms))
            if norm < 1.0:
                self.counts["steps"] += 1
                self.counts["min_step"] = min(self.counts["min_step"], abs(float(h)))
            else:
                self.counts["rejected_steps"] += 1
            return norm

    return RowwiseDOP853


_LAZY = {"solve_ivp": _load_solve_ivp, "RowwiseDOP853": _build_rowwise_dop853}


def __getattr__(name: str):
    """Load ``solve_ivp`` and build ``RowwiseDOP853`` at their first use,
    and keep each as a module global (PEP 562), so that ``import solvflow``
    loads no scipy."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = _LAZY[name]()
    return value


@dataclass(frozen=True)
class FlowProblem:
    """One flow run: model, initial data and integration controls.

    The flow is solved for log g, or for coordinates that reflect a pair of
    its components (see the module docstring), so ``rel_tol`` and
    ``abs_tol`` bound the error in log g, i.e. the relative error in g.
    They bound the local error of each step, for each row on its own: the
    solver accepts a step only when every row's DOP853 error estimate is
    within ``rel_tol/10`` and ``abs_tol/10``, whatever rows it is stacked
    with.  The global error that leaves is measured, not bounded: in the
    module docstring's table it is below that of a DOP853 run in t at
    ``rel_tol`` and ``abs_tol``.  ``rel_tol`` must be at least 10 times
    scipy's floor of 100 machine epsilons (about 2.2e-13), to which scipy
    would otherwise raise the solver's tolerance.
    Diagonality has no control: it is decided exactly from the brackets
    (see :func:`solvflow.curvature.compile_flow`) before the run starts.
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
        if self.rel_tol / _TOL_DIVISOR < _RTOL_FLOOR:
            raise ValueError(f"rel_tol must be at least {_TOL_DIVISOR * _RTOL_FLOOR:.3g}: "
                             f"the solver runs at rel_tol/{_TOL_DIVISOR}, and scipy "
                             f"raises a relative tolerance below {_RTOL_FLOOR:.3g}")
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
    solver and the coordinates it solved in (``solver``, for instance
    ``DOP853 on log g in log(1+t), (B,C) -> (s, log|r|)``), the number of
    rows solved together (``batch_size``), the tolerances the solver was
    given, and of that solve ``nfev``, the accepted and rejected steps
    (``steps``, ``rejected_steps``), the smallest accepted step in
    log(1 + t) (``min_step_log_t``, None if none was) and ``wall_s``.  For a
    catalog model it also
    gives the worst relative drift of its named conserved monomials over
    the run (``max_drift``).
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
    """Integrate problems that share ``t_end``, tolerances and sampling grid
    as one stacked system, and return one trajectory per problem, in order.

    Their model, parameters and initial data may differ.  Each distinct
    (model, parameters) table is checked and compiled once, and its rows
    are split into blocks by the pairs they take reflected (see the module
    docstring); the solver's right-hand side fills each block's slice.
    Each trajectory's ``meta["solver"]`` names its own row's coordinates,
    and ``meta["batch_size"]`` and ``meta["nfev"]`` are those of the
    stacked solve.  Explicit brackets ``sc`` are one table, so their rows
    must share the model and parameters.  A finite-time collapse of one
    row stops the shared step, so the rows of a stacked solve that ends in
    a step failure are repeated one at a time, and every row ends where its
    own run would.
    """
    problems = list(problems)
    trajs = _integrate_batch(problems, sc)
    redo = [k for k, traj in enumerate(trajs)
            if traj.termination == TERM_STEP_FAILURE and traj.meta["batch_size"] > 1]
    if redo:
        log.debug("stacked solve stopped at t=%g; solving its %d rows one at a time",
                  trajs[redo[0]].times[-1], len(redo))
    for k in redo:
        trajs[k] = _integrate_batch([problems[k]], sc)[0]
    return trajs


def _invariant_swaps(terms: FlowTerms) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The transpositions (i j) of coordinates that map the term table onto
    itself, as (conserving, moving).  A conserving swap has equal rate
    columns, so u_i - u_j is constant.  Under a moving one u_i - u_j
    evolves at a rate odd in u_i - u_j, so it never crosses 0."""
    table = {tuple(e): tuple(r) for e, r in zip(terms.exps, terms.rates)}
    conserving, moving = [], []
    for i, j in combinations(range(terms.exps.shape[1]), 2):
        perm = np.arange(terms.exps.shape[1])
        perm[[i, j]] = j, i
        if table == {tuple(e[perm]): tuple(r[perm]) for e, r in zip(terms.exps, terms.rates)}:
            equal = np.array_equal(terms.rates[:, i], terms.rates[:, j])
            (conserving if equal else moving).append((i, j))
    return conserving, moving


def _reflected_pairs(terms: FlowTerms) -> list[tuple[int, int]]:
    """The moving swaps that share no coordinate with another moving swap:
    each gets the coordinates (s, log|r|) of the module docstring."""
    _, moving = _invariant_swaps(terms)
    return [pair for pair in moving
            if all(set(pair).isdisjoint(other) for other in moving if other != pair)]


@dataclass
class _Block:
    """The rows of a stacked solve that share a term table and the pairs
    they take reflected."""

    model: ModelId | None
    params: dict | None
    terms: FlowTerms
    pairs: tuple[tuple[int, int], ...]
    rows: list[int] = field(default_factory=list)

    @property
    def reflections(self) -> list[str]:
        return [f"({'ABCDE'[i]},{'ABCDE'[j]}) -> (s, log|r|)" for i, j in self.pairs]

    @property
    def label(self) -> str:
        """For the log, e.g. ``D11×20 (B,C) -> (s, log|r|)``."""
        name = self.model.value if self.model is not None else "brackets"
        return " ".join([f"{name}×{len(self.rows)}", *self.reflections])


def _compile(model: ModelId | None, params, sc: StructureConstants | None):
    """The checked term table of one model and parameter set (or of
    ``sc``), and the pairs its rows may take reflected."""
    if sc is None:
        if model is None:
            raise ValueError("need either a catalog model or explicit brackets")
        sc = catalog.build_model(model, params)
    res = jacobi_residual(sc)
    if res > 1e-10:
        raise ValueError(f"brackets violate the Jacobi identity (residual {res:.3e})")
    terms = compile_flow(sc)
    terms.check_diagonal()
    return terms, _reflected_pairs(terms)


def _integrate_batch(problems: list[FlowProblem],
                     sc: StructureConstants | None) -> list[Trajectory]:
    """Check and compile each table of the M problems once, split their
    rows into blocks, and solve all blocks as one stacked DOP853 system."""
    if not problems:
        raise ValueError("need at least one flow problem")
    first = problems[0]
    controls = replace(first, model=None, params=None)
    if any(replace(p, model=None, params=None, initial=first.initial) != controls
           for p in problems):
        raise ValueError("problems solved together may differ only in their model, "
                         "parameters and initial data")
    lam = np.array([p.initial.array for p in problems])
    u0 = np.log(lam)
    tables: dict = {}
    blocks: dict = {}
    for k, p in enumerate(problems):
        params = p.resolved_params()
        table = (p.model, None if params is None else tuple(sorted(params.items())))
        if table not in tables:
            if sc is not None and tables:
                raise ValueError("rows solved with explicit brackets must share "
                                 "their model and parameters")
            tables[table] = _compile(p.model, params, sc)
        terms, pairs = tables[table]
        # a row with u_i = u_j at the start keeps u_i = u_j exactly: no reflection
        kind = tuple(pair for pair in pairs if u0[k, pair[0]] != u0[k, pair[1]])
        if (table, kind) not in blocks:
            blocks[table, kind] = _Block(p.model, params, terms, kind)
        blocks[table, kind].rows.append(k)
    return _solve(first, list(blocks.values()), lam, u0)


def _solve(first: FlowProblem, blocks: list[_Block], lam: np.ndarray,
           u0: np.ndarray) -> list[Trajectory]:
    """One DOP853 solve in log(1+t) of the M rows' stacked coordinates,
    block after block, each row held to a tenth of the problem's tolerances:
    log g itself, or with each of a block's pairs reflected (see the module
    docstring)."""
    m = len(lam)
    times = _sample_times(first.t_end, first.samples_per_decade, first.linear_samples)
    rtol = first.rel_tol / _TOL_DIVISOR
    atol = first.abs_tol / _TOL_DIVISOR
    # plain blocks first, so that several of them share one product
    blocks = sorted(blocks, key=lambda block: bool(block.pairs))
    bounds = [0, *accumulate(len(block.rows) for block in blocks)]
    slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    coords = [_Reflected(b.terms, b.pairs, u0[b.rows]) if b.pairs else None for b in blocks]
    y0 = np.concatenate([u0[b.rows] if c is None else c.y0 for b, c in zip(blocks, coords)])
    n_plain = coords.count(None)
    # (stacked rows, their rhs): the plain rows, and each reflected block
    pieces = [(rows, c.rhs) for rows, c in zip(slices, coords) if c is not None]
    if n_plain:
        plain_rhs = blocks[0].terms.log_rhs if n_plain == 1 else _union_rhs(blocks[:n_plain])
        pieces.insert(0, (slice(0, bounds[n_plain]), plain_rhs))
    # in tau = log(1 + t), dy/dtau = (1 + t) dy/dt
    if len(pieces) == 1:
        piece_rhs = pieces[0][1]

        def rhs(tau, y):
            return math.exp(tau) * piece_rhs(y.reshape(m, -1)).ravel()
    else:
        def rhs(tau, y):
            y = y.reshape(m, -1)
            dy = np.empty_like(y)
            for rows, piece_rhs in pieces:
                dy[rows] = piece_rhs(y[rows])
            return math.exp(tau) * dy.ravel()

    # module attributes, which load scipy at first use (outside the timed
    # solve) and which a tracer or test may have replaced
    module = sys.modules[__name__]
    solve_ivp, method = module.solve_ivp, module.RowwiseDOP853
    counts: dict = {}
    start = perf_counter()
    sol = solve_ivp(
        rhs,
        (0.0, math.log1p(first.t_end)),
        y0.ravel(),
        method=method,
        t_eval=np.log1p(times),
        rtol=rtol,
        atol=atol,
        rows=m,
        counts=counts,
    )
    wall_s = perf_counter() - start
    meta = {"t_end": first.t_end, "rel_tol": first.rel_tol, "abs_tol": first.abs_tol,
            "solver": "DOP853 on log g in log(1+t)", "batch_size": m, "solver_rtol": rtol,
            "solver_atol": atol, "nfev": int(sol.nfev), "steps": counts["steps"],
            "rejected_steps": counts["rejected_steps"],
            "min_step_log_t": counts["min_step"] if counts["steps"] else None,
            "wall_s": wall_s}
    termination = TERM_REACHED
    if sol.status == -1:
        termination = TERM_STEP_FAILURE
        meta["solver_message"] = sol.message
    log.info("solved %s: M=%d t_end=%g nfev=%d steps=%d rejected=%d min_step=%.3g "
             "wall=%.3fs %s [%s]", ", ".join(block.label for block in blocks), m,
             first.t_end, sol.nfev, counts["steps"], counts["rejected_steps"],
             counts["min_step"], wall_s, termination, meta["solver"])

    # the samples are the grid's own times, not expm1 of the solver's; a
    # solve whose first step fails returns no sample, not even t = 0
    y = sol.y if len(sol.t) else y0.reshape(-1, 1)
    times = times[:y.shape[1]]
    y = y.reshape(m, -1, times.size).transpose(0, 2, 1)  # (row, sample, coordinate)
    trajs: list[Trajectory] = [None] * m
    for block, rows, c in zip(blocks, slices, coords):
        u = y[rows] if c is None else c.log_g(y[rows], c.sign[:, None, :])
        block_meta = dict(meta, solver=", ".join([meta["solver"], *block.reflections]))
        monos = () if block.model is None else catalog.model_invariants(block.model).monomials
        for k, u_row in zip(block.rows, u):
            coeffs = np.exp(u_row)
            coeffs[0] = lam[k]  # exp(log(lam)) can be an ulp off the initial data
            trajs[k] = Trajectory(
                times=times,
                coeffs=coeffs,
                termination=termination,
                model=block.model,
                params=block.params,
                meta=dict(block_meta,
                          max_drift=max((mo.drift(coeffs) for mo in monos), default=0.0)),
            )
    return trajs


def _union_rhs(blocks: list[_Block]):
    """du/dt of the rows of several plain blocks, stacked in block order,
    as one product with the union of their term tables.  Each row gets
    -inf added to the logs of the other tables' terms, so those add
    exp(-inf) * rate = 0 exactly and each row sums only its own terms."""
    exps = np.concatenate([block.terms.exps for block in blocks])
    rates = np.concatenate([block.terms.rates for block in blocks])
    mask = np.full((sum(len(block.rows) for block in blocks), len(exps)), -np.inf)
    row = term = 0
    for block in blocks:
        mask[row:row + len(block.rows), term:term + len(block.terms.exps)] = 0.0
        row += len(block.rows)
        term += len(block.terms.exps)

    def rhs(u: np.ndarray) -> np.ndarray:
        return np.exp(u @ exps.T + mask) @ rates

    return rhs


class _Reflected:
    """Coordinates y of log g in which the pair (i, j) of each moving swap
    becomes s = (u_i + u_j)/2 at i and w = log|r|, r = u_i - u_j, at j;
    each row keeps the sign of its own r.  u and dy/dt are linear in
    (y, r) and (du/dt, dw/dt), so the maps act on the last axis as matrices,
    composed with the term table where the right-hand side uses them."""

    def __init__(self, terms: FlowTerms, pairs, u0: np.ndarray):
        i, j = (list(x) for x in zip(*pairs))
        n_pairs, n_terms = len(pairs), terms.exps.shape[0]
        eye = np.eye(u0.shape[-1])
        self.w_of_y = eye[:, j]                  # w = y @ w_of_y
        self.u_of_y = eye.copy()                 # u = y @ u_of_y + r @ u_of_r
        self.u_of_y[:, j] = eye[:, i]
        self.u_of_r = 0.5 * (eye[i] - eye[j])
        y_of_u = eye.copy()                      # dy = du @ y_of_u + dw @ w_of_y.T
        y_of_u[:, i] = 0.5 * (eye[:, i] + eye[:, j])
        y_of_u[:, j] = 0.0
        # w' = (u_i' - u_j')/r.  Paired with its image under the swap,
        # monomial k adds coef[k] exp(z_k) (1 - exp(-d[k] r)) / (d[k] r) to
        # it, which stays finite at r = 0 (see the module docstring).  So the
        # right-hand side takes exp(z) once for du/dt and once more for each
        # pair, scaled there by that factor with x = -d r.
        d = terms.exps[:, i] - terms.exps[:, j]
        coef = 0.5 * d * (terms.rates[:, i] - terms.rates[:, j])
        self.n_terms = n_terms
        self.z_of_yr = np.tile(np.vstack([self.u_of_y, self.u_of_r]) @ terms.exps.T,
                               n_pairs + 1)       # z = [y, r] @ z_of_yr
        self.x_of_r = (np.eye(n_pairs)[:, :, None] * -d.T).reshape(n_pairs, -1)
        dw_of_ez = (coef.T[:, :, None] * self.w_of_y.T[:, None, :]).reshape(-1, eye.shape[0])
        self.dy_of_ez = np.vstack([terms.rates @ y_of_u, dw_of_ez])
        r0 = u0[:, i] - u0[:, j]
        self.sign = np.sign(r0)
        self.y0 = u0 @ y_of_u + np.log(np.abs(r0)) @ self.w_of_y.T

    def log_g(self, y: np.ndarray, sign: np.ndarray) -> np.ndarray:
        """u = log g from y (coordinates on the last axis); ``sign`` must
        broadcast against w."""
        r = sign * np.exp(y @ self.w_of_y)
        return y @ self.u_of_y + r @ self.u_of_r

    def rhs(self, y: np.ndarray) -> np.ndarray:
        """dy/dt at y (one row per row of ``sign``)."""
        r = self.sign * np.exp(y @ self.w_of_y)
        ez = np.exp(np.concatenate([y, r], axis=1) @ self.z_of_yr)
        x = r @ self.x_of_r
        ez[:, self.n_terms:] *= np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
        return ez @ self.dy_of_ez


def integrate_brackets(
    sc: StructureConstants,
    lam,
    t_end: float,
    **kwargs,
) -> Trajectory:
    """Integrate the flow of arbitrary (non-catalog) brackets."""
    problem = FlowProblem(model=None, initial=InitialData(tuple(lam)), t_end=t_end, **kwargs)
    return integrate(problem, sc=sc)
