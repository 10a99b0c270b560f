"""Time integration of the diagonal Ricci-flow systems.

The flow is solved for u = log g: the compiled terms give du/dt directly
(:meth:`solvflow.curvature.FlowTerms.log_rhs`), every conserved monomial
is a linear first integral of u, which Runge-Kutta methods keep to
rounding, and g = exp(u) stays positive without a floor or an event.  A
finite-time collapse (u -> -inf) ends the run as a step-size underflow.

The integrator is DOP853 for stacked rows, in :mod:`solvflow.dop853`,
which loads scipy.  This module imports it at the first solve, not on
import, so the commands and callers that never integrate skip that cost.
The solver is always called through the module attribute
``flow.solve_ivp``, which still drives every solve, with the step method
``flow.RowwiseDOP853``; the first access of each takes it from the
integrator module and stores it, so a tracer or a test that replaces
``solve_ivp`` sees every solve.  Samples are taken on a linear grid on
[0, 1] and a geometric grid afterwards, which is what the power-law fits
consume.  They come from the step's record, not from ``solve_ivp``: the
step method takes the sample times itself (``samples=``), records the
steps that hold samples, and interpolates them together, with one call of
the right-hand side per extra stage over a leading step axis
(``_Product.du`` on y of shape (steps, rows, n)).  A single run to
t = 1e6 interpolates its whole solve at once, and the 560-wide solve of
``solvflow check`` each step as it is taken.

The flow is solved in tau = log(1 + t), where dy/dtau = (1 + t) dy/dt =
e^tau f(y), f = dy/dt.  The solver takes it in that separable form: the
time factor ``np.exp``, which it takes once per attempted step at all the
step's nodes and folds into the stage weights, and f, which writes each
stage's derivative into its row of the solver's stage array
(``_Product.du`` with ``out``), so a stage's derivative is neither
allocated, copied nor scaled.  Its solutions approach power laws
g ~ c t^k, which are nearly straight lines in log g against tau, so DOP853
crosses each decade past t = 100 in about 5 steps, where in t it took
about 23 (runs of D1, D2 and D3 to t = 1e6 at rel_tol 1e-12).  The sample
grid is mapped to tau by ``log1p``, and each trajectory reports the grid's
own times.  Criterion 4's 100-row solve to t = 1e4 takes 1,136 evaluations
instead of 1,970.

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
    r = 0, where r = 0 holds exactly.  Such a tied row takes the rate
    column of u_i for u_j too, since its own column, summing the swapped
    terms in another order, can differ by an ulp, which the stiff r mode
    then amplifies; u_j is sampled as u_i, so B = C to the last bit.  Stacked
    beside D1, D2 and D3 rows to t = 1e6, a D11 row with B = C once took
    90,440 evaluations and reached B = 751, C = 2.9 (1,064 with the tie).
Before this, stiff solvers were tried in plain coordinates, and each missed
a verification gate or the time budget: LSODA with the analytic Jacobian
and BDF leave D5's E(t) - (4t+1) at 2.6e-10 and 4.5e-9 against the 1e-10
gate of criterion 3 (DOP853: 3.5e-11), and Radau passes but made
``solvflow check`` take 97 s when it took about 5 s with DOP853 (2 cores,
before criterion 4's runs were stacked).

Any problems are solved together (:func:`integrate_many`): the M rows are
stacked into one system of 5M components, so the per-step overhead of the
stepping, which is about the same at any width, is paid once for all of
them, and :func:`integrate` is the batch of one.  The solve runs to the
largest ``t_end`` over the union of the rows' sample grids, and each row
keeps its own grid.  A row leaves the solve at the first step that starts
at or past its own ``t_end``, or where its step fails, as a collapsing row's
does: its derivative is zeroed, so it stays put at no cost in evaluations,
and the right-hand side is rebuilt for the rows still live.  A failed row's
samples end where it left, and the other rows go on, to the last end
among them, so every row ends where its own run would, in one solve.
Each distinct table, a catalog model with its parameters or an explicit
``brackets`` object, is compiled once, and its rows form one block per set
of pairs they take reflected or tied.  The right-hand side of every
solve, a single run's too, is one product with the blocks' own terms: one
matrix E maps the rows' coordinates y, as the solver gives them, to the
exponents z = y E of every block's terms, each reflected block adds
r (d/2) to its own columns of z, d the differences of its terms' exponents
in i and j, ``np.exp`` with a mask takes each live row's own terms and
leaves the others at 0, a reflected row scales copies of them by its
pair's factor, and one product with the stacked rates gives every
derivative.  Each block fills its own columns of E and rows of the rates
from its table: a plain block copies them, and a reflected one applies
u_i, u_j = s ± r/2 to the exponents, s' = (u_i' + u_j')/2 to the rates,
and gives w' the rates of its copies.  E has the layout of a table's
``exps.T``, so the product of one plain block makes the BLAS calls of its
table's ``log_rhs`` and gives its derivatives bitwise; with E in C order
they differ in the last bit for most tables.  No other table's term is
exponentiated and no -inf reaches ``exp``: numpy 2.4.6 takes a slow path
on -inf (a 90 x 16 ``exp`` takes 10.7 us when three quarters of it is
-inf, 3.0 us when all of it is finite), so one product over the union of
the tables, with -inf logs for the other tables' terms, costs more than
its work.  A row that leaves clears its row of the mask, and a mask that
masks nothing, one block's with every row live, is passed as True, which
takes ``exp``'s fast path.  At the check's seed-0 initial state the
right-hand side of its 112 rows fell from 27.5 to 15.5 us per call (2
cores, one BLAS thread).
The step control holds each row to its own tolerance:
``RowwiseDOP853`` takes DOP853's error norm of every row on its own and
accepts a step when the largest is below 1, so a row's steps are at least
as fine as its own run would take, whatever the other rows do.  The solver
runs at a tenth of each row's own rel_tol and abs_tol, the divisor that
keeps runs in tau at least as accurate as they were in t.  Worst
|delta log g| of criterion 4's seed-0 draws to t = 1e4 against a DOP853
solve in t at rtol 2.3e-14 and atol 1e-17 (for generic D11, a Radau solve
in plain coordinates at rtol 1e-13), for D1, D2, D3, D5 and D11:

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
the Radau reference).  ``solvflow check`` solves its 111 catalog rows and
criterion 10's abelian run in one solve of 1,271 evaluations and 87 steps
(1,421 and 97 when every row rode along to the last horizon; 4,597 in one
solve per horizon).  Each solve's ``meta`` records its accepted and
rejected steps and its smallest step in tau, and each row's which steps
it set and when it left.

A trajectory's JSON file is one line written by orjson, each float in its
shortest round-trip form, and read back by orjson, bitwise.  stdlib json
writes a float through CPython's repr, about 500 ns a value, and no stdlib
route avoids it: for the 2,502 floats of a D3 run to t = 1e6,
``json.dumps`` took 1.3-2.7 ms and ``json.loads`` 0.6 ms, orjson about
0.1 ms each (medians of 200 calls, 2 shared cores, orjson 3.8.3).  orjson
is imported at the first file, not with solvflow, since it takes 5-10 ms
to import.  JSON has no NaN: orjson writes a non-finite float as null and
refuses a file that holds a NaN or Infinity token.  The verification
report stays on stdlib json, which writes such a value as a NaN token that
a strict reader rejects, so a non-finite value in a report cannot pass
unseen.
"""
from __future__ import annotations

import csv as _csv
import logging
import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from itertools import accumulate, combinations
from operator import itemgetter
from time import perf_counter
from typing import Mapping, Sequence

import numpy as np

from . import catalog
from .catalog import ModelId
from .curvature import COMPONENTS, DiagonalMetric, FlowTerms, _check_coeffs, compile_flow
from .liecore import StructureConstants, jacobi_residual

__all__ = [
    "FlowProblem",
    "Trajectory",
    "integrate",
    "integrate_many",
    "CSV_HEADER",
]

CSV_HEADER = ("t", *COMPONENTS)

log = logging.getLogger(__name__)

TERM_REACHED = "reached_t_end"
TERM_STEP_FAILURE = "step_failure"

# samples on [0, 1], the linear part of every run's grid
_LINEAR_SAMPLES = 33

# the solver runs at the problem's tolerances divided by this (see the
# module docstring), and scipy raises any rtol below 100 machine epsilons
_TOL_DIVISOR = 10
_RTOL_FLOOR = 100 * sys.float_info.epsilon

def __getattr__(name: str):
    """Import the integrator module, which loads scipy, at the first use of
    ``solve_ivp`` or ``RowwiseDOP853``, and keep the name asked for as a
    module global (PEP 562): ``import solvflow`` loads no scipy, and a
    ``solve_ivp`` that a test or tracer set before the first solve stays."""
    if name not in ("solve_ivp", "RowwiseDOP853"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    start = perf_counter()
    loaded = f"{__package__}.dop853" in sys.modules
    from . import dop853

    if not loaded:
        log.debug("loaded scipy.integrate in %.3fs", perf_counter() - start)
    return globals().setdefault(name, getattr(dop853, name))


@dataclass(frozen=True)
class FlowProblem:
    """One flow run: bracket table, initial data and integration controls.

    The table is a catalog ``model`` with its ``params`` (None for the
    constrained ones) or explicit five-dimensional ``brackets``, which take
    no ``params``; anything else raises here, before any solve.  ``initial``
    is a :class:`~solvflow.curvature.DiagonalMetric` or its coefficients.

    The flow is solved for log g, or for coordinates that reflect a pair of
    its components (see the module docstring), so ``rel_tol`` and
    ``abs_tol`` bound the error in log g, i.e. the relative error in g.
    They bound the local error of each step, for each row on its own: the
    solver accepts a step only when every row's DOP853 error estimate is
    within a tenth of that row's own ``rel_tol`` and ``abs_tol``, whatever
    rows it is stacked with and whatever their tolerances and ``t_end``.
    The global error that leaves is measured, not bounded: in the module
    docstring's table it is below that of a DOP853 run in t at ``rel_tol``
    and ``abs_tol``.  ``rel_tol`` must be at least 10 times scipy's floor
    of 100 machine epsilons (about 2.2e-13), to which scipy would otherwise
    raise the solver's tolerance.
    Diagonality has no control: it is decided exactly from the brackets
    (see :func:`solvflow.curvature.compile_flow`) before the run starts.
    """

    model: ModelId | None
    initial: DiagonalMetric
    t_end: float
    params: Mapping[str, float] | None = None  # None -> constrained parameters
    rel_tol: float = 1e-11
    abs_tol: float = 1e-13
    samples_per_decade: int = 64
    brackets: StructureConstants | None = None

    def __post_init__(self):
        if (self.model is None) == (self.brackets is None):
            raise ValueError("a flow problem needs a catalog model or explicit brackets, not both")
        if self.brackets is None:
            object.__setattr__(self, "model", ModelId(self.model))
        elif self.params is not None:
            raise ValueError("explicit brackets take no params")
        elif (not isinstance(self.brackets, StructureConstants)
              or self.brackets.dim != len(COMPONENTS)):
            raise ValueError("brackets must be a five-dimensional StructureConstants")
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
        if not isinstance(self.samples_per_decade, numbers.Integral) or self.samples_per_decade < 1:
            raise ValueError("samples_per_decade must be a positive integer")
        if not isinstance(self.initial, DiagonalMetric):
            object.__setattr__(self, "initial", DiagonalMetric(tuple(self.initial)))

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
    rows solved together (``batch_size``), the tolerances the solver held
    this row to, and of that solve ``nfev``, the accepted and rejected steps
    (``steps``, ``rejected_steps``), the smallest accepted step in
    log(1 + t) (``min_step_log_t``, None if none was) and ``wall_s``.  Two
    facts of the solve are the row's own: ``steps_set``, the accepted steps
    at which this row's error norm was the largest of all rows' (and not 0),
    so that it set the step size; and ``retired_at_step``, the number of
    accepted steps after which the row left the solve, having reached its
    own ``t_end`` before the others or having failed (``step_failure``,
    with scipy's reason in ``solver_message``), or None if it stayed to the
    end.  It also gives the worst relative drift of the model's named
    conserved monomials over the run (``max_drift``; 0 for explicit
    brackets).  JSON has no NaN: :meth:`write_json` writes a non-finite
    ``meta`` or ``params`` value as null, which reads back as None.
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
        if t.ndim != 1 or g.shape != (t.size, len(COMPONENTS)):
            raise ValueError("trajectory arrays have inconsistent shapes")
        if t.size == 0:
            raise ValueError("trajectory must contain at least one sample")
        if not np.isfinite(t).all():
            raise ValueError("sample times must be finite")
        if (t[1:] <= t[:-1]).any():
            raise ValueError("sample times must be strictly increasing")
        _check_coeffs(g)
        for name, arr in (("times", t), ("coeffs", g)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.times.size

    @property
    def final(self) -> np.ndarray:
        return self.coeffs[-1].copy()

    # -- serialization ------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(CSV_HEADER)
            # csv writes a float as its repr, which reads back exactly
            w.writerows(np.column_stack([self.times, self.coeffs]).tolist())

    @classmethod
    def read_csv(cls, path) -> "Trajectory":
        width = len(CSV_HEADER)
        with open(path, newline="") as fh:
            r = _csv.reader(fh)
            header = next(r, None)
            if header is None:
                raise ValueError(f"{path}: empty CSV file")
            # later columns, such as the two diagnostic ones of older files, are ignored
            if tuple(header[:width]) != CSV_HEADER:
                raise ValueError(f"{path}: unexpected CSV header {tuple(header)}")
            rows = []
            for row in filter(None, r):  # blank lines are skipped
                if len(row) < width:
                    raise ValueError(f"{path}: line {r.line_num} has {len(row)} fields, "
                                     f"fewer than the {width} of {','.join(CSV_HEADER)}")
                try:
                    rows.append([float(x) for x in row[:width]])
                except ValueError as exc:
                    raise ValueError(f"{path}: line {r.line_num} has a field that is not "
                                     f"a number ({exc})") from None
        if not rows:
            raise ValueError(f"{path}: no samples after the CSV header")
        data = np.array(rows)
        return cls._read(path, times=data[:, 0], coeffs=data[:, 1:], termination="unknown")

    @classmethod
    def _read(cls, path, **fields) -> "Trajectory":
        """The trajectory of ``fields`` read from ``path``, whose name
        prefixes the refusal of samples that are no trajectory."""
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.value if self.model is not None else None,
            "params": self.params,
            "lambda": self.coeffs[0].tolist(),
            "termination": self.termination,
            "meta": self.meta,
            "samples": {
                "t": self.times.tolist(),
                **{name: col.tolist() for name, col in zip(COMPONENTS, self.coeffs.T)},
            },
        }

    def write_json(self, path) -> None:
        """Write :meth:`to_json_dict` to ``path`` as one orjson line, each
        float in its shortest round-trip form, so :meth:`read_json` gives
        the samples back bitwise; numpy scalars in ``meta`` or ``params``
        are written as numbers.  The module docstring gives the cost this
        saves, and why the verification report stays on stdlib json."""
        import orjson

        with open(path, "wb") as fh:
            fh.write(orjson.dumps(self.to_json_dict(),
                                  option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE))

    @classmethod
    def read_json(cls, path) -> "Trajectory":
        import orjson

        with open(path, "rb") as fh:
            try:
                doc = orjson.loads(fh.read())
            except orjson.JSONDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
        s = doc.get("samples") if isinstance(doc, dict) else None
        if not isinstance(s, dict):
            raise ValueError(f"{path}: expected a JSON object with a 'samples' object")
        missing = [name for name in CSV_HEADER if name not in s]
        if missing:
            raise ValueError(f"{path}: 'samples' has no {', '.join(map(repr, missing))}")
        columns = []
        for name in CSV_HEADER:
            try:
                columns.append(np.asarray(s[name], dtype=float))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: 'samples' {name!r} is not a list of numbers "
                                 f"({exc})") from None
        t, *columns = columns
        for name, col in zip(COMPONENTS, columns):
            if col.shape != t.shape:
                raise ValueError(f"{path}: 'samples' {name!r} has shape {col.shape}, "
                                 f"'t' has {t.shape}")
        if doc.get("model") and doc["model"] not in list(ModelId):
            raise ValueError(f"{path}: 'model' {doc['model']!r} is not one of {', '.join(ModelId)}")
        return cls._read(
            path,
            times=t,
            coeffs=np.column_stack(columns),
            termination=doc.get("termination", "unknown"),
            model=ModelId(doc["model"]) if doc.get("model") else None,
            params=doc.get("params"),
            meta=doc.get("meta", {}),
        )


def component_index(which: int | str) -> int:
    if isinstance(which, str):
        try:
            return COMPONENTS.index(which.upper())
        except ValueError:
            raise ValueError(f"unknown component {which!r}") from None
    if not 0 <= int(which) < len(COMPONENTS):
        raise ValueError("component index out of range")
    return int(which)


def _sample_times(t_end: float, per_decade: int) -> np.ndarray:
    if t_end <= 1.0:
        return np.linspace(0.0, t_end, _LINEAR_SAMPLES)
    lin = np.linspace(0.0, 1.0, _LINEAR_SAMPLES)
    decades = math.log10(t_end)
    n_log = max(2, math.ceil(per_decade * decades) + 1)
    logt = np.logspace(0.0, decades, n_log)[1:]
    logt[-1] = t_end
    return np.unique(np.concatenate([lin, logt]))


def integrate(problem: FlowProblem) -> Trajectory:
    """Integrate the flow for ``problem`` and sample the solution: the
    batch of one of :func:`integrate_many`.

    Raises DiagonalityViolation before solving if the brackets do not keep
    a diagonal metric diagonal.
    """
    # the shared private solve, not integrate_many: a single run's solver
    # call then nests directly in this function's span when perfbench wraps
    # the public names for tracing
    return _integrate_batch([problem])[0]


def integrate_many(problems: Sequence[FlowProblem]) -> list[Trajectory]:
    """Integrate any problems as one stacked system to their largest
    ``t_end``, and return one trajectory per problem, in order.

    Each distinct table, a catalog model with its parameters or one
    ``brackets`` object, is checked and compiled once, and its rows are
    split into blocks by the pairs they take reflected or tied (see the
    module docstring).  Each trajectory has exactly its own problem's sample
    times; its ``meta`` gives its own tolerances, ``t_end`` and, in
    ``solver``, coordinates, and the stacked solve's ``batch_size``,
    ``nfev`` and step counts.  A row that collapses in finite time leaves
    the solve where its step fails, marked ``step_failure`` with its samples
    up to there, and the other rows go on to the last end among them: every
    row ends where its own run would, in one solve.
    """
    return _integrate_batch(list(problems))


def _invariant_swaps(terms: FlowTerms) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The transpositions (i j) of coordinates that map the term table onto
    itself, as (conserving, moving).  A conserving swap has equal rate
    columns, so u_i - u_j is constant.  Under a moving one u_i - u_j
    evolves at a rate odd in u_i - u_j, so it never crosses 0."""
    exps, rates = terms.exps.tolist(), terms.rates.tolist()
    table = dict(zip(map(tuple, exps), map(tuple, rates)))
    conserving, moving = [], []
    for i, j in combinations(range(terms.exps.shape[1]), 2):
        perm = list(range(terms.exps.shape[1]))
        perm[i], perm[j] = j, i
        swap = itemgetter(*perm)
        if table == dict(zip(map(swap, exps), map(swap, rates))):
            equal = all(r[i] == r[j] for r in rates)
            (conserving if equal else moving).append((i, j))
    return conserving, moving


def _reflected_pairs(moving: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The moving swaps that share no coordinate with another moving swap:
    each gets the coordinates (s, log|r|) of the module docstring."""
    return [pair for pair in moving
            if all(set(pair).isdisjoint(other) for other in moving if other != pair)]


@dataclass
class _Block:
    """The rows of a stacked solve that share a term table and the pairs
    they take reflected.  It owns their coordinates y of log g: each pair
    (i, j) becomes s = (u_i + u_j)/2 at i and w = log|r|, r = u_i - u_j, at
    j, and each row keeps the sign of its own r.  Without pairs y is log
    g."""

    model: ModelId | None
    params: dict | None
    terms: FlowTerms
    pairs: tuple[tuple[int, int], ...]
    rows: list[int] = field(default_factory=list)
    ties: tuple[tuple[int, int], ...] = ()  # moving pairs with u_i = u_j

    @property
    def reflections(self) -> list[str]:
        return [f"({COMPONENTS[i]},{COMPONENTS[j]}) -> (s, log|r|)" for i, j in self.pairs]

    @property
    def label(self) -> str:
        """For the log, e.g. ``D11×20 (B,C) -> (s, log|r|)``."""
        name = self.model.value if self.model is not None else "brackets"
        return " ".join([f"{name}×{len(self.rows)}", *self.reflections])

    @property
    def ij(self) -> np.ndarray:
        """The coordinates i and j of the pairs as two rows, in pair order."""
        return np.array(self.pairs, dtype=int).reshape(-1, 2).T

    def sign(self, u: np.ndarray) -> np.ndarray:
        """The sign of r = u_i - u_j at log g ``u``, one column per pair."""
        i, j = self.ij
        return np.sign(u[..., i] - u[..., j])

    def coords(self, u: np.ndarray) -> np.ndarray:
        """y at log g ``u`` (coordinates on the last axis)."""
        i, j = self.ij
        y = u.copy()
        y[..., i], y[..., j] = (u[..., i] + u[..., j]) / 2, np.log(np.abs(u[..., i] - u[..., j]))
        return y

    def log_g(self, y: np.ndarray, sign: np.ndarray) -> np.ndarray:
        """u = log g at y: u_i, u_j = s ± r/2 with r = sign exp(w); ``sign``
        must broadcast against w."""
        i, j = self.ij
        r = sign * np.exp(y[..., j])
        u = y.copy()
        u[..., i], u[..., j] = y[..., i] + r / 2, y[..., i] - r / 2
        return u


def _compile(sc: StructureConstants):
    """The checked term table of ``sc``, its moving swaps, and the pairs its
    rows may take reflected."""
    res = jacobi_residual(sc)
    if res > 1e-10:
        raise ValueError(f"brackets violate the Jacobi identity (residual {res:.3e})")
    terms = compile_flow(sc)
    terms.check_diagonal()
    _, moving = _invariant_swaps(terms)
    return terms, moving, _reflected_pairs(moving)


def _integrate_batch(problems: list[FlowProblem]) -> list[Trajectory]:
    """Check and compile each table of the M problems once, split their
    rows into blocks, and solve all blocks as one stacked DOP853 system."""
    if not problems:
        raise ValueError("need at least one flow problem")
    lam = np.array([p.initial.array for p in problems])
    u0 = np.log(lam)
    tables: dict = {}
    blocks: dict = {}
    for k, p in enumerate(problems):
        params = p.resolved_params()
        # explicit brackets are keyed by identity, as StructureConstants compares
        table = p.brackets or (p.model, tuple(sorted(params.items())))
        if table not in tables:
            tables[table] = _compile(p.brackets or catalog.build_model(p.model, params))
        terms, moving, pairs = tables[table]
        # a row with u_i = u_j at the start keeps u_i = u_j exactly: no
        # reflection, and the rates of u_j are those of u_i
        ties = tuple(pair for pair in moving if u0[k, pair[0]] == u0[k, pair[1]])
        kind = tuple(pair for pair in pairs if pair not in ties)
        if (table, kind, ties) not in blocks:
            blocks[table, kind, ties] = _Block(p.model, params, _tied(terms, ties), kind,
                                               ties=ties)
        blocks[table, kind, ties].rows.append(k)
    return _solve(problems, list(blocks.values()), lam, u0)


def _tied(terms: FlowTerms, ties) -> FlowTerms:
    """``terms`` with the rate column of u_j replaced by that of u_i for
    each tied pair (i, j).  On u_i = u_j the two columns give the same rate,
    but summed in different orders they can differ by an ulp, and u_i - u_j
    is the stiff mode of the module docstring."""
    if not ties:
        return terms
    rates = terms.rates.copy()
    for i, j in ties:
        rates[:, j] = rates[:, i]
    return replace(terms, rates=rates)


def _solve(problems: list[FlowProblem], blocks: list[_Block], lam: np.ndarray,
           u0: np.ndarray) -> list[Trajectory]:
    """One DOP853 solve in log(1+t) of the M rows' stacked coordinates,
    block after block, to the largest ``t_end`` of the rows that have not
    failed, each row held to a tenth of its own problem's tolerances: log g
    itself, or with each of a block's pairs reflected (see the module
    docstring).  The solver samples the union of the rows' grids, and each
    row keeps exactly its own grid, up to where it failed if it did."""
    m, n = u0.shape
    # plain blocks first, as the log line lists them
    blocks = sorted(blocks, key=lambda block: bool(block.pairs))
    stacked = [k for block in blocks for k in block.rows]
    y0 = np.concatenate([b.coords(u0[b.rows]) for b in blocks])
    row_grids = [(p.t_end, p.samples_per_decade) for p in problems]
    grids = {g: _sample_times(*g) for g in dict.fromkeys(row_grids)}
    times = np.unique(np.concatenate(list(grids.values())))
    taus = np.log1p(times)
    horizons = sorted({t_end for t_end, _ in grids})
    # module attributes, which load scipy at first use (outside the timed
    # solve) and which a tracer or test may have replaced
    module = sys.modules[__name__]
    solve_ivp, method = module.solve_ivp, module.RowwiseDOP853
    counts: dict = {}
    product = _Product(blocks, u0)
    start = perf_counter()
    sol = solve_ivp(
        product.keep(np.ones(m, dtype=bool)).du,
        (0.0, math.log1p(horizons[-1])),
        y0.ravel(),
        method=method,
        samples=taus,
        rtol=np.repeat([problems[k].rel_tol / _TOL_DIVISOR for k in stacked], n),
        atol=np.repeat([problems[k].abs_tol / _TOL_DIVISOR for k in stacked], n),
        rows=m,
        counts=counts,
        row_ends=np.log1p([problems[k].t_end for k in stacked]),
        g=np.exp,
        live_fun=lambda live: product.keep(live).du,
    )
    wall_s = perf_counter() - start
    # where in tau each failed row left, by problem
    exits = {k: tau for k, tau in zip(stacked, counts["failed_at"]) if tau is not None}
    meta = {"solver": "DOP853 on log g in log(1+t)", "batch_size": m, "nfev": int(sol.nfev),
            "steps": counts["steps"], "rejected_steps": counts["rejected_steps"],
            "min_step_log_t": counts["min_step"] if counts["steps"] else None,
            "wall_s": wall_s}
    log.info("solved %s: M=%d t_end=%s nfev=%d steps=%d rejected=%d min_step=%.3g "
             "wall=%.3fs %s [%s]", ", ".join(block.label for block in blocks), m,
             ",".join(f"{t:g}" for t in horizons), sol.nfev, counts["steps"],
             counts["rejected_steps"], counts["min_step"], wall_s,
             TERM_STEP_FAILURE if exits else TERM_REACHED, meta["solver"])

    # the samples are the grids' own times, not expm1 of the solver's; a
    # solve whose first step fails reaches no sample, not even t = 0
    y = counts["samples"] if len(counts["samples"]) else y0.reshape(1, -1)
    sampled = times[:len(y)]
    y = y.reshape(len(y), m, n).transpose(1, 0, 2)  # (row, sample, coordinate)
    ys = np.split(y, list(accumulate(len(block.rows) for block in blocks))[:-1])
    # each grid's samples among those the solver reached
    picks = {g: np.isin(sampled, grid) for g, grid in grids.items()}
    trajs: list[Trajectory] = [None] * m
    # each row's own facts of the solve, by problem
    own = {k: {"steps_set": counts["steps_set"][at],
               "retired_at_step": counts["retired_at_step"][at]} for at, k in enumerate(stacked)}
    for block, y in zip(blocks, ys):
        u = block.log_g(y, block.sign(u0[block.rows])[:, None, :])
        for i, j in block.ties:
            u[..., j] = u[..., i]
        block_meta = dict(meta, solver=", ".join([meta["solver"], *block.reflections]))
        monos = () if block.model is None else catalog.model_invariants(block.model).monomials
        # the block's rows of each grid and exit, exponentiated and their
        # drifts taken as one stack
        on_grid: dict = {}
        for at, k in enumerate(block.rows):
            on_grid.setdefault((row_grids[k], exits.get(k)), []).append(at)
        for (grid, left), ats in on_grid.items():
            ks, pick = [block.rows[at] for at in ats], picks[grid]
            if left is not None:  # a failed row's samples end where it left
                pick = pick & (taus[:len(sampled)] <= left)
            row_times = sampled[pick]
            coeffs = np.exp(u[ats][:, pick])
            coeffs[:, 0] = lam[ks]  # exp(log(lam)) can be an ulp off the initial data
            drifts = np.zeros(len(ks))
            for mono in monos:
                drifts = np.maximum(drifts, mono.drift(coeffs))
            for k, row, drift in zip(ks, coeffs, drifts.tolist()):
                p = problems[k]
                row_meta = {"t_end": p.t_end, "rel_tol": p.rel_tol, "abs_tol": p.abs_tol,
                            **block_meta, **own[k], "solver_rtol": p.rel_tol / _TOL_DIVISOR,
                            "solver_atol": p.abs_tol / _TOL_DIVISOR, "max_drift": drift}
                if left is not None:
                    row_meta["solver_message"] = method.TOO_SMALL_STEP
                trajs[k] = Trajectory(
                    times=row_times,
                    coeffs=row,
                    termination=TERM_REACHED if left is None else TERM_STEP_FAILURE,
                    model=block.model,
                    params=block.params,
                    meta=row_meta,
                )
    return trajs


# r = sign exp(w) is taken at w floored here.  Below it r moves neither
# exp(z) nor expm1(x)/x = 1 from their values at r = 0, and x = -d r is
# never 0 where d is not; where d is 0, x = _TINY_X r (see _Product)
_W_FLOOR = -300.0
_TINY_X = 1e-100


class _Product:
    """du/dt of the stacked rows of several blocks as one product, each row
    exponentiating only its own terms, once.

    One exponent matrix ``z_of_y``, in the layout of ``exps.T`` (see the
    module docstring), maps each row's y to the exponents z of every
    block's terms: a plain block's are its table's exponents, and a
    reflected block's follow from u_i, u_j = s ± r/2 but for r, which the
    block adds to its own columns of z as r (d/2), d the differences of its
    terms' exponents in i and j.  ``np.exp(z, where=own)`` fills each row's
    own terms and leaves the others at 0, so no term of another table and
    no -inf reaches ``exp``.  Each reflected block's paired copies, after
    all blocks' terms, are its terms scaled by expm1(x)/x, x = r x_per_r,
    and one product with the stacked rates gives du/dt: a plain block's are
    its table's, and a reflected block's give s' = (u_i' + u_j')/2 and, from
    the copies, w'.  A row leaves by its mask: ``keep`` clears its rows of
    ``own`` and of ``ez``, which then stay 0.  ``du`` also takes y with
    leading axes, as the solver's dense output passes its recorded steps,
    and gives each (rows, n) matrix bitwise what it gives that matrix
    alone."""

    def __init__(self, blocks: list[_Block], u0: np.ndarray):
        """``u0`` is log g at the start, one row per problem: it gives each
        reflected row the sign of its r."""
        n = u0.shape[1]
        rows = list(accumulate((len(b.rows) for b in blocks), initial=0))
        # each block's terms, then each block's copies
        sizes = [len(b.terms.exps) for b in blocks]
        terms = list(accumulate(sizes, initial=0))
        copies = list(accumulate((len(b.pairs) * k for b, k in zip(blocks, sizes)),
                                 initial=terms[-1]))
        self.z_of_y = np.zeros((n, terms[-1]), order="F")
        self.rates = np.zeros((copies[-1], n))
        self.own = self.own_cols = np.asfortranarray(np.eye(len(blocks), dtype=bool).repeat(
            np.diff(rows), axis=0).repeat(sizes, axis=1))
        # of each reflected block: its rows and its w in y (pair by pair),
        # the signs of its r, d/2, its columns of terms and of copies, and
        # x_per_r
        self.reflected = []
        for b, k, lo, hi, t0, t1, c0, c1 in zip(blocks, sizes, rows, rows[1:], terms, terms[1:],
                                                copies, copies[1:]):
            exps, rates = b.terms.exps, b.terms.rates
            z, dy = self.z_of_y[:, t0:t1], self.rates[t0:t1]
            z[:], dy[:] = exps.T, rates
            if not b.pairs:
                continue
            i, j = b.ij
            # s takes the exponents of u_i and u_j, r half their difference d
            d = exps[:, i] - exps[:, j]
            z[i], z[j] = z[i] + z[j], 0.0
            dy[:, i], dy[:, j] = (rates[:, i] + rates[:, j]) / 2, 0.0
            # w' = (u_i' - u_j')/r.  Paired with its image under the swap,
            # monomial k adds coef[k] exp(z_k) (1 - exp(-d[k] r)) / (d[k] r)
            # to it, which stays finite at r = 0 (see the module docstring):
            # a copy of the term for each pair, scaled by that factor with
            # x = r x_per_r = -d r.  A term with d[k] = 0 adds 0 whatever its
            # factor; it takes x = _TINY_X r, for which expm1(x)/x is 1
            # exactly, as at x = 0, and no 0/0 is taken.
            coef = 0.5 * d * (rates[:, i] - rates[:, j])
            self.rates[c0:c1].reshape(len(j), k, n)[np.arange(len(j)), :, j] = coef.T
            x_per_r = np.where(d == 0.0, _TINY_X, -d).T
            # at most two disjoint pairs in five coordinates: one slice
            w = slice(j[0], j[-1] + (1 if j[-1] >= j[0] else -1), (j[-1] - j[0]) or 1)
            self.reflected.append((slice(lo, hi), w, b.sign(u0[b.rows]), d.T / 2,
                                   slice(t0, t1), slice(c0, c1), x_per_r))
        self.shape = rows[-1], terms[-1], copies[-1]
        self.works: dict = {}
        self.work = self._work(())  # a step's, which takes no leading axes
        self.z = self.work[0]

    def _work(self, lead: tuple) -> tuple:
        """The arrays that ``du`` fills for y of leading shape ``lead``, made
        at its first call.  z and ez are (*lead, rows, column) with each
        (rows, column) matrix by column, as for y of shape (rows, n): each
        term's live rows are one run for the mask, and over leading axes the
        products make, matrix by matrix, the BLAS calls of y without them.
        Then ez's terms; and of each reflected block, its w in y, r and its
        signs, d/2 and r (d/2) in its rows and in all, its columns of z,
        x_per_r, x (then the factor), and its terms and copies."""
        work = self.works.get(lead)
        if work is not None:
            return work
        m, n_terms, n_all = self.shape
        z, ez = (np.zeros((*lead, k, m)).swapaxes(-1, -2) for k in (n_terms, n_all))
        reflected = []
        for rows, w, sign, r_z, cols, copies, x_per_r in self.reflected:
            r = np.empty((*lead, rows.stop - rows.start, len(r_z)))
            # r (d/2) goes to the block's rows of its own columns, and is 0
            # in their other rows, which are no row's own terms: adding it
            # to whole columns of z is one contiguous add
            rz = np.zeros((*lead, cols.stop - cols.start, m)).swapaxes(-1, -2)
            factor = np.empty((*r.shape, x_per_r.shape[-1]))
            reflected.append(((..., rows, w), r, r[..., None], sign, r_z, rz[..., rows, :], rz,
                              z[..., cols], x_per_r, factor, ez[..., rows, None, cols],
                              ez[..., rows, copies].reshape(factor.shape)))
        work = self.works[lead] = z, ez, ez[..., :n_terms], reflected
        return work

    def keep(self, live: np.ndarray) -> "_Product":
        """This product, evaluating only the rows that the boolean ``live``
        marks.  A mask that masks nothing is passed to ``exp`` as True,
        which takes its fast path."""
        own = np.logical_and(self.own_cols, live[:, None], order="F")
        self.own = True if own.all() else own
        for _, ez, _, _ in self.works.values():
            ez[..., ~live, :] = 0.0
        return self

    def du(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """du/dt, or dy/dt for reflected rows, at y of shape (..., rows, n);
        written into ``out`` of that shape, if given, whose (rows, n)
        matrices are C contiguous."""
        z, ez, terms, reflected = self.work if y.ndim == 2 else self._work(y.shape[:-2])
        np.matmul(y, self.z_of_y, out=z)
        for w, r, r_by_pair, sign, r_z, rz_rows, rz, cols, x_per_r, factor, _, _ in reflected:
            np.multiply(np.exp(np.maximum(y[w], _W_FLOOR, out=r), out=r), sign, out=r)
            np.matmul(r, r_z, out=rz_rows)
            np.add(cols, rz, out=cols)
            x = np.multiply(r_by_pair, x_per_r, out=factor)
            np.divide(np.expm1(x), x, out=factor)
        np.exp(z, out=terms, where=self.own)
        for *_, factor, own_terms, copies in reflected:
            np.multiply(own_terms, factor, out=copies)
        # np.dot costs less per call, and takes no leading axes
        return (np.dot if ez.ndim == 2 else np.matmul)(ez, self.rates, out=out)
