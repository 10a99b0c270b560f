import dataclasses
import itertools
import json
import logging
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.sparse import block_diag

from solvflow import catalog, dop853, flow
from solvflow.catalog import InitialData, ModelId
from solvflow.curvature import DiagonalityViolation, compile_flow
from solvflow.invariants import drift_report
from solvflow.flow import (
    FlowProblem,
    Trajectory,
    integrate,
    integrate_many,
)
from solvflow.liecore import StructureConstants
from solvflow.verify import _RUNS, VerifySession, _run_problem


def run(model, lam, t_end, **kw):
    kw.setdefault("rel_tol", 1e-12)
    kw.setdefault("abs_tol", 1e-14)
    return integrate(FlowProblem(model, InitialData(lam), t_end, **kw))


def run_brackets(sc, lam, t_end):
    """One run of explicit brackets at the default tolerances."""
    return integrate(FlowProblem(None, InitialData(lam), t_end, brackets=sc))


@pytest.fixture(scope="module")
def d5_unit_10():
    return run(ModelId.D5, (1, 1, 1, 1, 1), 10.0)


SU2 = StructureConstants.from_brackets(  # su(2) + R^2: round metrics collapse
    5, {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0})


HEISENBERG = StructureConstants.from_brackets(5, {(0, 1, 2): 1.0})  # + R^2


def no_solver(*args, **kwargs):
    raise AssertionError("solver called")


def terms_of(model, **params):
    return compile_flow(catalog.build_model(model, {**catalog.constrained_params(model),
                                                     **params}))


def tau_solve(terms, problem, times):
    """One run in plain coordinates as the solver sees it: a direct solve of
    (1 + t) ``terms.log_rhs`` in log(1 + t) with ``flow.RowwiseDOP853`` at a
    tenth of the problem's tolerances, in the separable form it takes:
    g = exp, and f = ``terms.log_rhs`` written in place, over any leading
    axes.  Returns the solution at the samples log(1 + ``times``), as
    ``t_eval`` gave it (``t``, ``y`` by coordinate, ``nfev``), and the step
    counts."""
    counts = {}
    taus = np.log1p(times)
    sol = flow.solve_ivp(lambda u, out: np.copyto(out, terms.log_rhs(u)),
                         (0.0, math.log1p(problem.t_end)), np.log(problem.initial.array),
                         method=flow.RowwiseDOP853, samples=taus,
                         rtol=problem.rel_tol / 10, atol=problem.abs_tol / 10, rows=1,
                         counts=counts, g=np.exp)
    y = counts["samples"]
    return SimpleNamespace(t=taus[:len(y)], y=y.T, nfev=sol.nfev), counts


def t_solve(terms, problem, times, reflect=False):
    """log g of one run, shape (sample, coordinate), from a direct DOP853
    solve in t at the problem's own tolerances, with max_step
    0.1 (t_end + 1): the single run as it was solved before the solver moved
    to log(1 + t).  Plain coordinates, or, if ``reflect``, the pairs the run
    takes reflected."""
    u0 = np.log(problem.initial.array)[None]
    pairs = tuple(pair for pair in flow._reflected_pairs(flow._invariant_swaps(terms)[1])
                  if reflect and u0[0, pair[0]] != u0[0, pair[1]])
    block, product = reflected(terms, u0, pairs)
    rhs = product.du if pairs else terms.log_rhs
    sol = solve_ivp(lambda t, y: rhs(y[None])[0], (0.0, problem.t_end), block.coords(u0)[0],
                    method="DOP853", t_eval=times, rtol=problem.rel_tol,
                    atol=problem.abs_tol, max_step=0.1 * (problem.t_end + 1.0))
    assert sol.status == 0
    return block.log_g(sol.y.T, block.sign(u0)) if pairs else sol.y.T


def reflected(terms, u0, pairs=((1, 2),)):
    """One block of the rows ``u0`` of ``terms`` with ``pairs`` reflected,
    and the product of its rows, as a stacked solve builds them."""
    block = flow._Block(None, None, terms, tuple(pairs), list(range(len(u0))))
    return block, flow._Product([block], u0)


def reflected_maps(terms, pairs, u0):
    """The reflected coordinates of ``pairs`` at the rows ``u0`` as the
    linear maps they were first written as, on the last axis: y0 = u0 @
    y_of_u + log|r0| @ w_of_y.T, u = y @ u_of_y + r @ u_of_r with r = sign
    exp(y @ w_of_y), and dy/dt = ez @ dy_of_ez over the terms and then one
    copy of them per pair, each copy scaled by expm1(x)/x at x = r @
    x_of_r.  Without pairs y is log g."""
    i, j = [pair[0] for pair in pairs], [pair[1] for pair in pairs]
    n_terms, eye = len(terms.exps), np.eye(u0.shape[-1])
    u_of_y = eye.copy()
    u_of_y[:, j] = eye[:, i]
    y_of_u = eye.copy()
    y_of_u[:, i] = 0.5 * (eye[:, i] + eye[:, j])
    y_of_u[:, j] = 0.0
    w_of_y = eye[:, j]
    d = terms.exps[:, i] - terms.exps[:, j]
    coef = 0.5 * d * (terms.rates[:, i] - terms.rates[:, j])
    x_per_r = np.where(d == 0.0, flow._TINY_X, -d).T.ravel()
    dw_of_ez = (coef.T[:, :, None] * w_of_y.T[:, None, :]).reshape(-1, len(eye))
    r0 = u0[:, i] - u0[:, j]
    return SimpleNamespace(
        j=j, n_terms=n_terms, u_of_y=u_of_y, u_of_r=0.5 * (eye[i] - eye[j]), w_of_y=w_of_y,
        x_of_r=np.eye(len(pairs)).repeat(n_terms, axis=1) * x_per_r,
        dy_of_ez=np.vstack([terms.rates @ y_of_u, dw_of_ez]),
        sign=np.sign(r0), y0=u0 @ y_of_u + np.log(np.abs(r0)) @ w_of_y.T)


def tight_reference(terms, problem, times):
    """log g of one run, shape (sample, coordinate), from a direct DOP853
    solve of ``terms.log_rhs`` in t at rtol 2.3e-14 (just above scipy's
    floor of 100 machine epsilons) and atol 1e-17."""
    sol = solve_ivp(lambda t, u: terms.log_rhs(u), (0.0, problem.t_end),
                    np.log(problem.initial.array), method="DOP853", t_eval=times,
                    rtol=2.3e-14, atol=1e-17)
    assert sol.status == 0
    return sol.y.T


def radau_reference(terms, problems, times):
    """log g of the rows, shape (row, sample, coordinate), from one stacked
    Radau solve of the plain ``terms.log_rhs`` at rtol 1e-13, atol 1e-15,
    with the analytic Jacobian: a stiff-solver oracle that shares no code
    with the reflected coordinates."""
    m = len(problems)

    def jac(t, u):
        ez = np.exp(u.reshape(m, -1) @ terms.exps.T)
        return block_diag([(terms.rates.T * row) @ terms.exps for row in ez], format="csc")

    sol = solve_ivp(lambda t, u: terms.log_rhs(u.reshape(m, -1)).ravel(),
                    (0.0, times[-1]), np.log([p.initial.array for p in problems]).ravel(),
                    method="Radau", t_eval=times, rtol=1e-13, atol=1e-15, jac=jac)
    assert sol.status == 0
    return sol.y.reshape(m, 5, -1).transpose(0, 2, 1)


def deviation(traj, log_ref):
    return float(np.max(np.abs(np.log(traj.coeffs) - log_ref)))


@pytest.fixture(scope="module")
def criterion_4_batches():
    """Criterion 4's seed-0 problems, 20 per model in its draw order, all
    solved as one 100-row batch, and split by model."""
    rng = VerifySession(seed=0)._rng(4)
    problems = [FlowProblem(model, InitialData(tuple(rng.uniform(0.5, 2.0, 5))), 1e4)
                for model in ModelId for _ in range(20)]
    batch = integrate_many(problems)
    return {model: (problems[20 * k:20 * (k + 1)], batch[20 * k:20 * (k + 1)])
            for k, model in enumerate(ModelId)}


@pytest.fixture(scope="module")
def criterion_4_references(criterion_4_batches):
    """log g of each of criterion 4's rows from a tight reference, by model:
    the Radau oracle for generic D11, a tight DOP853 run in t otherwise (a
    tight DOP853 run in plain coordinates resolves B - C no better than the
    problem's own absolute tolerance)."""
    refs = {}
    for model, (problems, batch) in criterion_4_batches.items():
        terms = terms_of(model)
        refs[model] = (radau_reference(terms, problems, batch[0].times)
                       if model is ModelId.D11 else
                       [tight_reference(terms, p, batch[0].times) for p in problems])
    return refs


@pytest.fixture(scope="module")
def mixed_d11():
    """One D11 batch with a lambda2 = lambda3 row between a lambda2 > lambda3
    and a lambda2 < lambda3 row, and its Radau reference."""
    problems = [FlowProblem(ModelId.D11, InitialData(lam), 1e3)
                for lam in ((1, 2, 1, 1, 1), (1, 1, 1, 2, 1), (1.5, 0.8, 1.7, 1.2, 0.6))]
    batch = integrate_many(problems)
    return problems, batch, radau_reference(terms_of(ModelId.D11), problems, batch[0].times)


class TestIntegrate:
    def test_d5_unit_to_t1(self):
        traj = run(ModelId.D5, (1, 1, 1, 1, 1), 1.0)
        final = traj.final
        s = 4.0 ** (1.0 / 3.0)
        # AB and AC are conserved: B and C grow by the same factor A shrinks
        assert final == pytest.approx([1 / s, s, s, 1.0, 5.0], rel=1e-8)

    def test_the_d3_run_keeps_within_its_cost(self):
        # the single run that CI writes through the CLI: its 417 samples,
        # and its cost as an upper bound (1,121 evaluations and 76 steps)
        traj = run(ModelId.D3, (1.2, 0.7, 1.5, 0.9, 1.1), 1e6)
        assert len(traj) == 417 and traj.termination == "reached_t_end"
        assert traj.meta["nfev"] <= 1121 and traj.meta["steps"] <= 76

    def test_d5_structure(self, d5_unit_10):
        t = d5_unit_10.times
        assert np.max(np.abs(d5_unit_10.coeffs[:, 3] - 1.0)) < 1e-12  # D frozen
        assert np.max(np.abs(d5_unit_10.coeffs[:, 4] - (4 * t + 1))) < 1e-10

    def test_first_sample_is_initial_data(self, d5_unit_10):
        assert d5_unit_10.times[0] == 0.0
        assert np.array_equal(d5_unit_10.coeffs[0], np.ones(5))

    def test_first_sample_is_bitwise_initial_data(self):
        # exp(log(x)) != x for these values; the t=0 sample must still be lam
        lam = (2.76, 2.78, 2.82, 2.89, 2.93)
        traj = run_brackets(StructureConstants.zero(5), lam, 1.0)
        assert np.array_equal(traj.coeffs[0], lam)

    def test_times_strictly_increasing(self, d5_unit_10):
        assert np.all(np.diff(d5_unit_10.times) > 0)

    def test_sampling_grid(self):
        traj = run(ModelId.D5, (1, 1, 1, 1, 1), 100.0, samples_per_decade=64)
        t = traj.times
        assert t[0] == 0.0 and t[-1] == 100.0
        assert np.count_nonzero(t <= 1.0) == 33
        # two decades at 64 samples per decade
        assert np.count_nonzero(t > 1.0) == 128

    def test_abelian_flow_constant(self):
        lam = (1.3, 0.7, 2.0, 1.1, 0.9)
        traj = run_brackets(StructureConstants.zero(5), lam, 50.0)
        assert traj.termination == "reached_t_end"
        assert np.max(np.abs(traj.coeffs - np.array(lam))) < 1e-14

    def test_d3_self_similar_value(self):
        traj = run(ModelId.D3, (2 / 3, 1, 1, 1, 1), 100.0)
        a_want = (2 / 3) * (1 + (11 / 3) * 100.0) ** (-4 / 11)
        assert traj.final[0] == pytest.approx(a_want, rel=1e-8)

    def test_tolerance_convergence(self):
        coarse = run(ModelId.D5, (1, 1, 1, 1, 1), 10.0, rel_tol=1e-8, abs_tol=1e-10)
        fine = run(ModelId.D5, (1, 1, 1, 1, 1), 10.0, rel_tol=5e-9, abs_tol=1e-10)
        diff = np.abs(coarse.final - fine.final)
        budget = 1e-8 * np.abs(coarse.final) + 1e-10
        assert np.all(diff <= budget)

    def test_d11_equal_plane_coefficients_stay_equal(self):
        traj = run(ModelId.D11, (1, 1, 1, 2, 1), 1e4)
        B, C = traj.coeffs[:, 1], traj.coeffs[:, 2]
        assert np.max(np.abs(B - C) / B) < 1e-10

    def test_d11_order_preserved(self):
        traj = run(ModelId.D11, (1, 2, 1, 1, 1), 10.0)
        assert np.all(traj.coeffs[:, 1] > traj.coeffs[:, 2])

    def test_named_monomials_conserved_to_rounding(self):
        # in u = log g each named monomial is a linear first integral, which
        # Runge-Kutta steps preserve up to rounding
        rng = np.random.default_rng(4)
        for model in ModelId:
            lam = rng.uniform(0.5, 2.0, 5)
            traj = integrate(FlowProblem(model, InitialData(tuple(lam)), 1e4))
            for mono in catalog.model_invariants(model).monomials:
                assert drift_report(traj, mono) <= 1e-12, (model, str(mono))

    def test_finite_time_collapse_stops_with_positive_samples(self):
        # su(2) + R^2: A = B = C = 1 - t collapses at t = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_brackets(SU2, (1, 1, 1, 1, 1), 10.0)
        assert traj.termination == "step_failure"
        assert traj.meta["solver_message"]
        assert traj.times[-1] < 10.0
        assert np.all(np.isfinite(traj.coeffs)) and np.all(traj.coeffs > 0.0)
        assert 0.9 <= traj.times[-1] <= 1.0

    @pytest.mark.parametrize("scale, accepted", [(1e-20, True), (1e-300, False)])
    def test_collapse_before_the_first_sample_keeps_the_initial_one(self, scale, accepted):
        # su(2) + R^2 from A = B = C = scale collapses at t = scale.  On the
        # way the rates overflow, and a step whose error estimate is NaN is
        # rejected; at 1e-300 no step is accepted at all
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run_brackets(SU2, (scale, scale, scale, 1, 1), 1.0)
        assert traj.termination == "step_failure" and list(traj.times) == [0.0]
        assert (traj.meta["steps"] > 0) == accepted
        assert (traj.meta["min_step_log_t"] is not None) == accepted

    def test_unconstrained_parameters_raise(self, monkeypatch):
        monkeypatch.setattr(flow, "solve_ivp", no_solver)  # raised before any step
        problem = FlowProblem(
            ModelId.D1, InitialData((1, 1, 1, 1, 1)), 1.0,
            params={"alpha": 1.0, "beta": 0.0, "gamma": 0.0},
        )
        with pytest.raises(DiagonalityViolation):
            integrate(problem)

    def test_offdiag_column_is_exactly_zero(self):
        for model in ModelId:
            traj = run(model, (1.0, 2.0, 1.5, 0.7, 1.3), 100.0)
            # diagonality is decided before the solve; no per-sample record
            assert not hasattr(traj, "max_offdiag"), model
            assert set(traj.meta) == {"t_end", "rel_tol", "abs_tol", "solver", "batch_size",
                                      "solver_rtol", "solver_atol", "nfev", "steps",
                                      "rejected_steps", "min_step_log_t", "wall_s",
                                      "max_drift", "steps_set", "retired_at_step"}
            assert traj.meta["batch_size"] == 1
            assert (traj.meta["solver_rtol"], traj.meta["solver_atol"]) == (1e-13, 1e-15)
            assert traj.meta["wall_s"] > 0.0

    def test_debug_log_line_per_solve(self, caplog):
        caplog.set_level(logging.DEBUG, logger="solvflow.flow")
        integrate_many([FlowProblem(ModelId.D5, InitialData((1, 1, 1, 1, lam)), 10.0)
                        for lam in (1.0, 2.0, 3.0)])
        [record] = [r for r in caplog.records
                    if r.name == "solvflow.flow" and r.getMessage().startswith("solved")]
        assert record.levelno == logging.INFO
        line = record.getMessage()
        assert line.startswith("solved D5×3: M=3 t_end=10 ")
        for word in ("nfev=", " steps=", " rejected=", " min_step=", "reached_t_end"):
            assert word in line, word

    def test_log_line_lists_the_blocks_of_a_stacked_solve(self, caplog):
        caplog.set_level(logging.INFO, logger="solvflow.flow")
        integrate_many([FlowProblem(model, InitialData(lam), 10.0) for model, lam in (
            (ModelId.D11, (1, 2, 1, 1, 1)), (ModelId.D1, (1, 2, 3, 1, 1)),
            (ModelId.D11, (1, 1, 1, 2, 1)), (ModelId.D1, (2, 1, 1, 1, 1)))])
        [record] = [r for r in caplog.records
                    if r.name == "solvflow.flow" and r.getMessage().startswith("solved")]
        line = record.getMessage()
        # plain blocks first, in order of first appearance, then reflected ones
        assert line.startswith("solved D1×2, D11×1, D11×1 (B,C) -> (s, log|r|): M=4 t_end=10 ")
        assert "nfev=" in line and "wall=" in line and line.endswith(
            "reached_t_end [DOP853 on log g in log(1+t)]")

    def test_non_lie_brackets_rejected(self):
        bad = StructureConstants.from_brackets(
            5, {(0, 1, 1): 1.0, (0, 2, 2): 1.0, (1, 2, 0): 1.0}
        )
        with pytest.raises(ValueError, match="Jacobi"):
            run_brackets(bad, (1, 1, 1, 1, 1), 1.0)

    def test_invalid_problem(self):
        with pytest.raises(ValueError):
            FlowProblem(ModelId.D1, InitialData((1, 1, 1, 1, 1)), -1.0)
        for t_end in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                FlowProblem(ModelId.D1, InitialData((1, 1, 1, 1, 1)), t_end)
        with pytest.raises(ValueError):
            FlowProblem(ModelId.D1, InitialData((1, 1, 1, 1, 1)), 1.0, rel_tol=2.0)

    def test_samples_per_decade_must_be_an_integer(self):
        for bad in (2.5, "64", 0):
            with pytest.raises(ValueError, match="^samples_per_decade must be a positive integer"):
                FlowProblem(ModelId.D1, InitialData((1, 1, 1, 1, 1)), 1.0,
                            samples_per_decade=bad)
        problem = FlowProblem(ModelId.D1, InitialData((1, 1, 1, 1, 1)), 1.0,
                              samples_per_decade=np.int64(8))
        assert problem.samples_per_decade == 8

    def test_table_is_named_once_and_checked_at_construction(self, monkeypatch):
        monkeypatch.setattr(flow, "solve_ivp", no_solver)  # refused before any solve
        lam = InitialData((1.0, 1.2, 0.8, 1.5, 2.25))
        d3 = catalog.build_model(ModelId.D3, catalog.constrained_params(ModelId.D3))
        assert FlowProblem("D5", lam, 1.0).model is ModelId.D5
        with pytest.raises(ValueError, match="'D7' is not a valid ModelId"):
            FlowProblem("D7", lam, 1.0)
        # a model beside another table's brackets would solve that table
        # under the model's name, monomials and residual checks
        with pytest.raises(ValueError, match="not both"):
            FlowProblem(ModelId.D1, lam, 1e4, brackets=d3)
        with pytest.raises(ValueError, match="needs a catalog model or explicit brackets"):
            FlowProblem(None, lam, 1.0)
        with pytest.raises(ValueError, match="explicit brackets take no params"):
            FlowProblem(None, lam, 1.0, params={"alpha": 1.0}, brackets=d3)
        for brackets in (StructureConstants.zero(3), d3.c):
            with pytest.raises(ValueError, match="five-dimensional StructureConstants"):
                FlowProblem(None, lam, 1.0, brackets=brackets)
        # brackets compare by identity, so problems that hold them compare
        problem = FlowProblem(None, lam, 1.0, brackets=d3)
        assert problem == dataclasses.replace(problem)
        assert problem != dataclasses.replace(problem, brackets=StructureConstants.zero(5))

    def test_model_given_by_name_is_solved_as_the_model(self):
        traj = integrate(FlowProblem("D5", InitialData((1, 1, 1, 1, 1)), 1.0))
        assert traj.model is ModelId.D5 and traj.termination == "reached_t_end"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_params_refused_before_solving(self, monkeypatch, bad):
        monkeypatch.setattr(flow, "solve_ivp", no_solver)
        problem = FlowProblem(ModelId.D1, InitialData((1, 1, 1, 1, 1)), 1.0,
                              params={"alpha": bad})
        with pytest.raises(ValueError, match="must be finite"):
            integrate(problem)

    def test_tolerance_scipy_would_raise_is_refused(self):
        # the solver runs at rel_tol/10, and scipy silently raises an rtol
        # below 100 machine epsilons (about 2.2e-14) to that floor
        with pytest.raises(ValueError, match="rel_tol must be at least 2.22e-13"):
            FlowProblem(ModelId.D1, InitialData((1, 1, 1, 1, 1)), 1.0, rel_tol=1e-13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(ModelId.D5, (1, 1, 1, 1, 1), 10.0, rel_tol=2.3e-13)
        assert traj.meta["solver_rtol"] == 2.3e-13 / 10

    def test_diagnostics_columns(self, d5_unit_10):
        assert d5_unit_10.meta["max_drift"] < 1e-10   # AB, AC conserved
        assert d5_unit_10.meta["max_drift"] == max(
            drift_report(d5_unit_10, m) for m in catalog.model_invariants(ModelId.D5).monomials)
        abelian = run_brackets(StructureConstants.zero(5), (1, 2, 3, 4, 5), 10.0)
        assert abelian.meta["max_drift"] == 0.0


class TestIntegrateMany:
    def test_batch_of_one_is_the_direct_solve(self):
        lam = (1.3, 0.7, 2.0, 1.1, 0.9)
        problem = FlowProblem(ModelId.D3, InitialData(lam), 1e3)
        [traj] = integrate_many([problem])
        sol, counts = tau_solve(terms_of(ModelId.D3), problem, traj.times)
        # the samples are the grid's own times, not expm1 of the solver's
        assert np.array_equal(sol.t, np.log1p(traj.times))
        assert np.array_equal(np.exp(sol.y.T[1:]), traj.coeffs[1:])
        assert np.array_equal(traj.coeffs[0], lam)
        assert traj.meta["nfev"] == sol.nfev
        assert (traj.meta["steps"], traj.meta["rejected_steps"],
                traj.meta["min_step_log_t"]) == (counts["steps"], counts["rejected_steps"],
                                                  counts["min_step"])
        direct = integrate(problem)
        assert np.array_equal(direct.coeffs, traj.coeffs)

    @pytest.mark.parametrize("model", list(ModelId))
    def test_rows_as_accurate_as_single_runs(self, criterion_4_batches,
                                             criterion_4_references, model):
        # the row-wise error norm holds each row of the 100-row batch to its
        # own tolerance, so it lies at least as close to a tight reference as
        # the row's own run (measured: at most 0.07, 0.66, 0.14, 0.07 and
        # 0.61 times as far for D1, D2, D3, D5 and D11; with an RMS norm over
        # all rows at tolerances divided by sqrt(M), one D2 row is 1.44
        # times as far)
        problems, batch = criterion_4_batches[model]
        refs = criterion_4_references[model]
        for problem, row, ref in zip(problems, batch, refs):
            assert deviation(row, ref) <= deviation(integrate(problem), ref)

    @pytest.mark.parametrize("model", list(ModelId))
    def test_rows_as_accurate_as_the_solve_in_t(self, criterion_4_batches,
                                                criterion_4_references, model):
        # no row lies farther from a tight reference than the row's own
        # DOP853 run in t at the problem's tolerances does
        problems, batch = criterion_4_batches[model]
        terms = terms_of(model)
        for problem, row, ref in zip(problems, batch, criterion_4_references[model]):
            in_t = t_solve(terms, problem, row.times, reflect=True)
            assert deviation(row, ref) <= float(np.max(np.abs(in_t - ref)))

    def test_check_runs_as_accurate_as_the_solve_in_t(self):
        # the canonical runs, stacked with criterion 4's draws as the check
        # solves them; the abelian run has no catalog model and no reference
        session = VerifySession(seed=0)
        session.run_all()
        # the reflected runs (d11_case2_10 and d11_case2_1e4) share their
        # initial datum, so one Radau solve over the union of their samples
        # serves both
        reflected = [key for key in _RUNS
                     if session._cache[key].meta["solver"].endswith("(s, log|r|)")]
        assert sorted(reflected) == ["d11_case2_10", "d11_case2_1e4"]
        assert len({_RUNS[key][:2] for key in reflected}) == 1
        times = np.unique(np.concatenate([session._cache[key].times for key in reflected]))
        [radau] = radau_reference(terms_of(ModelId.D11), [_run_problem(reflected[0])], times)
        for key in _RUNS:
            traj, problem = session._cache[key], _run_problem(key)
            if problem.model is None:
                continue
            terms = terms_of(problem.model)
            if key in reflected:
                ref = radau[np.searchsorted(times, traj.times)]
            else:
                ref = tight_reference(terms, problem, traj.times)
            in_t = t_solve(terms, problem, traj.times, reflect=True)
            assert deviation(traj, ref) <= float(np.max(np.abs(in_t - ref))), key

    def test_rowwise_norm_is_the_largest_row_norm(self):
        # the solver's own row-wise norm, which its step calls: each row's
        # norm is scipy's DOP853 norm of that row alone
        rng = np.random.default_rng(7)
        for rows in (1, 3):
            solver = flow.RowwiseDOP853(lambda y, out: np.negative(y, out=out), 0.0,
                                        np.ones(5 * rows), 1.0, rows=rows, counts={},
                                        g=np.ones_like)
            for draw in range(20):
                K = rng.normal(size=(DOP853.n_stages + 1, 5 * rows))
                K[:, :5] *= draw % 2  # a row without error: no division warns
                scale = rng.uniform(1e-12, 1e-10, 5 * rows)
                h = rng.uniform(1e-3, 1.0)
                want = max(DOP853._estimate_error_norm(solver, K[:, k:k + 5], h, scale[k:k + 5])
                           for k in range(0, 5 * rows, 5))
                got = solver._estimate_error_norm(solver.E53, K, h, scale)
                assert got == pytest.approx(want, rel=1e-14)
            K[0, -1] = np.nan  # rejects the step, as scipy's norm does
            assert math.isnan(solver._estimate_error_norm(solver.E53, K, h, scale))

    def test_step_counts_account_for_every_evaluation(self, criterion_4_batches):
        # DOP853 evaluates 12 stages per attempted step, 3 more per step
        # that holds samples and 2 to start; the smallest step is at most the span
        _, batch = criterion_4_batches[ModelId.D1]
        for traj in (batch[0], run(ModelId.D11, (1, 2, 1, 1, 1), 1e4)):
            meta = traj.meta
            extra = meta["nfev"] - 2 - 12 * (meta["steps"] + meta["rejected_steps"])
            assert extra % 3 == 0 and 0 <= extra <= 3 * meta["steps"]
            assert 0.0 < meta["min_step_log_t"] <= math.log1p(meta["t_end"])

    def test_dense_output_is_scipys_interpolant(self, monkeypatch):
        # the stacked samples against scipy's interpolant, Dop853DenseOutput,
        # on the same steps and coefficients, to 1 ulp; and against scipy's
        # dense output of each step, which computes the coefficients from
        # the same stages, y' = cos(t) (-y) in the separable form: scipy's
        # reads the stages K_j = g_j D_j, the last one also as f, and fills
        # the dense output's three.  Samples fall at both ends of steps and
        # inside
        times = np.concatenate([[0.0], np.sort(np.random.default_rng(11).uniform(0.0, 6.0, 40)),
                                [6.0]])
        flushed = []  # of each flush: y_old and F of its steps
        real_coefficients = flow.RowwiseDOP853._coefficients

        def coefficients(solver, steps):
            F = real_coefficients(solver, steps)
            flushed.append((solver.rec_y[:steps].copy(), F.copy()))
            return F

        monkeypatch.setattr(flow.RowwiseDOP853, "_coefficients", coefficients)
        counts = {}
        solver = flow.RowwiseDOP853(lambda y, out: np.negative(y, out=out), 0.0,
                                    np.linspace(0.5, 2.0, 10), 6.0, rows=2, counts=counts,
                                    g=np.cos, samples=times, rtol=1e-8, atol=1e-10)
        scipys, sampled, at_step = [], [], 0  # sampled: t_old, t and samples of each step
        while solver.status == "running":
            solver.step()
            at = solver.t_old + solver.nodes * solver.h_previous
            at[solver.n_stages] = solver.t
            solver.K[:] = np.cos(at[:len(solver.K)])[:, None] * solver.Ds
            solver.f = solver.K[-1]
            new_at_step = np.searchsorted(times, solver.t, side="right")
            if new_at_step > at_step:
                scipys.append(DOP853._dense_output_impl(solver)(times[at_step:new_at_step]).T)
                sampled.append((solver.t_old, solver.t, times[at_step:new_at_step]))
                at_step = new_at_step
        got = counts["samples"]
        assert solver.status == "finished" and got.shape == (len(times), 10)
        assert counts["steps"] > 10 and len(flushed) == 1  # the whole record at once
        y_old, F = (np.concatenate(a) for a in zip(*flushed))
        want = np.concatenate([Dop853DenseOutput(t_old, t, *step)(samples).T for
                               (t_old, t, samples), *step in zip(sampled, y_old, F)])
        assert want.shape == got.shape
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
        scipys = np.concatenate(scipys)
        assert np.max(np.abs(got - scipys)) <= 1e-14 * np.max(np.abs(scipys))

    def test_samples_do_not_depend_on_the_flush_size(self, monkeypatch):
        # the solver's steps and samples, for a single run and for a batch
        # of plain and reflected rows that leave at three horizons: the
        # whole record at once against a flush after every step and after
        # every second step of the batch (13 stages of 20 floats per step;
        # 8 steps of the single run), bitwise
        problems = [FlowProblem(model, InitialData(lam), t_end) for model, lam, t_end in (
            (ModelId.D3, (1.0, 1.2, 0.8, 1.5, 2.0), 10.0),
            (ModelId.D11, (1.0, 2.0, 1.0, 1.0, 1.0), 1e3),
            (ModelId.D3, (1.3, 0.7, 2.0, 1.1, 0.9), 1e6),
            (ModelId.D11, (1.5, 0.8, 1.7, 1.2, 0.6), 10.0))]
        solves = []  # of each solve: nfev, the step times and the samples
        real_solve_ivp = flow.solve_ivp

        def solve_ivp(*args, counts, **kwargs):
            sol = real_solve_ivp(*args, counts=counts, **kwargs)
            solves.append((sol.nfev, sol.t, counts["samples"]))
            return sol

        monkeypatch.setattr(flow, "solve_ivp", solve_ivp)
        for size in (dop853._RECORD_FLOATS, 1, 2 * 13 * 20):
            monkeypatch.setattr(dop853, "_RECORD_FLOATS", size)
            integrate(problems[2])
            integrate_many(problems)
        whole_run, whole_batch = solves[:2]
        assert len(whole_run[2]) > 400 and len(whole_batch[2]) > 400
        for k, (nfev, t, samples) in enumerate(solves[2:]):
            whole_nfev, whole_t, whole = (whole_run, whole_batch)[k % 2]
            assert nfev == whole_nfev and np.array_equal(t, whole_t)
            assert np.array_equal(samples, whole)

    def test_rows_retire_at_their_own_horizon(self, monkeypatch):
        # plain and reflected rows to 10, 1e3 and 1e6: after each horizon the
        # right-hand side is rebuilt once and evaluates only the live rows
        problems = [FlowProblem(model, InitialData(lam), t_end) for model, lam, t_end in (
            (ModelId.D3, (1.0, 1.2, 0.8, 1.5, 2.0), 10.0),
            (ModelId.D11, (1.0, 2.0, 1.0, 1.0, 1.0), 1e3),
            (ModelId.D3, (1.3, 0.7, 2.0, 1.1, 0.9), 1e6),
            (ModelId.D11, (1.5, 0.8, 1.7, 1.2, 0.6), 10.0),
            (ModelId.D3, (0.6, 1.4, 0.9, 2.0, 1.2), 1e3),
            (ModelId.D11, (1.0, 1.0, 1.0, 2.0, 1.0), 1e6))]
        calls = []  # per call of the right-hand side: [live rows, rows evaluated]

        class Counted(flow._Product):
            def keep(self, live):
                self.live = live.copy()
                return super().keep(live)

            def du(self, y, out=None):
                # the rows of which the product exponentiates any term
                own = np.broadcast_to(self.own, self.z.shape)
                calls.append([int(self.live.sum()), int(own.any(axis=1).sum())])
                return super().du(y, out)

        monkeypatch.setattr(flow, "_Product", Counted)
        # the solver's counts (rows in stacked order), and the live rows and
        # a copy of steps_set at each rebuild
        solver, rebuilt = {}, []
        real_solve_ivp = flow.solve_ivp

        def solve_ivp(*args, counts, live_fun, **kwargs):
            solver["counts"] = counts

            def rebuild(live):
                rebuilt.append((live.copy(), list(counts["steps_set"])))
                return live_fun(live)
            return real_solve_ivp(*args, counts=counts, live_fun=rebuild, **kwargs)

        monkeypatch.setattr(flow, "solve_ivp", solve_ivp)
        batch = integrate_many(problems)
        monkeypatch.undo()
        assert [live.sum() for live, _ in rebuilt] == [4, 2]
        assert [k for k, _ in itertools.groupby(live for live, _ in calls)] == [6, 4, 2]
        assert all(live == rows for live, rows in calls)
        final = solver["counts"]["steps_set"]
        for live, steps_set in rebuilt:  # a retired row's count stops growing
            assert all(final[k] == steps_set[k] for k in np.flatnonzero(~live))
        steps = batch[0].meta["steps"]
        retired = [traj.meta["retired_at_step"] for traj in batch]
        assert retired[2] is None and retired[5] is None
        assert retired[0] == retired[3] < retired[1] == retired[4] < steps
        for problem, traj in zip(problems, batch):
            assert traj.termination == "reached_t_end"
            assert traj.meta["steps_set"] <= (traj.meta["retired_at_step"] or steps)
            assert deviation(traj, np.log(integrate(problem).coeffs)) <= 1e-9

    def test_rows_conserve_named_monomials(self, criterion_4_batches):
        for model, (problems, batch) in criterion_4_batches.items():
            assert len(batch) == 20
            for traj, problem in zip(batch, problems):
                assert np.array_equal(traj.coeffs[0], problem.initial.array)
                for mono in catalog.model_invariants(model).monomials:
                    assert drift_report(traj, mono) <= 1e-12, (model, str(mono))

    def test_batch_meta(self, criterion_4_batches):
        _, batch = criterion_4_batches[ModelId.D3]
        meta = batch[0].meta
        assert meta["batch_size"] == 100
        # each row is held to its own tolerance, whatever the batch size
        assert meta["solver_rtol"] == meta["rel_tol"] / 10
        assert meta["solver_atol"] == meta["abs_tol"] / 10
        everyone = [t for _, rows in criterion_4_batches.values() for t in rows]
        solve = ("nfev", "steps", "rejected_steps", "min_step_log_t")
        assert all(t.meta[k] == meta[k] for t in everyone for k in solve)  # the stacked solve's
        assert len({t.meta["max_drift"] for t in batch}) > 1  # each row's own

    def test_rows_keep_their_model_and_order(self, criterion_4_batches):
        for model, (problems, batch) in criterion_4_batches.items():
            for problem, traj in zip(problems, batch):
                assert traj.model is model
                assert traj.params == catalog.constrained_params(model)
                assert np.array_equal(traj.coeffs[0], problem.initial.array)
            assert {t.meta["solver"] for t in batch} == {
                "DOP853 on log g in log(1+t), (B,C) -> (s, log|r|)" if model is ModelId.D11
                else "DOP853 on log g in log(1+t)"}

    def test_rows_may_differ_in_model_and_params(self, caplog):
        caplog.set_level(logging.INFO, logger="solvflow.flow")
        d11_minus = {**catalog.constrained_params(ModelId.D11), "eps": -1.0, "kappa": -1.0}
        problems = [FlowProblem(ModelId.D5, InitialData((1, 1, 1, 1, 1)), 10.0),
                    FlowProblem(ModelId.D2, InitialData((1, 2, 1, 1, 1)), 10.0),
                    FlowProblem(ModelId.D11, InitialData((1, 2, 1, 1, 1)), 10.0,
                                params=d11_minus),
                    FlowProblem(ModelId.D11, InitialData((1, 2, 1, 1, 1)), 10.0)]
        batch = integrate_many(problems)
        [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solved")]
        # one stacked solve, and a block per table: the D11 parameter sets differ
        assert line.startswith("solved D5×1, D2×1, D11×1 (B,C) -> (s, log|r|), "
                               "D11×1 (B,C) -> (s, log|r|): M=4 ")
        for problem, traj in zip(problems, batch):
            assert traj.model is problem.model
            assert traj.params == problem.resolved_params()
            assert traj.meta["batch_size"] == 4
            own = integrate(problem)
            assert own.meta["solver"] == traj.meta["solver"]
            assert np.allclose(traj.coeffs, own.coeffs, rtol=1e-9, atol=0.0)

    def test_plain_tables_share_one_exact_product(self):
        # the union of the tables gives each row exactly its own table's
        # rates, so a D11 row with B = C keeps B = C to the last bit
        problems = [FlowProblem(model, InitialData(lam), 1e4, rel_tol=1e-12, abs_tol=1e-14)
                    for model, lam in ((ModelId.D1, (1.0, 1.2, 0.8, 1.5, 2.25)),
                                       (ModelId.D11, (1, 1, 1, 2, 1)),
                                       (ModelId.D3, (1, 1, 1, 1, 1)),
                                       (ModelId.D2, (1.0, 1.1, 1.3, 0.9, 1.2)))]
        batch = integrate_many(problems)
        assert np.array_equal(batch[1].coeffs[:, 1], batch[1].coeffs[:, 2])
        blocks = [flow._Block(p.model, p.resolved_params(),
                              terms_of(p.model), (), [k]) for k, p in enumerate(problems)]
        u = np.log(np.random.default_rng(3).uniform(0.1, 10.0, (4, 5)))
        u[1, 2] = u[1, 1]
        stacked = flow._Product(blocks, u).du(u)
        # each table's log_rhs over all four rows: BLAS sums a product of one
        # row in another order than one of several, and a product of one
        # table is its log_rhs (test_one_block_is_its_tables_log_rhs)
        for k, block in enumerate(blocks):
            assert np.array_equal(stacked[k], block.terms.log_rhs(u)[k])

    @pytest.mark.parametrize("change", [
        {"model": ModelId.D2, "brackets": None},
        {"brackets": HEISENBERG},
        {"t_end": 20.0},
        {"rel_tol": 1e-10},
        {"abs_tol": 1e-12},
        {"samples_per_decade": 32},
    ])
    def test_problems_differing_beyond_initial_data_raise(self, change):
        # no two problems are refused a shared solve: a row of explicit
        # brackets shares it with a catalog row or a row of other brackets,
        # and rows that differ in horizon, tolerances or sampling share it
        # too.  Each row keeps its own table, grid and tolerances
        sc = catalog.build_model(ModelId.D5, catalog.constrained_params(ModelId.D5))
        first = FlowProblem(None, InitialData((1, 1, 1, 1, 1)), 10.0, brackets=sc)
        other = dataclasses.replace(first, initial=InitialData((1, 2, 1, 1, 1)), **change)
        batch = integrate_many([first, other])
        for problem, traj in zip((first, other), batch):
            assert traj.model is problem.model
            assert np.array_equal(traj.times, flow._sample_times(
                problem.t_end, problem.samples_per_decade))
            assert traj.termination == "reached_t_end"
            assert traj.meta["batch_size"] == 2
            assert {key: traj.meta[key] for key in ("t_end", "rel_tol", "abs_tol",
                                                    "solver_rtol", "solver_atol")} == {
                "t_end": problem.t_end, "rel_tol": problem.rel_tol,
                "abs_tol": problem.abs_tol, "solver_rtol": problem.rel_tol / 10,
                "solver_atol": problem.abs_tol / 10}
            assert deviation(traj, np.log(integrate(problem).coeffs)) <= 1e-9

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            integrate_many([])

    def test_rows_that_reach_their_horizon_are_not_repeated(self, caplog):
        # su(2) + R^2 from A = B = C = x collapses at t = x.  The first row
        # leaves at its horizon t = 0.5 and the second where its step fails,
        # near t = 2, in the one stacked solve: no row is solved again
        caplog.set_level(logging.INFO, logger="solvflow.flow")
        problems = [FlowProblem(None, InitialData((1, 1, 1, 1, 1)), 0.5, brackets=SU2),
                    FlowProblem(None, InitialData((2, 2, 2, 1, 1)), 10.0, brackets=SU2)]
        batch = integrate_many(problems)
        solves = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solved")]
        assert [line.split(": ")[1].split(" nfev")[0] for line in solves] == [
            "M=2 t_end=0.5,10"]
        assert batch[0].termination == "reached_t_end"
        assert batch[0].meta["batch_size"] == 2 and "solver_message" not in batch[0].meta
        assert np.array_equal(batch[0].times, flow._sample_times(0.5, 64))
        assert deviation(batch[0], np.log(integrate(problems[0]).coeffs)) <= 1e-9
        own = integrate(problems[1])
        assert batch[1].termination == own.termination == "step_failure"
        assert batch[1].meta["batch_size"] == 2
        assert np.array_equal(batch[1].times, own.times)
        assert deviation(batch[1], np.log(own.coeffs)) <= 1e-9  # 1.7e-12
        assert 1.9 <= batch[1].times[-1] <= 2.0

    def test_tied_pair_stays_tied_beside_other_tables(self):
        # criterion 5's runs, all to 1e6.  When the union product summed the
        # swapped terms of the D11 row's B and C columns in different
        # orders, B - C grew from an ulp along the stiff mode: the solve took
        # 90,440 evaluations, overflowed, and had B = 751, C = 2.9 near
        # t = 8.7e5, where the row's own run keeps B = C = 47
        keys = ("d1_case1_1e6", "d1_case2_1e6", "d2_case1_1e6", "d2_generic_1e6",
                "d3_unit_1e6", "d3_selfsim_1e3", "d11_case1_1e6")
        problems = [dataclasses.replace(_run_problem(key), t_end=1e6) for key in keys]
        batch = integrate_many(problems)  # RuntimeWarnings are errors in this suite
        assert batch[0].meta["nfev"] < 1500  # 1,064
        row = batch[keys.index("d11_case1_1e6")]
        assert np.array_equal(row.coeffs[:, 1], row.coeffs[:, 2])
        own = integrate(problems[keys.index("d11_case1_1e6")])
        assert deviation(row, np.log(own.coeffs)) <= 1e-9

    def test_collapsing_rows_end_as_their_own_runs(self):
        lams = [(1, 1, 1, 1, 1), (2, 2, 2, 1, 1), (1, 1.5, 2, 1, 1), (3, 3, 3, 2, 1)]
        problems = [FlowProblem(None, InitialData(lam), 10.0, brackets=SU2) for lam in lams]
        batch = integrate_many(problems)
        finals = []
        for problem, traj in zip(problems, batch):
            own = integrate(problem)
            assert traj.termination == own.termination == "step_failure"
            assert traj.times[-1] == own.times[-1]
            finals.append(traj.times[-1])
        assert len(set(finals)) == len(finals)  # each row collapses at its own time

    def test_a_collapsing_row_leaves_and_the_others_go_on(self, caplog):
        # su(2) + R^2 from A = B = C = 2 collapses near t = 2, in one solve
        # with a plain D3 row and a reflected D11 row to 1e4
        caplog.set_level(logging.INFO, logger="solvflow.flow")
        problems = [FlowProblem(ModelId.D3, InitialData((1.0, 1.2, 0.8, 1.5, 2.0)), 1e4),
                    FlowProblem(None, InitialData((2, 2, 2, 1, 1)), 10.0, brackets=SU2),
                    FlowProblem(ModelId.D11, InitialData((1.5, 0.8, 1.7, 1.2, 0.6)), 1e4)]
        batch = integrate_many(problems)
        solves = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solved")]
        assert len(solves) == 1 and " M=3 t_end=10,10000 " in solves[0]
        owns = [integrate(problem) for problem in problems]
        for k in (0, 2):  # 3.0e-12 and 7.9e-12
            assert batch[k].termination == owns[k].termination == "reached_t_end"
            assert np.array_equal(batch[k].times, owns[k].times)
            assert deviation(batch[k], np.log(owns[k].coeffs)) <= 1e-9
            assert batch[k].meta["retired_at_step"] is None
        row, own = batch[1], owns[1]
        assert row.termination == own.termination == "step_failure"
        assert row.times[-1] == own.times[-1] and 1.9 <= row.times[-1] <= 2.0
        assert 0 < row.meta["retired_at_step"] < row.meta["steps"]
        assert row.meta["solver_message"] == own.meta["solver_message"] == (
            "Required step size is less than spacing between numbers.")
        # the rows left restart at the solve's first step, not at the
        # smallest one: 6,528 evaluations, 6,683 when they restarted there
        assert batch[0].meta["nfev"] < 6683

    def test_the_solve_ends_with_its_last_live_row(self, caplog):
        # the row to 10 collapses near t = 2, and the row to 5, from A = B
        # = C = 7, would collapse near t = 7: it ends at 5, and the solve
        # with it, not at the largest horizon
        caplog.set_level(logging.INFO, logger="solvflow.flow")
        problems = [FlowProblem(None, InitialData((2, 2, 2, 1, 1)), 10.0, brackets=SU2),
                    FlowProblem(None, InitialData((7, 7, 7, 1, 1)), 5.0, brackets=SU2)]
        batch = integrate_many(problems)
        solves = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solved")]
        assert len(solves) == 1
        owns = [integrate(problem) for problem in problems]
        assert batch[0].termination == owns[0].termination == "step_failure"
        assert batch[0].times[-1] == owns[0].times[-1] and 1.9 <= batch[0].times[-1] <= 2.0
        row, own = batch[1], owns[1]
        assert row.termination == own.termination == "reached_t_end"
        assert "solver_message" not in row.meta and row.meta["retired_at_step"] is None
        assert np.array_equal(row.times, own.times) and row.times[-1] == 5.0
        assert deviation(row, np.log(own.coeffs)) <= 1e-9  # 1.9e-12
        # no step past t = 5: 6,305, where running on to t = 10 took 11,819
        assert row.meta["nfev"] < 7000


class TestReflectedCoordinates:
    @pytest.mark.parametrize("model, lam", [
        (ModelId.D1, (1.3, 0.7, 2.0, 1.1, 0.9)),
        (ModelId.D2, (1.3, 0.7, 2.0, 1.1, 0.9)),
        (ModelId.D3, (0.6, 1.4, 0.9, 2.0, 1.2)),
        (ModelId.D5, (1.3, 0.7, 2.0, 1.1, 0.9)),
        (ModelId.D11, (1.3, 0.7, 0.7, 1.1, 0.9)),  # lambda2 = lambda3: r = 0 exactly
        (None, (1.3, 0.7, 2.0, 1.1, 0.9)),
    ], ids=["D1", "D2", "D3", "D5", "D11-case1", "brackets"])
    def test_plain_runs_are_the_direct_solve(self, model, lam):
        problem = FlowProblem(model, InitialData(lam), 1e3,
                              brackets=HEISENBERG if model is None else None)
        traj = integrate(problem)
        sol, counts = tau_solve(compile_flow(HEISENBERG) if model is None else terms_of(model),
                                problem, traj.times)
        assert traj.meta["solver"] == "DOP853 on log g in log(1+t)"
        assert (traj.meta["nfev"], traj.meta["steps"]) == (sol.nfev, counts["steps"])
        assert np.array_equal(np.exp(sol.y.T[1:]), traj.coeffs[1:])

    @pytest.mark.parametrize("model, params, conserving, moving", [
        (ModelId.D1, {}, [(1, 3), (2, 4)], []),
        (ModelId.D2, {}, [], []),
        (ModelId.D3, {}, [], []),
        (ModelId.D5, {}, [(1, 2)], []),
        (ModelId.D11, {"eps": 1.0, "kappa": 1.0}, [], [(1, 2)]),
        (ModelId.D11, {"eps": -1.0, "kappa": -1.0}, [], [(1, 2)]),
    ])
    def test_swaps_of_the_catalog_tables(self, model, params, conserving, moving):
        terms = terms_of(model, **params)
        assert flow._invariant_swaps(terms) == (conserving, moving)
        assert flow._reflected_pairs(moving) == moving

    def test_swaps_are_the_brute_force_ones(self):
        # the transpositions that map the term table onto itself, against
        # permuting the columns of exps and rates and comparing the sorted
        # rows: on the catalog tables and on random brackets, every other
        # draw made symmetric under a random transposition
        def brute(terms):
            width = terms.exps.shape[1]

            def rows(exps, rates):
                table = np.hstack([exps, rates])
                return table[np.lexsort(table.T[::-1])]

            conserving, moving = [], []
            for i, j in itertools.combinations(range(width), 2):
                perm = np.arange(width)
                perm[[i, j]] = j, i
                if np.array_equal(rows(terms.exps, terms.rates),
                                  rows(terms.exps[:, perm], terms.rates[:, perm])):
                    equal = np.array_equal(terms.rates[:, i], terms.rates[:, j])
                    (conserving if equal else moving).append((i, j))
            return conserving, moving

        tables = [terms_of(model) for model in ModelId]
        tables.append(terms_of(ModelId.D11, eps=-1.0, kappa=-1.0))
        rng = np.random.default_rng(41)
        for draw in range(60):
            entries = {}
            for _ in range(rng.integers(1, 5)):
                i, j = sorted(rng.choice(5, 2, replace=False).tolist())
                entries[i, j, int(rng.integers(5))] = float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
            if draw % 2:
                a, b = rng.choice(5, 2, replace=False).tolist()
                swap = {a: b, b: a}
                for (i, j, k), c in list(entries.items()):
                    i, j, k = (swap.get(x, x) for x in (i, j, k))
                    entries.setdefault((min(i, j), max(i, j), k), c if i < j else -c)
            tables.append(compile_flow(StructureConstants.from_brackets(5, entries)))
        found = [flow._invariant_swaps(terms) for terms in tables]
        assert found == [brute(terms) for terms in tables]
        # random tables with conserving and with moving swaps
        assert sum(bool(c) for c, _ in found[6:]) >= 10 and sum(bool(m) for _, m in found[6:]) >= 10

    def test_overlapping_swaps_keep_plain_coordinates(self):
        # su(2) + R^2: A, B and C are all interchangeable
        terms = compile_flow(SU2)
        assert flow._invariant_swaps(terms) == ([(3, 4)], [(0, 1), (0, 2), (1, 2)])
        assert flow._reflected_pairs([(0, 1), (0, 2), (1, 2)]) == []

    def test_abelian_swaps_all_conserve(self):
        terms = compile_flow(StructureConstants.zero(5))
        conserving, moving = flow._invariant_swaps(terms)
        assert len(conserving) == 10 and moving == []
        assert flow._reflected_pairs(moving) == []

    @pytest.mark.parametrize("eps", [1.0, -1.0])
    def test_d11_equations(self, eps):
        # s' = A/(BC), w' = -(4/E) sinh(r)/r, (log E)' = (4 sinh^2(r/2) + A/D)/E
        terms = terms_of(ModelId.D11, eps=eps, kappa=eps)
        u0 = np.log([[1.3, 2.0, 0.5, 0.8, 1.7], [0.6, 0.9, 1.4, 1.1, 0.7]])
        block, product = reflected(terms, u0)
        y0 = block.coords(u0)
        A, B, C, D, E = np.exp(u0).T
        r = u0[:, 1] - u0[:, 2]
        want = np.column_stack([np.log(A), (u0[:, 1] + u0[:, 2]) / 2, np.log(np.abs(r)),
                                np.log(D), np.log(E)])
        assert np.allclose(y0, want, rtol=1e-15, atol=0.0)
        assert np.allclose(block.log_g(y0, block.sign(u0)), u0, rtol=0.0, atol=1e-15)
        dy = product.du(y0)
        assert np.allclose(dy[:, 1], A / (B * C), rtol=1e-14)
        assert np.allclose(dy[:, 2], -4.0 / E * np.sinh(r) / r, rtol=1e-14)
        assert np.allclose(dy[:, 4], (4.0 * np.sinh(r / 2) ** 2 + A / D) / E, rtol=1e-14)
        full = terms.log_rhs(u0)
        assert np.allclose(dy[:, [0, 3]], full[:, [0, 3]], rtol=1e-14)

    def test_w_rate_is_finite_once_r_underflows(self):
        # w reaches about -3.3e3 by t = 1e4, where exp(w) is exactly 0;
        # RuntimeWarnings are errors in this suite
        terms = terms_of(ModelId.D11)
        u0 = np.log([[1.0, 2.0, 1.0, 1.0, 3.0]])
        block, product = reflected(terms, u0)
        y = block.coords(u0)
        y[0, 2] = -3.3e3
        dy = product.du(y)
        assert np.all(np.isfinite(dy))
        assert dy[0, 2] == pytest.approx(-4.0 / 3.0, rel=1e-15)  # the limit -4/E

    @pytest.mark.parametrize("eps", [1.0, -1.0])
    def test_rhs_is_bitwise_the_plain_formula(self, eps):
        # the right-hand side as first written, with one product for y and
        # one for r
        terms = terms_of(ModelId.D11, eps=eps, kappa=eps)
        rng = np.random.default_rng(5)
        u0 = np.log(rng.uniform(0.5, 2.0, (20, 5)))
        _, product = reflected(terms, u0)
        coords = reflected_maps(terms, ((1, 2),), u0)
        z = coords.u_of_y @ terms.exps.T, coords.u_of_r @ terms.exps.T
        z_of_y, z_of_r = (np.tile(zz, 2) for zz in z)
        for _ in range(200):
            y = coords.y0 + rng.normal(0.0, 0.5, coords.y0.shape)
            y[:5, 2] = rng.uniform(-3000.0, -700.0, 5)  # r underflows to 0
            r = coords.sign * np.exp(y @ coords.w_of_y)
            ez = np.exp(y @ z_of_y + r @ z_of_r)
            x = r @ coords.x_of_r
            ez[:, coords.n_terms:] *= np.divide(np.expm1(x), x, out=np.ones_like(x),
                                                where=x != 0.0)
            assert np.array_equal(product.du(y), ez @ coords.dy_of_ez)

    def test_generic_d11_keeps_its_order_and_is_not_stiff(self):
        traj = run(ModelId.D11, (1, 2, 1, 1, 1), 1e4)
        B, C = traj.coeffs[:, 1], traj.coeffs[:, 2]
        assert not np.any(B < C)
        assert traj.meta["solver"] == "DOP853 on log g in log(1+t), (B,C) -> (s, log|r|)"
        assert traj.meta["nfev"] < 2500  # 9,029 in plain coordinates
        assert traj.meta["max_drift"] < 1e-13  # 2 log A + 2 s + 2 log D is linear

    def test_mixed_batch_splits_by_kind(self, mixed_d11):
        # one stacked solve, with a block of reflected rows and a plain one
        problems, batch, _ = mixed_d11
        assert [t.meta["batch_size"] for t in batch] == [3, 3, 3]
        assert len({t.meta["nfev"] for t in batch}) == 1
        assert [t.meta["solver"] for t in batch] == [
            "DOP853 on log g in log(1+t), (B,C) -> (s, log|r|)", "DOP853 on log g in log(1+t)",
            "DOP853 on log g in log(1+t), (B,C) -> (s, log|r|)"]
        for problem, traj in zip(problems, batch):
            assert np.array_equal(traj.coeffs[0], problem.initial.array)  # input order
            B, C = traj.coeffs[:, 1], traj.coeffs[:, 2]
            sign = np.sign(B[0] - C[0])
            if sign == 0:
                assert np.array_equal(B, C)  # plain coordinates keep r = 0 exactly
            else:
                assert np.all(sign * (B - C) >= 0.0)  # ties once r < an ulp, no flips
        assert all(t.meta["solver_rtol"] == problems[0].rel_tol / 10 for t in batch)

    def test_reflected_rows_closer_to_oracle_than_plain_solve(self, mixed_d11):
        problems, batch, refs = mixed_d11
        terms = terms_of(ModelId.D11)
        for problem, traj, ref in zip(problems, batch, refs):
            if not traj.meta["solver"].endswith("(s, log|r|)"):
                continue
            plain = t_solve(terms, problem, traj.times)
            assert deviation(traj, ref) <= float(np.max(np.abs(plain - ref)))

    def test_debug_line_names_the_coordinates(self, caplog):
        caplog.set_level(logging.DEBUG, logger="solvflow.flow")
        run(ModelId.D11, (1, 2, 1, 1, 1), 10.0)
        [record] = [r for r in caplog.records
                    if r.name == "solvflow.flow" and r.getMessage().startswith("solved")]
        assert record.getMessage().startswith("solved D11×1 (B,C) -> (s, log|r|): M=1 ")


D11_MINUS = {**catalog.constrained_params(ModelId.D11), "eps": -1.0, "kappa": -1.0}

# three plain tables, a tied D11 row, reflected D11 rows of both eps and the
# abelian row, in one batch
MIXED = [FlowProblem(model, InitialData(lam), 10.0, params=params, brackets=brackets)
         for model, lam, params, brackets in (
             (ModelId.D1, (1.0, 1.2, 0.8, 1.5, 2.25), None, None),
             (ModelId.D11, (1.5, 0.8, 1.7, 1.2, 0.6), None, None),
             (ModelId.D2, (1.0, 1.1, 1.3, 0.9, 1.2), None, None),
             (ModelId.D11, (1.0, 1.0, 1.0, 2.0, 1.0), None, None),
             (ModelId.D11, (1.0, 2.0, 1.0, 1.0, 1.0), D11_MINUS, None),
             (ModelId.D3, (0.6, 1.4, 0.9, 2.0, 1.2), None, None),
             (None, (1.3, 0.7, 2.0, 1.1, 0.9), None, StructureConstants.zero(5)),
             (ModelId.D11, (0.7, 1.9, 0.6, 1.1, 1.4), None, None),
             (ModelId.D11, (1.2, 0.5, 1.6, 0.8, 1.0), D11_MINUS, None))]


class _Built(Exception):
    """Stops a solve once its right-hand side is built."""


def built_product(monkeypatch, problems):
    """The blocks of ``problems`` in stacked order, each with its
    coordinates as linear maps, and their product, as a stacked solve builds
    them."""
    seen = {}
    real_product = flow._Product

    def stop(blocks, u0):
        seen.update(blocks=blocks, product=real_product(blocks, u0))
        raise _Built

    with monkeypatch.context() as patch:
        patch.setattr(flow, "_Product", stop)
        with pytest.raises(_Built):
            integrate_many(problems)
    u0 = np.log([p.initial.array for p in problems])
    return [(block, reflected_maps(block.terms, block.pairs, u0[block.rows]))
            for block in seen["blocks"]], seen["product"]


def random_states(rng, blocks, underflow=True):
    """Random y of every row in stacked order: log g for plain rows, with
    tied pairs tied, and for reflected rows y near their start, with w of
    every other row from -3000 to -700, where r underflows to 0, or, if not
    ``underflow``, near the smallest w whose r the product takes as is."""
    ys = []
    for block, coords in blocks:
        y = np.log(rng.uniform(0.1, 10.0, (len(block.rows), 5)))
        for i, j in block.ties:
            y[:, j] = y[:, i]
        if block.pairs:
            y = coords.y0 + rng.normal(0.0, 0.5, coords.y0.shape)
            y[::2, 2] = rng.uniform(-3000.0, -700.0, len(y[::2])) if underflow else (
                flow._W_FLOOR + rng.uniform(-20.0, 20.0, len(y[::2])))
        ys.append(y)
    return np.concatenate(ys)


def reflected_formula(terms, coords, y):
    """dy/dt of reflected rows as first written, with one product for y and
    one for r and 1 in place of expm1(x)/x at x = 0."""
    z_of_y, z_of_r = (np.tile(z @ terms.exps.T, 2) for z in (coords.u_of_y, coords.u_of_r))
    r = coords.sign * np.exp(y @ coords.w_of_y)
    ez = np.exp(y @ z_of_y + r @ z_of_r)
    x = r @ coords.x_of_r
    ez[:, coords.n_terms:] *= np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
    return ez @ coords.dy_of_ez


class TestStackedProduct:
    def test_each_row_is_its_own_formula(self, monkeypatch):
        # one product for all rows gives each row bitwise what its own
        # table's log_rhs, or the reflected formula, gives it.  Each formula
        # takes several rows at once: BLAS sums a product of one row in
        # another order.  The plain formulas take the rows of all plain
        # blocks
        blocks, product = built_product(monkeypatch, MIXED)
        assert [(block.model, bool(block.pairs), bool(block.ties)) for block, _ in blocks] == [
            (ModelId.D1, False, False), (ModelId.D2, False, False), (ModelId.D11, False, True),
            (ModelId.D3, False, False), (None, False, False), (ModelId.D11, True, False),
            (ModelId.D11, True, False)]
        plain = sum(len(block.rows) for block, _ in blocks if not block.pairs)
        rng = np.random.default_rng(17)
        for draw in range(100):
            y = random_states(rng, blocks, underflow=draw % 2 == 0)
            want, at = [], 0
            for block, coords in blocks:
                rows = y[at:at + len(block.rows)]
                at += len(block.rows)
                want.append(reflected_formula(block.terms, coords, rows) if block.pairs else
                            block.terms.log_rhs(y[:plain])[at - len(rows):at])
            assert np.array_equal(product.du(y), np.concatenate(want))

    @pytest.mark.parametrize("model", list(ModelId))
    def test_one_block_is_its_tables_log_rhs(self, model):
        # the exponent matrix has the layout of exps.T, so the product of one
        # plain block makes log_rhs's own BLAS calls: bitwise its log_rhs for
        # one row and for several, and after a row retires, whose derivative
        # is then 0.  In C order it differs in the last bit for most tables.
        # With every row live nothing is masked, and exp takes where=True
        terms = terms_of(model)
        rng = np.random.default_rng(29)
        for m in (1, 4):
            every = np.ones(m, dtype=bool)
            block = flow._Block(model, None, terms, (), list(range(m)))
            product = flow._Product([block], np.zeros((m, 5)))
            assert product.keep(every).own is True
            for _ in range(300):
                u = np.log(rng.uniform(0.1, 10.0, (m, 5)))
                assert np.array_equal(product.keep(every).du(u), terms.log_rhs(u))
                if m > 1:
                    live = np.arange(m) != rng.integers(m)
                    du = product.keep(live).du(u)
                    assert np.all(du[~live] == 0.0)
                    assert np.array_equal(du[live], terms.log_rhs(u)[live])

    def test_leading_axes_make_each_matrix_its_own_product(self, monkeypatch):
        # du over leading axes, as a flush of the solver's record calls it,
        # gives each (rows, n) matrix bitwise what du gives it alone, written
        # into out; a row that leaves is 0 there too, in arrays made before
        # and after it left
        blocks, product = built_product(monkeypatch, MIXED)
        rng = np.random.default_rng(31)
        m = len(MIXED)
        for live, leads in ((np.ones(m, dtype=bool), [(1,), (4,)]),
                            (rng.permutation(m) % 3 != 0, [(1,), (4,), (2, 3)])):
            product.keep(live)
            for lead in leads:
                y = np.stack([random_states(rng, blocks) for _ in range(math.prod(lead))])
                want = np.stack([product.du(matrix) for matrix in y]).reshape(*lead, m, 5)
                out = np.empty_like(want)
                assert np.array_equal(product.du(y.reshape(want.shape), out), want)
                assert np.array_equal(out, want) and np.all(want[..., ~live, :] == 0.0)

    def test_retired_rows_are_zero_and_the_live_rows_unchanged(self, monkeypatch):
        # each retirement only masks rows: the retired rows' derivatives are
        # 0, though their entries were filled before, and the live rows'
        # do not move
        blocks, product = built_product(monkeypatch, MIXED)
        rng = np.random.default_rng(19)
        m = len(MIXED)
        for _ in range(5):
            y = random_states(rng, blocks)
            live = np.ones(m, dtype=bool)
            full = product.keep(live.copy()).du(y)
            for k in rng.permutation(m)[:-1]:
                live[k] = False
                dy = product.keep(live.copy()).du(y)
                assert np.all(dy[~live] == 0.0)
                assert np.array_equal(dy[live], full[live])

    def test_exp_takes_exactly_the_live_rows_own_terms(self, monkeypatch):
        # the term exponentials of each row are its own table's, each once
        # (a reflected row scales copies of them), and only while it is live
        blocks, product = built_product(monkeypatch, MIXED)
        own = np.concatenate([[len(block.terms.exps)] * len(block.rows) for block, _ in blocks])
        assert sorted(set(own)) == [0, 2, 3, 4, 5]
        rng = np.random.default_rng(23)
        calls = []
        real_exp = np.exp

        def spy(z, *args, **kwargs):
            calls.append((np.array(z), kwargs.get("where")))
            return real_exp(z, *args, **kwargs)

        m = len(MIXED)
        for live in (np.ones(m, dtype=bool), rng.permutation(m) % 3 != 0):
            y = random_states(rng, blocks, underflow=False)
            rhs = product.keep(live)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np, "exp", spy)
                rhs.du(y)
            [(z, where)] = [(z, where) for z, where in calls if where is not None]
            assert np.array_equal(where.sum(axis=1), np.where(live, own, 0))
            at = 0
            for block, coords in blocks:
                # the exponents of each live row's own terms, in any order,
                # from [y, r] with r of each pair at 5 + j
                r_at = [5 + j for j in coords.j]
                z_of_x = np.concatenate([coords.u_of_y, np.zeros((5, 5))])
                z_of_x[r_at] = coords.u_of_r
                z_of_x = z_of_x @ block.terms.exps.T
                for k in np.flatnonzero(live[at:at + len(block.rows)]):
                    x = np.concatenate([y[at + k], np.zeros(5)])
                    x[r_at] = coords.sign[k] * real_exp(y[at + k] @ coords.w_of_y)
                    assert np.array_equal(np.sort(z[at + k][where[at + k]]), np.sort(x @ z_of_x))
                at += len(block.rows)
        # no -inf reaches exp anywhere in a solve of the batch
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "exp", spy)
            integrate_many(MIXED)
        assert calls and not any(np.isneginf(z).any() for z, _ in calls)


# finite floats at the ends of the range, and ones that need all 17 digits
_EDGE_TIMES = (-1.7976931348623157e308, 0.0, 5e-324, 0.30000000000000004, 1.7976931348623157e308)
_EDGE_COEFFS = (5e-324, 2.2250738585072014e-308, 0.30000000000000004, 1.0000000000000002,
                1.7976931348623157e308, 9007199254740992.0, 1.2345678901234568e-89)


@st.composite
def _trajectories(draw):
    """Trajectories of 1 to 12 samples at any finite times, whose
    coefficients are any finite positive floats, subnormals included."""
    times = sorted(draw(st.lists(st.one_of(st.sampled_from(_EDGE_TIMES),
                                           st.floats(allow_nan=False, allow_infinity=False)),
                                 min_size=1, max_size=12, unique=True)))
    coeffs = draw(st.lists(st.one_of(st.sampled_from(_EDGE_COEFFS),
                                     st.floats(min_value=5e-324, allow_infinity=False)),
                           min_size=5 * len(times), max_size=5 * len(times)))
    return Trajectory(times=np.array(times), coeffs=np.reshape(coeffs, (len(times), 5)),
                      termination="reached_t_end")


class TestSerialization:
    def test_csv_round_trip_bitwise(self, d5_unit_10, tmp_path):
        path = tmp_path / "run.csv"
        d5_unit_10.write_csv(path)
        back = Trajectory.read_csv(path)
        assert np.array_equal(back.times, d5_unit_10.times)
        assert np.array_equal(back.coeffs, d5_unit_10.coeffs)

    def test_csv_header(self, d5_unit_10, tmp_path):
        path = tmp_path / "run.csv"
        d5_unit_10.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,A,B,C,D,E"

    def test_json_round_trip(self, d5_unit_10, tmp_path):
        path = tmp_path / "run.json"
        d5_unit_10.write_json(path)
        back = Trajectory.read_json(path)
        assert back.model is ModelId.D5
        assert back.termination == d5_unit_10.termination
        assert back.params == d5_unit_10.params
        assert np.array_equal(back.times, d5_unit_10.times)
        assert np.array_equal(back.coeffs, d5_unit_10.coeffs)
        assert back.meta["rel_tol"] == 1e-12

    def test_old_csv_with_diagnostic_columns_loads(self, d5_unit_10, tmp_path):
        path = tmp_path / "old.csv"
        rows = ["t,A,B,C,D,E,max_drift,max_offdiag"]
        for t, g in zip(d5_unit_10.times, d5_unit_10.coeffs):
            rows.append(",".join(repr(float(x)) for x in (t, *g, 1e-15, 0.0)))
        path.write_text("\n".join(rows) + "\n")
        back = Trajectory.read_csv(path)
        assert np.array_equal(back.times, d5_unit_10.times)
        assert np.array_equal(back.coeffs, d5_unit_10.coeffs)

    def test_old_json_with_diagnostic_keys_loads(self, d5_unit_10, tmp_path):
        doc = d5_unit_10.to_json_dict()
        n = len(d5_unit_10)
        doc["samples"]["max_drift"] = [1e-15] * n
        doc["samples"]["max_offdiag"] = [0.0] * n
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        back = Trajectory.read_json(path)
        assert np.array_equal(back.times, d5_unit_10.times)
        assert np.array_equal(back.coeffs, d5_unit_10.coeffs)

    def test_json_samples_carry_only_the_solution(self, d5_unit_10, tmp_path):
        d5_unit_10.write_json(tmp_path / "run.json")
        samples = json.loads((tmp_path / "run.json").read_text())["samples"]
        assert set(samples) == {"t", "A", "B", "C", "D", "E"}

    def test_csv_short_row_named(self, d5_unit_10, tmp_path):
        path = tmp_path / "short.csv"
        d5_unit_10.write_csv(path)
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:3])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 4 has 3 fields, "
                                             "fewer than the 6 of t,A,B,C,D,E$"):
            Trajectory.read_csv(path)

    def test_csv_field_not_a_number_named(self, d5_unit_10, tmp_path):
        path = tmp_path / "text.csv"
        d5_unit_10.write_csv(path)
        lines = path.read_text().splitlines()
        lines[3] = "1,1,x,1,1,1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 4 has a field that "
                                             r"is not a number \(.*'x'\)$"):
            Trajectory.read_csv(path)

    @pytest.mark.parametrize("key, named", [("C", r"'C' has shape \(10,\), 't' has \(11,\)"),
                                            ("t", r"'A' has shape \(11,\), 't' has \(10,\)")],
                             ids=["C", "t"])
    def test_json_unequal_sample_lists_named(self, d5_unit_10, tmp_path, key, named):
        doc = d5_unit_10.to_json_dict()
        for name in doc["samples"]:
            doc["samples"][name] = doc["samples"][name][:11 - (name == key)]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'samples' {named}$"):
            Trajectory.read_json(path)

    @pytest.mark.parametrize("value", ["x", {"a": 1}], ids=["text", "object"])
    def test_json_sample_not_a_number_named(self, d5_unit_10, tmp_path, value):
        doc = d5_unit_10.to_json_dict()
        doc["samples"]["D"][5] = value
        path = tmp_path / "text.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'samples' 'D' is not "
                                             r"a list of numbers \(.+\)$"):
            Trajectory.read_json(path)

    def test_json_is_the_c_encoders_one_line(self, d5_unit_10, tmp_path):
        path = tmp_path / "run.json"
        d5_unit_10.write_json(path)
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == json.loads(json.dumps(d5_unit_10.to_json_dict()))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(traj=_trajectories())
    @example(traj=Trajectory(times=np.array(_EDGE_TIMES), coeffs=np.resize(_EDGE_COEFFS, (5, 5)),
                             termination="reached_t_end"))
    def test_json_round_trip_bitwise(self, traj, tmp_path_factory):
        path = tmp_path_factory.mktemp("json") / "run.json"
        traj.write_json(path)
        back = Trajectory.read_json(path)
        assert back.times.tobytes() == traj.times.tobytes()
        assert back.coeffs.tobytes() == traj.coeffs.tobytes()

    def test_json_numpy_scalars_read_back_as_floats(self, tmp_path):
        params = {k: np.float64(v) for k, v in catalog.constrained_params(ModelId.D11).items()}
        traj = run(ModelId.D11, (1, 2, 2, 1, 1), np.float64(10.0), params=params)
        assert type(traj.meta["t_end"]) is np.float64
        path = tmp_path / "run.json"
        traj.write_json(path)
        back = Trajectory.read_json(path)
        assert back.params == params and back.meta["t_end"] == 10.0
        assert all(type(v) is float for v in (*back.params.values(), back.meta["t_end"]))
        assert np.array_equal(back.coeffs, traj.coeffs)

    def test_json_writes_a_nonfinite_meta_value_as_null(self, d5_unit_10, tmp_path):
        traj = dataclasses.replace(d5_unit_10, meta={**d5_unit_10.meta, "max_drift": math.nan,
                                                     "wall_s": math.inf})
        path = tmp_path / "run.json"
        traj.write_json(path)
        meta = json.loads(path.read_text())["meta"]
        assert meta["max_drift"] is None and meta["wall_s"] is None
        assert Trajectory.read_json(path).meta == meta

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_nonfinite_token_refused(self, d5_unit_10, tmp_path, value):
        doc = d5_unit_10.to_json_dict()
        doc["meta"]["max_drift"] = value
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))  # stdlib writes NaN, Infinity or -Infinity
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            Trajectory.read_json(path)

    def test_csv_rejects_other_headers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unexpected CSV header "
                                             r"\('a', 'b'\)$"):
            Trajectory.read_csv(path)


class TestTrajectoryValidation:
    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0, 0.5]), coeffs=np.ones((3, 5)),
                       termination="reached_t_end")

    @pytest.mark.parametrize("where", ["times", "coeffs"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_samples_rejected(self, where, bad):
        t = np.array([0.0, 1.0, 2.0])
        g = np.ones((3, 5))
        if where == "times":
            t[2] = bad
        else:
            g[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            Trajectory(times=t, coeffs=g, termination="reached_t_end")

    def test_nonpositive_metric_rejected(self):
        g = np.ones((3, 5))
        g[2, 1] = 0.0
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0, 2.0]), coeffs=g,
                       termination="reached_t_end")
