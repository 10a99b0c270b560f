import dataclasses
import json
import logging
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp
from scipy.sparse import block_diag

from solvflow import catalog, flow
from solvflow.catalog import InitialData, ModelId
from solvflow.curvature import DiagonalityViolation, compile_flow
from solvflow.invariants import drift_report
from solvflow.flow import (
    FlowProblem,
    Trajectory,
    integrate,
    integrate_brackets,
    integrate_many,
)
from solvflow.liecore import StructureConstants
from solvflow.verify import _RUNS, VerifySession, _run_problem, _run_summary


def run(model, lam, t_end, **kw):
    kw.setdefault("rel_tol", 1e-12)
    kw.setdefault("abs_tol", 1e-14)
    return integrate(FlowProblem(model, InitialData(lam), t_end, **kw))


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
    tenth of the problem's tolerances.  Returns the solution and the step
    counts."""
    counts = {}
    sol = flow.solve_ivp(lambda tau, u: math.exp(tau) * terms.log_rhs(u),
                         (0.0, math.log1p(problem.t_end)), np.log(problem.initial.array),
                         method=flow.RowwiseDOP853, t_eval=np.log1p(times),
                         rtol=problem.rel_tol / 10, atol=problem.abs_tol / 10, rows=1,
                         counts=counts)
    return sol, counts


def t_solve(terms, problem, times, reflect=False):
    """log g of one run, shape (sample, coordinate), from a direct DOP853
    solve in t at the problem's own tolerances, with max_step
    0.1 (t_end + 1): the single run as it was solved before the solver moved
    to log(1 + t).  Plain coordinates, or, if ``reflect``, the pairs the run
    takes reflected."""
    u0 = np.log(problem.initial.array)[None]
    pairs = tuple(pair for pair in flow._reflected_pairs(terms)
                  if reflect and u0[0, pair[0]] != u0[0, pair[1]])
    coords = flow._Reflected(terms, pairs, u0) if pairs else None
    rhs, y0 = (terms.log_rhs, u0) if coords is None else (coords.rhs, coords.y0)
    sol = solve_ivp(lambda t, y: rhs(y[None])[0], (0.0, problem.t_end), y0[0],
                    method="DOP853", t_eval=times, rtol=problem.rel_tol,
                    atol=problem.abs_tol, max_step=0.1 * (problem.t_end + 1.0))
    assert sol.status == 0
    return sol.y.T if coords is None else coords.log_g(sol.y.T, coords.sign)


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
        traj = integrate_brackets(StructureConstants.zero(5), lam, 1.0)
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
        traj = integrate_brackets(StructureConstants.zero(5), lam, 50.0)
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
            traj = integrate_brackets(SU2, (1, 1, 1, 1, 1), 10.0)
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
            traj = integrate_brackets(SU2, (scale, scale, scale, 1, 1), 1.0)
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
                                      "max_drift"}
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
            integrate_brackets(bad, (1, 1, 1, 1, 1), 1.0)

    def test_invalid_problem(self):
        with pytest.raises(ValueError):
            FlowProblem(ModelId.D1, InitialData((1, 1, 1, 1, 1)), -1.0)
        for t_end in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                FlowProblem(ModelId.D1, InitialData((1, 1, 1, 1, 1)), t_end)
        with pytest.raises(ValueError):
            FlowProblem(ModelId.D1, InitialData((1, 1, 1, 1, 1)), 1.0, rel_tol=2.0)

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
        abelian = integrate_brackets(StructureConstants.zero(5), (1, 2, 3, 4, 5), 10.0)
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
        # the canonical runs, stacked per horizon as the check solves them
        session = VerifySession(seed=0)
        session._solve_runs(_RUNS)
        for key, traj in session._cache.items():
            problem = _run_problem(key)
            terms = terms_of(problem.model)
            if traj.meta["solver"].endswith("(s, log|r|)"):
                [ref] = radau_reference(terms, [problem], traj.times)
            else:
                ref = tight_reference(terms, problem, traj.times)
            in_t = t_solve(terms, problem, traj.times, reflect=True)
            assert deviation(traj, ref) <= float(np.max(np.abs(in_t - ref))), key

    def test_rowwise_norm_is_the_largest_row_norm(self):
        # each row's norm is scipy's own DOP853 norm of that row alone, so a
        # scipy upgrade that changes the private hook fails here
        rng = np.random.default_rng(7)
        for rows in (1, 3):
            solver = flow.RowwiseDOP853(lambda t, y: -y, 0.0, np.ones(5 * rows), 1.0,
                                        rows=rows, counts={})
            for draw in range(20):
                K = rng.normal(size=(DOP853.n_stages + 1, 5 * rows))
                K[:, :5] *= draw % 2  # a row without error: no division warns
                scale = rng.uniform(1e-12, 1e-10, 5 * rows)
                h = rng.uniform(1e-3, 1.0)
                want = max(DOP853._estimate_error_norm(solver, K[:, k:k + 5], h, scale[k:k + 5])
                           for k in range(0, 5 * rows, 5))
                assert solver._estimate_error_norm(K, h, scale) == pytest.approx(want, rel=1e-14)
            K[0, -1] = np.nan  # rejects the step, as scipy's norm does
            assert math.isnan(solver._estimate_error_norm(K, h, scale))

    def test_step_counts_account_for_every_evaluation(self, criterion_4_batches):
        # DOP853 evaluates 12 stages per attempted step, 3 more per dense
        # output and 2 to start; the smallest step is at most the span
        _, batch = criterion_4_batches[ModelId.D1]
        for traj in (batch[0], run(ModelId.D11, (1, 2, 1, 1, 1), 1e4)):
            meta = traj.meta
            extra = meta["nfev"] - 2 - 12 * (meta["steps"] + meta["rejected_steps"])
            assert extra % 3 == 0 and 0 <= extra <= 3 * meta["steps"]
            assert 0.0 < meta["min_step_log_t"] <= math.log1p(meta["t_end"])

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
        stacked = flow._union_rhs(blocks)(u)
        for k, block in enumerate(blocks):
            assert np.array_equal(stacked[k], block.terms.log_rhs(u[k:k + 1])[0])

    @pytest.mark.parametrize("change", [
        {"model": ModelId.D2},
        {"params": {"eps": -1.0}},
        {"t_end": 20.0},
        {"rel_tol": 1e-10},
        {"abs_tol": 1e-12},
        {"samples_per_decade": 32},
        {"linear_samples": 17},
    ])
    def test_problems_differing_beyond_initial_data_raise(self, monkeypatch, change):
        # rows may differ in model and parameters, except under explicit
        # brackets: those are one table, which cannot serve two models
        monkeypatch.setattr(flow, "solve_ivp", no_solver)
        sc = catalog.build_model(ModelId.D5, catalog.constrained_params(ModelId.D5))
        first = FlowProblem(ModelId.D5, InitialData((1, 1, 1, 1, 1)), 10.0)
        other = dataclasses.replace(first, initial=InitialData((1, 2, 1, 1, 1)), **change)
        match = ("explicit brackets" if change.keys() & {"model", "params"}
                 else "model, parameters and initial data")
        with pytest.raises(ValueError, match=match):
            integrate_many([first, other], sc=sc)

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            integrate_many([])

    def test_collapsing_rows_end_as_their_own_runs(self):
        lams = [(1, 1, 1, 1, 1), (2, 2, 2, 1, 1), (1, 1.5, 2, 1, 1), (3, 3, 3, 2, 1)]
        problems = [FlowProblem(None, InitialData(lam), 10.0) for lam in lams]
        batch = integrate_many(problems, sc=SU2)
        finals = []
        for problem, traj in zip(problems, batch):
            own = integrate(problem, sc=SU2)
            assert traj.termination == own.termination == "step_failure"
            assert traj.times[-1] == own.times[-1]
            finals.append(traj.times[-1])
        assert len(set(finals)) == len(finals)  # each row collapses at its own time


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
        sc = HEISENBERG if model is None else None
        problem = FlowProblem(model, InitialData(lam), 1e3)
        traj = integrate(problem, sc=sc)
        sol, counts = tau_solve(compile_flow(sc) if model is None else terms_of(model),
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
        assert flow._reflected_pairs(terms) == moving

    def test_overlapping_swaps_keep_plain_coordinates(self):
        # su(2) + R^2: A, B and C are all interchangeable
        terms = compile_flow(SU2)
        assert flow._invariant_swaps(terms) == ([(3, 4)], [(0, 1), (0, 2), (1, 2)])
        assert flow._reflected_pairs(terms) == []

    def test_abelian_swaps_all_conserve(self):
        terms = compile_flow(StructureConstants.zero(5))
        conserving, moving = flow._invariant_swaps(terms)
        assert len(conserving) == 10 and moving == []
        assert flow._reflected_pairs(terms) == []

    @pytest.mark.parametrize("eps", [1.0, -1.0])
    def test_d11_equations(self, eps):
        # s' = A/(BC), w' = -(4/E) sinh(r)/r, (log E)' = (4 sinh^2(r/2) + A/D)/E
        terms = terms_of(ModelId.D11, eps=eps, kappa=eps)
        u0 = np.log([[1.3, 2.0, 0.5, 0.8, 1.7], [0.6, 0.9, 1.4, 1.1, 0.7]])
        coords = flow._Reflected(terms, ((1, 2),), u0)
        A, B, C, D, E = np.exp(u0).T
        r = u0[:, 1] - u0[:, 2]
        want = np.column_stack([np.log(A), (u0[:, 1] + u0[:, 2]) / 2, np.log(np.abs(r)),
                                np.log(D), np.log(E)])
        assert np.allclose(coords.y0, want, rtol=1e-15, atol=0.0)
        assert np.allclose(coords.log_g(coords.y0, coords.sign), u0, rtol=0.0, atol=1e-15)
        dy = coords.rhs(coords.y0)
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
        coords = flow._Reflected(terms, ((1, 2),), u0)
        y = coords.y0.copy()
        y[0, 2] = -3.3e3
        dy = coords.rhs(y)
        assert np.all(np.isfinite(dy))
        assert dy[0, 2] == pytest.approx(-4.0 / 3.0, rel=1e-15)  # the limit -4/E

    @pytest.mark.parametrize("eps", [1.0, -1.0])
    def test_rhs_is_bitwise_the_plain_formula(self, eps):
        # the right-hand side as first written, with one product for y and
        # one for r
        terms = terms_of(ModelId.D11, eps=eps, kappa=eps)
        rng = np.random.default_rng(5)
        coords = flow._Reflected(terms, ((1, 2),), np.log(rng.uniform(0.5, 2.0, (20, 5))))
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
            assert np.array_equal(coords.rhs(y), ez @ coords.dy_of_ez)

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

    def test_run_summary_sums_the_distinct_solves(self, mixed_d11):
        # the report's per-run table counts each stacked solve once, although
        # its rows name different coordinates
        _, batch, _ = mixed_d11
        other = run(ModelId.D5, (1, 1, 1, 1, 1), 10.0)
        summary = _run_summary([*batch, other])
        assert summary["solver"] == ("DOP853 on log g in log(1+t), (B,C) -> (s, log|r|); "
                                     "DOP853 on log g in log(1+t)")
        assert summary["termination"] == "reached_t_end"
        assert summary["batch_size"] == 3 + 1
        for key in ("nfev", "steps", "rejected_steps"):
            assert summary[key] == batch[0].meta[key] + other.meta[key]
        assert summary["min_step_log_t"] == min(batch[0].meta["min_step_log_t"],
                                                other.meta["min_step_log_t"])
        assert summary["wall_s"] == batch[0].meta["wall_s"] + other.meta["wall_s"]
        assert summary["max_drift"] == max(t.meta["max_drift"] for t in [*batch, other])

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

    def test_csv_rejects_other_headers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
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
