"""Acceptance gate: every numbered verification criterion must pass.

Each test prints one PASS/FAIL line (run pytest with -s or look at the
captured output of failures).  Criterion 11 exercises the command-line
round trip, including a full ``check`` in a fresh interpreter.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from solvflow import catalog, verify
from solvflow.asymptotics import ClosedFormSolution, fit_power_law
from solvflow.catalog import InitialData, ModelId
from solvflow.flow import FlowProblem, Trajectory, integrate, integrate_many
from solvflow.invariants import drift_report
from solvflow.verify import _RUNS, CRITERION_TITLES, VerifySession

RUNTIME_BUDGETS = {1: 1.0, 4: 30.0, 5: 120.0}


C4_KEYS = {f"c4_{model.value}_{k}" for model in ModelId for k in range(20)}


@pytest.fixture(scope="module")
def session():
    return VerifySession(seed=0)


@pytest.fixture(scope="module")
def report(session):
    return session.run_all()


def _emit(result):
    status = "PASS" if result.passed else "FAIL"
    line = (f"criterion {result.number:2d} [{status}] {result.title} "
            f"({result.elapsed_s * 1e3:.1f} ms)")
    print(line)
    return line


@pytest.mark.parametrize("number", sorted(CRITERION_TITLES))
def test_criterion(report, number):
    result = next(c for c in report.criteria if c.number == number)
    _emit(result)
    failures = [i for i in result.items if not i.passed]
    detail = "; ".join(
        f"{i.name}: computed {i.computed}, expected {i.expected}" for i in failures
    )
    assert result.passed, detail
    budget = RUNTIME_BUDGETS.get(number)
    if budget is not None:
        assert result.elapsed_s < budget, f"criterion {number} took {result.elapsed_s:.1f}s"


def test_total_runtime_under_five_minutes(report):
    assert report.elapsed_s < 300.0


def test_report_records_superseded_claims(report):
    subjects = {d.subject for d in report.discrepancies}
    assert "D11 Ric(Y5,Y5) termwise formula" in subjects
    assert "D11 dE/dt" in subjects
    assert "D11 long-time exponents" in subjects
    assert "D11 quantity A^2 E^2 (B^2-C^2)" in subjects
    assert "D11 quantity (B+C)*D^2/((B-C)*E^2)".replace("*", "") in {
        s.replace("*", "") for s in subjects
    }


def test_d11_measured_exponents_refute_tabulated_row(report):
    # the measured exponents must sit on the corrected row and be far from
    # the superseded one: this guards against silently re-introducing it
    result = next(c for c in report.criteria if c.number == 5)
    fits = {i.name: float(i.computed) for i in result.items
            if i.name.startswith("D11 case1 exponent")}
    assert abs(fits["D11 case1 exponent E"] - 0.25) <= 0.01
    assert abs(fits["D11 case1 exponent E"] - 1.0) > 0.5
    assert abs(fits["D11 case1 exponent D"] - 0.25) <= 0.01
    assert abs(fits["D11 case1 exponent B"] - 0.25) <= 0.01


def test_d11_order_gated_over_the_long_run(report):
    # the exact flow keeps B > C; before B and C were reflected, 89 of the
    # 289 samples of this run had B < C
    result = next(c for c in report.criteria if c.number == 9)
    [item] = [i for i in result.items if i.name == "D11 l2>l3: no sample has B < C (t<=1e4)"]
    assert item.passed and item.computed == 0


def test_d1_case1_item_is_the_closed_form_deviation(session, report):
    # the pair relations have their own item; this one holds the run to the
    # quartic-root law itself
    traj = session.run("d1_case1_1e6")
    cf = ClosedFormSolution(ModelId.D1, "case1", InitialData(_RUNS["d1_case1_1e6"][1]))
    dev = float(np.max(np.abs(traj.coeffs / cf.eval_array(traj.times) - 1.0)))
    result = next(c for c in report.criteria if c.number == 6)
    [item] = [i for i in result.items if i.name == "D1 case1 run vs quartic-root closed form"]
    assert item.computed == dev
    assert item.passed and item.tolerance == 1e-8


def test_report_gives_each_run_and_its_one_solve(report):
    # the canonical runs, criterion 10's abelian run among them, and
    # criterion 4's draws share one stacked solve, which the report gives once
    assert set(report.runs) == set(_RUNS) | C4_KEYS
    for key, run in report.runs.items():
        assert set(run) == {"solver", "termination", "max_drift", "solve", "steps_set",
                            "retired_at_step"}, key
        assert run["termination"] == "reached_t_end", key
        assert run["solve"] == 0, key
        assert math.isfinite(run["max_drift"]), key
    assert report.runs["c4_D11_0"]["solver"] == ("DOP853 on log g in log(1+t), "
                                                 "(B,C) -> (s, log|r|)")
    [solve] = report.solves
    assert set(solve) == {"batch_size", "nfev", "steps", "rejected_steps", "min_step_log_t",
                          "wall_s"}
    assert solve["batch_size"] == len(_RUNS) + 100 == 112
    assert solve["nfev"] > 0 and solve["steps"] > 0 and solve["wall_s"] > 0.0
    assert all(math.isfinite(v) for v in solve.values())
    doc = json.loads(json.dumps(report.as_dict(), allow_nan=False))
    assert doc["solves"] == report.solves and len(doc["runs"]) == 112


def test_each_runs_max_drift_is_its_own(session, report):
    # the solve takes drifts once per block and grid; each run's must be the
    # drift of its own samples, bitwise
    assert len(session._cache) == 112
    for key, traj in session._cache.items():
        monos = () if traj.model is None else catalog.model_invariants(traj.model).monomials
        own = max((drift_report(traj, mono) for mono in monos), default=0.0)
        assert traj.meta["max_drift"] == own == report.runs[key]["max_drift"], key


def test_a_run_solved_before_run_all_is_its_own_solve():
    session = VerifySession(seed=0)
    lazy = session.run("d11_case2_1e4")
    report = session.run_all()
    assert len(report.solves) == 2
    own = report.solves[report.runs["d11_case2_1e4"]["solve"]]
    assert own["batch_size"] == 1 and own["nfev"] == lazy.meta["nfev"]
    rest = {run["solve"] for key, run in report.runs.items() if key != "d11_case2_1e4"}
    assert [report.solves[k]["batch_size"] for k in rest] == [len(_RUNS) + 100 - 1]
    assert report.passed


def test_run_all_makes_one_stacked_solve(monkeypatch):
    # run_all solves every run the criteria read up front, in one stacked
    # solve, so no criterion falls back to a solve of its own
    def no_lazy_solve(problem):
        raise AssertionError(f"lazy solve of {problem}")

    solves = []

    def counted(problems):
        solves.append(len(problems))
        return integrate_many(problems)

    monkeypatch.setattr(verify, "integrate", no_lazy_solve)
    monkeypatch.setattr(verify, "integrate_many", counted)
    session = VerifySession(seed=0)
    report = session.run_all()
    assert report.passed
    assert solves == [len(_RUNS) + 100]
    assert set(session._cache) == set(report.runs) == set(_RUNS) | C4_KEYS


@pytest.mark.parametrize("number", sorted(CRITERION_TITLES))
def test_criterion_solves_exactly_its_declared_runs(monkeypatch, session, report, number):
    # every run a criterion reads is in run_all's one stacked solve: after
    # it, the criterion makes no solve of its own and gives the same items
    def no_solve(problems):
        raise AssertionError(f"solve of {problems}")

    monkeypatch.setattr(verify, "integrate", no_solve)
    monkeypatch.setattr(verify, "integrate_many", no_solve)
    items = getattr(session, f"criterion_{number}")()
    [result] = [c for c in report.criteria if c.number == number]
    assert [repr(i) for i in items] == [repr(i) for i in result.items]
    assert result.passed


def test_runs_of_unselected_models_are_not_solved():
    session = VerifySession(seed=0, models=[ModelId.D1, ModelId.D5])
    session.run_all()
    assert set(session._cache) == {"d5_unit_10", "d1_case1_1e6", "d1_case2_1e6", "abelian_10",
                                   *(f"c4_{m}_{k}" for m in ("D1", "D5") for k in range(20))}


class TestCriterion11:
    def test_csv_fit_round_trip_bit_identical(self, tmp_path):
        problem = FlowProblem(ModelId.D3, InitialData((1, 1, 1, 1, 1)), 1e5)
        traj = integrate(problem)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        again = Trajectory.read_csv(path)
        for comp in "ABCDE":
            a = fit_power_law(traj, comp, (1e3, 1e5))
            b = fit_power_law(again, comp, (1e3, 1e5))
            assert a.exponent == b.exponent
            assert a.log_prefactor == b.log_prefactor
            assert a.r_squared == b.r_squared
        print("criterion 11 [PASS] flow->CSV->fit round trip bit-identical")

    def test_check_command_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "solvflow.cli", "check", "--seed", "0",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert elapsed < 300.0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert len(doc["criteria"]) == 10
        assert doc["discrepancies"]
        print(f"criterion 11 [PASS] check exits 0 in {elapsed:.1f}s")
