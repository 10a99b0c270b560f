import warnings

import numpy as np
import pytest

from solvflow import catalog, flow
from solvflow.catalog import InitialData, ModelId
from solvflow.curvature import DiagonalityViolation
from solvflow.invariants import drift_report
from solvflow.flow import (
    FlowProblem,
    Trajectory,
    integrate,
    integrate_brackets,
    resample_log,
)
from solvflow.liecore import StructureConstants


def run(model, lam, t_end, **kw):
    kw.setdefault("rel_tol", 1e-12)
    kw.setdefault("abs_tol", 1e-14)
    return integrate(FlowProblem(model, InitialData(lam), t_end, **kw))


@pytest.fixture(scope="module")
def d5_unit_10():
    return run(ModelId.D5, (1, 1, 1, 1, 1), 10.0)


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
        su2 = StructureConstants.from_brackets(
            5, {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_brackets(su2, (1, 1, 1, 1, 1), 10.0)
        assert traj.termination == "step_failure"
        assert traj.meta["solver_message"]
        assert traj.times[-1] < 10.0
        assert np.all(np.isfinite(traj.coeffs)) and np.all(traj.coeffs > 0.0)
        assert 0.9 <= traj.times[-1] <= 1.0

    def test_unconstrained_parameters_raise(self, monkeypatch):
        def no_solver(*args, **kwargs):
            raise AssertionError("solver called")

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
            assert np.all(traj.max_offdiag == 0.0), model
            assert set(traj.meta) == {"t_end", "rel_tol", "abs_tol", "solver", "nfev"}

    def test_non_lie_brackets_rejected(self):
        bad = StructureConstants.from_brackets(
            5, {(0, 1, 1): 1.0, (0, 2, 2): 1.0, (1, 2, 0): 1.0}
        )
        with pytest.raises(ValueError, match="Jacobi"):
            integrate_brackets(bad, (1, 1, 1, 1, 1), 1.0)

    def test_invalid_problem(self):
        with pytest.raises(ValueError):
            FlowProblem(ModelId.D1, InitialData((1, 1, 1, 1, 1)), -1.0)
        with pytest.raises(ValueError):
            FlowProblem(ModelId.D1, InitialData((1, 1, 1, 1, 1)), 1.0, rel_tol=2.0)

    def test_diagnostics_columns(self, d5_unit_10):
        assert d5_unit_10.max_drift.shape == d5_unit_10.times.shape
        assert np.max(d5_unit_10.max_drift) < 1e-10   # AB, AC conserved
        assert np.max(d5_unit_10.max_offdiag) < 1e-14


class TestResample:
    def test_constant_stays_constant(self):
        lam = (2.0, 1.0, 1.0, 1.0, 3.0)
        traj = integrate_brackets(StructureConstants.zero(5), lam, 100.0)
        res = resample_log(traj, 16)
        assert np.max(np.abs(res.coeffs - np.array(lam))) < 1e-13

    def test_exact_power_law_recovered(self):
        t = np.linspace(1.0, 1000.0, 400)
        g = np.column_stack([t ** 0.25] * 5)
        traj = Trajectory(times=t, coeffs=g, max_drift=np.zeros_like(t),
                          max_offdiag=np.zeros_like(t), termination="reached_t_end")
        res = resample_log(traj, 32)
        want = res.times[:, None] ** 0.25
        assert np.max(np.abs(res.coeffs / want - 1.0)) < 1e-6
        assert res.times[0] == 1.0 and res.times[-1] == 1000.0

    def test_single_sample_rejected(self):
        traj = Trajectory(times=np.array([1.0]), coeffs=np.ones((1, 5)),
                          max_drift=np.zeros(1), max_offdiag=np.zeros(1),
                          termination="reached_t_end")
        with pytest.raises(ValueError):
            resample_log(traj, 8)

    def test_zero_per_decade_rejected(self, d5_unit_10):
        with pytest.raises(ValueError):
            resample_log(d5_unit_10, 0)


class TestSerialization:
    def test_csv_round_trip_bitwise(self, d5_unit_10, tmp_path):
        path = tmp_path / "run.csv"
        d5_unit_10.write_csv(path)
        back = Trajectory.read_csv(path)
        assert np.array_equal(back.times, d5_unit_10.times)
        assert np.array_equal(back.coeffs, d5_unit_10.coeffs)
        assert np.array_equal(back.max_drift, d5_unit_10.max_drift)
        assert np.array_equal(back.max_offdiag, d5_unit_10.max_offdiag)

    def test_csv_header(self, d5_unit_10, tmp_path):
        path = tmp_path / "run.csv"
        d5_unit_10.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,A,B,C,D,E,max_drift,max_offdiag"

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

    def test_csv_rejects_other_headers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            Trajectory.read_csv(path)


class TestTrajectoryValidation:
    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0, 0.5]), coeffs=np.ones((3, 5)),
                       max_drift=np.zeros(3), max_offdiag=np.zeros(3),
                       termination="reached_t_end")

    def test_nonpositive_metric_rejected(self):
        g = np.ones((3, 5))
        g[2, 1] = 0.0
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0, 2.0]), coeffs=g,
                       max_drift=np.zeros(3), max_offdiag=np.zeros(3),
                       termination="reached_t_end")
