import math

import numpy as np
import pytest

from solvflow.asymptotics import (
    ClosedFormSolution,
    PreconditionViolation,
    d1_pair_constants,
    d2_bernoulli_constants,
    fit_power_law,
    residual_check,
)
from solvflow.catalog import InitialData, ModelId
from solvflow.flow import FlowProblem, Trajectory, integrate


def run(model, lam, t_end, **kw):
    kw.setdefault("rel_tol", 1e-12)
    kw.setdefault("abs_tol", 1e-14)
    return integrate(FlowProblem(model, InitialData(lam), t_end, **kw))


def synthetic_power_law(exponent, lo=1.0, hi=1e4, n=200):
    t = np.geomspace(lo, hi, n)
    g = np.column_stack([t**exponent] * 5)
    return Trajectory(times=t, coeffs=g, termination="reached_t_end")


class TestClosedForms:
    def test_d5_initial_value(self):
        cf = ClosedFormSolution(ModelId.D5, "exact", InitialData((1, 1, 1, 1, 1)))
        assert tuple(cf.eval_array(0.0)) == pytest.approx((1, 1, 1, 1, 1))

    def test_d5_at_t1(self):
        cf = ClosedFormSolution(ModelId.D5, "exact", InitialData((1, 1, 1, 1, 1)))
        got = tuple(cf.eval_array(1.0))
        s = 4.0 ** (1.0 / 3.0)
        assert got == pytest.approx((1 / s, s, s, 1.0, 5.0))

    def test_d1_case1_unit_data(self):
        cf = ClosedFormSolution(ModelId.D1, "case1", InitialData((1, 1, 1, 1, 1)))
        for t in (0.0, 0.5, 2.0, 100.0):
            got = tuple(cf.eval_array(t))
            want = ((4 * t + 1) ** -0.5,) + ((4 * t + 1) ** 0.25,) * 4
            assert got == pytest.approx(want, rel=1e-13)

    def test_d3_self_similar_formula(self):
        lam = (2 / 3, 1, 1, 1, 1)
        cf = ClosedFormSolution(ModelId.D3, "self_similar", InitialData(lam))
        t = 7.0
        got = tuple(cf.eval_array(t))
        base = 1 + (11 / 3) * t  # c = (2/11) l2 l5 / l1 = 3/11
        want = tuple(l * base**p for l, p in zip(lam, (-4 / 11, -1 / 11, 2 / 11, 5 / 11, 8 / 11)))
        assert got == pytest.approx(want, rel=1e-13)

    def test_case_preconditions_enforced(self):
        with pytest.raises(PreconditionViolation):
            ClosedFormSolution(ModelId.D1, "case1", InitialData((1, 1, 1, 2, 1)))
        with pytest.raises(PreconditionViolation):
            ClosedFormSolution(ModelId.D3, "self_similar", InitialData((1, 1, 1, 1, 1)))
        with pytest.raises(PreconditionViolation):
            ClosedFormSolution(ModelId.D2, "case1", InitialData((1, 1, 2, 1, 1)))

    def test_d2_has_no_time_law(self):
        cf = ClosedFormSolution(ModelId.D2, "case1", InitialData((1, 2, 4, 1, 1)))
        with pytest.raises(ValueError, match="residual_check"):
            cf.eval_array(1.0)

    def test_integrator_matches_closed_forms(self):
        # D5 (any data), D1 case 1, D3 self-similar over [0, 1e3]
        cases = [
            (ModelId.D5, "exact", (1.3, 0.7, 2.0, 1.1, 0.9)),
            (ModelId.D1, "case1", (1.0, 1.2, 0.8, 1.5, 1.2 * 1.5 / 0.8)),
            (ModelId.D3, "self_similar", (2 / 3, 1, 1, 1, 1)),
        ]
        for model, case, lam in cases:
            traj = run(model, lam, 1e3)
            cf = ClosedFormSolution(model, case, InitialData(lam))
            dev = np.max(np.abs(traj.coeffs / cf.eval_array(traj.times) - 1.0))
            assert dev < 1e-7, (model, dev)


class TestPowerLawFit:
    def test_exact_power_law(self):
        traj = synthetic_power_law(0.25)
        fit = fit_power_law(traj, "A", (1.0, 1e4))
        assert abs(fit.exponent - 0.25) < 1e-6
        assert fit.r_squared > 1 - 1e-12

    def test_component_by_letter_or_index(self):
        traj = synthetic_power_law(-0.5)
        assert fit_power_law(traj, "C", (1, 1e4)).exponent == pytest.approx(-0.5)
        assert fit_power_law(traj, 2, (1, 1e4)).exponent == pytest.approx(-0.5)

    def test_default_window_is_last_two_decades(self):
        traj = synthetic_power_law(1.0, lo=1.0, hi=1e4)
        fit = fit_power_law(traj, "A")
        assert fit.window == (100.0, 1e4)

    def test_window_validation(self):
        traj = synthetic_power_law(0.25)
        with pytest.raises(ValueError, match="t >= 1"):
            fit_power_law(traj, "A", (0.5, 10.0))
        with pytest.raises(ValueError, match="range"):
            fit_power_law(traj, "A", (1.0, 1e6))

    def test_too_few_samples(self):
        traj = synthetic_power_law(0.25, lo=1.0, hi=1e4, n=40)
        with pytest.raises(ValueError, match="at least 8"):
            fit_power_law(traj, "A", (9000.0, 1e4))

    def test_constant_component_r_squared(self):
        traj = synthetic_power_law(0.0)
        fit = fit_power_law(traj, "A", (1.0, 1e4))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0


class TestD1Relations:
    def test_pair_constants(self):
        lam = (1.0, 1.0, 1.0, 2.0, 1.0)
        c = d1_pair_constants(lam)
        assert c["omega"] == pytest.approx(0.5)
        assert c["k"] == pytest.approx(0.5)   # (l2/l4)(l2 l4 - l3 l5)
        assert c["eps"] == pytest.approx(2.0)
        assert c["ell"] == pytest.approx(2.0)

    def test_implicit_antiderivative_slope(self):
        # dF/dB must equal B^2 sqrt(B^2 - k): finite-difference oracle
        from solvflow.asymptotics import _d1_implicit_f_scaled
        k = -0.7
        for b in (0.9, 1.7, 3.1):
            h = 1e-6
            num = (_d1_implicit_f_scaled(np.array([b + h]), 1.0, -k)[0]
                   - _d1_implicit_f_scaled(np.array([b - h]), 1.0, -k)[0]) / (2 * h)
            assert num == pytest.approx(b * b * math.sqrt(b * b - k), rel=1e-8)
        om = 0.6
        for c in (1.1, 2.3):
            h = 1e-6
            num = (_d1_implicit_f_scaled(np.array([c + h]), om, k)[0]
                   - _d1_implicit_f_scaled(np.array([c - h]), om, k)[0]) / (2 * h)
            assert num == pytest.approx(c * c * math.sqrt(om * c * c + k), rel=1e-8)

    def test_case2_residuals_small(self):
        traj = run(ModelId.D1, (1, 1, 1, 2, 1), 1e3)
        assert residual_check(ModelId.D1, "case2", traj) < 1e-8

    def test_case1_residuals_small(self):
        traj = run(ModelId.D1, (1, 1, 1, 1, 1), 1e3)
        assert residual_check(ModelId.D1, "case1", traj) < 1e-8

    def test_constant_trajectory_satisfies_relations(self):
        # an already-stationary (abelian-like) trajectory with case-1 data
        # satisfies B^2 = w C^2 + k identically
        t = np.linspace(0, 5, 30)
        traj = Trajectory(times=t, coeffs=np.ones((30, 5)),
                          termination="reached_t_end", model=ModelId.D1)
        c = d1_pair_constants((1, 1, 1, 1, 1))
        B, C = traj.coeffs[:, 1], traj.coeffs[:, 2]
        assert np.max(np.abs(B**2 - c["omega"] * C**2 - c["k"])) == 0.0

    def test_case_mismatch_rejected(self):
        traj = run(ModelId.D1, (1, 1, 1, 2, 1), 10.0)
        with pytest.raises(ValueError, match="classifies"):
            residual_check(ModelId.D1, "case1", traj)
        with pytest.raises(ValueError):
            residual_check(ModelId.D2, "case1", traj)


class TestD2Bernoulli:
    def test_constants_fixed_by_initial_data(self):
        lam = (1, 2, 4, 1, 1)
        c = d2_bernoulli_constants(lam)
        # 1/l1 = (ell/2) l4^3 + K l4 must hold at t = 0
        assert 1.0 / lam[0] == pytest.approx(0.5 * c["ell"] * lam[3] ** 3 + c["K"] * lam[3])
        assert c["ell"] == pytest.approx(2.0)
        assert c["K"] == pytest.approx(0.0)

    def test_relation_holds_along_flow(self):
        traj = run(ModelId.D2, (1, 2, 4, 1, 1), 1e3)
        assert residual_check(ModelId.D2, "case1", traj) < 1e-8

    def test_unit_data_relation(self):
        traj = run(ModelId.D2, (1, 1, 1, 1, 1), 1e3)
        assert residual_check(ModelId.D2, "case1", traj) < 1e-8


class TestD3Substitution:
    def test_reduced_system_reproduced_by_differentiation(self):
        # x' = -3x^2 - xy - xw for x = A/(BE), via central differences on a
        # densely sampled run
        traj = run(ModelId.D3, (1, 1, 1, 1, 1), 100.0, samples_per_decade=256)
        m = traj.times >= 1.0  # geometric grid: uniform relative spacing
        t = traj.times[m]
        A, B, C, D, E = (traj.coeffs[m, i] for i in range(5))
        x = A / (B * E)
        y = A / (C * D)
        w = C / (D * E)
        dx = np.gradient(x, t)
        want = -3 * x**2 - x * y - x * w
        interior = slice(5, -5)
        rel = np.abs(dx[interior] - want[interior]) / np.abs(want[interior])
        assert np.max(rel) < 1e-3


class TestD11Residual:
    def test_product_conserved_both_cases(self):
        t1 = run(ModelId.D11, (1, 1, 1, 2, 1), 1e3)
        assert residual_check(ModelId.D11, "case1", t1) < 1e-8
        t2 = run(ModelId.D11, (1, 2, 1, 1, 1), 1e3)
        assert residual_check(ModelId.D11, "case2", t2) < 1e-8
