import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solvflow.catalog import InitialData, InvariantMonomial, ModelId, model_invariants
from solvflow.curvature import DiagonalMetric, compile_flow, ricci_tensor
from solvflow.flow import FlowProblem, Trajectory, integrate
from solvflow.invariants import (
    detect_monomials,
    detect_monomials_brackets,
    drift_report,
    hermite_basis,
    in_lattice,
    integer_kernel,
    ratio_diagnostics,
)
from solvflow.liecore import StructureConstants
from solvflow import catalog


def log_rates(sc, g):
    """(dg_p/dt)/g_p = -2 Ric(Yhat_p, Yhat_p) from the einsum Ricci tensor."""
    return -2.0 * ricci_tensor(sc, DiagonalMetric(tuple(g))).diagonal


def run(model, lam, t_end, **kw):
    kw.setdefault("rel_tol", 1e-12)
    kw.setdefault("abs_tol", 1e-14)
    return integrate(FlowProblem(model, InitialData(lam), t_end, **kw))


@pytest.fixture(scope="module")
def d11_case2_10():
    return run(ModelId.D11, (1, 2, 1, 1, 1), 10.0)


class TestLattice:
    def test_identity_basis(self):
        basis = hermite_basis([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                               [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        assert basis == [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                         (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]

    def test_dependent_rows_collapse(self):
        basis = hermite_basis([[1, 1, 1, 0, 0], [2, 2, 2, 0, 0], [-3, -3, -3, 0, 0]])
        assert basis == [(1, 1, 1, 0, 0)]

    def test_gcd_combination(self):
        basis = hermite_basis([[2, 0, 0, 0, 0], [3, 0, 0, 0, 0]])
        assert basis == [(1, 0, 0, 0, 0)]

    def test_membership(self):
        basis = hermite_basis([[1, 1, 1, 0, 0], [2, 1, 0, 2, 1]])
        assert in_lattice([1, 1, 1, 0, 0], basis)
        assert in_lattice([1, 0, -1, 2, 1], basis)  # difference of the two
        assert in_lattice([0, 0, 0, 0, 0], basis)
        assert not in_lattice([1, 0, 0, 0, 0], basis)

    def test_any_number_of_columns(self):
        basis = hermite_basis([[2, 4, 0, 1, 0, 0, 3], [1, 2, 1, 0, 0, 0, 0]])
        assert basis == [(1, 2, 1, 0, 0, 0, 0), (0, 0, 2, -1, 0, 0, -3)]
        assert hermite_basis([[0, 3, 6]]) == [(0, 3, 6)]

    def test_order_independent(self):
        rows = [[1, 2, 0, -1, 3], [0, 1, 1, 1, 0], [2, 5, 1, -1, 6]]
        a = hermite_basis(rows)
        b = hermite_basis(rows[::-1])
        assert a == b


class TestIntegerKernel:
    def test_no_rows_give_all_of_z5(self):
        # the abelian table has no monomials, so every monomial is conserved
        rates = compile_flow(StructureConstants.zero(5)).rates
        assert rates.shape == (0, 5)
        assert integer_kernel(rates) == [tuple(row) for row in np.eye(5, dtype=int)]

    def test_d3_balance(self):
        # D3's dominant balance (exps rates^T) y = -1 has the one solution
        # y = (3, 3, 2, 2)/11 in table order: C/(DE), B/(CE), A/(BE), A/(CD)
        terms = compile_flow(catalog.build_model(ModelId.D3,
                                                 catalog.constrained_params(ModelId.D3)))
        assert terms.exps.tolist() == [[0, 0, 1, -1, -1], [0, 1, -1, 0, -1],
                                       [1, -1, 0, 0, -1], [1, 0, -1, -1, 0]]
        balance = np.column_stack([terms.exps @ terms.rates.T, np.ones(4)])
        assert integer_kernel(balance) == [(3, 3, 2, 2, 11)]

    @pytest.mark.parametrize("model", list(ModelId))
    def test_rank_deficient_rates_give_the_detected_lattice(self, model):
        sc = catalog.build_model(model, catalog.constrained_params(model))
        rates = compile_flow(sc).rates
        kernel = integer_kernel(rates)
        assert 0 < len(kernel) == 5 - np.linalg.matrix_rank(rates)
        assert not np.any(rates @ np.array(kernel).T)
        assert kernel == [mono.e for mono in detect_monomials_brackets(sc)]


class TestDetection:
    def test_d3_contains_named(self):
        found = detect_monomials(ModelId.D3, max_exp=5)
        assert (5, 4, 3, 2, 1) in [m.e for m in found]

    def test_d2_contains_both_named(self):
        found = [m.e for m in detect_monomials(ModelId.D2, max_exp=2)]
        assert (1, 1, 1, 0, 0) in found
        assert (2, 1, 0, 2, 1) in found

    def test_d1_contains_all_four_named(self):
        found = [m.e for m in detect_monomials(ModelId.D1, max_exp=3)]
        for e in [(1, 1, 1, 0, 0), (1, 1, 0, 0, 1), (1, 0, 1, 1, 0), (1, 0, 0, 1, 1)]:
            assert e in found

    def test_d5_lattice_includes_frozen_direction(self):
        found = [m.e for m in detect_monomials(ModelId.D5, max_exp=3)]
        assert (1, 1, 0, 0, 0) in found
        assert (1, 0, 1, 0, 0) in found
        # D is constant by itself: a third, independent direction
        basis = hermite_basis(found)
        assert in_lattice([0, 0, 0, 1, 0], basis)

    def test_d11_single_monomial(self):
        found = [m.e for m in detect_monomials(ModelId.D11, max_exp=3)]
        assert found == [(2, 1, 1, 2, 0)]

    def test_abelian_all_unit_vectors(self):
        found = detect_monomials_brackets(StructureConstants.zero(5))
        assert [m.e for m in found] == [
            (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
        ]

    def test_detected_vectors_close_under_fresh_points(self):
        # re-test every returned vector at 25 fresh random metrics
        rng = np.random.default_rng(99)
        for model in ModelId:
            sc = catalog.build_model(model, catalog.constrained_params(model))
            found = detect_monomials(model, max_exp=5, seed=0)
            metrics = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=(25, 5)))
            rates = np.array([log_rates(sc, g) for g in metrics])
            for mono in found:
                resid = np.max(np.abs(rates @ np.array(mono.e, dtype=float)))
                assert resid < 1e-10, (model, mono.e, resid)

    def test_lattice_per_model(self):
        want = {
            ModelId.D1: [(1, 1, 1, 0, 0), (1, 1, 0, 0, 1), (1, 0, 1, 1, 0), (1, 0, 0, 1, 1)],
            ModelId.D2: [(1, 1, 1, 0, 0), (2, 1, 0, 2, 1)],
            ModelId.D3: [(5, 4, 3, 2, 1)],
            ModelId.D5: [(1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (0, 0, 0, 1, 0)],
            ModelId.D11: [(2, 1, 1, 2, 0)],
        }
        for model, vecs in want.items():
            assert [m.e for m in detect_monomials(model)] == vecs, model

    def test_max_exp_and_seed_have_no_effect(self):
        for model in ModelId:
            ref = [m.e for m in detect_monomials(model)]
            assert [m.e for m in detect_monomials(model, max_exp=1, seed=3)] == ref

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        model=st.sampled_from(list(ModelId)),
        a=st.lists(st.floats(-2.0, 2.0), min_size=10, max_size=10),
        eps=st.sampled_from([1.0, -1.0]),
        constrained=st.booleans(),
        log_g=st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
    )
    def test_detected_vectors_conserved_for_random_tables(self, model, a, eps, constrained,
                                                           log_g):
        if constrained:
            params = catalog.constrained_params(model, eps) if model is ModelId.D11 \
                else catalog.constrained_params(model)
        else:
            params = catalog.params_from_basis_change(model, a, eps=eps)
        rates = log_rates(catalog.build_model(model, params), np.exp(log_g))
        for mono in detect_monomials(model, params=params):
            resid = abs(rates @ np.array(mono.e, dtype=float))
            assert resid <= 1e-12 * np.sum(np.abs(rates) * np.abs(mono.e)), mono.e

    def test_named_invariants_in_detected_lattice(self):
        for model in ModelId:
            found = detect_monomials(model, max_exp=5)
            basis = hermite_basis([m.e for m in found])
            for mono in model_invariants(model).monomials:
                assert in_lattice(mono.e, basis), (model, mono.e)

    def test_deterministic_given_seed(self):
        a = detect_monomials(ModelId.D2, max_exp=3, seed=7)
        b = detect_monomials(ModelId.D2, max_exp=3, seed=7)
        assert [m.e for m in a] == [m.e for m in b]

    def test_max_exp_validation(self):
        with pytest.raises(ValueError):
            detect_monomials(ModelId.D1, max_exp=0)


class TestDrift:
    def test_constant_trajectory_zero_drift(self):
        t = np.linspace(0, 10, 20)
        traj = Trajectory(times=t, coeffs=np.ones((20, 5)) * 1.7,
                          termination="reached_t_end")
        assert drift_report(traj, InvariantMonomial((1, 1, 1, 0, 0))) == 0.0

    def test_d5_unit_run(self):
        traj = run(ModelId.D5, (1, 1, 1, 1, 1), 10.0)
        assert drift_report(traj, InvariantMonomial((1, 1, 0, 0, 0))) < 1e-8

    def test_drift_of_a_stack_is_each_runs_own(self):
        coeffs = np.random.default_rng(2).uniform(0.5, 2.0, (3, 4, 17, 5))
        mono = InvariantMonomial((2, 1, 0, 2, 1))
        stacked = mono.drift(coeffs)
        assert stacked.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            single = mono.drift(coeffs[idx])
            assert type(single) is float and stacked[idx] == single

    def test_corrupted_sample_detected(self):
        traj = run(ModelId.D1, (1, 1, 1, 1, 1), 10.0)
        coeffs = traj.coeffs.copy()
        coeffs[7] *= 2.0  # injected fault: one sample scaled
        bad = Trajectory(times=traj.times, coeffs=coeffs,
                         termination=traj.termination, model=traj.model)
        assert drift_report(bad, InvariantMonomial((1, 1, 1, 0, 0))) >= 1.0


class TestRatioDiagnostics:
    def test_d2_case1_ratio_pinned(self):
        traj = run(ModelId.D2, (1, 2, 4, 1, 1), 100.0)
        (diag,) = ratio_diagnostics(ModelId.D2, traj)
        assert diag.name == "AC/B^2"
        assert diag.target == 1.0
        assert np.max(np.abs(diag.values - 1.0)) < 1e-8

    def test_d3_ratios_converge(self):
        traj = run(ModelId.D3, (1, 1, 1, 1, 1), 1e6)
        diags = {d.name: d for d in ratio_diagnostics(ModelId.D3, traj)}
        assert abs(diags["x/y"].final - 1.0) <= 0.01
        assert abs(diags["z/w"].final - 1.0) <= 0.01
        assert abs(diags["x/z"].final - 2.0 / 3.0) <= 0.01
        assert abs(diags["y/w"].final - 2.0 / 3.0) <= 0.01

    def test_d11_ratio(self, d11_case2_10):
        diags = {d.name: d for d in ratio_diagnostics(ModelId.D11, d11_case2_10)}
        bc = diags["B/C"]
        assert abs(bc.final - 1.0) < 0.05
        dev = np.abs(bc.values - 1.0)
        assert dev[-1] < dev[len(dev) // 2] < dev[0]

    def test_models_without_diagnostics(self):
        traj = run(ModelId.D5, (1, 1, 1, 1, 1), 1.0)
        assert ratio_diagnostics(ModelId.D5, traj) == []

    def test_model_mismatch(self, d11_case2_10):
        with pytest.raises(ValueError):
            ratio_diagnostics(ModelId.D2, d11_case2_10)


class TestSpecialQuantities:
    def test_d11_square_difference_decays(self, d11_case2_10):
        specials = {s.name: s for s in model_invariants(ModelId.D11).specials}
        sq = specials["A^2*E^2*(B^2-C^2)"]
        vals = sq.fn(d11_case2_10.coeffs)
        assert abs(vals[-1] / vals[0]) < 1e-6

    def test_d11_ratio_diverges(self, d11_case2_10):
        specials = {s.name: s for s in model_invariants(ModelId.D11).specials}
        ratio = specials["(B+C)*D^2/((B-C)*E^2)"]
        vals = ratio.fn(d11_case2_10.coeffs)
        assert vals[-1] / vals[0] > 1e3


class TestD2SignDynamics:
    def test_b_monotone_toward_limit(self):
        # B(0)^3 < ABC(0): B nondecreasing; reversed: nonincreasing
        rising = run(ModelId.D2, (1.0, 0.8, 1.5, 1.0, 1.0), 1e4)
        b = rising.coeffs[:, 1]
        assert np.all(np.diff(b) >= -1e-12)
        falling = run(ModelId.D2, (1.0, 1.4, 0.9, 1.0, 1.0), 1e4)
        b = falling.coeffs[:, 1]
        assert np.all(np.diff(b) <= 1e-12)

    def test_b_limit_value(self):
        lam = (1.0, 1.4, 0.9, 1.0, 1.0)
        traj = run(ModelId.D2, lam, 1e4)
        b_inf = (lam[0] * lam[1] * lam[2]) ** (1.0 / 3.0)
        assert abs(traj.final[1] - b_inf) < 1e-3
