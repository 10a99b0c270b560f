"""The stacked evaluation of criteria 1, 2 and 10 against per-draw loops.

The criteria evaluate their random draws as stacks; the loops here draw
from the same generators in the same order and evaluate one metric or one
table at a time, so the reports must agree item for item, bitwise."""
import numpy as np
import pytest

from solvflow import catalog
from solvflow.catalog import InitialData, ModelId
from solvflow.curvature import DiagonalMetric, compile_flow, ricci_quadratic, ricci_tensor
from solvflow.flow import FlowProblem, integrate
from solvflow.liecore import StructureConstants, jacobi_residual, unimodularity_defect
from solvflow.verify import VerifySession, _rel_err, reference_ricci_diag, reference_system


def constrained(model):
    return catalog.build_model(model, catalog.constrained_params(model))


def loop_criterion_1(session):
    rng = session._rng(1)
    items = []
    for model in ModelId:
        sc = constrained(model)
        worst_diag = worst_off = 0.0
        for _ in range(100):
            g = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 5))
            ric = ricci_tensor(sc, DiagonalMetric(tuple(g)))
            worst_diag = max(worst_diag, _rel_err(ric.diagonal, reference_ricci_diag(model, g)))
            worst_off = max(worst_off, ric.max_offdiag)
        items += [(f"{model.value} Ricci diagonal vs reference", worst_diag <= 1e-12, worst_diag),
                  (f"{model.value} off-diagonal Ricci", worst_off < 1e-14, worst_off)]
    return items


def loop_criterion_2(session):
    rng = session._rng(2)
    items = []
    for model in ModelId:
        terms = compile_flow(constrained(model))
        draws = np.exp(rng.uniform(np.log(0.1), np.log(10.0), (100, 5)))
        got = draws * terms.log_rhs(np.log(draws))
        worst = max(_rel_err(row, reference_system(model, g)) for row, g in zip(got, draws))
        items.append((f"{model.value} flow rhs vs reference system", worst <= 1e-12, worst))
    return items


def loop_criterion_10(session):
    rng = session._rng(10)
    items = []
    for model in ModelId:
        worst_j = worst_u = 0.0
        for _ in range(100):
            a = rng.uniform(-2.0, 2.0, 10)
            eps = float(rng.choice((-1.0, 1.0)))
            sc = catalog.build_model(model, catalog.params_from_basis_change(model, a, eps=eps))
            worst_j = max(worst_j, jacobi_residual(sc))
            worst_u = max(worst_u, unimodularity_defect(sc))
        items += [(f"{model.value} Jacobi residual over 100 parameter draws",
                   worst_j < 1e-12, worst_j),
                  (f"{model.value} unimodularity defect", worst_u < 1e-12, worst_u)]
        sc = constrained(model)
        worst_p = 0.0
        for _ in range(20):
            g = DiagonalMetric(tuple(np.exp(rng.uniform(np.log(0.5), np.log(2.0), 5))))
            w = rng.normal(size=5)
            q = ricci_quadratic(sc, g, w)
            expand = float(w @ ricci_tensor(sc, g).entries @ w)
            worst_p = max(worst_p, abs(q - expand) / max(abs(q), abs(expand), 1.0))
        items.append((f"{model.value} polarization expansion Q(w) = w.R.w",
                      worst_p < 1e-12, worst_p))
    traj = integrate(FlowProblem(None, InitialData((1.3, 0.7, 2.0, 1.1, 0.9)), 10.0,
                                 brackets=StructureConstants.zero(5)))
    const = float(np.max(np.abs(traj.coeffs - traj.coeffs[0])))
    items.append(("abelian algebra flow is constant", const < 1e-14, const))
    return items


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("number, loop", [(1, loop_criterion_1), (2, loop_criterion_2),
                                          (10, loop_criterion_10)])
def test_stacked_criterion_matches_per_draw_loop(seed, number, loop):
    stacked = getattr(VerifySession(seed=seed), f"criterion_{number}")()
    got = [(i.name, i.passed, i.computed) for i in stacked]
    assert got == loop(VerifySession(seed=seed))
    assert all(passed for _, passed, _ in got)


@pytest.mark.parametrize("reference", [reference_ricci_diag, reference_system])
@pytest.mark.parametrize("model", list(ModelId))
def test_references_broadcast_over_a_stack_bitwise(reference, model):
    draws = np.exp(np.random.default_rng(11).uniform(np.log(0.1), np.log(10.0), (7, 5)))
    stacked = reference(model, draws.T)
    assert stacked.shape == (5, 7)
    for k, g in enumerate(draws):
        assert np.array_equal(stacked[:, k], reference(model, g))
        assert np.array_equal(reference(model, tuple(g)), reference(model, g))
