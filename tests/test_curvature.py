from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solvflow import catalog
from solvflow.catalog import ModelId, build_model, constrained_params
from solvflow.curvature import (
    DiagonalityViolation,
    DiagonalMetric,
    NonpositiveMetricError,
    compile_flow,
    flow_rhs,
    ricci_quadratic,
    ricci_tensor,
    unit_frame_brackets,
)
from solvflow.liecore import StructureConstants


def constrained(model):
    return build_model(model, constrained_params(model))


def ricci_brute_force(chat):
    """Independent oracle: Levi-Civita connection from the Koszul formula,
    then the full curvature tensor, then its trace.

    chat[i,j,k] are the structure constants of an orthonormal frame.
    """
    n = chat.shape[0]
    gamma = np.zeros((n, n, n))
    for i, j, k in product(range(n), repeat=3):
        gamma[i, j, k] = 0.5 * (chat[i, j, k] - chat[j, k, i] + chat[k, i, j])
    ric = np.zeros((n, n))
    for j, l in product(range(n), repeat=2):
        s = 0.0
        for i in range(n):
            for m in range(n):
                s += (gamma[j, l, m] * gamma[i, m, i]
                      - gamma[i, l, m] * gamma[j, m, i]
                      - chat[i, j, m] * gamma[m, l, i])
        ric[j, l] = s
    return ric


class TestUnitFrame:
    def test_d1_example(self):
        sc = constrained(ModelId.D1)
        g = DiagonalMetric((4, 1, 1, 1, 1))
        hat = unit_frame_brackets(sc, g)
        assert hat.c[1, 3, 0] == pytest.approx(2.0)  # [Y2hat, Y4hat] = 2 Y1hat

    def test_unit_metric_is_identity(self):
        sc = constrained(ModelId.D3)
        hat = unit_frame_brackets(sc, DiagonalMetric.unit())
        assert np.array_equal(hat.c, sc.c)

    def test_d5_example(self):
        sc = constrained(ModelId.D5)
        hat = unit_frame_brackets(sc, DiagonalMetric((1, 4, 1, 1, 9)))
        assert hat.c[1, 4, 1] == pytest.approx(1.0 / 3.0)  # [Y2hat, Y5hat]

    def test_scaling_law(self):
        rng = np.random.default_rng(0)
        sc = constrained(ModelId.D11)
        g = np.exp(rng.uniform(-1, 1, 5))
        hat = unit_frame_brackets(sc, DiagonalMetric(tuple(g)))
        for i, j, k in product(range(5), repeat=3):
            want = sc.c[i, j, k] * np.sqrt(g[k] / (g[i] * g[j]))
            assert hat.c[i, j, k] == pytest.approx(want, abs=1e-14)


class TestRicciQuadratic:
    def test_d1_center_direction(self):
        sc = constrained(ModelId.D1)
        q = ricci_quadratic(sc, DiagonalMetric.unit(), [1, 0, 0, 0, 0])
        assert q == pytest.approx(1.0)

    def test_abelian_vanishes(self):
        sc = StructureConstants.zero(5)
        rng = np.random.default_rng(1)
        g = DiagonalMetric(tuple(np.exp(rng.uniform(-1, 1, 5))))
        assert ricci_quadratic(sc, g, rng.normal(size=5)) == 0.0

    def test_d1_mixed_direction(self):
        sc = constrained(ModelId.D1)
        q = ricci_quadratic(sc, DiagonalMetric.unit(), [1, 1, 0, 0, 0])
        assert q == pytest.approx(0.5)  # R11 + 2 R12 + R22 = 1 + 0 - 1/2

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(2)
        sc = constrained(ModelId.D2)
        g = DiagonalMetric(tuple(np.exp(rng.uniform(-1, 1, 5))))
        w = rng.normal(size=5)
        q1 = ricci_quadratic(sc, g, w)
        for s in (-2.0, 0.5, 3.7):
            assert ricci_quadratic(sc, g, s * w) == pytest.approx(s * s * q1, rel=1e-12)


class TestRicciTensor:
    def test_d1_unit_metric(self):
        r = ricci_tensor(constrained(ModelId.D1), DiagonalMetric.unit())
        assert np.allclose(r.diagonal, [1.0, -0.5, -0.5, -0.5, -0.5])
        assert r.max_offdiag == 0.0

    def test_d5_unit_metric(self):
        r = ricci_tensor(constrained(ModelId.D5), DiagonalMetric.unit())
        assert np.allclose(r.diagonal, [0.5, -0.5, -0.5, 0.0, -2.0])

    def test_d11_unit_metric(self):
        # rotation block is flat at B = C, so only the two central brackets
        # contribute: same values as D1
        r = ricci_tensor(constrained(ModelId.D11), DiagonalMetric.unit())
        assert np.allclose(r.diagonal, [1.0, -0.5, -0.5, -0.5, -0.5])

    def test_d1_cross_component(self):
        sc = build_model(ModelId.D1, {"alpha": 1.0, "beta": 0.0, "gamma": 0.0})
        r = ricci_tensor(sc, DiagonalMetric.unit())
        assert r.entries[1, 2] == pytest.approx(-0.5)

    def test_polarization_identity(self):
        rng = np.random.default_rng(3)
        for model in ModelId:
            sc = constrained(model)
            for _ in range(10):
                g = DiagonalMetric(tuple(np.exp(rng.uniform(-1.5, 1.5, 5))))
                w = rng.normal(size=5)
                q = ricci_quadratic(sc, g, w)
                r = ricci_tensor(sc, g).entries
                assert q == pytest.approx(float(w @ r @ w), rel=1e-12, abs=1e-12)

    def test_against_brute_force_curvature(self):
        # the quadratic form must agree with the Koszul/curvature-tensor
        # computation entry by entry, including off-diagonal blocks
        rng = np.random.default_rng(4)
        for model in ModelId:
            sc = constrained(model)
            for _ in range(5):
                g = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 5))
                hat = unit_frame_brackets(sc, DiagonalMetric(tuple(g)))
                want = ricci_brute_force(hat.c)
                got = ricci_tensor(sc, DiagonalMetric(tuple(g))).entries
                assert np.max(np.abs(want - got)) < 1e-13

    def test_brute_force_with_unconstrained_parameters(self):
        # full tensor agreement also away from the diagonal-preserving locus
        from solvflow.catalog import params_from_basis_change
        rng = np.random.default_rng(5)
        for model in ModelId:
            a = rng.uniform(-1, 1, 10)
            sc = build_model(model, params_from_basis_change(model, a))
            g = np.exp(rng.uniform(-1, 1, 5))
            hat = unit_frame_brackets(sc, DiagonalMetric(tuple(g)))
            want = ricci_brute_force(hat.c)
            got = ricci_tensor(sc, DiagonalMetric(tuple(g))).entries
            assert np.max(np.abs(want - got)) < 1e-12

    def test_known_homogeneous_geometries(self):
        # su(2) with the bi-invariant metric: Ric = I/2 (round 3-sphere);
        # e(2) with equal plane coefficients: flat
        su2 = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            su2[i, j, k] = 1.0
            su2[j, i, k] = -1.0
        assert np.allclose(ricci_brute_force(su2), 0.5 * np.eye(3))
        e2 = np.zeros((3, 3, 3))
        e2[0, 2, 1], e2[2, 0, 1] = 1.0, -1.0
        e2[1, 2, 0], e2[2, 1, 0] = -1.0, 1.0
        assert np.max(np.abs(ricci_brute_force(e2))) == 0.0


class TestFlowRhs:
    def test_d1_unit(self):
        got = flow_rhs(constrained(ModelId.D1), DiagonalMetric.unit())
        assert np.allclose(got, [-2, 1, 1, 1, 1])

    def test_d5_unit(self):
        got = flow_rhs(constrained(ModelId.D5), DiagonalMetric.unit())
        assert np.allclose(got, [-1, 1, 1, 0, 4])

    def test_d3_unit(self):
        got = flow_rhs(constrained(ModelId.D3), DiagonalMetric.unit())
        assert np.allclose(got, [-2, 0, 1, 2, 3])

    def test_d11_unit(self):
        # dE/dt = C/B + B/C + A/D - 2 evaluates to 1 at the unit metric
        got = flow_rhs(constrained(ModelId.D11), DiagonalMetric.unit())
        assert np.allclose(got, [-2, 1, 1, 1, 1])

    def test_unconstrained_parameters_raise(self):
        sc = build_model(ModelId.D1, {"alpha": 1.0})
        with pytest.raises(DiagonalityViolation):
            flow_rhs(sc, DiagonalMetric.unit())

    def test_nonpositive_metric_rejected(self):
        with pytest.raises(NonpositiveMetricError):
            DiagonalMetric((1, 1, 0, 1, 1))
        with pytest.raises(NonpositiveMetricError):
            DiagonalMetric((1, 1, -2, 1, 1))

    def test_abelian_flow_vanishes(self):
        rng = np.random.default_rng(6)
        sc = StructureConstants.zero(5)
        for _ in range(5):
            g = DiagonalMetric(tuple(np.exp(rng.uniform(-2, 2, 5))))
            assert np.all(flow_rhs(sc, g) == 0.0)


def compiled_ricci(sc, g):
    """Ricci form in the orthonormal frame, evaluated from the compiled
    monomial terms alone."""
    terms = compile_flow(sc)
    ric = np.diag(terms.log_rhs(np.log(g)) / -2.0)
    for p, q, e, coef in terms.offdiag:
        val = coef * np.prod(g ** np.array(e))
        ric[p, q] += val
        ric[q, p] += val
    return ric


class TestCompiledTerms:
    def test_constrained_tables_have_no_offdiag_terms(self):
        for model in ModelId:
            assert compile_flow(constrained(model)).offdiag == (), model
        sc = build_model(ModelId.D11, constrained_params(ModelId.D11, eps=-1.0))
        assert compile_flow(sc).offdiag == ()

    def test_d1_alpha_leaves_two_offdiag_monomials(self):
        terms = compile_flow(build_model(ModelId.D1, {"alpha": 1.0}))
        assert [(p, q) for p, q, _, _ in terms.offdiag] == [(1, 2), (3, 4)]

    def test_d5_cancelling_terms_dropped(self):
        # D is frozen: its two diagonal Ricci terms cancel exactly
        terms = compile_flow(constrained(ModelId.D5))
        assert np.all(terms.rates[:, 3] == 0.0)

    def test_abelian_has_no_terms(self):
        terms = compile_flow(StructureConstants.zero(5))
        assert terms.exps.shape == (0, 5) and terms.offdiag == ()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        model=st.sampled_from(list(ModelId)),
        a=st.lists(st.floats(-2.0, 2.0), min_size=10, max_size=10),
        eps=st.sampled_from([1.0, -1.0]),
        constrained=st.booleans(),
        log_g=st.lists(st.floats(-2.3, 2.3), min_size=5, max_size=5),
    )
    def test_matches_einsum_and_brute_force(self, model, a, eps, constrained, log_g):
        if constrained:
            params = catalog.constrained_params(model, eps) if model is ModelId.D11 \
                else catalog.constrained_params(model)
        else:
            params = catalog.params_from_basis_change(model, a, eps=eps)
        sc = build_model(model, params)
        g = np.exp(np.array(log_g))
        got = compiled_ricci(sc, g)
        einsum = ricci_tensor(sc, DiagonalMetric(tuple(g))).entries
        brute = ricci_brute_force(unit_frame_brackets(sc, DiagonalMetric(tuple(g))).c)
        scale = max(1.0, float(np.max(np.abs(einsum))))
        assert np.max(np.abs(got - einsum)) <= 1e-12 * scale
        assert np.max(np.abs(got - brute)) <= 1e-12 * scale
        if constrained:
            assert compile_flow(sc).offdiag == ()

