from fractions import Fraction

import numpy as np
import pytest

from solvflow import catalog
from solvflow.catalog import (
    InitialData,
    InvariantMonomial,
    ModelId,
    build_model,
    build_models,
    case_labels,
    classify_case,
    constrained_params,
    describe,
    model_asymptotics,
    model_invariants,
    params_from_basis_change,
    y_basis_change,
)
from solvflow.liecore import jacobi_residual, unimodularity_defect


def brackets_of(sc):
    """{(i, j): {k: coeff}} for i < j, nonzero entries only."""
    out = {}
    for i in range(5):
        for j in range(i + 1, 5):
            row = {k: sc.c[i, j, k] for k in range(5) if sc.c[i, j, k] != 0.0}
            if row:
                out[(i, j)] = row
    return out


class TestBuildModel:
    def test_d1_constrained_table(self):
        sc = build_model(ModelId.D1, constrained_params(ModelId.D1))
        assert brackets_of(sc) == {(1, 3): {0: 1.0}, (2, 4): {0: 1.0}}

    def test_d3_constrained_table(self):
        # [Y2,Y5]=Y1, [Y3,Y4]=Y1, [Y3,Y5]=Y2, [Y4,Y5]=Y3
        sc = build_model(ModelId.D3, constrained_params(ModelId.D3))
        assert brackets_of(sc) == {
            (1, 4): {0: 1.0},
            (2, 3): {0: 1.0},
            (2, 4): {1: 1.0},
            (3, 4): {2: 1.0},
        }

    def test_d11_constrained_table(self):
        sc = build_model(ModelId.D11, constrained_params(ModelId.D11))
        assert brackets_of(sc) == {
            (1, 2): {0: 1.0},
            (1, 4): {2: 1.0},
            (2, 4): {1: -1.0},
            (3, 4): {0: 1.0},
        }
        sc = build_model(ModelId.D11, constrained_params(ModelId.D11, eps=-1.0))
        assert brackets_of(sc)[(3, 4)] == {0: -1.0}

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="no parameters"):
            build_model(ModelId.D1, {"delta": 1.0})

    def test_d11_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            build_model(ModelId.D11, {"eps": 2.0})

    def test_d11_explicit_zero_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            build_model(ModelId.D11, {"kappa": 1.0, "eps": 0.0})

    def test_d11_missing_eps_defaults_to_plus_one(self):
        assert catalog._check_params(ModelId.D11, {"kappa": 1.0})["eps"] == 1.0
        assert catalog._check_params(ModelId.D11, {"eps": -1.0})["eps"] == -1.0

    def test_tables_match_tensor_transformation(self):
        # the parameter formulas are exactly those induced by the
        # unitriangular change of basis
        rng = np.random.default_rng(21)
        for model in ModelId:
            for _ in range(10):
                a = rng.uniform(-2, 2, 10)
                eps = float(rng.choice((-1.0, 1.0)))
                direct = build_model(model, params_from_basis_change(model, a, eps=eps))
                transformed = y_basis_change(model, a, eps=eps)
                assert np.max(np.abs(direct.c - transformed.c)) < 1e-12

    def test_constrained_models_are_unimodular_lie_algebras(self):
        for model in ModelId:
            sc = build_model(model, constrained_params(model))
            assert jacobi_residual(sc) < 1e-12
            assert unimodularity_defect(sc) < 1e-12


class TestStackedTables:
    """The stacked parameters and tables against the one-table path, bitwise."""

    @pytest.mark.parametrize("eps", [1.0, -1.0])
    @pytest.mark.parametrize("model", list(ModelId))
    def test_build_models_is_the_stack_of_build_model(self, model, eps):
        for seed in range(10):
            a = np.random.default_rng(seed).uniform(-2.0, 2.0, (20, 10))
            stack = build_models(model, params_from_basis_change(model, a, eps=np.full(20, eps)))
            single = [build_model(model, params_from_basis_change(model, row, eps=eps)).c
                      for row in a]
            assert stack.shape == (20, 5, 5, 5)
            assert np.array_equal(stack, np.stack(single)), seed

    @pytest.mark.parametrize("model", list(ModelId))
    def test_params_from_basis_change_acts_row_by_row(self, model):
        rng = np.random.default_rng(5)
        a = rng.uniform(-2.0, 2.0, (30, 10))
        eps = np.where(rng.integers(2, size=30) == 1, 1.0, -1.0)
        stacked = params_from_basis_change(model, a, eps=eps)
        for k, row in enumerate(a):
            single = params_from_basis_change(model, row, eps=float(eps[k]))
            assert set(stacked) == set(single)
            for name, value in single.items():
                assert type(value) is float
                assert stacked[name].shape == (30,) and stacked[name][k] == value, name

    def test_shared_numbers_broadcast_over_the_stack(self):
        stack = build_models(ModelId.D11, {"alpha": np.array([0.0, 1.0, 2.0]), "eps": -1.0})
        for k, alpha in enumerate((0.0, 1.0, 2.0)):
            assert np.array_equal(stack[k], build_model(ModelId.D11,
                                                        {"alpha": alpha, "eps": -1.0}).c)

    def test_stack_refuses_what_one_table_refuses(self):
        a = np.random.default_rng(3).uniform(-2.0, 2.0, (10, 10))
        bad = a.copy()
        bad[7, 9] = np.nan  # D1's alpha is a10
        with pytest.raises(ValueError, match="^table 7: structure constants must be finite$"):
            build_models(ModelId.D1, params_from_basis_change(ModelId.D1, bad))
        eps = np.ones(10)
        eps[4] = 0.5
        with pytest.raises(ValueError, match="D11 requires eps in {[+]1, -1}, got 0.5"):
            build_models(ModelId.D11, params_from_basis_change(ModelId.D11, a, eps=eps))
        with pytest.raises(ValueError, match="D1 has no parameters"):
            build_models(ModelId.D1, {"delta": np.zeros(3)})


class TestConstrainedParams:
    def test_nilpotent_families(self):
        for model in (ModelId.D1, ModelId.D2, ModelId.D3):
            assert constrained_params(model) == {"alpha": 0.0, "beta": 0.0, "gamma": 0.0}

    def test_d5_all_zero(self):
        p = constrained_params(ModelId.D5)
        assert set(p) == {"alpha", "beta", "gamma", "delta", "eta", "mu", "rho"}
        assert all(v == 0.0 for v in p.values())

    def test_d11_kappa_is_eps(self):
        for eps in (1.0, -1.0):
            p = constrained_params(ModelId.D11, eps=eps)
            assert p["kappa"] == eps
            assert p["kappa"] ** 2 == 1.0
            assert all(p[n] == 0.0 for n in ("alpha", "beta", "gamma", "delta", "eta", "rho", "sigma"))

    def test_d11_eps_refused_wherever_it_is_given(self):
        for refuse in (lambda: constrained_params(ModelId.D11, eps=0.5),
                       lambda: catalog.x_basis(ModelId.D11, eps=0.5),
                       lambda: build_model(ModelId.D11, {"eps": 0.5})):
            with pytest.raises(ValueError, match="^D11 requires eps in {[+]1, -1}, got 0.5$"):
                refuse()


class TestInvariants:
    def test_d1_monomials(self):
        got = {m.e for m in model_invariants(ModelId.D1).monomials}
        assert got == {(1, 1, 1, 0, 0), (1, 1, 0, 0, 1), (1, 0, 1, 1, 0), (1, 0, 0, 1, 1)}

    def test_d2_monomials(self):
        got = {m.e for m in model_invariants(ModelId.D2).monomials}
        assert got == {(1, 1, 1, 0, 0), (2, 1, 0, 2, 1)}

    def test_d3_monomial(self):
        assert [m.e for m in model_invariants(ModelId.D3).monomials] == [(5, 4, 3, 2, 1)]

    def test_d5_monomials(self):
        got = {m.e for m in model_invariants(ModelId.D5).monomials}
        assert got == {(1, 1, 0, 0, 0), (1, 0, 1, 0, 0)}

    def test_d11_monomial_and_specials(self):
        inv = model_invariants(ModelId.D11)
        assert [m.e for m in inv.monomials] == [(2, 1, 1, 2, 0)]
        behaviors = {s.name: s.behavior for s in inv.specials}
        assert behaviors == {
            "A^2*E^2*(B^2-C^2)": "decaying",
            "(B+C)*D^2/((B-C)*E^2)": "diverging",
        }

    def test_monomial_canonical_form(self):
        with pytest.raises(ValueError):
            InvariantMonomial((0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            InvariantMonomial((2, 2, 0, 0, 0))  # not primitive
        with pytest.raises(ValueError):
            InvariantMonomial((-1, 1, 0, 0, 0))  # wrong canonical sign

    def test_monomial_value_and_str(self):
        m = InvariantMonomial((2, 1, 0, 2, 1))
        assert str(m) == "A^2*B*D^2*E"
        g = np.array([2.0, 3.0, 7.0, 0.5, 4.0])
        assert m.value(g) == pytest.approx(4 * 3 * 0.25 * 4)


class TestAsymptotics:
    EXPECTED = {
        ModelId.D1: (Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
        ModelId.D2: (Fraction(-3, 7), Fraction(0), Fraction(3, 7), Fraction(1, 7), Fraction(4, 7)),
        ModelId.D3: (Fraction(-4, 11), Fraction(-1, 11), Fraction(2, 11), Fraction(5, 11), Fraction(8, 11)),
        ModelId.D5: (Fraction(-1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(1)),
        ModelId.D11: (Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
    }

    def test_tables(self):
        for model, row in self.EXPECTED.items():
            for case in case_labels(model):
                assert model_asymptotics(model, case) == row

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case"):
            model_asymptotics(ModelId.D5, "case1")

    def test_exponents_orthogonal_to_invariants(self):
        # conserved monomials force exact rational orthogonality
        for model in ModelId:
            row = model_asymptotics(model, case_labels(model)[0])
            for mono in model_invariants(model).monomials:
                dot = sum(Fraction(e) * p for e, p in zip(mono.e, row))
                assert dot == 0, (model, mono.e)

    def test_exponents_meet_hamiltons_balance(self):
        # R' = 2|Ric|^2 under Ricci flow (Hamilton, J. Diff. Geom. 17, 1982);
        # for g_p ~ c_p t^k_p, R ~ -sum(k)/(2t) and |Ric|^2 ~ sum(k^2)/(4t^2),
        # so the exponents must satisfy sum(k) = sum(k^2) exactly
        balance = {ModelId.D1: Fraction(1, 2), ModelId.D2: Fraction(5, 7),
                   ModelId.D3: Fraction(10, 11), ModelId.D5: Fraction(4, 3),
                   ModelId.D11: Fraction(1, 2)}
        for model in ModelId:
            for case in case_labels(model):
                row = model_asymptotics(model, case)
                assert all(isinstance(k, Fraction) for k in row)
                assert sum(row) == sum(k * k for k in row) == balance[model], (model, case)


class TestCaseClassification:
    def test_d1(self):
        assert classify_case(ModelId.D1, InitialData((1, 1, 1, 1, 1))) == "case1"
        assert classify_case(ModelId.D1, InitialData((1, 2, 1, 3, 6))) == "case1"
        assert classify_case(ModelId.D1, InitialData((1, 1, 1, 2, 1))) == "case2"

    def test_d2(self):
        assert classify_case(ModelId.D2, InitialData((1, 2, 4, 1, 1))) == "case1"
        assert classify_case(ModelId.D2, InitialData((1, 1.1, 1, 1, 1))) == "case2"

    def test_d3(self):
        assert classify_case(ModelId.D3, InitialData((2 / 3, 1, 1, 1, 1))) == "self_similar"
        assert classify_case(ModelId.D3, InitialData((1, 1, 1, 1, 1))) == "generic"

    def test_d5(self):
        assert classify_case(ModelId.D5, InitialData((3, 1, 4, 1, 5))) == "exact"

    def test_d11(self):
        assert classify_case(ModelId.D11, InitialData((1, 2, 2, 1, 1))) == "case1"
        assert classify_case(ModelId.D11, InitialData((1, 2, 1, 1, 1))) == "case2"
        assert classify_case(ModelId.D11, InitialData((1, 1, 2, 1, 1))) == "case2"


class TestMetadata:
    def test_initial_data_validation(self):
        with pytest.raises(ValueError):
            InitialData((1, 1, 1, 1))
        with pytest.raises(ValueError):
            InitialData((1, 1, -1, 1, 1))

    def test_initial_data_is_the_diagonal_metric(self):
        import solvflow
        from solvflow import curvature

        assert catalog.InitialData is curvature.DiagonalMetric is solvflow.InitialData
        g = InitialData((1, 2, 3, 4, 5))
        assert g.lam == g.coeffs == (1.0, 2.0, 3.0, 4.0, 5.0)
        with pytest.raises(AttributeError):
            g.lam = (1.0,) * 5
        assert not hasattr(catalog, "param_names")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_initial_data_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            InitialData((1, 1, bad, 1, 1))

    def test_describe_payload(self):
        meta = describe(ModelId.D3)
        assert meta["id"] == "D3"
        assert meta["invariant_monomials"] == ["A^5*B^4*C^3*D^2*E"]
        assert meta["asymptotic_exponents"]["generic"] == ["-4/11", "-1/11", "2/11", "5/11", "8/11"]

    def test_absent_families(self):
        for absent in ("D4", "D6", "D10"):
            with pytest.raises(ValueError):
                ModelId(absent)

    def test_catalog_covers_five_models(self):
        assert [m.value for m in ModelId] == ["D1", "D2", "D3", "D5", "D11"]
