import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from solvflow.catalog import (
    ModelId,
    build_model,
    params_from_basis_change,
    x_basis,
    y_basis_change,
)
from solvflow.liecore import (
    BasisChange,
    StructureConstants,
    _check_tensors,
    change_basis,
    jacobi_residual,
    jacobi_residuals,
    unimodularity_defect,
    unimodularity_defects,
)


def e(i):
    v = np.zeros(5)
    v[i] = 1.0
    return v


class TestStructureConstants:
    def test_antisymmetry_enforced(self):
        c = np.zeros((5, 5, 5))
        c[0, 1, 2] = 1.0  # no antisymmetric completion
        with pytest.raises(ValueError, match="antisymmetric"):
            StructureConstants(c)

    def test_from_brackets_fills_completion(self):
        sc = StructureConstants.from_brackets(5, {(0, 1, 2): 3.0})
        assert sc.c[0, 1, 2] == 3.0
        assert sc.c[1, 0, 2] == -3.0

    def test_diagonal_bracket_rejected(self):
        with pytest.raises(ValueError):
            StructureConstants.from_brackets(5, {(1, 1, 0): 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_entries_rejected(self, bad):
        c = np.zeros((5, 5, 5))
        c[0, 1, 2], c[1, 0, 2] = bad, -bad
        with pytest.raises(ValueError, match="must be finite"):
            StructureConstants(c)
        with pytest.raises(ValueError, match="must be finite"):
            StructureConstants.from_brackets(5, {(0, 1, 2): bad})
        with pytest.raises(ValueError, match="must be finite"):
            build_model(ModelId.D1, {"alpha": bad})

    def test_equality_is_identity(self):
        a, b = StructureConstants.zero(5), StructureConstants.zero(5)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2
        t, u = BasisChange.identity(5), BasisChange.identity(5)
        assert t == t and t != u
        assert hash(t) == hash(t) and len({t, u, t}) == 2

    def test_tensor_is_frozen(self):
        sc = StructureConstants.zero(5)
        with pytest.raises(ValueError):
            sc.c[0, 1, 2] = 1.0


class TestBracketApply:
    # [e_i, e_j] is the row sc.c[i, j]
    def test_d1_x_basis_x2_x4(self):
        sc = x_basis(ModelId.D1)
        assert np.array_equal(sc.c[1, 3], e(0))

    def test_self_bracket_vanishes(self):
        sc = x_basis(ModelId.D3)
        assert np.all(sc.c[2, 2] == 0.0)

    def test_d5_x3_x5(self):
        sc = x_basis(ModelId.D5)
        assert np.array_equal(sc.c[2, 4], -e(2))

    def test_antisymmetry_of_result(self):
        sc = x_basis(ModelId.D2)
        assert np.array_equal(sc.c, -sc.c.transpose(1, 0, 2))


class TestJacobi:
    def test_d1_y_basis_any_params(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b, g = rng.uniform(-3, 3, 3)
            sc = build_model(ModelId.D1, {"alpha": a, "beta": b, "gamma": g})
            assert jacobi_residual(sc) < 1e-12

    def test_d5_x_basis(self):
        assert jacobi_residual(x_basis(ModelId.D5)) == 0.0

    def test_non_lie_table_flagged(self):
        # [e1,e2]=e2, [e1,e3]=e3, [e2,e3]=e1: the cyclic sum over (1,2,3) is
        # [e2,e3] + [e1,e1] + [-e3,e2] = 2 e1, so the residual is 2
        sc = StructureConstants.from_brackets(
            5, {(0, 1, 1): 1.0, (0, 2, 2): 1.0, (1, 2, 0): 1.0}
        )
        assert jacobi_residual(sc) == pytest.approx(2.0)

    def test_two_bracket_heisenberg_pair_is_lie(self):
        # [e1,e2]=e3 with [e2,e3]=e1 alone already satisfies the identity:
        # every cyclic term hits a bracket of a vector with itself
        sc = StructureConstants.from_brackets(5, {(0, 1, 2): 1.0, (1, 2, 0): 1.0})
        assert jacobi_residual(sc) == 0.0

    def test_catalog_families_random_draws(self):
        rng = np.random.default_rng(4)
        for model in ModelId:
            for _ in range(20):
                a = rng.uniform(-2, 2, 10)
                eps = float(rng.choice((-1.0, 1.0)))
                sc = build_model(model, params_from_basis_change(model, a, eps=eps))
                assert jacobi_residual(sc) < 1e-12


class TestUnimodularity:
    def test_d5_x_basis(self):
        assert unimodularity_defect(x_basis(ModelId.D5)) == 0.0

    def test_abelian(self):
        assert unimodularity_defect(StructureConstants.zero(5)) == 0.0

    def test_affine_line_embedded(self):
        # [X1,X2] = X1 in dimension 5: tr ad_{X2} = -1
        sc = StructureConstants.from_brackets(5, {(0, 1, 0): 1.0})
        assert unimodularity_defect(sc) == pytest.approx(1.0)


class TestStackedDefects:
    @staticmethod
    def tables():
        # catalog draws, which are Lie algebras, and random antisymmetric
        # tensors, whose defects are far from zero
        rng = np.random.default_rng(9)
        out = []
        for k in range(40):
            model = list(ModelId)[k % 5]
            out.append(build_model(model, params_from_basis_change(
                model, rng.uniform(-2, 2, 10), eps=float(rng.choice((-1.0, 1.0))))))
            c = rng.normal(size=(5, 5, 5))
            out.append(StructureConstants(c - c.swapaxes(0, 1)))
        return out

    def test_jacobi_residuals_are_the_single_values_bitwise(self):
        tables = self.tables()
        single = [jacobi_residual(sc) for sc in tables]
        assert np.array_equal(jacobi_residuals(np.stack([sc.c for sc in tables])), single)
        assert max(single) > 1.0

    def test_jacobi_residual_is_the_plain_cyclic_sum(self):
        for sc in self.tables():
            t = np.einsum("ijm,mlk->ijlk", sc.c, sc.c)
            cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
            assert jacobi_residual(sc) == float(np.max(np.abs(cyc)))

    def test_jacobi_residuals_of_perturbed_tables_are_the_plain_cyclic_sum(self):
        # catalog draws moved off the Lie locus by an antisymmetric
        # perturbation of every size, single and stacked
        rng = np.random.default_rng(10)
        tables = []
        for k in range(50):
            model = list(ModelId)[k % 5]
            c = build_model(model, params_from_basis_change(
                model, rng.uniform(-2, 2, 10), eps=float(rng.choice((-1.0, 1.0))))).c
            noise = rng.normal(size=(5, 5, 5)) * 10.0 ** rng.uniform(-15, 0)
            tables.append(StructureConstants(c + (noise - noise.swapaxes(0, 1))))
        plain = []
        for sc in tables:
            t = np.einsum("ijm,mlk->ijlk", sc.c, sc.c)
            cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
            plain.append(float(np.max(np.abs(cyc))))
            assert jacobi_residual(sc) == plain[-1]
        stack = np.stack([sc.c for sc in tables])
        assert np.array_equal(jacobi_residuals(stack), plain)
        assert np.array_equal(jacobi_residuals(stack.reshape(5, 10, 5, 5, 5)),
                              np.reshape(plain, (5, 10)))
        assert min(plain) > 0.0

    def test_unimodularity_defects_are_the_single_values_bitwise(self):
        tables = self.tables()
        single = [unimodularity_defect(sc) for sc in tables]
        assert np.array_equal(unimodularity_defects(np.stack([sc.c for sc in tables])), single)
        assert max(single) > 1.0


class TestStackedCheck:
    """One rule for a table and a stack of tables, which names its first bad table."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_table_named(self, bad):
        c = np.zeros((6, 5, 5, 5))
        c[4, 0, 1, 2], c[4, 1, 0, 2] = bad, -bad
        c[5, 2, 3, 0] = 1.0  # a later table that breaks antisymmetry is not the one named
        with pytest.raises(ValueError, match="^table 4: structure constants must be finite$"):
            _check_tensors(c)
        with pytest.raises(ValueError, match="^structure constants must be finite$"):
            StructureConstants(c[4])

    def test_nonantisymmetric_table_named(self):
        c = np.zeros((6, 5, 5, 5))
        c[3, 0, 1, 2] = 0.5
        c[5, 2, 3, 0] = 1.0
        message = r"structure tensor not antisymmetric \(defect 5.000e-01\)$"
        with pytest.raises(ValueError, match="^table 3: " + message):
            _check_tensors(c)
        with pytest.raises(ValueError, match="^" + message):
            StructureConstants(c[3])

    def test_stack_on_two_axes_named_by_both_indices(self):
        c = np.zeros((2, 3, 5, 5, 5))
        c[1, 2, 0, 1, 2] = math.nan
        with pytest.raises(ValueError, match="^table 1, 2: "):
            _check_tensors(c)

    def test_valid_stack_passes(self):
        c = np.random.default_rng(4).normal(size=(8, 5, 5, 5))
        _check_tensors(c - c.swapaxes(-3, -2))


class TestBasisChange:
    def test_layout(self):
        t = BasisChange.from_offdiag([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        expected = np.array([
            [1, 0, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [2, 5, 1, 0, 0],
            [3, 6, 8, 1, 0],
            [4, 7, 9, 10, 1],
        ], dtype=float)
        assert np.array_equal(t.matrix, expected)

    def test_rejects_non_unitriangular(self):
        m = np.eye(5)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            BasisChange(m)
        m = np.eye(5)
        m[2, 2] = 2.0
        with pytest.raises(ValueError):
            BasisChange(m)

    def test_inverse_is_unitriangular_inverse(self):
        rng = np.random.default_rng(5)
        t = BasisChange.from_offdiag(rng.uniform(-2, 2, 10))
        prod = t.matrix @ t.inverse().matrix
        assert np.max(np.abs(prod - np.eye(5))) < 1e-13

    def test_inverse_matches_triangular_solve(self):
        # scipy's triangular solve is the oracle for the forward substitution
        rng = np.random.default_rng(8)
        for _ in range(1000):
            t = BasisChange.from_offdiag(rng.uniform(-2, 2, 10))
            inv = t.inverse().matrix
            ref = solve_triangular(t.matrix, np.eye(5), lower=True, unit_diagonal=True)
            assert np.max(np.abs(inv - ref)) <= 1e-14
            assert np.max(np.abs(t.matrix @ inv - np.eye(5))) <= 1e-14

    def test_d1_parameter_formulas(self):
        # a10=2, a5=3, a6=1, a7=0, a8=4 gives alpha=2, beta=3, gamma=6
        a = [0.0] * 10
        a[9], a[4], a[5], a[6], a[7] = 2.0, 3.0, 1.0, 0.0, 4.0
        got = change_basis(x_basis(ModelId.D1), BasisChange.from_offdiag(a))
        want = build_model(ModelId.D1, {"alpha": 2.0, "beta": 3.0, "gamma": 6.0})
        assert np.max(np.abs(got.c - want.c)) < 1e-12

    def test_d2_parameter_formulas(self):
        a = [0.0] * 10
        a[9] = 1.0  # a10=1, a5=a1=a8=a9=a6=0 -> alpha=1, beta=gamma=0
        got = change_basis(x_basis(ModelId.D2), BasisChange.from_offdiag(a))
        want = build_model(ModelId.D2, {"alpha": 1.0, "beta": 0.0, "gamma": 0.0})
        assert np.max(np.abs(got.c - want.c)) < 1e-12

    def test_identity_change(self):
        sc = x_basis(ModelId.D3)
        got = change_basis(sc, BasisChange.identity(5))
        assert np.array_equal(got.c, sc.c)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for model in ModelId:
            sc = x_basis(model)
            t = BasisChange.from_offdiag(rng.uniform(-2, 2, 10))
            back = change_basis(change_basis(sc, t), t.inverse())
            assert np.max(np.abs(back.c - sc.c)) < 1e-12

    def test_jacobi_preserved(self):
        rng = np.random.default_rng(7)
        t = BasisChange.from_offdiag(rng.uniform(-2, 2, 10))
        sc = change_basis(x_basis(ModelId.D11, eps=-1.0), t)
        assert jacobi_residual(sc) < 1e-12

    def test_changed_tables_are_exactly_antisymmetric(self):
        # the einsum alone summed c[i,j,k] and c[j,i,k] in different orders
        # and left c + c^T != 0 in 316 of these 500 draws; exact
        # antisymmetry makes the 10-triple Jacobi sum the 125-triple one (75
        # of the 500 differed)
        rng = np.random.default_rng(0)
        for k in range(500):
            model = list(ModelId)[k % 5]
            sc = y_basis_change(model, rng.uniform(-2, 2, 10),
                                eps=float(rng.choice((-1.0, 1.0))))
            assert np.array_equal(sc.c, -sc.c.swapaxes(0, 1)), k
            t = np.einsum("ijm,mlk->ijlk", sc.c, sc.c)
            cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
            assert jacobi_residual(sc) == float(np.max(np.abs(cyc))), k
