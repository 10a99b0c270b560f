"""The five model families D1, D2, D3, D5, D11.

Each model is a 5-dimensional unimodular solvable Lie algebra carrying a
contact structure, given in two bases:

* the X-basis, the classification's normal form, and
* the Y-basis, the image of the X-basis under a lower-unitriangular change
  of basis that diagonalizes an arbitrary left-invariant metric.  Its
  bracket table depends on a handful of combined parameters (alpha, beta,
  ...) of the ten subdiagonal entries a1..a10.

The catalog also records, per model, the parameter assignment that makes
the Ricci tensor of a diagonal metric diagonal, the known conserved
monomials, and the expected long-time power-law exponents.  A flow's
initial data is a :class:`solvflow.curvature.DiagonalMetric`, which this
module also names ``InitialData``.

Classification labels D4 and D6-D10 belong to families without the
structure treated here and are deliberately absent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .curvature import COMPONENTS, DiagonalMetric
from .liecore import (BasisChange, StructureConstants, _bracket_tensor, _check_tensors,
                      change_basis)

__all__ = [
    "ModelId",
    "InitialData",
    "InvariantMonomial",
    "ModelInvariantSet",
    "SpecialInvariant",
    "build_model",
    "build_models",
    "x_basis",
    "params_from_basis_change",
    "constrained_params",
    "model_invariants",
    "model_asymptotics",
    "case_labels",
    "classify_case",
    "describe",
]


class ModelId(str, Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D5 = "D5"
    D11 = "D11"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_DESCRIPTIONS = {
    ModelId.D1: "Heisenberg-type nilpotent: [Y2,Y4]=Y1, [Y3,Y5]=Y1",
    ModelId.D2: "three-step nilpotent: [Y2,Y5]=[Y3,Y4]=Y1, [Y3,Y5]=Y2",
    ModelId.D3: "filiform-type nilpotent: [Y2,Y5]=[Y3,Y4]=Y1, [Y3,Y5]=Y2, [Y4,Y5]=Y3",
    ModelId.D5: "solvable with hyperbolic ad(Y5): [Y2,Y3]=Y1, [Y2,Y5]=Y2, [Y3,Y5]=-Y3",
    ModelId.D11: "solvable with rotational ad(Y5): [Y2,Y3]=Y1, [Y2,Y5]=Y3, [Y3,Y5]=-Y2, [Y4,Y5]=eps*Y1",
}


# a flow's initial data is a metric, which callers build under this name too
InitialData = DiagonalMetric


@dataclass(frozen=True)
class InvariantMonomial:
    """Integer exponent vector e with prod_i g_i^{e_i} constant along the flow.

    Canonical form: not all zero, gcd of entries 1, first nonzero entry
    positive.
    """

    e: tuple[int, int, int, int, int]

    def __post_init__(self):
        e = tuple(int(x) for x in self.e)
        if len(e) != len(COMPONENTS):
            raise ValueError(f"exponent vector must have length {len(COMPONENTS)}")
        nz = [x for x in e if x != 0]
        if not nz:
            raise ValueError("exponent vector must not be zero")
        if math.gcd(*(abs(x) for x in nz)) != 1:
            raise ValueError("exponent vector must be primitive")
        if nz[0] < 0:
            raise ValueError("first nonzero exponent must be positive")
        object.__setattr__(self, "e", e)

    def value(self, coeffs: np.ndarray) -> np.ndarray:
        """prod_i coeffs[..., i]**e_i, stable via logs (coeffs > 0)."""
        g = np.asarray(coeffs, dtype=float)
        return np.exp(np.log(g) @ np.array(self.e, dtype=float))

    def drift(self, coeffs: np.ndarray) -> float | np.ndarray:
        """Worst relative drift max |v/v0 - 1| of the value along samples.

        ``coeffs`` is one trajectory's samples (S, 5), which gives a float,
        or a stack (..., S, 5) of trajectories on one sample grid, which
        gives an array (...) of each one's drift, equal to its own."""
        vals = self.value(coeffs)
        worst = np.max(np.abs(vals / vals[..., :1] - 1.0), axis=-1)
        return float(worst) if worst.ndim == 0 else worst

    def __str__(self) -> str:
        return "*".join(n if p == 1 else f"{n}^{p}" for n, p in zip(COMPONENTS, self.e) if p)


@dataclass(frozen=True)
class SpecialInvariant:
    """Named non-monomial quantity with a known qualitative behavior.

    ``behavior`` is one of "conserved" (constant along every trajectory),
    "decaying" (tends to zero), or "diverging" (grows without bound).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    behavior: str

    def __post_init__(self):
        if self.behavior not in ("conserved", "decaying", "diverging"):
            raise ValueError(f"unknown behavior {self.behavior!r}")


@dataclass(frozen=True)
class ModelInvariantSet:
    monomials: tuple[InvariantMonomial, ...]
    specials: tuple[SpecialInvariant, ...] = ()


# ---------------------------------------------------------------------------
# bracket tables
# ---------------------------------------------------------------------------

_PARAM_NAMES: dict[ModelId, tuple[str, ...]] = {
    ModelId.D1: ("alpha", "beta", "gamma"),
    ModelId.D2: ("alpha", "beta", "gamma"),
    ModelId.D3: ("alpha", "beta", "gamma"),
    ModelId.D5: ("alpha", "beta", "gamma", "delta", "eta", "mu", "rho"),
    ModelId.D11: ("alpha", "beta", "gamma", "delta", "eta", "kappa", "rho", "sigma", "eps"),
}


def _check_eps(*values: float) -> None:
    """Refuse a D11 eps that is not +1 or -1."""
    bad = [e for e in values if e not in (1.0, -1.0)]
    if bad:
        raise ValueError(f"D11 requires eps in {{+1, -1}}, got {bad[0]}")


def _check_params(model: ModelId, params: Mapping[str, float], stacked: bool = False) -> dict:
    """All of the model's parameters, the missing ones 0 (eps 1): floats for
    one table, or arrays over a stack of tables if ``stacked``."""
    names = _PARAM_NAMES[model]
    unknown = params.keys() - names
    if unknown:
        raise ValueError(f"{model.value} has no parameters {sorted(unknown)}")
    number = (lambda x: np.asarray(x, dtype=float)) if stacked else float
    full = {n: number(params.get(n, 0.0)) for n in names}
    if model is ModelId.D11:
        eps = full["eps"] = number(params.get("eps", 1.0))
        _check_eps(*(np.unique(eps).tolist() if stacked else (eps,)))
    return full


def x_basis(model: ModelId, eps: float = 1.0) -> StructureConstants:
    """The classification's X-basis bracket table (0-based indices)."""
    model = ModelId(model)
    if model is ModelId.D1:
        entries = {(1, 3, 0): 1.0, (2, 4, 0): 1.0}
    elif model is ModelId.D2:
        entries = {(1, 4, 0): 1.0, (2, 3, 0): 1.0, (2, 4, 1): 1.0}
    elif model is ModelId.D3:
        entries = {(1, 4, 0): 1.0, (2, 3, 0): 1.0, (2, 4, 1): 1.0, (3, 4, 2): 1.0}
    elif model is ModelId.D5:
        entries = {(1, 2, 0): 1.0, (1, 4, 1): 1.0, (2, 4, 2): -1.0, (3, 4, 0): 1.0}
    else:  # D11
        _check_eps(eps)
        entries = {(1, 2, 0): 1.0, (1, 4, 2): 1.0, (2, 4, 1): -1.0, (3, 4, 0): eps}
    return StructureConstants.from_brackets(len(COMPONENTS), entries)


def build_model(model: ModelId, params: Mapping[str, float]) -> StructureConstants:
    """Y-basis structure constants for the given combined parameters."""
    model = ModelId(model)
    return StructureConstants(_bracket_tensor(len(COMPONENTS),
                                              _entries(model, _check_params(model, params))))


def build_models(model: ModelId, params: Mapping[str, object]) -> np.ndarray:
    """Y-basis structure constants of a stack of parameter values, as one
    array (..., 5, 5, 5).  Each value of ``params`` is an array over the
    stack, or a number that all of its tables share, and each table is
    :func:`build_model`'s at its own values, bitwise.  The stack is held to
    the rule of :class:`~solvflow.liecore.StructureConstants`: finite and
    antisymmetric, or a ValueError that names the first table that is not."""
    model = ModelId(model)
    p = _check_params(model, params, stacked=True)
    shape = np.broadcast_shapes(*(v.shape for v in p.values()))
    c = _bracket_tensor(len(COMPONENTS), _entries(model, p), shape)
    c = np.ascontiguousarray(np.moveaxis(c, (0, 1, 2), (-3, -2, -1)))
    _check_tensors(c)
    return c


def _entries(model: ModelId, p: Mapping[str, object]) -> dict[tuple[int, int, int], object]:
    """The model's Y-basis brackets {(i, j, k): coeff} at the parameters
    ``p``, numbers or arrays over a stack: the one table of each model."""
    if model is ModelId.D1:
        a, b, g = p["alpha"], p["beta"], p["gamma"]
        entries = {
            (1, 3, 0): 1.0,
            (1, 4, 0): a,
            (2, 3, 0): b,
            (2, 4, 0): a * b + 1.0,
            (3, 4, 0): g,
        }
    elif model is ModelId.D2:
        a, b, g = p["alpha"], p["beta"], p["gamma"]
        entries = {
            (1, 4, 0): 1.0,
            (2, 3, 0): 1.0,
            (2, 4, 0): a,
            (2, 4, 1): 1.0,
            (3, 4, 0): b,
            (3, 4, 1): g,
        }
    elif model is ModelId.D3:
        # [Y3,Y5] = alpha Y1 + Y2: a Y3 component would break both the Jacobi
        # identity and the model's Ricci table, so there is none.
        a, b, g = p["alpha"], p["beta"], p["gamma"]
        entries = {
            (1, 4, 0): 1.0,
            (2, 3, 0): 1.0,
            (2, 4, 0): a,
            (2, 4, 1): 1.0,
            (3, 4, 0): b,
            (3, 4, 1): g,
            (3, 4, 2): 1.0,
        }
    elif model is ModelId.D5:
        a, b, g = p["alpha"], p["beta"], p["gamma"]
        d, et, mu, rho = p["delta"], p["eta"], p["mu"], p["rho"]
        entries = {
            (1, 2, 0): 1.0,
            (1, 3, 0): a,
            (1, 4, 0): b,
            (1, 4, 1): 1.0,
            (2, 3, 0): g,
            (2, 4, 0): d,
            (2, 4, 1): et,
            (2, 4, 2): -1.0,
            (3, 4, 0): mu,
            (3, 4, 1): rho,
            (3, 4, 2): -a,
        }
    else:  # D11
        a, b, g = p["alpha"], p["beta"], p["gamma"]
        d, et, k, rho, s = p["delta"], p["eta"], p["kappa"], p["rho"], p["sigma"]
        entries = {
            (1, 2, 0): 1.0,
            (1, 3, 0): a,
            (1, 4, 0): b,
            (1, 4, 1): g,
            (1, 4, 2): 1.0,
            (2, 3, 0): d,
            (2, 4, 0): et,
            (2, 4, 1): -1.0 - g * g,
            (2, 4, 2): -g,
            (3, 4, 0): k,
            (3, 4, 1): rho,
            (3, 4, 2): s,
        }
    return entries


def params_from_basis_change(model: ModelId, a: Sequence[float] | np.ndarray,
                             eps: float | np.ndarray = 1.0) -> dict:
    """Combined parameters induced by the unitriangular change Y_i = L_i^k X_k
    with subdiagonal entries a = (a1, ..., a10).

    These are the unique formulas for which
    ``build_model(model, params_from_basis_change(model, a))`` equals
    ``change_basis(x_basis(model), BasisChange.from_offdiag(a))``; the
    bilinear expansion is straightforward but easy to mistype, and the
    equality is tested against the tensor transformation directly.

    For one change, ``a`` has 10 entries and the parameters are floats.
    For N changes, ``a`` is (N, 10), ``eps`` is a number or (N,), and each
    parameter is an (N,) array whose row k is the parameter of row k of
    ``a``, bitwise: the same formulas act elementwise.
    """
    model = ModelId(model)
    a = np.asarray(a, dtype=float)
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10 = a.tolist() if a.ndim == 1 else a.T.copy()
    if model is ModelId.D1:
        return {"alpha": a10, "beta": a5, "gamma": a6 * a10 - a7 + a8}
    if model is ModelId.D2:
        return {
            "alpha": a10 + a5 - a1,
            "beta": a8 * a10 - a9 + a6 - a1 * a8,
            "gamma": a8,
        }
    if model is ModelId.D3:
        return {
            "alpha": a10 + a5 - a1,
            "beta": a8 * a10 - a9 + a6 - a1 * a8 - a2 + a1 * a5,
            "gamma": a8 - a5,
        }
    if model is ModelId.D5:
        return {
            "alpha": a8,
            "beta": a9 - a1,
            "gamma": a5 * a8 - a6,
            "delta": a5 * a9 - a7 + a2 - 2.0 * a1 * a5,
            "eta": 2.0 * a5,
            "mu": a6 * a9 - a7 * a8 + 1.0 - a1 * a6 + a2 * a8 - a1 * a5 * a8,
            "rho": a6 + a5 * a8,
        }
    # D11
    return {
        "alpha": a8,
        "beta": a1 * a5 - a2 + a9,
        "gamma": -a5,
        "delta": a5 * a8 - a6,
        "eta": a1 + a1 * a5 * a5 - a2 * a5 + a5 * a9 - a7,
        "kappa": a1 * a8 + a1 * a5 * a6 - a2 * a6 + a6 * a9 - a7 * a8 + eps,
        "rho": -a5 * a6 - a8,
        "sigma": a6,
        "eps": eps,
    }


def constrained_params(model: ModelId, eps: float = 1.0) -> dict[str, float]:
    """The parameter assignment under which the Ricci tensor of every
    diagonal metric is diagonal, so the flow preserves diagonality."""
    model = ModelId(model)
    if model is ModelId.D11:
        _check_eps(eps)
        p = {n: 0.0 for n in _PARAM_NAMES[model]}
        p["kappa"] = eps
        p["eps"] = eps
        return p
    return {n: 0.0 for n in _PARAM_NAMES[model]}


def y_basis_change(model: ModelId, a: Sequence[float], eps: float = 1.0) -> StructureConstants:
    """Y-basis brackets computed by direct tensor transformation."""
    return change_basis(x_basis(model, eps), BasisChange.from_offdiag(a))


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

def _mono(*e: int) -> InvariantMonomial:
    return InvariantMonomial(tuple(e))


def _d11_sq_diff(coeffs: np.ndarray) -> np.ndarray:
    g = np.asarray(coeffs, dtype=float)
    A, B, C, D, E = np.moveaxis(g, -1, 0)
    return A**2 * E**2 * (B**2 - C**2)


def _d11_case2_ratio(coeffs: np.ndarray) -> np.ndarray:
    g = np.asarray(coeffs, dtype=float)
    A, B, C, D, E = np.moveaxis(g, -1, 0)
    return (B + C) * D**2 / ((B - C) * E**2)


_INVARIANTS: dict[ModelId, ModelInvariantSet] = {
    ModelId.D1: ModelInvariantSet(
        (_mono(1, 1, 1, 0, 0), _mono(1, 1, 0, 0, 1), _mono(1, 0, 1, 1, 0), _mono(1, 0, 0, 1, 1)),
    ),
    ModelId.D2: ModelInvariantSet((_mono(1, 1, 1, 0, 0), _mono(2, 1, 0, 2, 1))),
    ModelId.D3: ModelInvariantSet((_mono(5, 4, 3, 2, 1),)),
    ModelId.D5: ModelInvariantSet((_mono(1, 1, 0, 0, 0), _mono(1, 0, 1, 0, 0))),
    ModelId.D11: ModelInvariantSet(
        (_mono(2, 1, 1, 2, 0),),
        # d/dt log E = B/(2CE)+C/(2BE)+A/(DE) - 2/E picks up a -2/E from the
        # second (commutator) term of the Ricci form on the rotation block
        # [Y2,Y5]=Y3, [Y3,Y5]=-Y2, so d/dt log(A^2 E^2 (B^2-C^2)) = -4/E and
        # the quantity decays; its companion ratio diverges by the same 4/E.
        (
            SpecialInvariant("A^2*E^2*(B^2-C^2)", _d11_sq_diff, behavior="decaying"),
            SpecialInvariant("(B+C)*D^2/((B-C)*E^2)", _d11_case2_ratio, behavior="diverging"),
        ),
    ),
}


def model_invariants(model: ModelId) -> ModelInvariantSet:
    return _INVARIANTS[ModelId(model)]


# ---------------------------------------------------------------------------
# asymptotics and case structure
# ---------------------------------------------------------------------------

_CASES: dict[ModelId, tuple[str, ...]] = {
    ModelId.D1: ("case1", "case2"),
    ModelId.D2: ("case1", "case2"),
    ModelId.D3: ("self_similar", "generic"),
    ModelId.D5: ("exact",),
    ModelId.D11: ("case1", "case2"),
}

# Expected power-law exponents (p_A, ..., p_E) of the coefficients for
# large time.  Every row is orthogonal to the model's conserved monomials
# (D5's B and C must grow because AB and AC are conserved while A decays).
# D11's rotation block is an isometric direction when B = C (a flat E(2)
# factor), so asymptotically the model behaves like the Heisenberg-type D1
# and shares its exponents; see verify.discrepancies for the superseded
# tabulated row (-1/3, 1/3, 1/3, 0, 1).
_EXPONENTS: dict[ModelId, tuple[Fraction, ...]] = {
    ModelId.D1: (Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
    ModelId.D2: (Fraction(-3, 7), Fraction(0), Fraction(3, 7), Fraction(1, 7), Fraction(4, 7)),
    ModelId.D3: (Fraction(-4, 11), Fraction(-1, 11), Fraction(2, 11), Fraction(5, 11), Fraction(8, 11)),
    ModelId.D5: (Fraction(-1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(1)),
    ModelId.D11: (Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
}


def case_labels(model: ModelId) -> tuple[str, ...]:
    return _CASES[ModelId(model)]


def model_asymptotics(model: ModelId, case: str) -> tuple[Fraction, ...]:
    """Expected long-time exponents (p_A, ..., p_E) for the given case."""
    model = ModelId(model)
    if case not in _CASES[model]:
        raise ValueError(f"unknown case {case!r} for {model.value}; valid: {_CASES[model]}")
    return _EXPONENTS[model]


_REL_EQ = 1e-12


def _close(a: float, b: float, rel: float = _REL_EQ) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def classify_case(model: ModelId, initial: DiagonalMetric) -> str:
    """Assign initial data to the case whose analysis applies to it.

    D1: case1 iff l2*l4 = l3*l5.  D2: case1 iff B^2 = AC initially, i.e.
    l2^2 = l1*l3.  D3: self_similar iff the three compatibility identities
    hold.  D11: case1 iff l2 = l3 (l2 < l3 is case2 as well, by the B/C
    symmetry).  D5 has a single exact case.
    """
    model = ModelId(model)
    l1, l2, l3, l4, l5 = initial.coeffs
    if model is ModelId.D1:
        return "case1" if _close(l2 * l4, l3 * l5) else "case2"
    if model is ModelId.D2:
        return "case1" if _close(l2 * l2, l1 * l3) else "case2"
    if model is ModelId.D3:
        ok = (
            _close(l2 * l5, l3 * l4)
            and _close(l2 * l4, l3 * l3)
            and _close(3.0 * l1 * l5, 2.0 * l3 * l3)
        )
        return "self_similar" if ok else "generic"
    if model is ModelId.D5:
        return "exact"
    return "case1" if _close(l2, l3) else "case2"


def describe(model: ModelId) -> dict:
    """Metadata bundle for CLI/report output."""
    model = ModelId(model)
    inv = model_invariants(model)
    return {
        "id": model.value,
        "description": _DESCRIPTIONS[model],
        "parameters": list(_PARAM_NAMES[model]),
        "constrained_params": constrained_params(model),
        "invariant_monomials": [str(m) for m in inv.monomials],
        "invariant_exponents": [list(m.e) for m in inv.monomials],
        "special_invariants": [s.name for s in inv.specials],
        "cases": list(_CASES[model]),
        "asymptotic_exponents": {
            case: [str(x) for x in model_asymptotics(model, case)] for case in _CASES[model]
        },
    }
