"""End-to-end verification of the catalog's recorded claims.

Every check compares an independently derived reference value (hand-derived
formula, closed-form solution, conserved quantity, or expected exponent)
against what the library actually computes.  Results are grouped into the
numbered criteria that the command-line ``check`` subcommand reports.

Where the classical tabulated formulas for these models disagree with the
curvature computed from the quadratic form (which is cross-checked against
a brute-force Levi-Civita computation in the test suite), the reference
tables below use the corrected form, and the superseded value is re-measured
and listed in the report's ``discrepancies`` section.  This affects only
D11, whose tabulated Ric(Y5,Y5) omits the commutator contribution +1/E of
the rotation block; the corrected flow has dE/dt = C/B + B/C + A/D - 2 and
Heisenberg-type long-time exponents.

The flow runs that the criteria read are the canonical runs (``_RUNS``)
of the selected models, plus criterion 10's abelian run, whose explicit
brackets no model filter removes, and criterion 4's 20 draws per model.
:meth:`VerifySession.run_all` solves all of them before the criteria start,
in one stacked solve (:func:`solvflow.flow.integrate_many`), so its time
appears in the report's ``solves`` and not in any criterion's
``elapsed_s``.

Criteria 1, 2 and 10 evaluate their random draws as stacks: one
:func:`~solvflow.curvature.ricci_forms` call per model for the Ricci forms,
one broadcast call of the reference formulas, and, for each model's 100
bracket tables, one (100, 5, 5, 5) array built by
:func:`~solvflow.catalog.build_models` from the stacked
:func:`~solvflow.catalog.params_from_basis_change`, checked there as
:class:`~solvflow.liecore.StructureConstants` checks one table, and one
stacked Jacobi and unimodularity evaluation.  The draws themselves are
unchanged: the same generators give the same values in the same order as a
loop over single draws, and so do the reports.

Drifts of the conserved monomials are taken once per sample grid, not once
per run: the stacked solve gives each run's ``max_drift`` from one stack of
the rows of a block that share a grid, and criterion 4 reads its 20 draws'
``max_drift`` per model.  Each run's drift equals the one its own samples
give, bitwise.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import catalog
from .catalog import ModelId
from .curvature import COMPONENTS, DiagonalMetric, compile_flow, ricci_forms, ricci_quadratic
from .flow import FlowProblem, Trajectory, integrate, integrate_many
from .invariants import detect_monomials, integer_kernel, ratio_diagnostics
from .liecore import StructureConstants, jacobi_residuals, unimodularity_defects
from .asymptotics import (
    ClosedFormSolution,
    d1_pair_constants,
    fit_power_law,
    residual_check,
)

__all__ = [
    "CheckItem",
    "CriterionResult",
    "Discrepancy",
    "VerificationReport",
    "VerifySession",
    "run_verification",
    "CRITERION_TITLES",
]

ALL_MODELS = tuple(ModelId)
_N = len(COMPONENTS)  # coefficients of one metric


# ---------------------------------------------------------------------------
# reference formulas (hand-derived; D11 corrected as per module docstring)
# ---------------------------------------------------------------------------

def reference_ricci_diag(model: ModelId, g: Sequence[float]) -> np.ndarray:
    """Diagonal Ricci components of the constrained models in the
    orthonormal frame, written out termwise.  ``g`` is one metric's five
    coefficients or a (5, N) stack of them, which gives (5, N)."""
    A, B, C, D, E = g
    if model is ModelId.D1:
        return np.array([
            A / (2 * B * D) + A / (2 * C * E),
            -A / (2 * B * D),
            -A / (2 * C * E),
            -A / (2 * B * D),
            -A / (2 * C * E),
        ])
    if model is ModelId.D2:
        return np.array([
            A / (2 * B * E) + A / (2 * C * D),
            B / (2 * C * E) - A / (2 * B * E),
            -A / (2 * C * D) - B / (2 * C * E),
            -A / (2 * C * D),
            -A / (2 * B * E) - B / (2 * C * E),
        ])
    if model is ModelId.D3:
        return np.array([
            A / (2 * B * E) + A / (2 * C * D),
            B / (2 * C * E) - A / (2 * B * E),
            C / (2 * D * E) - A / (2 * C * D) - B / (2 * C * E),
            -A / (2 * C * D) - C / (2 * D * E),
            -A / (2 * B * E) - B / (2 * C * E) - C / (2 * D * E),
        ])
    if model is ModelId.D5:
        return np.array([
            A / (2 * B * C),
            -A / (2 * B * C),
            -A / (2 * B * C),
            np.zeros_like(A, dtype=float),
            -2.0 / E,
        ])
    # D11; the +1/E in the last slot is the rotation-block commutator term
    return np.array([
        A / (2 * B * C) + A / (2 * D * E),
        B / (2 * C * E) - A / (2 * B * C) - C / (2 * B * E),
        C / (2 * B * E) - A / (2 * B * C) - B / (2 * C * E),
        -A / (2 * D * E),
        -C / (2 * B * E) - B / (2 * C * E) - A / (2 * D * E) + 1.0 / E,
    ])


def reference_system(model: ModelId, g: Sequence[float]) -> np.ndarray:
    """Right-hand sides of the five constrained flow systems, for one
    metric's five coefficients or a (5, N) stack of them."""
    A, B, C, D, E = g
    if model is ModelId.D1:
        return np.array([-A * A / (B * D) - A * A / (C * E), A / D, A / E, A / B, A / C])
    if model is ModelId.D2:
        return np.array([
            -A * A / (B * E) - A * A / (C * D),
            -B * B / (C * E) + A / E,
            A / D + B / E,
            A / C,
            A / B + B / C,
        ])
    if model is ModelId.D3:
        return np.array([
            -A * A / (B * E) - A * A / (C * D),
            -B * B / (C * E) + A / E,
            -C * C / (D * E) + A / D + B / E,
            A / C + C / E,
            A / B + B / C + C / D,
        ])
    if model is ModelId.D5:
        return np.array([-A * A / (B * C), A / C, A / B,
                         np.zeros_like(A, dtype=float), np.full_like(A, 4.0, dtype=float)])
    return np.array([
        -A * A / (B * C) - A * A / (D * E),
        -B * B / (C * E) + A / C + C / E,
        -C * C / (B * E) + A / B + B / E,
        A / E,
        C / B + B / C + A / D - 2.0,
    ])


# superseded D11 values, re-measured for the report
_D11_TABULATED_EXPONENTS = (
    Fraction(-1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(1)
)

# typo-level corrections applied to the reference tables and catalog;
# each is a plain statement of the algebra involved
STATIC_NOTES = [
    "D3 bracket table: [Y3,Y5] = alpha*Y1 + Y2 (a -Y3 term would violate the "
    "Jacobi identity and contradict the model's Ricci components); the "
    "basis-change coefficient is gamma = a8 - a5.",
    "D5/D11 basis-change formulas: the combined parameters depend on a8 (not "
    "a10) wherever the [.., Y4] column is involved; verified against the "
    "direct tensor transformation. D11 additionally has sigma = a6.",
    "D5 solution: B and C carry exponent +1/3 (AB and AC are conserved while "
    "A decays like the -1/3 power).",
    "D11 Ric(Y5,Y5): the rotation block [Y2,Y5]=Y3, [Y3,Y5]=-Y2 contributes "
    "-(B-C)^2/(2BCE), i.e. the termwise value -C/2BE - B/2CE plus +1/E from "
    "the commutator sum; hence dE/dt = C/B + B/C + A/D - 2. Cross-checked "
    "against a brute-force Levi-Civita curvature computation, and against "
    "flatness of E(2) (B=C makes the block's contribution vanish).",
    "D2 ratio dynamics: d/dt(AC/B^2) = 3(AC/B^2)(B^2-AC)/(BCE); the limit "
    "AC/B^2 -> 1 is verified numerically.",
]


@dataclass
class CheckItem:
    name: str
    passed: bool
    computed: object
    expected: object
    tolerance: float | None = None
    note: str | None = None

    def as_dict(self) -> dict:
        d = {
            "name": self.name,
            "passed": bool(self.passed),
            "computed": self.computed,
            "expected": self.expected,
        }
        if self.tolerance is not None:
            d["tolerance"] = self.tolerance
        if self.note:
            d["note"] = self.note
        return d


def _below(name: str, value: float, tol: float) -> CheckItem:
    """The item that passes when ``value`` < ``tol``, reported against 0."""
    return CheckItem(name, value < tol, value, 0.0, tol)


@dataclass
class CriterionResult:
    number: int
    title: str
    items: list[CheckItem]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.items)

    def as_dict(self) -> dict:
        return {
            "criterion": self.number,
            "title": self.title,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 6),
            "items": [i.as_dict() for i in self.items],
        }


@dataclass
class Discrepancy:
    """A superseded recorded value, re-measured against the actual flow."""

    subject: str
    tabulated: str
    measured: str
    resolution: str

    def as_dict(self) -> dict:
        return self.__dict__.copy()


# the facts of a stacked solve that every one of its rows repeats in its meta
_SOLVE_FACTS = ("batch_size", "nfev", "steps", "rejected_steps", "min_step_log_t", "wall_s")


@dataclass
class VerificationReport:
    """The criteria's results, and how the flow runs they read were solved.

    ``runs`` is keyed by the ``_RUNS`` key or, for criterion 4's draws, by
    ``c4_<model>_<k>``; each entry gives the run's own ``solver``,
    ``termination``, ``max_drift``, ``steps_set`` and ``retired_at_step``
    (see :class:`~solvflow.flow.Trajectory`), and in ``solve`` the index into
    ``solves`` of the ``integrate`` or ``integrate_many`` call that solved
    it.  ``solves`` gives each such call's ``_SOLVE_FACTS`` once, in the
    order of the calls.  A check makes one solve."""

    criteria: list[CriterionResult]
    discrepancies: list[Discrepancy]
    notes: list[str]
    seed: int
    elapsed_s: float
    runs: dict[str, dict] = field(default_factory=dict)
    solves: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "seed": self.seed,
            "elapsed_s": round(self.elapsed_s, 6),
            "criteria": [c.as_dict() for c in self.criteria],
            "discrepancies": [d.as_dict() for d in self.discrepancies],
            "notes": self.notes,
            "runs": self.runs,
            "solves": self.solves,
        }


CRITERION_TITLES = {
    1: "Ricci reference equivalence",
    2: "flow-system reference equivalence",
    3: "D5 exact solution",
    4: "conserved quantities",
    5: "exponent reproduction",
    6: "D1 algebraic relations",
    7: "D2 structure",
    8: "D3 dynamics",
    9: "D11 dichotomy",
    10: "property suites",
}


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Relative difference with an absolute floor for exact zeros."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    ok = diff <= 1e-25  # both essentially zero
    rel = np.where(ok, 0.0, diff / np.maximum(scale, 1e-300))
    return float(np.max(rel))


# canonical verification runs (catalog model or bracket table, lam, t_end)
_RUNS: dict[str, tuple[ModelId | StructureConstants, tuple[float, ...], float]] = {
    "d5_unit_10": (ModelId.D5, (1, 1, 1, 1, 1), 10.0),
    "d1_case1_1e6": (ModelId.D1, (1.0, 1.2, 0.8, 1.5, 1.2 * 1.5 / 0.8), 1e6),
    "d1_case2_1e6": (ModelId.D1, (1.0, 1.0, 1.0, 2.0, 1.0), 1e6),
    "d2_case1_1e6": (ModelId.D2, (1, 1, 1, 1, 1), 1e6),
    "d2_case1_bern_1e4": (ModelId.D2, (1, 2, 4, 1, 1), 1e4),
    "d2_generic_1e6": (ModelId.D2, (1.0, 1.1, 1.3, 0.9, 1.2), 1e6),
    "d3_selfsim_1e3": (ModelId.D3, (2.0 / 3.0, 1, 1, 1, 1), 1e3),
    "d3_unit_1e6": (ModelId.D3, (1, 1, 1, 1, 1), 1e6),
    "d11_case1_1e6": (ModelId.D11, (1, 1, 1, 2, 1), 1e6),
    "d11_case2_10": (ModelId.D11, (1, 2, 1, 1, 1), 10.0),
    "d11_case2_1e4": (ModelId.D11, (1, 2, 1, 1, 1), 1e4),
    "abelian_10": (StructureConstants.zero(_N), (1.3, 0.7, 2.0, 1.1, 0.9), 10.0),
}

def _closed_form_dev(traj: Trajectory, case: str) -> float:
    """Worst relative deviation of a run from its model's closed form
    ``case`` at the run's initial data."""
    cf = ClosedFormSolution(traj.model, case, traj.coeffs[0])
    return float(np.max(np.abs(traj.coeffs / cf.eval_array(traj.times) - 1.0)))


def _run_problem(key: str) -> FlowProblem:
    table, lam, t_end = _RUNS[key]
    model, brackets = (table, None) if isinstance(table, ModelId) else (None, table)
    return FlowProblem(model, DiagonalMetric(lam), t_end, rel_tol=1e-12, abs_tol=1e-14,
                       brackets=brackets)


class VerifySession:
    """Caches flow runs and produces one CriterionResult per criterion."""

    def __init__(self, seed: int = 0, models: Iterable[ModelId] | None = None):
        self.seed = int(seed)
        self.models = tuple(ModelId(m) for m in models) if models else ALL_MODELS
        self._cache: dict[str, Trajectory] = {}
        # the facts of each solve, in call order, and the one of each run
        self._solves: list[dict] = []
        self._solve_of: dict[str, int] = {}
        self.discrepancies: list[Discrepancy] = []

    # -- helpers ------------------------------------------------------------

    def _rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, salt))

    def run(self, key: str) -> Trajectory:
        """The canonical run ``key``, solved on its own if not yet solved."""
        if key not in self._cache:
            self._solved([key], [integrate(_run_problem(key))])
        return self._cache[key]

    def _solved(self, keys: Iterable[str], trajs: list[Trajectory]) -> None:
        """Cache the runs ``keys``, which one solve gave as ``trajs``."""
        for key, traj in zip(keys, trajs):
            self._cache[key] = traj
            self._solve_of[key] = len(self._solves)
        self._solves.append({f: trajs[0].meta[f] for f in _SOLVE_FACTS})

    def _note_discrepancy(self, d: Discrepancy):
        if all(x.subject != d.subject for x in self.discrepancies):
            self.discrepancies.append(d)

    # -- criteria -----------------------------------------------------------

    def criterion_1(self) -> list[CheckItem]:
        rng = self._rng(1)
        items = []
        for model in self.models:
            sc = catalog.build_model(model, catalog.constrained_params(model))
            draws = np.exp(rng.uniform(np.log(0.1), np.log(10.0), (100, _N)))
            ric = ricci_forms(sc, draws)
            worst_diag = _rel_err(np.diagonal(ric, axis1=1, axis2=2),
                                  reference_ricci_diag(model, draws.T).T)
            worst_off = float(np.max(np.abs(ric[:, ~np.eye(_N, dtype=bool)])))
            items.append(_below(f"{model.value} Ricci diagonal vs reference", worst_diag, 1e-12))
            items.append(_below(f"{model.value} off-diagonal Ricci", worst_off, 1e-14))
        if ModelId.D11 in self.models:
            g = (1.0, 2.0, 1.0, 1.0, 1.0)
            A, B, C, D, E = g
            tab = -C / (2 * B * E) - B / (2 * C * E) - A / (2 * D * E)
            self._note_discrepancy(Discrepancy(
                "D11 Ric(Y5,Y5) termwise formula",
                f"-C/2BE - B/2CE - A/2DE = {tab} at (A..E)={g}",
                f"quadratic form gives {tab + 1.0 / E} (= tabulated + 1/E)",
                "reference table corrected by the rotation-block commutator "
                "term; confirmed by Levi-Civita brute force",
            ))
        return items

    def criterion_2(self) -> list[CheckItem]:
        rng = self._rng(2)
        items = []
        for model in self.models:
            terms = compile_flow(catalog.build_model(model, catalog.constrained_params(model)))
            terms.check_diagonal()
            draws = np.exp(rng.uniform(np.log(0.1), np.log(10.0), (100, _N)))
            got = draws * terms.log_rhs(np.log(draws))
            worst = _rel_err(got, reference_system(model, draws.T).T)
            items.append(_below(f"{model.value} flow rhs vs reference system", worst, 1e-12))
        if ModelId.D11 in self.models:
            self._note_discrepancy(Discrepancy(
                "D11 dE/dt",
                "C/B + B/C + A/D",
                "C/B + B/C + A/D - 2",
                "follows from the corrected Ric(Y5,Y5); at B = C the rotation "
                "block is an isometric (flat) direction and dE/dt = A/D",
            ))
        return items

    def criterion_3(self) -> list[CheckItem]:
        if ModelId.D5 not in self.models:
            return []
        traj = self.run("d5_unit_10")
        dev = _closed_form_dev(traj, "exact")
        edev = float(np.max(np.abs(traj.coeffs[:, 4] - (4.0 * traj.times + 1.0))))
        return [
            _below("D5 unit run vs closed form (t<=10)", dev, 1e-8),
            _below("D5 E(t) - (4t+1)", edev, 1e-10),
        ]


    def criterion_4(self) -> list[CheckItem]:
        items = []
        for model in self.models:
            inv = catalog.model_invariants(model)
            # each run's worst drift of the named monomials, which the solve
            # takes from the run's own samples
            worst = max(self._cache[f"c4_{model.value}_{k}"].meta["max_drift"] for k in range(20))
            items.append(_below(f"{model.value} invariant drift over 20 runs to 1e4", worst, 1e-8))
            detected = detect_monomials(model)
            have = [m.e for m in detected]
            missing = [str(m) for m in inv.monomials if m.e not in have]
            items.append(CheckItem(
                f"{model.value} detect_monomials recovers named invariants",
                not missing,
                f"detected {['(' + ','.join(map(str, e)) + ')' for e in have]}",
                "all named invariants present" if not missing else f"missing {missing}",
            ))
        return items

    def _fit_items(self, key: str, label: str, expected: Sequence[Fraction],
                   window=(1e4, 1e6)) -> list[CheckItem]:
        traj = self.run(key)
        items = []
        for name, p in zip(COMPONENTS, expected):
            f = fit_power_law(traj, name, window)
            want = float(p)
            # r^2 says nothing about a flat (zero-exponent) series
            ok = abs(f.exponent - want) <= 0.01 and (want == 0.0 or f.r_squared > 0.9999)
            items.append(CheckItem(f"{label} exponent {name}", ok, round(f.exponent, 6), want,
                                   0.01, note=f"r^2={f.r_squared:.8f}"))
        return items

    def criterion_5(self) -> list[CheckItem]:
        items: list[CheckItem] = []
        if ModelId.D1 in self.models:
            exp = catalog.model_asymptotics(ModelId.D1, "case1")
            items += self._fit_items("d1_case1_1e6", "D1 case1", exp)
            items += self._fit_items("d1_case2_1e6", "D1 case2", exp)
            # the asymptotic prefactor of A in case 2; 5% tolerance since the
            # constant enters through four quartic-root laws
            traj = self.run("d1_case2_1e6")
            lam = traj.coeffs[0]
            f = fit_power_law(traj, 0, (1e4, 1e6))
            claimed = 0.5 * float(lam[0] ** 2 * lam[1] * lam[2] * lam[3] * lam[4]) ** 0.25
            rel = abs(f.prefactor / claimed - 1.0)
            items.append(CheckItem("D1 case2 A prefactor vs (1/2)(l1^2 l2 l3 l4 l5)^(1/4)",
                                   rel < 0.05, f.prefactor, claimed, 0.05))
        if ModelId.D2 in self.models:
            exp = catalog.model_asymptotics(ModelId.D2, "case1")
            items += self._fit_items("d2_case1_1e6", "D2 case1", exp)
            items += self._fit_items("d2_generic_1e6", "D2 case2", exp)
        if ModelId.D3 in self.models:
            exp = catalog.model_asymptotics(ModelId.D3, "generic")
            items += self._fit_items("d3_unit_1e6", "D3 generic", exp)
            dev = _closed_form_dev(self.run("d3_selfsim_1e3"), "self_similar")
            items.append(_below("D3 self-similar run vs closed form", dev, 1e-8))
        if ModelId.D11 in self.models:
            exp = catalog.model_asymptotics(ModelId.D11, "case1")
            fit_items = self._fit_items("d11_case1_1e6", "D11 case1", exp)
            items += fit_items
            traj = self.run("d11_case1_1e6")
            dmon = bool(np.all(np.diff(traj.coeffs[:, 3]) >= -1e-12))
            items.append(CheckItem("D11 D(t) monotone nondecreasing", dmon, dmon, True))
            measured = [i.computed for i in fit_items]
            self._note_discrepancy(Discrepancy(
                "D11 long-time exponents",
                f"({', '.join(str(x) for x in _D11_TABULATED_EXPONENTS)}) with "
                "D -> const and E ~ 2t",
                f"measured {measured} (Heisenberg-type (-1/2, 1/4, 1/4, 1/4, 1/4))",
                "consequence of the corrected dE/dt; D and E grow like t^(1/4)",
            ))
        return items

    def criterion_6(self) -> list[CheckItem]:
        if ModelId.D1 not in self.models:
            return []
        items = []
        for key, case in (("d1_case1_1e6", "case1"), ("d1_case2_1e6", "case2")):
            traj = self.run(key)
            cst = d1_pair_constants(traj.coeffs[0])
            _, B, C, D, E = traj.coeffs.T
            pair_b = _rel_err(B**2, cst["omega"] * C**2 + cst["k"])
            pair_d = _rel_err(D**2, cst["eps"] * E**2 + cst["ell"])
            worst = max(pair_b, pair_d)
            items.append(_below(f"D1 {case} pair relations B^2-wC^2-k, D^2-eE^2-l",
                                worst, 1e-8))
            if case == "case1":
                items.append(_below("D1 case1 run vs quartic-root closed form",
                                    _closed_form_dev(traj, case), 1e-8))
            else:
                items.append(_below("D1 case2 log-implicit antiderivative laws",
                                    residual_check(ModelId.D1, case, traj), 1e-6))
        return items

    def criterion_7(self) -> list[CheckItem]:
        if ModelId.D2 not in self.models:
            return []
        items = []
        gen = self.run("d2_generic_1e6")
        (ratio,) = ratio_diagnostics(ModelId.D2, gen)
        i4 = int(np.argmin(np.abs(gen.times - 1e4)))
        ratio_dev = abs(float(ratio.values[i4]) - 1.0)
        items.append(_below("D2 generic AC/B^2 -> 1 at t=1e4", ratio_dev, 1e-3))
        lam = gen.coeffs[0]
        b_inf = float(lam[0] * lam[1] * lam[2]) ** (1.0 / 3.0)
        b_dev = abs(float(gen.coeffs[i4, 1]) - b_inf)
        items.append(_below("D2 generic B -> (l1 l2 l3)^(1/3) by t=1e4", b_dev, 1e-3))
        bern = self.run("d2_case1_bern_1e4")
        (ratio,) = ratio_diagnostics(ModelId.D2, bern)
        cons = float(np.max(np.abs(ratio.values - 1.0)))
        items.append(_below("D2 case1 AC/B^2 exactly conserved at 1", cons, 1e-8))
        items.append(_below("D2 case1 Bernoulli relation 1/A = (l/2)D^3 + K D",
                            residual_check(ModelId.D2, "case1", bern), 1e-8))
        return items

    def criterion_8(self) -> list[CheckItem]:
        if ModelId.D3 not in self.models:
            return []
        items = []
        for d in ratio_diagnostics(ModelId.D3, self.run("d3_unit_1e6")):
            items.append(CheckItem(f"D3 ratio {d.name} at t=1e6",
                                   abs(d.final - d.target) <= 0.01, d.final, d.target, 0.01))
        # the dominant balance of D3's table: with k = rates^T y, each
        # monomial m has m.k = -1, so (exps rates^T) y = -1, solved exactly
        # as the integer kernel of [exps rates^T | 1]
        terms = compile_flow(catalog.build_model(ModelId.D3,
                                                 catalog.constrained_params(ModelId.D3)))
        balance = terms.exps @ terms.rates.T
        kernel = integer_kernel(np.column_stack([balance, np.ones(len(balance))]))
        # one solution: a kernel of one vector, its last entry not 0
        [*v, c] = kernel[0] if len(kernel) == 1 else (0,)
        y = tuple(Fraction(a, c) for a in v) if c else ()
        # the table lists its monomials by ascending exponents, C/(DE)
        # first; the solution is listed from A/(CD), its last, down
        sol = y[::-1]
        expect = (Fraction(2, 11), Fraction(2, 11), Fraction(3, 11), Fraction(3, 11))
        items.append(CheckItem(
            "D3 separable-exponent system solution (rational arithmetic)",
            sol == expect, [str(s) for s in sol], [str(e) for e in expect],
        ))
        eqs_hold = bool(y) and all(sum(Fraction(a) * b for a, b in zip(row, y)) == -1
                                   for row in balance)
        items.append(CheckItem("D3 separable-exponent equations verified exactly",
                               eqs_hold, eqs_hold, True))
        return items

    def criterion_9(self) -> list[CheckItem]:
        if ModelId.D11 not in self.models:
            return []
        items = []
        case1 = self.run("d11_case1_1e6")
        B, C = case1.coeffs[:, 1], case1.coeffs[:, 2]
        dev = float(np.max(np.abs(B - C) / B))
        items.append(_below("D11 l2=l3: B = C throughout", dev, 1e-10))
        short = self.run("d11_case2_10")
        t = short.times
        B, C = short.coeffs[:, 1], short.coeffs[:, 2]
        strict = bool(np.all(B > C))
        items.append(CheckItem("D11 l2>l3: B > C at every sample (t<=10)",
                               strict, strict, True))
        # |B/C - 1| decreasing across the run's final two decades
        marks = [0.1, 1.0, 10.0]
        vals = [abs(float(B[np.argmin(np.abs(t - m))] / C[np.argmin(np.abs(t - m))]) - 1.0)
                for m in marks]
        decreasing = vals[0] > vals[1] > vals[2]
        items.append(CheckItem("D11 |B/C - 1| decreasing over final two decades",
                               decreasing and vals[-1] < 0.05,
                               [f"{v:.3e}" for v in vals], "strictly decreasing, final < 0.05"))
        long = self.run("d11_case2_1e4")
        flips = int(np.count_nonzero(long.coeffs[:, 1] < long.coeffs[:, 2]))
        items.append(CheckItem("D11 l2>l3: no sample has B < C (t<=1e4)",
                               flips == 0, flips, 0))
        items.append(_below("D11 A^2 B C D^2 conserved (t=1e4 run)",
                            residual_check(ModelId.D11, "case2", long), 1e-8))
        specials = {s.name: s for s in catalog.model_invariants(ModelId.D11).specials}
        sq = specials["A^2*E^2*(B^2-C^2)"].fn(short.coeffs)
        decay = float(abs(sq[-1] / sq[0]))
        items.append(CheckItem("D11 A^2 E^2 (B^2-C^2) decays (behavior check)",
                               decay < 1e-6, decay, "ratio << 1", 1e-6))
        ratio = specials["(B+C)*D^2/((B-C)*E^2)"].fn(short.coeffs)
        growth = float(abs(ratio[-1] / ratio[0]))
        items.append(CheckItem("D11 (B+C)D^2/((B-C)E^2) diverges (behavior check)",
                               growth > 1e3, growth, "ratio >> 1"))
        self._note_discrepancy(Discrepancy(
            "D11 quantity A^2 E^2 (B^2-C^2)",
            "conserved along the flow",
            f"decays by factor {decay:.3e} already by t=10 "
            "(log-derivative -4/E under the corrected dE/dt)",
            "behavior check asserts decay instead of conservation",
        ))
        self._note_discrepancy(Discrepancy(
            "D11 quantity (B+C)D^2/((B-C)E^2)",
            "conserved along the flow (case 2)",
            f"grows by factor {growth:.3e} by t=10 "
            "(log-derivative 8/E - 2(B^2+C^2)/(BCE) > 0 for B != C)",
            "behavior check asserts divergence instead of conservation",
        ))
        return items

    def criterion_10(self) -> list[CheckItem]:
        rng = self._rng(10)
        items = []
        for model in self.models:
            a, eps = np.empty((100, 10)), np.empty(100)
            for k in range(100):
                a[k] = rng.uniform(-2.0, 2.0, 10)
                # rng.choice((-1.0, 1.0)) draws this index from the same stream, slower
                eps[k] = (-1.0, 1.0)[rng.integers(2)]
            tables = catalog.build_models(model, catalog.params_from_basis_change(model, a, eps))
            worst_j = float(np.max(jacobi_residuals(tables)))
            worst_u = float(np.max(unimodularity_defects(tables)))
            items.append(_below(f"{model.value} Jacobi residual over 100 parameter draws",
                                worst_j, 1e-12))
            items.append(_below(f"{model.value} unimodularity defect", worst_u, 1e-12))
            worst_p = 0.0
            sc = catalog.build_model(model, catalog.constrained_params(model))
            draws = []  # (g, w, Q(w)) in draw order: the metric and vector draws interleave
            for _ in range(20):
                g = DiagonalMetric(tuple(np.exp(rng.uniform(np.log(0.5), np.log(2.0), _N))))
                wvec = rng.normal(size=_N)
                draws.append((g.array, wvec, ricci_quadratic(sc, g, wvec)))
            forms = ricci_forms(sc, [g for g, _, _ in draws])
            for (_, wvec, q), r in zip(draws, forms):
                expand = float(wvec @ r @ wvec)
                scale = max(abs(q), abs(expand), 1.0)
                worst_p = max(worst_p, abs(q - expand) / scale)
            items.append(_below(f"{model.value} polarization expansion Q(w) = w.R.w",
                                worst_p, 1e-12))
        traj = self.run("abelian_10")
        const = float(np.max(np.abs(traj.coeffs - traj.coeffs[0])))
        items.append(_below("abelian algebra flow is constant", const, 1e-14))
        return items

    # -- driver ---------------------------------------------------------------

    def run_all(self) -> VerificationReport:
        """Run every criterion that applies to the selected models.  The
        flow runs they read, not already solved, are solved first, in one
        stacked solve outside every criterion's ``elapsed_s``: the
        canonical runs of the selected models and the abelian run, then
        criterion 4's 20 draws per model."""
        t_start = time.perf_counter()
        problems = {key: _run_problem(key) for key, (table, _, _) in _RUNS.items()
                    if not isinstance(table, ModelId) or table in self.models}
        rng = self._rng(4)
        problems.update((f"c4_{model.value}_{k}",
                         FlowProblem(model, DiagonalMetric(tuple(rng.uniform(0.5, 2.0, _N))), 1e4))
                        for model in self.models for k in range(20))
        todo = {key: p for key, p in problems.items() if key not in self._cache}
        if todo:
            self._solved(todo, integrate_many(list(todo.values())))
        results = []
        for n, title in CRITERION_TITLES.items():
            fn: Callable[[], list[CheckItem]] = getattr(self, f"criterion_{n}")
            t0 = time.perf_counter()
            items = fn()
            if items:  # else the criterion does not apply to the model filter
                results.append(CriterionResult(n, title, items, time.perf_counter() - t0))
        runs = {key: {"solver": traj.meta["solver"], "termination": traj.termination,
                      "max_drift": traj.meta["max_drift"],
                      "steps_set": traj.meta["steps_set"],
                      "retired_at_step": traj.meta["retired_at_step"],
                      "solve": self._solve_of[key]}
                for key, traj in self._cache.items()}
        return VerificationReport(
            criteria=results,
            discrepancies=list(self.discrepancies),
            notes=list(STATIC_NOTES),
            seed=self.seed,
            elapsed_s=time.perf_counter() - t_start,
            runs=runs,
            solves=list(self._solves),
        )


def run_verification(seed: int = 0,
                     models: Iterable[ModelId] | None = None) -> VerificationReport:
    """Run the acceptance criteria and return the report."""
    return VerifySession(seed=seed, models=models).run_all()
