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

The canonical flow runs that criteria 3 and 5-9 read are declared per
criterion (``_CRITERION_RUNS``).  :meth:`VerifySession.run_all` solves the
runs of the selected criteria and models before the criteria start, with
one stacked solve per horizon (:func:`solvflow.flow.integrate_many`), so
their time appears in the report's ``runs[...]["wall_s"]`` and not in any
criterion's ``elapsed_s``.  Criterion 4 solves its own draws, all models'
in one batch, inside its own time.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import catalog
from .catalog import InitialData, ModelId
from .curvature import DiagonalMetric, compile_flow, ricci_quadratic, ricci_tensor
from .flow import FlowProblem, Trajectory, integrate, integrate_brackets, integrate_many
from .invariants import detect_monomials, drift_report, ratio_diagnostics
from .liecore import StructureConstants, jacobi_residual, unimodularity_defect
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


# ---------------------------------------------------------------------------
# reference formulas (hand-derived; D11 corrected as per module docstring)
# ---------------------------------------------------------------------------

def reference_ricci_diag(model: ModelId, g: Sequence[float]) -> np.ndarray:
    """Diagonal Ricci components of the constrained models in the
    orthonormal frame, written out termwise."""
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
            0.0,
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
    """Right-hand sides of the five constrained flow systems."""
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
        return np.array([-A * A / (B * C), A / C, A / B, 0.0, 4.0])
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
            "elapsed_s": round(self.elapsed_s, 3),
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


@dataclass
class VerificationReport:
    """The criteria's results, and in ``runs`` how each flow run they used
    was solved (see :func:`_run_summary`), keyed by its ``_RUNS`` key or,
    for criterion 4's batches, by ``c4_<model>``."""

    criteria: list[CriterionResult]
    discrepancies: list[Discrepancy]
    notes: list[str]
    seed: int
    elapsed_s: float
    runs: dict[str, dict] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "seed": self.seed,
            "elapsed_s": round(self.elapsed_s, 3),
            "criteria": [c.as_dict() for c in self.criteria],
            "discrepancies": [d.as_dict() for d in self.discrepancies],
            "notes": self.notes,
            "runs": self.runs,
        }


def _run_summary(trajs: Sequence[Trajectory]) -> dict:
    """How the trajectories of one run or batch were solved, from their
    ``meta``: the solvers, the termination, ``nfev``, ``steps``,
    ``rejected_steps``, ``wall_s`` and ``batch_size`` summed over their
    distinct stacked solves, the smallest step of any of them
    (``min_step_log_t``), and the worst ``max_drift`` of any row.  The rows
    of one stacked solve share all of its meta but ``solver``, which names
    each row's coordinates, and ``max_drift``."""
    solves = dict.fromkeys((t.termination, t.meta["min_step_log_t"], t.meta["nfev"],
                            t.meta["steps"], t.meta["rejected_steps"], t.meta["wall_s"],
                            t.meta["batch_size"]) for t in trajs)
    terminations, min_steps, nfev, steps, rejected, wall_s, batch_size = zip(*solves)
    return {
        "solver": "; ".join(dict.fromkeys(t.meta["solver"] for t in trajs)),
        "termination": "; ".join(dict.fromkeys(terminations)),
        "nfev": sum(nfev),
        "steps": sum(steps),
        "rejected_steps": sum(rejected),
        "min_step_log_t": min((h for h in min_steps if h is not None), default=None),
        "wall_s": sum(wall_s),
        "batch_size": sum(batch_size),
        "max_drift": max(t.meta["max_drift"] for t in trajs),
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


# canonical verification runs, keyed for reuse across criteria
_RUNS: dict[str, tuple[ModelId, tuple[float, ...], float]] = {
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
}

# the _RUNS keys each criterion reads; a key is read only when its model is
# selected, and run_all solves these before the criteria start
_CRITERION_RUNS: dict[int, tuple[str, ...]] = {
    3: ("d5_unit_10",),
    5: ("d1_case1_1e6", "d1_case2_1e6", "d2_case1_1e6", "d2_generic_1e6",
        "d3_unit_1e6", "d3_selfsim_1e3", "d11_case1_1e6"),
    6: ("d1_case1_1e6", "d1_case2_1e6"),
    7: ("d2_generic_1e6", "d2_case1_bern_1e4"),
    8: ("d3_unit_1e6",),
    9: ("d11_case1_1e6", "d11_case2_10", "d11_case2_1e4"),
}


def _run_problem(key: str) -> FlowProblem:
    model, lam, t_end = _RUNS[key]
    return FlowProblem(model, InitialData(lam), t_end, rel_tol=1e-12, abs_tol=1e-14)


class VerifySession:
    """Caches flow runs and produces one CriterionResult per criterion."""

    def __init__(self, seed: int = 0, models: Iterable[ModelId] | None = None):
        self.seed = int(seed)
        self.models = tuple(ModelId(m) for m in models) if models else ALL_MODELS
        self._cache: dict[str, Trajectory] = {}
        self._batches: dict[str, list[Trajectory]] = {}  # criterion 4, by c4_<model>
        self.discrepancies: list[Discrepancy] = []

    # -- helpers ------------------------------------------------------------

    def _rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, salt))

    def run(self, key: str) -> Trajectory:
        """The canonical run ``key``, solved on its own if not yet solved."""
        if key not in self._cache:
            self._cache[key] = integrate(_run_problem(key))
        return self._cache[key]

    def _solve_runs(self, keys: Iterable[str]) -> None:
        """Solve the keys not yet solved with one stacked solve per horizon
        (all _RUNS share their tolerances and sampling)."""
        by_horizon: dict[float, list[str]] = {}
        for key in keys:
            if key not in self._cache:
                by_horizon.setdefault(_RUNS[key][2], []).append(key)
        for group in by_horizon.values():
            self._cache.update(zip(group, integrate_many([_run_problem(k) for k in group])))

    def _note_discrepancy(self, d: Discrepancy):
        if all(x.subject != d.subject for x in self.discrepancies):
            self.discrepancies.append(d)

    # -- criteria -----------------------------------------------------------

    def criterion_1(self) -> list[CheckItem]:
        rng = self._rng(1)
        items = []
        for model in self.models:
            sc = catalog.build_model(model, catalog.constrained_params(model))
            worst_diag = 0.0
            worst_off = 0.0
            for _ in range(100):
                g = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 5))
                ric = ricci_tensor(sc, DiagonalMetric(tuple(g)))
                worst_diag = max(worst_diag, _rel_err(ric.diagonal, reference_ricci_diag(model, g)))
                worst_off = max(worst_off, ric.max_offdiag)
            items.append(CheckItem(f"{model.value} Ricci diagonal vs reference",
                                   worst_diag <= 1e-12, worst_diag, 0.0, 1e-12))
            items.append(CheckItem(f"{model.value} off-diagonal Ricci",
                                   worst_off < 1e-14, worst_off, 0.0, 1e-14))
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
            draws = np.exp(rng.uniform(np.log(0.1), np.log(10.0), (100, 5)))
            got = draws * terms.log_rhs(np.log(draws))
            worst = max(_rel_err(row, reference_system(model, g)) for row, g in zip(got, draws))
            items.append(CheckItem(f"{model.value} flow rhs vs reference system",
                                   worst <= 1e-12, worst, 0.0, 1e-12))
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
        cf = ClosedFormSolution(ModelId.D5, "exact", InitialData((1, 1, 1, 1, 1)))
        dev = float(np.max(np.abs(traj.coeffs / cf.eval_array(traj.times) - 1.0)))
        edev = float(np.max(np.abs(traj.coeffs[:, 4] - (4.0 * traj.times + 1.0))))
        return [
            CheckItem("D5 unit run vs closed form (t<=10)", dev < 1e-8, dev, 0.0, 1e-8),
            CheckItem("D5 E(t) - (4t+1)", edev < 1e-10, edev, 0.0, 1e-10),
        ]


    def criterion_4(self) -> list[CheckItem]:
        rng = self._rng(4)
        problems = [FlowProblem(model, InitialData(tuple(rng.uniform(0.5, 2.0, 5))), 1e4)
                    for model in self.models for _ in range(20)]
        solved = integrate_many(problems)
        items = []
        for k, model in enumerate(self.models):
            inv = catalog.model_invariants(model)
            trajs = self._batches[f"c4_{model.value}"] = solved[20 * k:20 * (k + 1)]
            worst = max((drift_report(traj, mono) for traj in trajs
                         for mono in inv.monomials), default=0.0)
            items.append(CheckItem(f"{model.value} invariant drift over 20 runs to 1e4",
                                   worst < 1e-8, worst, 0.0, 1e-8))
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
        for idx, name in enumerate("ABCDE"):
            f = fit_power_law(traj, idx, window)
            want = float(expected[idx])
            dev = abs(f.exponent - want)
            ok = dev <= 0.01
            if want != 0.0:
                ok = ok and f.r_squared > 0.9999
            items.append(CheckItem(
                f"{label} exponent {name}", ok, round(f.exponent, 6), want, 0.01,
                note=f"r^2={f.r_squared:.8f}",
            ))
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
            traj = self.run("d3_selfsim_1e3")
            cf = ClosedFormSolution(ModelId.D3, "self_similar",
                                    InitialData((2.0 / 3.0, 1, 1, 1, 1)))
            dev = float(np.max(np.abs(traj.coeffs / cf.eval_array(traj.times) - 1.0)))
            items.append(CheckItem("D3 self-similar run vs closed form",
                                   dev < 1e-8, dev, 0.0, 1e-8))
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
            B, C, D, E = (traj.coeffs[:, i] for i in (1, 2, 3, 4))
            pair_b = _rel_err(B**2, cst["omega"] * C**2 + cst["k"])
            pair_d = _rel_err(D**2, cst["eps"] * E**2 + cst["ell"])
            worst = max(pair_b, pair_d)
            items.append(CheckItem(f"D1 {case} pair relations B^2-wC^2-k, D^2-eE^2-l",
                                   worst < 1e-8, worst, 0.0, 1e-8))
            res = residual_check(ModelId.D1, case, traj)
            tol = 1e-6 if case == "case2" else 1e-8
            name = ("log-implicit antiderivative laws" if case == "case2"
                    else "quartic-root relations")
            items.append(CheckItem(f"D1 {case} {name}", res < tol, res, 0.0, tol))
        return items

    def criterion_7(self) -> list[CheckItem]:
        if ModelId.D2 not in self.models:
            return []
        items = []
        gen = self.run("d2_generic_1e6")
        (ratio,) = ratio_diagnostics(ModelId.D2, gen)
        i4 = int(np.argmin(np.abs(gen.times - 1e4)))
        ratio_dev = abs(float(ratio.values[i4]) - 1.0)
        items.append(CheckItem("D2 generic AC/B^2 -> 1 at t=1e4",
                               ratio_dev < 1e-3, ratio_dev, 0.0, 1e-3))
        lam = gen.coeffs[0]
        b_inf = float(lam[0] * lam[1] * lam[2]) ** (1.0 / 3.0)
        b_dev = abs(float(gen.coeffs[i4, 1]) - b_inf)
        items.append(CheckItem("D2 generic B -> (l1 l2 l3)^(1/3) by t=1e4",
                               b_dev < 1e-3, b_dev, 0.0, 1e-3))
        bern = self.run("d2_case1_bern_1e4")
        (ratio,) = ratio_diagnostics(ModelId.D2, bern)
        cons = float(np.max(np.abs(ratio.values - 1.0)))
        items.append(CheckItem("D2 case1 AC/B^2 exactly conserved at 1",
                               cons < 1e-8, cons, 0.0, 1e-8))
        res = residual_check(ModelId.D2, "case1", bern)
        items.append(CheckItem("D2 case1 Bernoulli relation 1/A = (l/2)D^3 + K D",
                               res < 1e-8, res, 0.0, 1e-8))
        return items

    def criterion_8(self) -> list[CheckItem]:
        if ModelId.D3 not in self.models:
            return []
        items = []
        for d in ratio_diagnostics(ModelId.D3, self.run("d3_unit_1e6")):
            items.append(CheckItem(f"D3 ratio {d.name} at t=1e6",
                                   abs(d.final - d.target) <= 0.01, d.final, d.target, 0.01))
        sol = _solve_k_system()
        expect = (Fraction(2, 11), Fraction(2, 11), Fraction(3, 11), Fraction(3, 11))
        items.append(CheckItem(
            "D3 separable-exponent system solution (rational arithmetic)",
            sol == expect, [str(s) for s in sol], [str(e) for e in expect],
        ))
        eqs_hold = (
            3 * sol[0] + sol[1] + sol[3] == 1
            and 3 * sol[1] + sol[0] + sol[2] == 1
            and 3 * sol[2] + sol[1] == 1
            and 3 * sol[3] + sol[0] == 1
        )
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
        items.append(CheckItem("D11 l2=l3: B = C throughout",
                               dev < 1e-10, dev, 0.0, 1e-10))
        short = self.run("d11_case2_10")
        t = short.times
        A, B, C, D, E = (short.coeffs[:, i] for i in range(5))
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
        drift = residual_check(ModelId.D11, "case2", long)
        items.append(CheckItem("D11 A^2 B C D^2 conserved (t=1e4 run)",
                               drift < 1e-8, drift, 0.0, 1e-8))
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
            worst_j = 0.0
            worst_u = 0.0
            for _ in range(100):
                a = rng.uniform(-2.0, 2.0, 10)
                eps = float(rng.choice((-1.0, 1.0)))
                params = catalog.params_from_basis_change(model, a, eps=eps)
                sc = catalog.build_model(model, params)
                worst_j = max(worst_j, jacobi_residual(sc))
                worst_u = max(worst_u, unimodularity_defect(sc))
            items.append(CheckItem(f"{model.value} Jacobi residual over 100 parameter draws",
                                   worst_j < 1e-12, worst_j, 0.0, 1e-12))
            items.append(CheckItem(f"{model.value} unimodularity defect",
                                   worst_u < 1e-12, worst_u, 0.0, 1e-12))
            worst_p = 0.0
            sc = catalog.build_model(model, catalog.constrained_params(model))
            for _ in range(20):
                g = DiagonalMetric(tuple(np.exp(rng.uniform(np.log(0.5), np.log(2.0), 5))))
                wvec = rng.normal(size=5)
                q = ricci_quadratic(sc, g, wvec)
                r = ricci_tensor(sc, g).entries
                expand = float(wvec @ r @ wvec)
                scale = max(abs(q), abs(expand), 1.0)
                worst_p = max(worst_p, abs(q - expand) / scale)
            items.append(CheckItem(f"{model.value} polarization expansion Q(w) = w.R.w",
                                   worst_p < 1e-12, worst_p, 0.0, 1e-12))
        abelian = StructureConstants.zero(5)
        traj = integrate_brackets(abelian, (1.3, 0.7, 2.0, 1.1, 0.9), 10.0)
        const = float(np.max(np.abs(traj.coeffs - traj.coeffs[0])))
        items.append(CheckItem("abelian algebra flow is constant",
                               const < 1e-14, const, 0.0, 1e-14))
        return items

    # -- driver ---------------------------------------------------------------

    def run_all(self, numbers: Iterable[int] | None = None) -> VerificationReport:
        """Run the selected criteria (all by default).  The runs they
        declare in ``_CRITERION_RUNS`` are solved first, one stacked solve
        per horizon, outside every criterion's ``elapsed_s``."""
        numbers = sorted(numbers) if numbers else sorted(CRITERION_TITLES)
        t_start = time.perf_counter()
        wanted = {key for n in numbers for key in _CRITERION_RUNS.get(n, ())}
        self._solve_runs(key for key in _RUNS
                        if key in wanted and _RUNS[key][0] in self.models)
        results = []
        for n in numbers:
            fn: Callable[[], list[CheckItem]] = getattr(self, f"criterion_{n}")
            t0 = time.perf_counter()
            items = fn()
            if not items:
                continue  # criterion not applicable to the model filter
            results.append(CriterionResult(n, CRITERION_TITLES[n], items,
                                           time.perf_counter() - t0))
        runs = {key: _run_summary([self._cache[key]]) for key in _RUNS if key in self._cache}
        runs.update((key, _run_summary(trajs)) for key, trajs in self._batches.items())
        return VerificationReport(
            criteria=results,
            discrepancies=list(self.discrepancies),
            notes=list(STATIC_NOTES),
            seed=self.seed,
            elapsed_s=time.perf_counter() - t_start,
            runs=runs,
        )


def _solve_k_system() -> tuple[Fraction, ...]:
    """Exact solve of 1 = 3k1+k2+k4, 1 = 3k2+k1+k3, 1 = 3k3+k2, 1 = 3k4+k1."""
    rows = [
        [Fraction(3), Fraction(1), Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(3), Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(3), Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(0), Fraction(0), Fraction(3), Fraction(1)],
    ]
    n = 4
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return tuple(rows[r][n] for r in range(n))


def run_verification(
    seed: int = 0,
    models: Iterable[ModelId] | None = None,
    numbers: Iterable[int] | None = None,
) -> VerificationReport:
    """Run the acceptance criteria and return the report."""
    return VerifySession(seed=seed, models=models).run_all(numbers)
