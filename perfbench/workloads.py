"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed when constructed
(that is the set-up ``setup_s`` measures) and hands out the operations of
one iteration; every iteration has the same composition.  An operation
returns ``(attempted, failures)`` after checking its own outputs; a failed
gate is reported, never raised, so the run carries on.

The workloads call solvflow through module attributes (``flow.integrate``,
not a name imported from it), so the tracing wrappers and test fakes that
replace those attributes are seen.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from solvflow import asymptotics, catalog, curvature, flow, invariants, liecore, verify
from solvflow.catalog import ModelId

MODELS = tuple(ModelId)

# verification gates, at the tolerances verify and the acceptance tests use
DRIFT_TOL = 1e-8
EXP_TOL = 0.01
R2_MIN = 0.9999
ORACLE_TOL = 1e-12
JACOBI_TOL = 1e-12

Outcome = tuple[int, list[str]]  # (units attempted, messages of the failed ones)


@dataclass(frozen=True)
class Op:
    label: str
    fn: Callable[[], Outcome]


class Workload:
    name: str

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # worst outputs seen, on the workloads that produce trajectories
        self.max_drift: float | None = None
        self.max_exp_err: float | None = None

    def ops(self, iteration: int) -> list[Op]:
        raise NotImplementedError

    def criterion_s(self) -> dict[int, float]:
        """Median seconds per verification criterion over the iterations run."""
        return {}

    def finish(self) -> dict[str, float]:
        """Outputs measured once per run, outside the timed iterations."""
        return {}


class Check(Workload):
    """``verify.run_verification``: all five models and all ten criteria.

    It runs at seed 0, the seed ``solvflow check`` and the acceptance tests
    use.  The benchmark seed does not change it: criterion 4 draws its
    initial data from the verification seed, and the stiff D11 draws make
    the run time vary by +-15% between seeds (16.5-21.3 s over seeds 0-3
    on 2 cores), more than the bound on ``wall_s``.
    """

    name = "check"
    VERIFY_SEED = 0
    BC_RUN = "d11_case2_1e4"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.reports: list = []
        self.max_drift = self.max_exp_err = 0.0

    def ops(self, iteration: int) -> list[Op]:
        return [Op("run_verification", self._verify)]

    def _verify(self) -> Outcome:
        report = verify.run_verification(seed=self.VERIFY_SEED)
        self.reports.append(report)
        items = [(c.number, item) for c in report.criteria for item in c.items]
        failures = [f"criterion {n}: {item.name}: computed {item.computed}, "
                    f"expected {item.expected}" for n, item in items if not item.passed]
        for n, item in items:
            if n == 4 and isinstance(item.computed, float):  # invariant drift items
                self.max_drift = max(self.max_drift, item.computed)
            if n == 5 and " exponent " in item.name:
                self.max_exp_err = max(self.max_exp_err,
                                       abs(float(item.computed) - float(item.expected)))
        return len(items), failures

    def criterion_s(self) -> dict[int, float]:
        per = {}
        for report in self.reports:
            for c in report.criteria:
                per.setdefault(c.number, []).append(c.elapsed_s)
        return {n: float(np.median(v)) for n, v in per.items()}

    def finish(self) -> dict[str, float]:
        # known defect: the computed D11 case-2 run loses B > C (ROADMAP 5(c))
        traj = verify.VerifySession(seed=self.VERIFY_SEED).run(self.BC_RUN)
        return {"bc_order_violations": int(np.sum(traj.coeffs[:, 1] <= traj.coeffs[:, 2])),
                "bc_order_samples": len(traj)}


class FlowLong(Workload):
    """The ``solvflow flow`` -> ``solvflow fit`` path on seeded initial data."""

    name = "flow_long"
    T_END = 1e6
    WINDOW = (1e4, 1e6)
    POOL = 32  # iterations with distinct initial data before the inputs repeat

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.max_drift = self.max_exp_err = 0.0
        rng = np.random.default_rng(seed)
        self.pool = []
        for _ in range(self.POOL):
            problems = []
            for model in MODELS:
                lam = rng.uniform(0.5, 2.0, 5)
                if model is ModelId.D11:
                    lam[2] = lam[1]  # lambda_2 = lambda_3: D11 case 1, not stiff
                problems.append(flow.FlowProblem(
                    model, catalog.InitialData(tuple(lam)), self.T_END,
                    rel_tol=1e-12, abs_tol=1e-14))
            self.pool.append(problems)
        self.path = workdir / f"flow_long-{seed}.json"

    def ops(self, iteration: int) -> list[Op]:
        return [Op(f"flow {p.model.value}", functools.partial(self._flow, p))
                for p in self.pool[iteration % self.POOL]]

    def _flow(self, problem) -> Outcome:
        fails = []
        traj = flow.integrate(problem)
        if traj.times[-1] < problem.t_end:
            fails.append(f"stopped at t={traj.times[-1]:.6g} ({traj.termination})")
        traj.write_json(self.path)
        back = flow.Trajectory.read_json(self.path)
        if not (np.array_equal(back.times, traj.times)
                and np.array_equal(back.coeffs, traj.coeffs)):
            fails.append("JSON round trip changed the samples")
        model = problem.model
        expected = catalog.model_asymptotics(model, catalog.classify_case(model, problem.initial))
        for k, name in enumerate("ABCDE"):
            fit = asymptotics.fit_power_law(back, k, self.WINDOW)
            want = float(expected[k])
            err = abs(fit.exponent - want)
            self.max_exp_err = max(self.max_exp_err, err)
            # as in verify: r^2 says nothing about a flat (zero-exponent) series
            if not (err <= EXP_TOL and (want == 0.0 or fit.r_squared > R2_MIN)):
                fails.append(f"exponent {name} {fit.exponent:.6f} vs {want:.6f} "
                             f"(r^2 {fit.r_squared:.8f})")
        for mono in catalog.model_invariants(model).monomials:
            drift = invariants.drift_report(back, mono)
            self.max_drift = max(self.max_drift, drift)
            if not drift < DRIFT_TOL:
                fails.append(f"drift of {mono} is {drift:.3e}")
        return 1, ([f"{model.value} {problem.initial.lam}: " + "; ".join(fails)]
                   if fails else [])


class InvariantsScan(Workload):
    """Monomial detection on all models, beside a sweep of random bracket
    tables through the curvature layer."""

    name = "invariants_scan"
    MAX_EXP = 5
    TABLES_PER_MODEL = 8
    METRICS_PER_TABLE = 3
    POOL = 32

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.pool = []
        for _ in range(self.POOL):
            detects = [(model, int(rng.integers(2**31))) for model in MODELS]
            tables = []
            for model in MODELS:
                for _ in range(self.TABLES_PER_MODEL):
                    a = rng.uniform(-2.0, 2.0, 10)
                    eps = float(rng.choice((-1.0, 1.0)))
                    points = [(curvature.DiagonalMetric(tuple(np.exp(
                                   rng.uniform(math.log(0.5), math.log(2.0), 5)))),
                               rng.normal(size=5))
                              for _ in range(self.METRICS_PER_TABLE)]
                    tables.append((model, a, eps, points))
            self.pool.append((detects, tables))

    def ops(self, iteration: int) -> list[Op]:
        detects, tables = self.pool[iteration % self.POOL]
        return ([Op(f"detect {m.value}", functools.partial(self._detect, m, s))
                 for m, s in detects]
                + [Op(f"brackets {t[0].value}", functools.partial(self._table, *t))
                   for t in tables])

    def _detect(self, model, seed) -> Outcome:
        found = invariants.detect_monomials(model, max_exp=self.MAX_EXP, seed=seed)
        have = {m.e for m in found}
        missing = [str(m) for m in catalog.model_invariants(model).monomials if m.e not in have]
        return 1, ([f"{model.value} seed {seed}: named invariants {missing} not detected"]
                   if missing else [])

    def _table(self, model, a, eps, points) -> Outcome:
        fails = []
        params = catalog.params_from_basis_change(model, a, eps=eps)
        sc = catalog.build_model(model, params)
        residual = liecore.jacobi_residual(sc)
        if not residual < JACOBI_TOL:
            fails.append(f"Jacobi residual {residual:.3e}")
        for g, w in points:
            q = curvature.ricci_quadratic(sc, g, w)
            expand = float(w @ curvature.ricci_tensor(sc, g).entries @ w)
            rel = abs(q - expand) / max(abs(q), abs(expand), 1.0)
            if not rel <= ORACLE_TOL:
                fails.append(f"Ricci tensor vs quadratic-form oracle {rel:.3e} at {g.coeffs}")
        return 1, ([f"{model.value} a={a.tolist()} eps={eps}: " + "; ".join(fails)]
                   if fails else [])


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Check, FlowLong, InvariantsScan)}
