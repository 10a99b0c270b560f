"""Per-layer metrics of a traced run.

Totals (seconds and counts) are given per iteration, so runs of different
length compare.  A metric that cannot be measured on a run is kept with
``value`` None and the reason, never reported as 0.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from tracing import BENCH, LAYERS, SOLVE_IVP, SOLVER, Span, ancestor, self_times

REGIMES = ("d11_generic", "nonstiff")
NO_SOLVER = "solvflow.flow no longer calls scipy.integrate.solve_ivp: no solver boundary to wrap"


@dataclass(frozen=True)
class Metric:
    value: float | None
    unit: str
    note: str = ""  # how it was measured, or why it is missing


def percentile_rank(n: int) -> int | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def timing(samples, name: str, out: dict, what: str, suffix: str = "") -> None:
    """``<name>_p50_s<suffix>`` and ``<name>_tail_s<suffix>`` of ``samples`` seconds."""
    n = len(samples)
    p50, tail = f"{name}_p50_s{suffix}", f"{name}_tail_s{suffix}"
    if n == 0:
        out[p50] = out[tail] = Metric(None, "s", f"no {what} on this workload")
        return
    out[p50] = Metric(float(np.median(samples)), "s", f"median of {n} {what}")
    p = percentile_rank(n)
    out[tail] = (
        Metric(float(np.percentile(samples, p)), "s", f"p{p} of {n} {what}") if p else
        Metric(None, "s", f"{n} {what}: too few for a percentile with 10 beyond it"))


def per_call_us(fn, calls: int = 300, repeats: int = 5) -> float:
    """Median over ``repeats`` blocks of the mean time of one call, in us."""
    blocks = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((perf_counter() - t0) / calls * 1e6)
    return statistics.median(blocks)


def microbench() -> dict[str, Metric]:
    """Cost per call of the public curvature functions on fixed inputs,
    measured untraced."""
    from solvflow import catalog, curvature

    g = curvature.DiagonalMetric((1.3, 0.8, 1.1, 0.9, 1.7))
    w = np.array([0.3, -1.1, 0.7, 0.2, -0.5])
    out = {}
    for model in catalog.ModelId:
        sc = catalog.build_model(model, catalog.constrained_params(model))
        out[f"curvature.flow_rhs_us.{model.value}"] = Metric(
            per_call_us(lambda: curvature.flow_rhs(sc, g)), "us", "public flow_rhs, untraced")
    sc = catalog.build_model(catalog.ModelId.D11, catalog.constrained_params(catalog.ModelId.D11))
    out["curvature.ricci_tensor_us"] = Metric(
        per_call_us(lambda: curvature.ricci_tensor(sc, g)), "us", "D11, untraced")
    out["curvature.ricci_quadratic_us"] = Metric(
        per_call_us(lambda: curvature.ricci_quadratic(sc, g, w)), "us", "D11, untraced")
    return out


def layer_metrics(spans: list[Span], iterations: int, solver_boundary: bool,
                  rhs_us: dict[str, Metric], criterion_s: dict[int, float]) -> dict[str, Metric]:
    """All per-layer metrics of ``spans``, recorded over ``iterations``
    traced iterations."""
    out: dict[str, Metric] = {}
    per_it = 1.0 / iterations
    named: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        named[s.name].append(i)

    def durations(name):
        return [spans[i].duration for i in named[name]]

    def calls_and_time(prefix, name):
        d = durations(name)
        out[f"{prefix}_calls"] = Metric(len(d) * per_it, "count", "per iteration")
        out[f"{prefix}_s"] = Metric(sum(d) * per_it, "s", "per iteration")
        out[f"{prefix}_us"] = (Metric(float(np.mean(d)) * 1e6, "us", f"mean of {len(d)} traced calls")
                               if d else Metric(None, "us", "no calls on this workload"))

    for n in range(1, 11):
        out[f"verify.criterion_s.c{n}"] = Metric(
            criterion_s.get(n, 0.0), "s",
            "report elapsed_s" if n in criterion_s else "criterion not run on this workload")

    # flow: integrate calls, split by the catalog case of their initial data
    integ = named["flow.integrate"]
    regime_of_integrate = {i: spans[i].attrs.get("regime") for i in integ}
    for suffix, keep in (("", None), *((f".{r}", r) for r in REGIMES)):
        sel = [i for i in integ if keep in (None, regime_of_integrate[i])]
        d = [spans[i].duration for i in sel]
        out[f"flow.integrate_calls{suffix}"] = Metric(len(d) * per_it, "count", "per iteration")
        out[f"flow.integrate_s{suffix}"] = Metric(sum(d) * per_it, "s", "per iteration")
        timing(d, "flow.integrate", out, "integrate calls", suffix)

    solver_model: dict[str, float] = defaultdict(float)  # nfev per model
    for suffix, keep in (("", None), *((f".{r}", r) for r in REGIMES)):
        if not solver_boundary:
            for key, unit in (("solver_s", "s"), ("nfev", "count"), ("njev", "count"),
                              ("nlu", "count")):
                out[f"flow.{key}{suffix}"] = Metric(None, unit, NO_SOLVER)
            continue
        totals = defaultdict(float)
        for i in named[SOLVE_IVP]:
            parent = ancestor(spans, i, "flow.integrate")
            attrs = parent.attrs if parent is not None else {}
            if keep not in (None, attrs.get("regime")):
                continue
            totals["solver_s"] += spans[i].duration
            for key in ("nfev", "njev", "nlu"):
                totals[key] += spans[i].attrs.get(key, 0)
            if keep is None and attrs.get("model"):
                solver_model[attrs["model"]] += spans[i].attrs.get("nfev", 0)
        out[f"flow.solver_s{suffix}"] = Metric(totals["solver_s"] * per_it, "s",
                                               "per iteration, scipy solve_ivp as flow calls it")
        for key in ("nfev", "njev", "nlu"):
            out[f"flow.{key}{suffix}"] = Metric(totals[key] * per_it, "count", "per iteration")

    if solver_boundary:
        out["flow.post_s"] = Metric(out["flow.integrate_s"].value - out["flow.solver_s"].value,
                                    "s", "per iteration: integrate_s - solver_s")
    else:
        out["flow.post_s"] = Metric(None, "s", NO_SOLVER)
    attrs = [spans[i].attrs for i in integ]
    out["flow.samples"] = Metric(sum(a.get("samples", 0) for a in attrs) * per_it, "count",
                                 "per iteration")
    out["flow.truncated_runs"] = Metric(sum(bool(a.get("truncated")) for a in attrs) * per_it,
                                        "count", "per iteration, runs stopped before t_end")
    out["flow.json_roundtrip_s"] = Metric(
        (sum(durations("flow.Trajectory.write_json"))
         + sum(durations("flow.Trajectory.read_json"))) * per_it, "s", "per iteration")

    # curvature: per-call costs measured untraced, and their share of the solver
    out.update(rhs_us)
    solver_s = out["flow.solver_s"].value
    if not solver_boundary:
        out["curvature.rhs_share"] = Metric(None, "ratio", NO_SOLVER)
    elif not solver_s:
        out["curvature.rhs_share"] = Metric(None, "ratio", "no solver time on this workload")
    else:
        rhs_s = sum(nfev * rhs_us[f"curvature.flow_rhs_us.{m}"].value * 1e-6
                    for m, nfev in solver_model.items()) * per_it
        out["curvature.rhs_share"] = Metric(rhs_s / solver_s, "ratio",
                                            "computed: nfev x flow_rhs_us / solver_s")

    calls_and_time("catalog.build_model", "catalog.build_model")
    calls_and_time("liecore.jacobi_residual", "liecore.jacobi_residual")

    detect = [spans[i].attrs for i in named["invariants.detect_monomials"]]
    out["invariants.detect_calls"] = Metric(len(detect) * per_it, "count", "per iteration")
    out["invariants.detect_s"] = Metric(sum(durations("invariants.detect_monomials")) * per_it,
                                        "s", "per iteration")
    found = sum(a.get("found", 0) for a in detect)
    out["invariants.found"] = Metric(found * per_it, "count", "per iteration")
    if any("candidates" not in a for a in detect):
        reason = "detect_monomials has no max_exp box to count candidates in"
        out["invariants.candidates"] = Metric(None, "count", reason)
        out["invariants.found_per_candidate"] = Metric(None, "ratio", reason)
    else:
        candidates = sum(a["candidates"] for a in detect)
        out["invariants.candidates"] = Metric(candidates * per_it, "count",
                                              "per iteration, computed as (2 max_exp + 1)^5")
        out["invariants.found_per_candidate"] = (
            Metric(found / candidates, "ratio", "useful work per candidate tested")
            if candidates else Metric(None, "ratio", "no detection on this workload"))

    calls_and_time("asymptotics.fit", "asymptotics.fit_power_law")
    calls_and_time("asymptotics.residual_check", "asymptotics.residual_check")

    selfs = self_times(spans)
    by_layer = defaultdict(float)
    for s, t in zip(spans, selfs):
        by_layer[s.layer] += t
    for layer in (*LAYERS, SOLVER, BENCH):
        out[f"{layer}.self_s"] = Metric(by_layer[layer] * per_it, "s",
                                        "per iteration, span time not covered by child spans")
    return out
