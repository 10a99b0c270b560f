"""Command-line interface.

Subcommands: list, describe, flow, invariants, fit, check.  Exit status is
0 on success, 1 when a verification check fails, and 2 for usage errors
(argparse's convention).  ``check --against OLD.json`` also lists every
item, run and solve fact whose value moved from an earlier report, wall
times aside, and ends with "N items moved"; an OLD that cannot be read as
a report is a usage error.  The SOLVFLOW_LOG environment variable selects
log verbosity: off (default), info, or debug.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import catalog
from .catalog import ModelId
from .asymptotics import fit_power_law
from .curvature import COMPONENTS, DiagonalMetric
from .flow import FlowProblem, Trajectory, integrate
from .invariants import detect_monomials
from .verify import run_verification

log = logging.getLogger("solvflow")


def _setup_logging():
    level = os.environ.get("SOLVFLOW_LOG", "off").lower()
    if level in ("off", "", "0", "none"):
        logging.basicConfig(level=logging.CRITICAL)
    elif level == "debug":
        logging.basicConfig(level=logging.DEBUG, format="%(name)s %(levelname)s %(message)s")
    else:
        logging.basicConfig(level=logging.INFO, format="%(message)s")


def _model_arg(value: str) -> ModelId:
    try:
        return ModelId(value.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown model {value!r}; choose from {', '.join(m.value for m in ModelId)}"
        )


def _lambda_arg(value: str) -> DiagonalMetric:
    try:
        return DiagonalMetric(tuple(float(p) for p in value.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{value!r}: {exc}")


def _window_arg(value: str) -> tuple[float, float]:
    parts = value.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected lo,hi")
    lo, hi = (float(p) for p in parts)
    if not lo < hi:
        raise argparse.ArgumentTypeError("window must satisfy lo < hi")
    return lo, hi


def _out_arg(value: str) -> str:
    # refused before any work: the flow or the verification would otherwise
    # run to the end and only then fail to write
    directory = os.path.dirname(value) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory {directory!r} does not exist")
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} is a directory, not a file")
    return value


def _report_facts(doc) -> dict:
    """What ``check --against`` compares in a verification report, by a
    printable label: each item's computed value and verdict, and each run's
    and solve's facts but wall times.  A report without that shape raises."""
    facts = {f"criterion {c['criterion']} {item['name']!r}":
             {"computed": item["computed"], "passed": item["passed"]}
             for c in doc["criteria"] for item in c["items"]}
    facts.update((f"run {key}", dict(run)) for key, run in doc["runs"].items())
    facts.update((f"solve {at}", {k: v for k, v in solve.items() if k != "wall_s"})
                 for at, solve in enumerate(doc["solves"]))
    return facts


def _report_arg(path: str) -> dict:
    # read before any work, so that a bad OLD is a usage error
    try:
        with open(path) as fh:
            return _report_facts(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise argparse.ArgumentTypeError(
            f"{path}: not a readable verification report ({type(exc).__name__}: {exc})")


def _moved(new: dict, old: dict) -> list[str]:
    """One line per fact of ``new`` that differs from ``old``, and per label
    found on one side only."""
    lines = []
    for label in [*new, *(label for label in old if label not in new)]:
        if label not in old or label not in new:
            lines.append(f"{label}: only in {'the new report' if label in new else 'OLD'}")
            continue
        for key in [*new[label], *(k for k in old[label] if k not in new[label])]:
            a, b = new[label].get(key), old[label].get(key)
            if a == b:
                continue
            line = f"{label} {key}: {a!r} (old {b!r}"
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)) and b:
                line += f", new/old {a / b:.6g}"
            lines.append(line + ")")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvflow",
        description="Ricci flow of diagonal left-invariant metrics on the "
                    "five-dimensional unimodular solvable contact Lie groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the model catalog")

    p = sub.add_parser("describe", help="brackets, constraints, invariants and exponents")
    p.add_argument("model", type=_model_arg)
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("flow", help="integrate a flow and write the trajectory")
    p.add_argument("model", type=_model_arg)
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, required=True,
                   metavar="l1,l2,l3,l4,l5", help="initial metric coefficients")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--rtol", type=float, default=FlowProblem.rel_tol,
                   help="relative tolerance on log g")
    p.add_argument("--atol", type=float, default=FlowProblem.abs_tol,
                   help="absolute tolerance on log g, i.e. on the relative error in g")
    p.add_argument("--eps", type=int, choices=(-1, 1), default=1,
                   help="sign parameter for D11")
    p.add_argument("--per-decade", type=int, default=FlowProblem.samples_per_decade)
    p.add_argument("--out", type=_out_arg, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("invariants", help="detect conserved monomials")
    p.add_argument("model", type=_model_arg)

    p = sub.add_parser("fit", help="fit a power law to one trajectory component")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--component", required=True, choices=tuple(COMPONENTS))
    p.add_argument("--window", type=_window_arg, default=None, metavar="lo,hi")

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument("model", nargs="?", type=_model_arg, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=_out_arg, default="verification_report.json",
                   help="path of the JSON report")
    p.add_argument("--against", type=_report_arg, default=None, metavar="OLD.json",
                   help="list every item, run and solve fact that moved from this report")
    return parser


def cmd_list(args) -> int:
    for model in ModelId:
        meta = catalog.describe(model)
        print(f"{model.value:4s} {meta['description']}")
    return 0


def cmd_describe(args) -> int:
    meta = catalog.describe(args.model)
    if args.as_json:
        print(json.dumps(meta, indent=1))
        return 0
    print(f"{meta['id']}: {meta['description']}")
    print(f"parameters: {', '.join(meta['parameters'])}")
    constrained = ", ".join(f"{k}={v:g}" for k, v in meta["constrained_params"].items())
    print(f"diagonality constraints: {constrained}")
    print(f"conserved monomials: {', '.join(meta['invariant_monomials']) or 'none'}")
    if meta["special_invariants"]:
        print(f"special quantities: {', '.join(meta['special_invariants'])}")
    for case, exps in meta["asymptotic_exponents"].items():
        print(f"exponents ({case}): ({', '.join(exps)})")
    return 0


def cmd_flow(args) -> int:
    params = catalog.constrained_params(args.model, eps=float(args.eps)) \
        if args.model is ModelId.D11 else None
    problem = FlowProblem(
        model=args.model,
        initial=args.lam,
        t_end=args.t_end,
        params=params,
        rel_tol=args.rtol,
        abs_tol=args.atol,
        samples_per_decade=args.per_decade,
    )
    traj = integrate(problem)
    if args.format == "csv":
        traj.write_csv(args.out)
    else:
        traj.write_json(args.out)
    log.info("wrote %d samples to %s", len(traj), args.out)
    print(f"{args.model.value}: {len(traj)} samples to t={traj.times[-1]:g} "
          f"({traj.termination}) -> {args.out}")
    return 0


def cmd_invariants(args) -> int:
    found = detect_monomials(args.model)
    if not found:
        print("no conserved monomials detected")
        return 0
    for mono in found:
        print(f"({', '.join(str(e) for e in mono.e)})  {mono}")
    return 0


def cmd_fit(args) -> int:
    path = args.path
    traj = Trajectory.read_json(path) if path.endswith(".json") else Trajectory.read_csv(path)
    fit = fit_power_law(traj, args.component, args.window)
    print(f"component: {args.component}")
    print(f"window: [{fit.window[0]:g}, {fit.window[1]:g}] ({fit.n_samples} samples)")
    print(f"exponent: {fit.exponent!r}")
    print(f"log_prefactor: {fit.log_prefactor!r}")
    print(f"prefactor: {fit.prefactor!r}")
    print(f"r_squared: {fit.r_squared!r}")
    return 0


def cmd_check(args) -> int:
    models = (args.model,) if args.model else None
    report = run_verification(seed=args.seed, models=models)
    for c in report.criteria:
        status = "PASS" if c.passed else "FAIL"
        print(f"criterion {c.number:2d} [{status}] {c.title} ({c.elapsed_s * 1e3:.1f} ms)")
        if not c.passed:
            for item in c.items:
                if not item.passed:
                    print(f"    FAIL {item.name}: computed {item.computed}, "
                          f"expected {item.expected}")
    with open(args.out, "w") as fh:
        json.dump(report.as_dict(), fh, indent=1)
        fh.write("\n")
    print(f"report: {args.out}")
    if report.discrepancies:
        print(f"{len(report.discrepancies)} superseded claims re-measured "
              "(see 'discrepancies' in the report)")
    print(f"overall: {'PASS' if report.passed else 'FAIL'} ({report.elapsed_s * 1e3:.1f} ms)")
    if args.against is not None:
        moved = _moved(_report_facts(report.as_dict()), args.against)
        for line in moved:
            print(f"moved: {line}")
        print(f"{len(moved)} items moved")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "list": cmd_list,
        "describe": cmd_describe,
        "flow": cmd_flow,
        "invariants": cmd_invariants,
        "fit": cmd_fit,
        "check": cmd_check,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
