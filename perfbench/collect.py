"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 0-9 [--traced] [--out summary.json]

For every workload and end-to-end metric it prints the median, the
quartiles and the spread (interquartile distance over the median) of the
per-seed values, and whether the spread is within the metric's bound; it
exits 1 if any spread is wider or any operation failed.  ``--traced`` adds
one traced run per workload, at the first seed, for the per-layer numbers.
Run it from the root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return {"line": line, "env": detail["env"],
            "metrics": {k: v["value"] for k, v in detail["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    result = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {
            "env": runs[0]["env"],
            "attempted": sum(r["line"]["attempted"] for r in runs),
            "failed": sum(r["line"]["failed"] for r in runs),
            "end_to_end": {},
            "outputs": {},
        }
        for name, bound in bounds.items():
            s = summary([r["line"]["metrics"][name]["value"] for r in runs])
            within = s["spread"] is not None and s["spread"] <= bound
            ok = ok and within
            entry["end_to_end"][name] = s
            print(f"{workload:16s} {name:19s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
                  f"bound {bound}  {'ok' if within else 'WIDE'}", flush=True)
        for name, value in runs[0]["metrics"].items():
            if name not in bounds:
                values = [r["metrics"][name] for r in runs]
                entry["outputs"][name] = (None if value is None else
                                          {"median": statistics.median(values),
                                           "max": max(values)})
                print(f"{workload:16s} {name:19s} " + (
                    "missing" if value is None else
                    f"median {statistics.median(values):.6g}  max {max(values):.6g}"))
        print(f"{workload:16s} failed {entry['failed']} of {entry['attempted']}", flush=True)
        ok = ok and entry["failed"] == 0
        if args.traced:
            traced = bench(workload, args.seeds[0], seconds, 1)
            entry["per_layer"] = traced["metrics"]
            # the overhead as two runs measure it, beside the one the traced run computes
            entry["traced_minus_untraced_wall_s"] = (
                traced["metrics"]["trace.traced_wall_s"] - runs[0]["metrics"]["wall_s"])
        result["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
