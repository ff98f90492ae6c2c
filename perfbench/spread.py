#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range over median) next to its
bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads imp_desk analyze_dense --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

Runs are sequential, one process at a time, from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads:
        values, failed = {name: [] for name in bounds}, 0
        unscaled = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = next(json.loads(l.split(": ", 1)[1]) for l in lines if l.startswith("environment: "))
            report = next(l.split(": ", 1)[1] for l in lines if l.startswith("report: "))
            report = json.loads((ROOT / report).read_text())
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
                unscaled[name].append(report["end_to_end_unscaled"][name])
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}",
                  flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            u1, umed, u3 = quartiles(unscaled[name])
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals,
                          "unscaled": {"median": umed, "spread": (u3 - u1) / umed,
                                       "values": unscaled[name]}}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            ok &= bool(name == "setup_s" or spread <= bounds[name])
            print(f"  {workload:15s} {name:18s} median {med:.6g}  spread {spread:.4f}  "
                  f"bound {bounds[name]}  (unscaled median {umed:.6g} spread "
                  f"{(u3 - u1) / umed:.4f}){flag}")
        summary[workload] = {"seeds": args.seeds, "seconds": args.seconds, "environment": env,
                             "failed": failed, "metrics": rows}
        ok &= failed == 0
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
