#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload with several seeds through run.py and prints, for every
metric, the median over runs and the distance between the first and third
quartile as a share of the median (statistics.quantiles, n=4) next to the
metric's bound from BENCHMARK.json.  A run that fails (exit status not 0)
is reported and left out of the figures; the script then exits 1.

    python3 perfbench/spread.py --workload steady --runs 10 [--seconds 20]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    failed = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if out.returncode != 0:
            problems = [line for line in out.stderr.splitlines()
                        if "FAILED CHECK" in line]
            print("seed %d: exit %d %s" % (seed, out.returncode,
                                           " | ".join(problems[:3])))
            failed.append(seed)
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        meta = json.loads(out.stdout.strip().splitlines()[-2])
        meta = meta.get("perfbench", {})
        for name, v in meta.items():
            try:
                x = float(v)
            except (TypeError, ValueError):
                continue
            values.setdefault("note:" + name, []).append(x)
        print("seed %d done" % seed, file=sys.stderr)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print("%-34s %14s %8s %7s  %s" % ("metric", "median", "spread", "bound",
                                       "values"))
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-34s %14.6g %7.1f%% %7s  %s" % (
            name, med, spread * 100,
            "" if bound is None else "%.0f%%" % (bound * 100),
            " ".join("%.4g" % x for x in v)))
    if failed:
        print("failed seeds: %s" % " ".join(map(str, failed)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
