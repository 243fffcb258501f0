#!/usr/bin/env python3
"""Run-to-run spread of the benchmark over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --workload joint-census --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed (sequentially, untraced, for the
run_seconds of BENCHMARK.json), then prints for every
metric its median, quartiles and the quartile distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  A metric is steady
when that share stays below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import relative_iqr

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 600


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    all_steady = True
    for workload in args.workload:
        values, failures = {}, 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                failures += 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            failures += result["failed"] > 0 or not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(args.seeds)} seeds, {failures} runs with failures")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = relative_iqr(vals) if len(vals) > 1 else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "ok" if spread < bound / 3 else "TOO WIDE"
                all_steady &= spread < bound / 3
            print(f"  {name:48s} median {median:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.4f}  bound {bound if bound is not None else '-'} {verdict}")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
