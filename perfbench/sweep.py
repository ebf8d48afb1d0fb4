"""Repeat benchmark runs over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads many-small,diagnose-2k --seeds 1-10 \\
        [--seconds 30] [--trace 0] [--out summary.json]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
per metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the interquartile distance as a share of the median.
``--out`` also keeps each run's ``summary`` line.
This is the stability test a benchmark change must pass, and the way to
compare a change with its parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()
    summary = {}
    for workload in args.workloads.split(","):
        values, units, failed, attempted, wall, infos = {}, {}, 0, [], [], []
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                                   workload, "--seed", str(seed), "--seconds", args.seconds,
                                   "--trace", args.trace], capture_output=True, text=True)
            wall.append(round(time.monotonic() - t0, 1))
            if proc.returncode != 0:
                failed += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            infos += [json.loads(line[len("summary "):]) for line in lines
                      if line.startswith("summary ")]
            failed += not result["correct"]
            attempted.append(result["attempted"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary[workload] = {"runs": len(args.seeds), "runs_failed": failed,
                             "jobs_attempted": attempted, "run_wall_s": wall, "summaries": infos,
                             "metrics": {}}
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload]["metrics"][name] = {"unit": units[name], "median": med, "q1": q1,
                                                  "q3": q3, "spread": spread}
            print(f"  {name:45s} median {med:12.6g} {units[name]:7s} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
