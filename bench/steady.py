"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/steady.py --workloads single-100k cli-session --seeds 1-10

Runs ``bench/run.py`` once per (workload, seed), one process at a time, with
the run length from BENCHMARK.json, and prints per workload and end-to-end
metric the median and the quartile spread (Q3 - Q1 over the median, from
``statistics.quantiles(values, n=4)``) next to the metric's bound.  Used to
show the benchmark is steady and to fill the reference table in README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds_from, default=seeds_from("1-10"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        values, shares, walls = {}, set(), []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout)
                sys.exit(f"{workload} seed {seed}: incorrect output")
            shares.add((result["failed"], result["attempted"]))
            walls.append(wall)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        failed = sorted({round(f / a, 12) for f, a in shares})
        print(f"{workload}: {len(args.seeds)} seeds, failed share {failed}, "
              f"wall time per run {min(walls):.1f} to {max(walls):.1f} s")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            print(f"  {name:12s} median {med:12.6g}  spread {spread:7.2%}  "
                  f"bound {bounds[name]:.0%}  (min {min(vals):.6g}, max {max(vals):.6g})")


if __name__ == "__main__":
    main()
