#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --seeds 10 [--workloads saturated,sharded_q8]

Runs perfbench/run.py once per seed and workload (seeds 1..N) with the
BENCHMARK.json run length, then prints, for each metric, the median, the
quartile spread (Q3 - Q1) / median as statistics.quantiles(n=4) gives it,
and the metric's bound. A spread over a third of the bound is marked.
The raw results are kept in <build dir>/perfbench_runs/spread-<workload>.json.
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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.join(build_dir, "perfbench_runs")
    worst_ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.seeds + 1):
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
            done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result {result}")
                worst_ok = False
            results.append(result)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spread-{workload}.json"), "w") as handle:
            json.dump(results, handle, indent=1)
        print(f"{workload}: {len(results)} runs")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                mark = "  <-- over a third of the bound"
            bound_text = "" if bound is None else f" bound {bound:.2f}"
            print(f"  {name:28s} median {med:12.5f} spread {spread:7.4f}{bound_text}{mark}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
