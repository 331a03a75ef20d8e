"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 10 [--workloads cold-gate,...]
        [--seconds S] [--trace 0|1] [--first-seed N]

Each run is a fresh process.  The workload order rotates from seed to seed,
so no workload always runs first or right after the same neighbour.  For
every metric it prints the median of the runs and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median — the figure the metric's bound in ``BENCHMARK.json``
is compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed"] = elapsed
    return result


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    first, __, third = statistics.quantiles(values, n=4)
    return (third - first) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    workloads = (args.workloads.split(",") if args.workloads
                 else [entry["name"] for entry in config["workloads"]])
    seconds = args.seconds or config["run_seconds"]
    bounds = {entry["name"]: entry.get("bound") for entry in config["end_to_end"]}
    results: dict[str, list[dict]] = {name: [] for name in workloads}
    for offset in range(args.seeds):
        seed = args.first_seed + offset
        turn = offset % len(workloads)
        for workload in workloads[turn:] + workloads[:turn]:
            result = run_once(workload, seed, seconds, args.trace)
            results[workload].append(result)
            print(f"seed {seed:3d} {workload:14s} {result['elapsed']:6.1f}s "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, "
              f"{statistics.mean(r['elapsed'] for r in runs):.1f}s per run")
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread(values) < bound / 3 else "WIDE"
            print(f"  {name:32s} median {statistics.median(values):12.6f}  "
                  f"spread {spread(values):6.3f}  bound {bound}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
