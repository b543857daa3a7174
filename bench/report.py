#!/usr/bin/env python3
"""Steadiness report: repeat bench/run.py over seeds and summarize.

    python3 bench/report.py [--workloads grid analyze verify] [--seeds 1-10]
        [--trace-seed N] [--out results.json]

Each run is its own process, started only after the previous one ended,
and lasts BENCHMARK.json's ``run_seconds``.  The runs go round-robin:
every workload on the first seed, then every workload on the next, so a
drift of the host's speed spreads over all workloads and seeds alike.
For every end-to-end metric the report prints the median and quartiles
over the seeds (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median, next to the metric's bound from
BENCHMARK.json and a third of it.  With ``--trace-seed`` one traced run
per workload adds the per-layer metrics and the layer self-time shares.
``--out`` writes everything, with the run record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
CONFIG = run.ROOT / "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8' to a list of seeds."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def bench_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exit {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=sorted(run.workloads.WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--out")
    args = p.parse_args(argv)
    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    whys = {w["name"]: w["why"] for w in config["workloads"]}
    report = {"record": {"python": platform.python_version(),
                         "nproc": len(os.sched_getaffinity(0)),
                         "commit": run.git_commit(), "source_sha256": run.source_digest(),
                         "seeds": seeds, "seconds": seconds, "repeats": len(seeds),
                         "setup_repeats": run.SETUP_REPEATS},
              "workloads": {}}
    print("run-record " + json.dumps(report["record"], sort_keys=True))
    runs_of = {workload: [] for workload in args.workloads}
    for seed in seeds:
        for workload in args.workloads:
            runs_of[workload].append(bench_once(workload, seed, seconds, 0))
    for workload, runs in runs_of.items():
        cls = run.workloads.WORKLOADS[workload]
        entry = {
            "why": whys.get(workload),
            "op": " ".join(cls.__doc__.split()),
            "seeds": seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failed_ratio": [r["failed"] / r["attempted"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        print(f"\n{workload}: {len(runs)} runs of {seconds:g} s, seeds {args.seeds}, "
              f"attempted {entry['attempted']}, failed {entry['failed']}, "
              f"correct {entry['correct']}")
        print(f"  {'metric':14} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'bound/3':>8}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            stats["values"] = values
            entry["metrics"][name] = stats
            unit = runs[0]["metrics"][name]["unit"]
            flag = "" if stats["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"  {name:14} {unit:9} {stats['median']:12.5g} {stats['q1']:12.5g} "
                  f"{stats['q3']:12.5g} {stats['spread']:8.4f} {bounds[name]:6.3g} "
                  f"{bounds[name] / 3:8.4f}{flag}")
        if args.trace_seed is not None:
            traced = bench_once(workload, args.trace_seed, seconds, 1)
            entry["trace_seed"] = args.trace_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            shares = {k.split(".")[1]: v for k, v in entry["per_layer"].items()
                      if k.endswith(".self_share")}
            print(f"  traced seed {args.trace_seed}: overhead "
                  f"{entry['per_layer']['trace.overhead']:.3f}, self-time shares "
                  + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
