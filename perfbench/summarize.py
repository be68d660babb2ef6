"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/summarize.py --workloads spencer,probes --seeds 1-10 --seconds 40

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (Q3 - Q1) /
median, and the sample count.  `--out FILE` also writes the summary, with
each run's value, as JSON.  Runs are sequential, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        correct = True
        for seed in seed_list(args.seeds):
            res = run_once(workload, seed, args.seconds, args.trace)
            correct &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            for name, metric in res["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: attempted {res['attempted']} failed {res['failed']} "
                  f"correct {res['correct']}", flush=True)
        summary[workload] = {"correct": correct, "attempted": attempted, "failed": failed,
                             "metrics": {k: summarize(v) for k, v in values.items()}}
        for name, s in summary[workload]["metrics"].items():
            print(f"{workload} {name}: median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
