"""zonobalance benchmark: closed-loop workloads with end-to-end metrics,
and a separate traced run for the per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload spencer --seed 1 --seconds 40 --trace 0

`--workload all` (the default) runs every workload in one process.  One
caller handles one instance at a time (closed loop, one client): each
instance of the workload's pool once, then its first few instances over
and over until the time is up.  The package is imported from the
checkout's `src/`; with `--trace 0` the last line of output is a JSON
object with the end-to-end metrics, with `--trace 1` one with the
per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported: default
# threading was slower and noisier on a 2-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, check, digest_line, make_instance, quality_ratio, run_instance  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPS = 3      # set-ups before the loop; one more follows each repeat pass
WARMUP_D = 4        # one instance this small runs the call chain before timing
MIN_PASSES = 3      # an untraced run times each timed instance at least this often
ENDPOINT_MAX = 2      # partial_coloring enumerates endpoints once k <= 2

# Every end-to-end metric with its unit.  All are printed; README.md says
# why the latencies and failed_frac are left out of the result line.
E2E_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "failed_frac": "frac",
    "ratio_mean": "ratio",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics in the result line; BENCHMARK.json lists the same.
E2E_RESULT = ("setup_s", "instances_per_s", "ratio_mean", "peak_rss_mb")

PER_LAYER_UNITS = {
    "convex.project.calls": "count/instance",
    "convex.project.s": "s/instance",
    "convex.project.ms_per_call": "ms",
    "convex.project.errors": "count/instance",
    "convex.lp.calls": "count/instance",
    "convex.lp.s": "s/instance",
    "convex.lp.ms_per_call": "ms",
    "convex.lp.nonoptimal": "count/instance",
    "convex.lp.errors": "count/instance",
    "zonotope.preprocess.s": "s/instance",
    "zonotope.preprocess.self_s": "s/instance",
    "zonotope.preprocess.norm_calls": "count/instance",
    "zonotope.norm.calls": "count/instance",
    "zonotope.norm.self_s": "s/instance",
    "coloring.balance.self_s": "s/instance",
    "coloring.partial.calls": "count/instance",
    "coloring.partial.self_s": "s/instance",
    "coloring.endpoint.calls": "count/instance",
    "coloring.endpoint.s": "s/instance",
    "coloring.draws": "count/instance",
    "coloring.draw_accept_ratio": "ratio",
    "coloring.doubled_rounds": "count/instance",
    "verify.width.s": "s/instance",
    "lewis.position.s": "s/instance",
    "lewis.iterations": "count/instance",
    "trace.overhead_frac": "frac",
}


def import_package():
    """Import zonobalance afresh from the checkout's src/ (timed in set-up)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "zonobalance" or n.startswith("zonobalance.")]:
        del sys.modules[name]
    zb = importlib.import_module("zonobalance")
    seeding = importlib.import_module("zonobalance.seeding")
    if Path(zb.__file__).resolve().parent != SRC / "zonobalance":
        raise ImportError(f"zonobalance was imported from {zb.__file__}, not {SRC}")
    return zb, seeding


@dataclass
class Loop:
    """The closed loop: one pass over the whole pool, then repeat passes
    over its first `timed` instances."""

    outcomes: list = field(default_factory=list)   # per pass: Outcome, or the error raised
    latencies: list = field(default_factory=list)  # per pass: seconds per instance
    wall: float = 0.0

    def best(self) -> list[float]:
        """Each repeated instance's fastest pass (zip stops at the shortest
        pass, so with repeat passes only the timed instances count)."""
        return [min(times) for times in zip(*self.latencies)]


def run_pass(zb, w, instances, tracer=None):
    """Run instances one after another; their outcomes and latencies."""
    outcomes, latencies = [], []
    for i, inst in enumerate(instances):
        t0 = perf_counter()
        try:
            if tracer is None:
                out = run_instance(zb, w, inst)
            else:
                with tracer.root(i):
                    out = run_instance(zb, w, inst)
        except (zb.NumericalError, zb.InputError) as exc:
            out = exc
        latencies.append(perf_counter() - t0)
        outcomes.append(out)
    return outcomes, latencies


def closed_loop(zb, w, pool, seconds=0.0, min_passes=1, tracer=None, after_pass=None) -> Loop:
    """Run the whole pool once, then its first `w.timed` instances in whole
    repeat passes: until `min_passes` passes are done, and then as long as
    another one fits in `seconds`, going by the slowest so far.
    `after_pass`, if given, is called after every repeat pass."""
    loop = Loop()
    start = perf_counter()
    outcomes, latencies = run_pass(zb, w, pool, tracer)
    slowest = sum(latencies[:w.timed])
    while True:
        loop.outcomes.append(outcomes)
        loop.latencies.append(latencies)
        if len(loop.outcomes) >= min_passes and perf_counter() - start + slowest > seconds:
            break
        outcomes, latencies = run_pass(zb, w, pool[:w.timed])
        slowest = max(slowest, sum(latencies))
        if after_pass is not None:
            after_pass()
    loop.wall = perf_counter() - start
    return loop


def digest(zb, w, outcomes) -> str:
    lines = [repr(o) if isinstance(o, Exception) else digest_line(zb, w, o) for o in outcomes]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def tail(latencies):
    """(percentile, value): the highest order statistic with at least ten
    samples beyond it.  Below 20 samples no order statistic at or above
    the median has ten beyond it, and the median is returned instead."""
    n = len(latencies)
    if n < 20:
        return 50.0, statistics.median(latencies)
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


@dataclass
class Measured:
    w: object
    zb: object
    pool: list
    setup_s: float
    loop: Loop
    peak_rss_mb: float
    traced: Loop | None = None
    tracer: object = None


def set_up(w, seed: int):
    """One set-up: a fresh import of the package and the instance pool."""
    t0 = perf_counter()
    zb, seeding = import_package()
    pool = [make_instance(zb, seeding, w, seed, i) for i in range(w.pool)]
    return perf_counter() - t0, zb, seeding, pool


def measure(w, seed: int, seconds: float, trace: bool) -> Measured:
    """Set-up and the timed loop; no checks yet, so that the checker's
    scipy import does not count towards peak memory.

    Set-up runs SETUP_REPS times before the loop and, untraced, once
    more after every repeat pass, so that its median spans the whole run.
    The loop uses the package and pool of the last set-up before it.  A
    traced run makes one untraced and then one traced pass over the pool.
    """
    setup = []
    for _ in range(SETUP_REPS):
        elapsed, zb, seeding, pool = set_up(w, seed)
        setup.append(elapsed)
    # Pay first-call costs (lazy imports, allocator growth) outside the timing.
    run_instance(zb, w, make_instance(zb, seeding, replace(w, dims=(WARMUP_D,)), seed, -1))
    if trace:
        loop = closed_loop(zb, w, pool)
    else:
        loop = closed_loop(zb, w, pool, seconds=seconds, min_passes=MIN_PASSES,
                           after_pass=lambda: setup.append(set_up(w, seed)[0]))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m = Measured(w, zb, pool, statistics.median(setup), loop, peak)
    if trace:
        m.tracer = tracing.Tracer()
        m.tracer.install()
        try:
            m.traced = closed_loop(zb, w, pool, tracer=m.tracer)
        finally:
            m.tracer.uninstall()
    return m


def coloring_metrics(outcomes, c0: float) -> dict[str, float]:
    """Draw counts from the public BalanceReport.log, per instance."""
    draws = accepted = doubled = 0
    for out in outcomes:
        report = getattr(out, "report", None)
        if report is None:
            continue
        for rec in report.log:
            if rec.n_active > ENDPOINT_MAX:
                draws += rec.attempts
                accepted += 1
            doubled += rec.c_used > c0
    n = len(outcomes)
    return {"coloring.draws": draws / n,
            "coloring.draw_accept_ratio": accepted / draws if draws else 0.0,
            "coloring.doubled_rounds": doubled / n}


def finish(m: Measured, seed: int, trace: bool) -> dict:
    """Check every output and derive the metrics of one workload.

    The first pass's output of each pool instance is checked; every later
    pass, traced or not, must reproduce the first pass's outputs exactly.
    """
    zb, w, loop = m.zb, m.w, m.loop
    first = loop.outcomes[0]
    failures, bad = [], set()
    for i, (inst, out) in enumerate(zip(m.pool, first)):
        found = [f"raised {out!r}"] if isinstance(out, Exception) else check(zb, w, inst, out)
        if found:
            bad.add(i)
            failures += [f"{w.name} instance {i}: {f}" for f in found]
    passes = loop.outcomes + (m.traced.outcomes if trace else [])
    result = {"attempted": sum(map(len, passes)),
              "failed": sum(i in bad for outs in passes for i in range(len(outs))),
              "passes": len(passes), "digest": digest(zb, w, first), "failures": failures}
    result["repeats_match"] = all(digest(zb, w, outs) == digest(zb, w, first[:len(outs)])
                                  for outs in passes[1:])
    good = [(inst, out) for i, (inst, out) in enumerate(zip(m.pool, first)) if i not in bad]

    if not trace:
        pool_latencies = loop.latencies[0]
        pct, tail_s = tail(pool_latencies)
        result["tail"] = (pct, len(pool_latencies))
        result["metrics"] = {
            "setup_s": m.setup_s,
            "instances_per_s": sum(i not in bad for i in range(w.timed)) / sum(loop.best()),
            "latency_p50_ms": 1e3 * statistics.median(pool_latencies),
            "latency_tail_ms": 1e3 * tail_s,
            "failed_frac": len(bad) / len(m.pool),
            "ratio_mean": statistics.fmean(quality_ratio(i, o) for i, o in good) if good else 0.0,
            "peak_rss_mb": m.peak_rss_mb,
        }
        return result

    traced = m.traced
    metrics = tracing.span_metrics(m.tracer, len(m.pool))
    metrics.update(coloring_metrics(first, zb.coloring.DEFAULT_C0))
    metrics["trace.overhead_frac"] = traced.wall / loop.wall - 1.0
    result["metrics"] = {k: metrics[k] for k in PER_LAYER_UNITS}
    OUT.mkdir(exist_ok=True)
    m.tracer.write(OUT / f"spans-{w.name}-seed{seed}.csv")
    return result


def environment() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"blas_threads={BLAS_THREADS} nproc={len(os.sched_getaffinity(0))} "
            f"numpy={np.__version__} {blas.get('name', 'blas')}={blas.get('version', '?')} "
            f"python={platform.python_version()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zonobalance" / "__init__.py").is_file():
        print(f"error: no zonobalance sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    print(f"# zonobalance benchmark seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# {environment()}")
    measured = [measure(WORKLOADS[n], args.seed, args.seconds, trace) for n in names]
    results = [finish(m, args.seed, trace) for m in measured]

    units = PER_LAYER_UNITS if trace else E2E_UNITS
    reported = tuple(PER_LAYER_UNITS) if trace else E2E_RESULT
    metrics = {}
    for name, res in zip(names, results):
        for f in res["failures"]:
            print(f"FAIL {f}", file=sys.stderr)
        for key, value in res["metrics"].items():
            note = ""
            if key == "latency_tail_ms":
                note = f" (p{res['tail'][0]:.1f} of {res['tail'][1]} samples)"
            print(f"{name} {key} {value!r} {units[key]}{note}")
        print(f"{name} digest {res['digest']} ({WORKLOADS[name].pool} instances)")
        print(f"{name} passes {res['passes']} repeats_match_first_pass {res['repeats_match']}")
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: {"value": res["metrics"][k], "unit": units[k]}
                        for k in reported})
    line = {
        "correct": all(not r["failures"] and r["repeats_match"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
