"""Workload definitions: instance generation, the per-instance call chain,
independent output checks and the digest lines.

Every function that touches the library takes the freshly imported
`zonobalance` package as its first argument and looks each call up on it
at call time, so the tracer's wrappers are seen and set-up can time the
import itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Width samples per probes instance.
PROBE_SAMPLES = 8

# Tolerances of the independent checks.
GAUGE_TOL = 1e-6        # |independent gauge - reported discrepancy|
WIDTH_TOL = 1e-6        # |independent width mean - reported mean|
LEWIS_RESIDUAL_TOL = 1e-8
LEWIS_SUM_TOL = 1e-6    # |sum of Lewis weights - d|


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the library calls made for each of them.

    Instance i has dimension dims[i % len(dims)], n = d vectors and
    m = m_factor * d generators.  `calls` names the user-visible call
    chain: "balance" (preprocess + balance) or "probes" (preprocess +
    lewis_position + width_estimate).
    `pool` instances are generated in set-up and each is run and checked
    once; the first `timed` of them are then run again and again, and
    throughput is taken from their fastest runs.
    """

    name: str
    why: str
    kind: str
    dims: tuple[int, ...]
    m_factor: int
    calls: str
    pool: int
    timed: int


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "spencer",
            "spencer-random A=I, n=d in {16,32,64}: no preimages, so "
            "preprocess solves a norm LP per vector; small sizes expose "
            "fixed per-call overhead",
            "spencer-random", (16, 32, 64), 1, "balance", 72, 6),
        Workload(
            "probes",
            "random zonotope d=16 m=64 through lewis_position and "
            "width_estimate: LPs with m+1 rows instead of d, no coloring",
            "random-zonotope", (16,), 4, "probes", 40, 4),
    )
}


@dataclass(frozen=True)
class Instance:
    d: int
    A: np.ndarray
    V: np.ndarray
    U: np.ndarray | None
    call_seed: int   # balance seed, or the probes' Gaussian stream seed


@dataclass
class Outcome:
    """What one instance's call chain returned."""

    report: object = None    # BalanceReport
    lewis: object = None     # LewisPosition
    width: object = None     # WidthEstimate


def make_instance(zb, seeding, w: Workload, seed: int, i: int) -> Instance:
    """Instance i of workload w under the workload seed, derived the same
    way as the CLI's bench sweep: one splitmix64 run seed per index, split
    into an instance seed and a call seed."""
    rs = seeding.run_seed(seed, i)
    d = w.dims[i % len(w.dims)]
    inst = zb.generate_instance(w.kind, d, w.m_factor * d, d,
                                np.random.default_rng(seeding.run_seed(rs, 0)))
    return Instance(d, inst.A, inst.V, inst.U, seeding.run_seed(rs, 1))


def run_instance(zb, w: Workload, inst: Instance) -> Outcome:
    """The user-visible call chain for one instance; this is what is timed."""
    Z, V, _ = zb.preprocess(inst.A, inst.V, inst.U)
    if w.calls == "balance":
        return Outcome(report=zb.balance(Z, V, seed=inst.call_seed))
    LP = zb.lewis_position(Z)
    est = zb.width_estimate(LP, PROBE_SAMPLES, np.random.default_rng(inst.call_seed))
    return Outcome(lewis=LP, width=est)


def quality_ratio(inst: Instance, out: Outcome) -> float:
    """The instance's result over its theoretical scale.

    Balancing: discrepancy / sqrt(n log2(2d/n)).  Probes: the width
    estimate / sqrt(log2(1 + d)), the growth order the acceptance suite
    checks.
    """
    n = inst.V.shape[0]
    if out.report is not None:
        return out.report.discrepancy / math.sqrt(n * math.log2(2.0 * inst.d / n))
    return out.width.mean / math.sqrt(math.log2(1.0 + inst.d))


def digest_line(zb, w: Workload, out: Outcome) -> str:
    """Byte-exact rendering of an outcome for the run digest."""
    if out.report is not None:
        return zb.verify.csv_row(w.kind, out.report)
    LP, est = out.lewis, out.width
    return ",".join([str(LP.iterations), repr(float(LP.w.sum())),
                     repr(LP.residual), repr(est.mean), repr(est.stderr)])


def _highs(c, A_ub, b_ub, A_eq=None, b_eq=None, bounds=None) -> float:
    """Optimal value of min c.x by scipy's HiGHS, independent of the library."""
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def independent_gauge(A: np.ndarray, x: np.ndarray) -> float:
    """min t s.t. A^T u = x, |u_j| <= t."""
    m, d = A.shape
    eye, ones = np.eye(m), np.ones((m, 1))
    return _highs(np.eye(m + 1)[m],
                  np.vstack([np.hstack([eye, -ones]), np.hstack([-eye, -ones])]),
                  np.zeros(2 * m), np.hstack([A.T, np.zeros((d, 1))]), x,
                  [(None, None)] * m + [(0.0, None)])


def independent_width(LP, samples: int, seed: int) -> float:
    """Mean over the same Gaussian draws g of max <g, x> s.t.
    sum_i c_i |<u_i, x>| <= 1, the LP that width_estimate solves."""
    rows = LP.U_dirs * LP.c[:, None]
    m, d = rows.shape
    eye = np.eye(m)
    A_ub = np.vstack([np.hstack([rows, -eye]), np.hstack([-rows, -eye]),
                      np.concatenate([np.zeros(d), np.ones(m)])[None]])
    b_ub = np.concatenate([np.zeros(2 * m), [1.0]])
    bounds = [(None, None)] * d + [(0.0, None)] * m
    rng = np.random.default_rng(seed)
    return float(np.mean([-_highs(np.concatenate([-rng.standard_normal(d), np.zeros(m)]),
                                  A_ub, b_ub, bounds=bounds) for _ in range(samples)]))


def check(zb, w: Workload, inst: Instance, out: Outcome) -> list[str]:
    """Independent checks of one outcome; returns the failures found."""
    failures = []
    if out.report is None:
        LP, est, d = out.lewis, out.width, inst.d
        if LP.residual > LEWIS_RESIDUAL_TOL:
            failures.append(f"Lewis isotropy residual {LP.residual:.3e}")
        if abs(float(LP.w.sum()) - d) > LEWIS_SUM_TOL:
            failures.append(f"Lewis weights sum to {float(LP.w.sum())!r}, not {d}")
        width = independent_width(LP, est.samples, inst.call_seed)
        if abs(width - est.mean) > WIDTH_TOL:
            failures.append(f"width estimate {est.mean!r} but reference {width!r}")
        return failures

    rep = out.report
    n = inst.V.shape[0]
    signs = np.asarray(rep.signs)
    if signs.shape != (n,) or not np.all(np.abs(signs) == 1):
        return [f"signs are not exactly +-1: {signs!r}"]
    gauge = independent_gauge(inst.A, inst.V.T @ signs.astype(float))
    if abs(gauge - rep.discrepancy) > GAUGE_TOL:
        failures.append(f"discrepancy {rep.discrepancy!r} but reference gauge {gauge!r}")
    bound = math.sqrt(n * math.log2(2.0 * inst.d / n))
    if rep.discrepancy > zb.coloring.C_IMPL * bound:
        failures.append(f"discrepancy {rep.discrepancy!r} over C_IMPL * bound")
    for rec in rep.log:
        if rec.tight_gained < math.ceil(rec.n_active / 2):
            failures.append(f"round {rec.index} fixed {rec.tight_gained} of {rec.n_active}")
        if rec.increment > rec.scale_used:
            failures.append(f"round {rec.index} moved {rec.increment!r} over {rec.scale_used!r}")
    if rep.rounds > math.ceil(math.log2(n)) + 1:
        failures.append(f"{rep.rounds} rounds for n = {n}")
    return failures
