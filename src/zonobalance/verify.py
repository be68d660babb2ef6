"""Independent oracles and empirical probes: exhaustive sign search,
the polar-identity cross-check, and Monte-Carlo width estimates; and the
benchmark's CSV row, whose float rule `_fmt` the CLI's text shares."""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .coloring import BalanceReport
from .convex import Polyhedron, lp_solve
from .errors import InputError, NumericalError
from .lewis import LewisPosition
from .zonotope import VectorFamily, Zonotope, zonotope_norm

ORACLE_CAP = 22


class OracleResult(NamedTuple):
    best_signs: np.ndarray  # int8, as BalanceReport.signs
    opt: float
    evaluations: int


def brute_force_min_discrepancy(Z: Zonotope, V: VectorFamily) -> OracleResult:
    """Exact minimum discrepancy over all sign vectors.

    Enumerates half the sign cube, the x with x_1 = -1 (x and -x give the
    same norm), in lexicographic order counting -1 < +1, and keeps the
    first strict minimum: ties resolve to the lexicographically smallest
    sign vector.
    """
    n = V.n
    if n > ORACLE_CAP:
        raise InputError(f"oracle capped at n <= {ORACLE_CAP}, got n = {n}")
    Vt = V.V.T
    best_val = math.inf
    best = None
    evaluations = 0
    for rest in itertools.product((-1.0, 1.0), repeat=n - 1):
        x = np.array((-1.0,) + rest)
        val = zonotope_norm(Z, Vt @ x)
        evaluations += 1
        if val < best_val:
            best_val = val
            best = x
    return OracleResult(best_signs=best.astype(np.int8), opt=best_val,
                        evaluations=evaluations)


def _l1_ball_lp(R: np.ndarray) -> Polyhedron:
    """The x with ||R x||_1 <= 1, lifted over (x, p, q, slack) as
    R x - p + q = 0, sum(p + q) + slack = 1, with p, q, slack >= 0."""
    m, r = R.shape
    nv = r + 2 * m + 1
    E = np.zeros((m + 1, nv))
    E[:m, :r] = R
    E[:m, r:r + m] = -np.eye(m)
    E[:m, r + m:r + 2 * m] = np.eye(m)
    E[m, r:r + 2 * m] = 1.0
    E[m, r + 2 * m] = 1.0
    e = np.zeros(m + 1)
    e[m] = 1.0
    lower = np.concatenate([np.full(r, -np.inf), np.zeros(2 * m + 1)])
    return Polyhedron(nv, E, e, lower, np.full(nv, np.inf))


def _l1_ball_max(P: Polyhedron, objective: np.ndarray) -> float:
    """max <objective, x> over a polyhedron built by _l1_ball_lp."""
    c = np.zeros(P.num_vars)
    c[:objective.shape[0]] = objective
    sol = lp_solve(-c, P)
    if not sol.is_optimal:  # R has full column rank: feasible at x = 0, bounded
        raise NumericalError("l1-ball LP unexpectedly " + sol.status)
    return -sol.objective


def polar_identity_check(Z: Zonotope, V: VectorFamily, trials: int, rng) -> float:
    """Largest gap between the two sides of the coordinate-body duality.

    Each trial draws from `rng` an index set S (a size uniform in 1..n,
    then that many distinct indices) and a Gaussian y.  The gauge of
    x = sum_{i in S} y_i v_i must equal the maximum of <x, w> over the
    polar body {w : ||A w||_1 <= 1}.  With A = Q R and b = A w = Q z that
    maximum is max <R^{-T} x, z> over the l1 ball cut by the column span
    of A, ||Q z||_1 <= 1, computed by an independent LP over that section.
    """
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    span_basis, R = np.linalg.qr(Z.A)
    P = _l1_ball_lp(span_basis)
    max_gap = 0.0
    for _ in range(trials):
        size = int(rng.integers(1, V.n + 1))
        S = sorted(rng.choice(V.n, size=size, replace=False).tolist())
        x = V.V[S].T @ rng.standard_normal(size)
        lhs = zonotope_norm(Z, x)
        rhs = _l1_ball_max(P, np.linalg.solve(R.T, x))
        max_gap = max(max_gap, abs(lhs - rhs))
    return max_gap


class WidthEstimate(NamedTuple):
    mean: float
    stderr: float
    samples: int
    d: int


def width_estimate(LP: LewisPosition, samples: int, rng) -> WidthEstimate:
    """Monte-Carlo Gaussian width of the normalized polar body.

    Each sample maximizes <g, x> subject to sum_i c_i |<x, u_i>| <= 1,
    linearized with split variables, and the mean over draws estimates
    the width.
    """
    if samples < 2:
        raise InputError("need at least two samples for a standard error")
    P = _l1_ball_lp(LP.U_dirs * LP.c[:, None])  # sum_i c_i |<x, u_i>| <= 1
    vals = np.array([_l1_ball_max(P, rng.standard_normal(LP.d))
                     for _ in range(samples)])
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return WidthEstimate(mean=mean, stderr=stderr, samples=samples, d=LP.d)


CSV_COLUMNS = ("kind", "d", "m", "n", "seed", "c0", "discrepancy", "bound",
               "ratio", "rounds", "c_final", "opt")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))  # plain float repr even for numpy scalars
    return str(x)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def _csv_cell(x) -> str:
    """A cell as RFC 4180 writes it: quoted, with " doubled, only when it
    holds a comma, a quote, CR or LF."""
    s = _fmt(x)
    if any(ch in s for ch in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def csv_row(kind: str, report: BalanceReport, opt: float | None = None) -> str:
    """One benchmark row in CSV_COLUMNS order: `kind`, the report's
    fields between, and `opt`, empty when None."""
    cells = [kind, *(getattr(report, c) for c in CSV_COLUMNS[1:-1]),
             "" if opt is None else opt]
    return ",".join(_csv_cell(c) for c in cells)

