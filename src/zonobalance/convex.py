"""Dense numerical primitives: linear programs over small polyhedra and
Euclidean projection onto polyhedra.

A polyhedron is stored in the lifted form used throughout the package:
equality constraints plus per-variable box bounds.  The LP solver is a
bounded-variable primal simplex (Dantzig pricing with a Bland's-rule
fallback after a fixed pivot budget, so every solve is deterministic);
the projection solver is a primal active-set method on the same
representation.  Problem sizes stay in the low thousands of variables,
so dense linear algebra is adequate.

Every optimal LP point is checked against its bounds after the final
refactorization, and priced again there: a variable still eligible to
enter resumes the pivots from the fresh basis.  When the rank-1 tableau
updates have drifted far enough to break a bound, the LP is solved
again with a refactorization at every pivot, and NumericalError is
raised only if that fails too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# Global tolerance.  Everything downstream derives from it.
TOL_FEAS = 1e-9

_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class Polyhedron:
    """A set {z : E z = e, lower <= z <= upper} with +-inf bounds allowed."""

    num_vars: int
    E: np.ndarray
    e: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        E = np.atleast_2d(np.array(self.E, dtype=float))
        if E.size == 0:
            E = E.reshape(0, self.num_vars)
        e = _as_vector(self.e, "e").copy()
        lower = _as_vector(self.lower, "lower").copy()
        upper = _as_vector(self.upper, "upper").copy()
        if E.shape[1] != self.num_vars:
            raise ValueError(f"E has {E.shape[1]} columns, expected {self.num_vars}")
        if e.shape[0] != E.shape[0]:
            raise ValueError("e length does not match the number of rows of E")
        if lower.shape[0] != self.num_vars or upper.shape[0] != self.num_vars:
            raise ValueError("bound vectors must have num_vars entries")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("a lower bound of +inf or an upper bound of -inf admits no value")
        if not np.all(np.isfinite(E)) or not np.all(np.isfinite(e)):
            raise ValueError("E and e must be finite")
        for arr, name in ((E, "E"), (e, "e"), (lower, "lower"), (upper, "upper")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_eq(self) -> int:
        return self.E.shape[0]

    def contains(self, z: np.ndarray) -> bool:
        """Feasibility check with absolute tolerance 1e-7."""
        z = _as_vector(z, "z")
        if z.shape[0] != self.num_vars:
            return False
        tol = 1e-7
        if np.any(z < self.lower - tol) or np.any(z > self.upper + tol):
            return False
        if np.max(np.abs(self.E @ z - self.e), initial=0.0) > tol * (1.0 + np.max(np.abs(self.e), initial=0.0)):
            return False
        return True


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: np.ndarray | None
    objective: float

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


class _Simplex:
    """Bounded-variable primal simplex on a full dense tableau.

    Nonbasic variables rest at a finite bound (or at zero when free in
    both directions); free variables never leave the basis once they
    enter.  Phase 1 minimizes the total artificial infeasibility,
    phase 2 the caller's objective.
    """

    REFACTOR_EVERY = 128

    def __init__(self, P: Polyhedron, c: np.ndarray, refactor_every: int = REFACTOR_EVERY):
        meq, n = P.num_eq, P.num_vars
        self.n_orig = n
        self.c_orig = c
        self.lower = np.concatenate([P.lower, np.zeros(meq)])
        self.upper = np.concatenate([P.upper, np.full(meq, np.inf)])
        self.e = P.e.astype(float, copy=True)
        self.ntot = n + meq
        self.refactor_every = refactor_every
        # Dantzig pricing for this many pivots per phase, then Bland's rule.
        self.dantzig_limit = 20 * self.ntot + 200
        self.max_iter = 200 * self.ntot + 5000
        self.scale_e = 1.0 + np.max(np.abs(self.e), initial=0.0)
        self.feas_tol = TOL_FEAS * self.scale_e

        # Start every original variable at a finite bound (0 when free).
        x = np.where(np.isfinite(P.lower), P.lower,
                     np.where(np.isfinite(P.upper), P.upper, 0.0))
        status = np.where(np.isfinite(P.lower), _AT_LOWER,
                          np.where(np.isfinite(P.upper), _AT_UPPER, _FREE))
        resid = self.e - P.E @ x

        # Crash singleton columns into the basis: a column with a single
        # nonzero row can absorb that row's residual without touching any
        # other row, which skips one artificial pivot per such row.  Each
        # row takes its lowest-index singleton whose value fits its bounds;
        # the refactorization below computes the basic values.
        singles = np.flatnonzero(np.count_nonzero(P.E, axis=0) == 1)
        rows, k = np.nonzero(P.E[:, singles])  # row-major: columns ascend per row
        cols = singles[k]
        val = x[cols] + resid[rows] / P.E[rows, cols]
        fits = (P.lower[cols] - 1e-12 <= val) & (val <= P.upper[cols] + 1e-12)
        crashed, first = np.unique(rows[fits], return_index=True)
        resid[crashed] = 0.0

        # Every other row starts on its artificial; those of crashed rows
        # stay pinned at zero.
        self.E_full = np.hstack([P.E, np.diag(np.where(resid >= 0.0, 1.0, -1.0))])
        self.basis = n + np.arange(meq)
        self.basis[crashed] = cols[fits][first]
        self.upper[n + crashed] = 0.0
        self.x = np.concatenate([x, np.abs(resid)])
        self.status = np.concatenate([status, np.full(meq, _AT_LOWER, dtype=int)])
        self.status[self.basis] = _BASIC
        self.pivots = 0
        self.since_refactor = 0
        self._refactor()

    def _refactor(self):
        B = self.E_full[:, self.basis]
        try:
            self.W = np.linalg.solve(B, self.E_full)
        except np.linalg.LinAlgError:
            raise NumericalError("singular basis during refactorization")
        nonbasic = self.status != _BASIC
        rhs = self.e - self.E_full[:, nonbasic] @ self.x[nonbasic]
        self.x[self.basis] = np.linalg.solve(B, rhs)
        self.since_refactor = 0

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        d = c - self.W.T @ c[self.basis]
        d[self.basis] = 0.0
        return d

    def _run_phase(self, c: np.ndarray, stop_at_feasible: bool = False) -> str:
        tol_d = TOL_FEAS * (1.0 + np.max(np.abs(c), initial=0.0))
        span = self.upper - self.lower
        movable = span > 0.0
        phase_pivots = 0
        while True:
            if stop_at_feasible and self.x[self.n_orig:].sum() <= self.feas_tol:
                return "optimal"
            if self.pivots > self.max_iter:
                raise NumericalError(
                    "simplex exceeded the pivot budget",
                    residual=float(np.max(np.abs(self._residual()), initial=0.0)),
                )
            d = self._reduced_costs(c)
            nonbasic = self.status != _BASIC
            up_ok = nonbasic & movable & (
                (self.status == _AT_LOWER) | (self.status == _FREE)) & (d < -tol_d)
            dn_ok = nonbasic & movable & (
                (self.status == _AT_UPPER) | (self.status == _FREE)) & (d > tol_d)
            eligible = up_ok | dn_ok
            if not np.any(eligible):
                return "optimal"
            if phase_pivots < self.dantzig_limit:
                score = np.where(eligible, np.abs(d), -1.0)
                j = int(np.argmax(score))
            else:
                j = int(np.argmax(eligible))  # Bland: lowest eligible index
            sigma = 1.0 if up_ok[j] else -1.0

            col = self.W[:, j]
            delta = sigma * col
            # Ratio test: basic variables hit a bound, or the entering
            # variable flips to its opposite bound.
            t_own = span[j]
            xb = self.x[self.basis]
            lb = self.lower[self.basis]
            ub = self.upper[self.basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_low = np.where(delta > 1e-11, (xb - lb) / delta, np.inf)
                t_up = np.where(delta < -1e-11, (xb - ub) / delta, np.inf)
            t_block = np.minimum(t_low, t_up)
            t_block = np.where(np.isnan(t_block), np.inf, t_block)
            np.maximum(t_block, 0.0, out=t_block)
            t_min = float(np.min(t_block, initial=np.inf))

            if t_own <= t_min:
                if not np.isfinite(t_own):
                    return "unbounded"
                # Bound flip, no basis change.
                self.x[self.basis] -= t_own * delta
                self.x[j] = self.upper[j] if sigma > 0 else self.lower[j]
                self.status[j] = _AT_UPPER if sigma > 0 else _AT_LOWER
            else:
                ties = np.flatnonzero(t_block <= t_min + 1e-15)
                p = int(ties[np.argmin(self.basis[ties])])
                piv = self.W[p, j]
                q = int(self.basis[p])
                self.x[self.basis] -= t_min * delta
                self.x[j] = self.x[j] + sigma * t_min
                hit_lower = delta[p] > 0
                self.x[q] = self.lower[q] if hit_lower else self.upper[q]
                self.status[q] = _AT_LOWER if hit_lower else _AT_UPPER
                self.W[p, :] /= piv
                wj = self.W[:, j].copy()
                wj[p] = 0.0
                self.W -= np.outer(wj, self.W[p, :])
                self.W[:, j] = 0.0
                self.W[p, j] = 1.0
                self.basis[p] = j
                self.status[j] = _BASIC
                self.since_refactor += 1
                if self.since_refactor >= self.refactor_every:
                    self._refactor()
            self.pivots += 1
            phase_pivots += 1

    def _residual(self) -> np.ndarray:
        return self.E_full @ self.x - self.e

    def solve(self) -> LpSolution:
        n = self.n_orig
        c1 = np.zeros(self.ntot)
        c1[n:] = 1.0
        status = self._run_phase(c1, stop_at_feasible=True)
        if status != "optimal":
            raise NumericalError("phase 1 reported unbounded")
        infeas = float(self.x[n:].sum())
        if infeas > self.feas_tol * 10:
            return LpSolution("infeasible", None, math.nan)
        # Pin all artificials at zero for phase 2.
        self.upper[n:] = 0.0
        np.clip(self.x[n:], 0.0, None, out=self.x[n:])
        c2 = np.concatenate([self.c_orig, np.zeros(self.ntot - n)])
        # The verdict needs a pass that prices on a fresh factorization
        # and finds nothing to enter; until then, pivot on from the
        # refactored (and checked) basis.
        checked = -1
        while True:
            if self._run_phase(c2) == "unbounded":
                return LpSolution("unbounded", None, math.nan)
            if self.pivots == checked:
                break
            self._refactor()
            resid = float(np.max(np.abs(self._residual()), initial=0.0))
            if resid > 100 * self.feas_tol:
                raise NumericalError("solution failed the feasibility check", residual=resid)
            breach = float(np.max(np.maximum(self.lower - self.x, self.x - self.upper), initial=0.0))
            if breach > 100 * self.feas_tol:
                raise _BoundBreach("solution breaks a variable bound", residual=breach)
            checked = self.pivots
        point = self.x[:n].copy()
        return LpSolution("optimal", point, float(self.c_orig @ point))


class _BoundBreach(NumericalError):
    """The refactored basic point breaks a bound: the tableau updates drifted."""


def lp_solve(objective, P: Polyhedron) -> LpSolution:
    """Solve min objective . z over the polyhedron P.

    To maximize, pass the negated objective and negate the optimum.
    Infeasible and unbounded problems are reported through the status
    field.  The pivot order is fixed, so identical inputs produce
    identical outputs.
    """
    c = _as_vector(objective, "objective")
    if c.shape[0] != P.num_vars:
        raise ValueError("objective length does not match num_vars")
    try:
        return _Simplex(P, c).solve()
    except _BoundBreach:
        # Drifted rank-1 updates can pivot onto a near-singular basis; a
        # fresh factorization at every pivot keeps the ratio tests accurate.
        return _Simplex(P, c, refactor_every=1).solve()


def _null_space(E: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(E) for a dense E (possibly with 0 rows or columns)."""
    _, s, vt = np.linalg.svd(E, full_matrices=True)
    tol = max(E.shape) * np.finfo(float).eps * np.max(s, initial=0.0)
    rank = int(np.sum(s > tol))
    return vt[rank:].T


def project_polyhedron(g, P: Polyhedron, *, z0: np.ndarray) -> np.ndarray:
    """Euclidean projection of g onto P by a primal active-set method.

    `g` may be shorter than P.num_vars: trailing variables are costless
    auxiliaries of a lifted representation, and only the leading
    len(g) coordinates enter the squared distance.  The full point is
    returned; slice off the target block as needed.

    The walk starts from `z0`, which must lie in P (ValueError if not).
    Raises NumericalError when the active-set loop fails to converge.
    """
    g = _as_vector(g, "g")
    n = P.num_vars
    t = g.shape[0]
    if t > n:
        raise ValueError("g has more entries than the polyhedron has variables")
    max_iter = 60 * n + 600

    z = _as_vector(z0, "z0").copy()
    if not P.contains(z):
        raise ValueError("provided starting point is not feasible")
    np.clip(z, P.lower, P.upper, out=z)

    E, lower, upper = P.E, P.lower, P.upper
    # Start from an empty working set apart from pinned variables, which
    # stay in it forever.
    fixed = lower == upper
    at_lo = fixed.copy()
    at_up = np.zeros(n, dtype=bool)

    tol_step = 1e-11 * (1.0 + float(np.max(np.abs(z), initial=0.0)))
    tol_mult = 1e-9 * (1.0 + float(np.max(np.abs(g), initial=0.0)))
    zero_steps = 0

    for it in range(max_iter):
        working = at_lo | at_up
        free_idx = np.flatnonzero(~working)
        rho = z[:t] - g

        # Least-squares step in ker(E_free); numpy gives 0 on empty shapes.
        N = _null_space(E[:, free_idx])
        target = free_idx < t
        p_free = N @ np.linalg.lstsq(N[target], -rho[free_idx[target]], rcond=None)[0]

        if np.max(np.abs(p_free), initial=0.0) > tol_step:
            with np.errstate(divide="ignore", invalid="ignore"):
                tau_up = np.where(p_free > 1e-13,
                                  (upper[free_idx] - z[free_idx]) / p_free, np.inf)
                tau_lo = np.where(p_free < -1e-13,
                                  (lower[free_idx] - z[free_idx]) / p_free, np.inf)
            tau = np.minimum(tau_up, tau_lo)
            np.maximum(tau, 0.0, out=tau)
            tau_min = float(np.min(tau, initial=np.inf))
            step = min(1.0, tau_min)
            z[free_idx] += step * p_free
            if tau_min <= 1.0 + 1e-12:
                blocked = tau <= tau_min * (1.0 + 1e-10) + 1e-15
                hit_up = free_idx[blocked & (p_free > 0)]
                hit_lo = free_idx[blocked & (p_free <= 0)]
                z[hit_up] = upper[hit_up]
                at_up[hit_up] = True
                z[hit_lo] = lower[hit_lo]
                at_lo[hit_lo] = True
            zero_steps = zero_steps + 1 if step <= tol_step else 0
            if zero_steps > n + 10:
                raise NumericalError(
                    "projection stalled on degenerate bounds",
                    residual=float(np.max(np.abs(p_free))),
                )
            continue

        # Subproblem optimal: verify the bound multipliers.
        grad = np.zeros(n)
        grad[:t] = rho
        nu = np.linalg.lstsq(E[:, free_idx].T, grad[free_idx], rcond=None)[0] \
            if free_idx.size else np.linalg.lstsq(E.T, grad, rcond=None)[0]
        r = grad - E.T @ nu
        viol = np.zeros(n)
        rem_lo = at_lo & ~fixed
        rem_up = at_up & ~fixed
        viol[rem_lo] = -r[rem_lo]
        viol[rem_up] = r[rem_up]
        worst = float(np.max(viol, initial=0.0))
        if worst <= tol_mult:
            return z
        if it < 2 * n:
            i = int(np.argmax(viol))
        else:
            i = int(np.flatnonzero(viol > tol_mult)[0])  # lowest index fallback
        at_lo[i] = False
        at_up[i] = False

    raise NumericalError(
        "projection did not converge within the iteration budget",
        residual=float(np.max(np.abs(z[:t] - g))),
    )

