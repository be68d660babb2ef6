"""Dense numerical primitives: linear programs over small polyhedra and
Euclidean projection onto polyhedra.

A polyhedron is stored in the lifted form used throughout the package:
equality constraints plus per-variable box bounds.  The LP solver is a
bounded-variable primal simplex (Dantzig pricing that takes eligible free
columns first, with a Bland's-rule fallback after a fixed pivot budget,
so every solve is deterministic).  It starts from a lower-triangular
crash basis, and a row gets an artificial column only when the crash
leaves it open.  The projection solver is a primal active-set method on
the same representation.  Each active set's step and bound multipliers
come from two SVDs taken once: one of the free auxiliary columns, and a
thin one of the free target columns outside their range.  Problem
sizes stay in the low thousands of variables, so dense linear algebra
is adequate.

Every optimal LP point is checked against its bounds after the final
refactorization, and priced again there: a variable still eligible to
enter resumes the pivots from the fresh basis.  A pivot below 1e-9 of
its column's largest entry, read from a tableau updated since its last
refactorization, is not taken from there: the tableau is refactorized
and priced again first.  When the rank-1 tableau updates have drifted
far enough to break a bound anyway, the LP is solved again with a
refactorization at every pivot, and NumericalError is raised only if
that fails too.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericalError

# Global tolerance.  Everything downstream derives from it.
TOL_FEAS = 1e-9

_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3


def _as_vector(x, name: str, finite: bool = True) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if finite and not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


class Polyhedron:
    """Immutable set {z : E z = e, lower <= z <= upper} with +-inf bounds allowed."""

    def __init__(self, num_vars: int, E, e, lower, upper):
        E = np.atleast_2d(np.array(E, dtype=float))
        if E.size == 0:
            E = E.reshape(0, num_vars)
        e = _as_vector(e, "e").copy()
        lower = _as_vector(lower, "lower", finite=False).copy()
        upper = _as_vector(upper, "upper", finite=False).copy()
        if E.shape[1] != num_vars:
            raise ValueError(f"E has {E.shape[1]} columns, expected {num_vars}")
        if e.shape[0] != E.shape[0]:
            raise ValueError("e length does not match the number of rows of E")
        if lower.shape[0] != num_vars or upper.shape[0] != num_vars:
            raise ValueError("bound vectors must have num_vars entries")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        if not (np.all(lower < np.inf) and np.all(upper > -np.inf)):
            raise ValueError("a NaN bound, a +inf lower or a -inf upper bound admits no value")
        if not np.all(np.isfinite(E)):
            raise ValueError("E must be finite")
        for arr in (E, e, lower, upper):
            arr.setflags(write=False)
        self.num_vars = num_vars
        self.E, self.e, self.lower, self.upper = E, e, lower, upper

    @property
    def num_eq(self) -> int:
        return self.E.shape[0]

    def contains(self, z: np.ndarray) -> bool:
        """Feasibility check with absolute tolerance 1e-7 (ValueError on NaN or inf)."""
        z = _as_vector(z, "z")
        if z.shape[0] != self.num_vars:
            return False
        tol = 1e-7
        if np.any(z < self.lower - tol) or np.any(z > self.upper + tol):
            return False
        if np.max(np.abs(self.E @ z - self.e), initial=0.0) > tol * (1.0 + np.max(np.abs(self.e), initial=0.0)):
            return False
        return True


class LpSolution(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: np.ndarray | None
    objective: float
    pivots: int  # every pivot of the call, a re-solve's included

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


class _Simplex:
    """Bounded-variable primal simplex on a full dense tableau.

    Nonbasic variables rest at a finite bound (or at zero when free in
    both directions); free variables never leave the basis once they
    enter.  Pricing is Dantzig's rule, the largest reduced cost, taken
    among the eligible free columns while any is eligible (free
    variables enter the basis first, Maros, Computational Techniques of
    the Simplex Method, 2003), then among all eligible columns; after
    `dantzig_limit` pivots in a phase, Bland's rule takes the lowest
    eligible index.  Phase 1 minimizes the total artificial
    infeasibility, phase 2 the caller's objective.

    The start is a lower-triangular crash (Bixby, "Implementing the
    simplex method: the initial basis", ORSA J. Computing 1992).  Each
    wave gives an open row its lowest-index column whose other nonzeros
    lie in rows already crashed: a singleton that moves to absorb the
    row's residual within its bounds, or any such column, left at its
    bound, when the residual is zero.  Only the rows left open get an
    artificial column, so the tableau is n plus that many columns wide.
    On the l1-ball LPs of `verify` every row is crashed and phase 1 takes
    no pivot; on the gauge LPs of the bench grid no row is.
    """

    REFACTOR_EVERY = 128

    def __init__(self, P: Polyhedron, c: np.ndarray, refactor_every: int = REFACTOR_EVERY):
        meq, n = P.num_eq, P.num_vars
        self.n_orig = n
        self.c_orig = c
        self.e = P.e.astype(float, copy=True)
        self.refactor_every = refactor_every
        self.scale_e = 1.0 + np.max(np.abs(self.e), initial=0.0)
        self.feas_tol = TOL_FEAS * self.scale_e

        # Start every original variable at a finite bound (0 when free).
        x = np.where(np.isfinite(P.lower), P.lower,
                     np.where(np.isfinite(P.upper), P.upper, 0.0))
        status = np.where(np.isfinite(P.lower), _AT_LOWER,
                          np.where(np.isfinite(P.upper), _AT_UPPER, _FREE))
        resid = self.e - P.E @ x

        # The crash, one wave per pass (see the class docstring).  A column
        # with one nonzero among the open rows touches no open row but
        # that one, so the crashed part of B stays triangular.  Only
        # singletons move, so every crashed row holds, and the
        # refactorization below computes the basic values.
        nz = P.E != 0.0
        single = np.count_nonzero(nz, axis=0) == 1
        crashed = np.zeros(meq, dtype=bool)
        basis = np.empty(meq, dtype=int)
        while True:
            open_nz = nz & ~crashed[:, None]
            cand = np.flatnonzero(np.count_nonzero(open_nz, axis=0) == 1)
            rows, k = np.nonzero(open_nz[:, cand])  # row-major: columns ascend per row
            cols = cand[k]
            val = x[cols] + resid[rows] / P.E[rows, cols]
            ok = (resid[rows] == 0.0) | (single[cols] & (P.lower[cols] - 1e-12 <= val)
                                         & (val <= P.upper[cols] + 1e-12))
            new, first = np.unique(rows[ok], return_index=True)
            if not new.size:
                break
            crashed[new] = True
            basis[new] = cols[ok][first]

        # Every other row starts on an artificial column of its own.
        art = np.flatnonzero(~crashed)
        self.ntot = n + art.size
        # Dantzig pricing for this many pivots per phase, then Bland's rule.
        self.dantzig_limit = 20 * self.ntot + 200
        self.max_iter = 200 * self.ntot + 5000
        signs = np.zeros((meq, art.size))
        signs[art, np.arange(art.size)] = np.where(resid[art] >= 0.0, 1.0, -1.0)
        self.E_full = np.hstack([P.E, signs])
        self.lower = np.concatenate([P.lower, np.zeros(art.size)])
        self.upper = np.concatenate([P.upper, np.full(art.size, np.inf)])
        basis[art] = n + np.arange(art.size)
        self.basis = basis
        self.x = np.concatenate([x, np.abs(resid[art])])
        self.status = np.concatenate([status, np.full(art.size, _AT_LOWER, dtype=int)])
        self.status[basis] = _BASIC
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
        # Apart from the rank-1 update, a pivot's cost is numpy call
        # overhead on arrays of a few hundred entries.  So the loop keeps
        # its state in locals and updates it in place: the entry masks
        # change only for the entering and leaving variable, and the
        # bounds of the basic variables only at the pivot row.
        x, lower, upper, basis, status = self.x, self.lower, self.upper, self.basis, self.status
        tol_d = TOL_FEAS * (1.0 + np.max(np.abs(c), initial=0.0))
        span = upper - lower
        movable = span > 0.0
        nonbasic = status != _BASIC
        # Nonbasic variables that may enter upward (from their lower bound
        # or free) and downward (from their upper bound or free).
        can_up = nonbasic & movable & ((status == _AT_LOWER) | (status == _FREE))
        can_dn = nonbasic & movable & ((status == _AT_UPPER) | (status == _FREE))
        # Free nonbasic columns, which Dantzig pricing takes first: once
        # basic they never leave, since no bound of theirs blocks.
        free = status == _FREE
        free_left = bool(free.any())
        lb, ub = lower[basis], upper[basis]
        t_block = np.empty(basis.size)
        n = self.n_orig
        phase_pivots = 0
        while True:
            if stop_at_feasible and x[n:].sum() <= self.feas_tol:
                return "optimal"
            if self.pivots > self.max_iter:
                raise NumericalError(
                    "simplex exceeded the pivot budget",
                    residual=float(np.max(np.abs(self._residual()), initial=0.0)),
                )
            d = self._reduced_costs(c)
            up_ok = d < -tol_d
            up_ok &= can_up
            dn_ok = d > tol_d
            dn_ok &= can_dn
            eligible = up_ok | dn_ok
            # A column in the pool scores |d| > tol_d > 0, any other -1.
            if phase_pivots < self.dantzig_limit:
                pool = eligible
                if free_left and (first := eligible & free).any():
                    pool = first
                score = np.where(pool, np.abs(d), -1.0)
                j = int(score.argmax())
                if score[j] < 0.0:
                    return "optimal"
            else:
                j = int(eligible.argmax())  # Bland: lowest eligible index
                if not eligible[j]:
                    return "optimal"
            up = bool(up_ok[j])
            sigma = 1.0 if up else -1.0

            W = self.W
            col = W[:, j]
            delta = sigma * col
            # Ratio test: basic variables hit a bound, or the entering
            # variable flips to its opposite bound.  Rows with a tiny
            # step never block, and neither does a NaN ratio.
            xb = x[basis]
            t_block.fill(np.inf)
            np.divide(xb - lb, delta, out=t_block, where=delta > 1e-11)
            np.divide(xb - ub, delta, out=t_block, where=delta < -1e-11)
            np.fmin(t_block, np.inf, out=t_block)
            np.maximum(t_block, 0.0, out=t_block)
            t_min = float(np.minimum.reduce(t_block, initial=np.inf))
            t_own = span[j]

            if t_own <= t_min:
                if t_own == np.inf:
                    return "unbounded"
                # Bound flip, no basis change.
                xb -= t_own * delta
                x[basis] = xb
                x[j] = upper[j] if up else lower[j]
                status[j] = _AT_UPPER if up else _AT_LOWER
                can_up[j] = not up
                can_dn[j] = up
            else:
                ties = (t_block <= t_min + 1e-15).nonzero()[0]
                p = int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])
                piv = W[p, j]
                # A pivot tiny against its column, read from an updated
                # tableau, may be rounding: refactorize and price again.
                # A fresh tableau's pivot is taken as it is.
                if self.since_refactor and abs(piv) < 1e-9 * np.maximum.reduce(np.abs(delta)):
                    self._refactor()
                    continue
                q = int(basis[p])
                xb -= t_min * delta
                x[basis] = xb
                x[j] = x[j] + sigma * t_min
                hit_lower = bool(delta[p] > 0)
                x[q] = lower[q] if hit_lower else upper[q]
                status[q] = _AT_LOWER if hit_lower else _AT_UPPER
                can_up[q] = hit_lower and movable[q]
                can_dn[q] = not hit_lower and movable[q]
                row = W[p]
                row /= piv
                wj = W[:, j].copy()
                wj[p] = 0.0
                W -= wj[:, None] * row
                W[:, j] = 0.0
                W[p, j] = 1.0
                basis[p] = j
                lb[p] = lower[j]
                ub[p] = upper[j]
                status[j] = _BASIC
                can_up[j] = can_dn[j] = False
                if free_left and free[j]:
                    free[j] = False
                    free_left = bool(free.any())
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
            return LpSolution("infeasible", None, math.nan, self.pivots)
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
                return LpSolution("unbounded", None, math.nan, self.pivots)
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
        return LpSolution("optimal", point, float(self.c_orig @ point), self.pivots)


class _BoundBreach(NumericalError):
    """The refactored basic point breaks a bound: the tableau updates drifted."""


def lp_solve(objective, P: Polyhedron) -> LpSolution:
    """Solve min objective . z over the polyhedron P.

    To maximize, pass the negated objective and negate the optimum.
    Infeasible and unbounded problems are reported through the status
    field, and `pivots` counts every pivot the call took.  The pivot
    order is fixed, so identical inputs produce identical outputs.  A NaN
    or infinite objective entry raises ValueError.
    """
    c = _as_vector(objective, "objective")
    if c.shape[0] != P.num_vars:
        raise ValueError("objective length does not match num_vars")
    first = _Simplex(P, c)
    try:
        return first.solve()
    except _BoundBreach:
        # Drifted rank-1 updates can pivot onto a near-singular basis; a
        # fresh factorization at every pivot keeps the ratio tests accurate.
        sol = _Simplex(P, c, refactor_every=1).solve()
        return sol._replace(pivots=first.pivots + sol.pivots)


def _truncated_svd(A: np.ndarray, full_u: bool = False):
    """(U_r, s_r, V_r^T, U_rest) of A = U S V^T, r the count of singular
    values above max(shape) * eps * s_max, with U full when `full_u`."""
    u, s, vt = np.linalg.svd(A, full_matrices=full_u)
    r = int(np.sum(s > max(A.shape) * np.finfo(float).eps * np.max(s, initial=0.0)))
    return u[:, :r], s[:r], vt[:r], u[:, r:]


def _free_factors(E: np.ndarray, T: np.ndarray, X: np.ndarray):
    """Factor the free columns of E, targets T and auxiliaries X, once.

    With K = E[:, X], C spanning the complement of range(K) and
    M = C^T E[:, T], a free move (E_free p = 0) is a p_T in ker(M) with
    K p_X = -E[:, T] p_T.  Returns `move(rho)`, the least-norm free move
    that minimizes |rho + p_T|, and `multipliers(grad_T)`,
    nu = C (M^T)^+ grad_T, which solves E_free^T nu = (grad_T, 0) in the
    least-squares sense whenever the move is zero.
    """
    E_T = E[:, T]
    uk, sk, vtk, C = _truncated_svd(E[:, X], full_u=X.size < E.shape[0])
    um, sm, vtm, _ = _truncated_svd(C.T @ E_T)

    def move(rho):
        p_T = vtm.T @ (vtm @ rho) - rho
        return np.concatenate([p_T, -(vtk.T @ ((uk.T @ (E_T @ p_T)) / sk))])

    def multipliers(grad_T):
        return C @ (um @ ((vtm @ grad_T) / sm))

    return move, multipliers


def project_polyhedron(g, P: Polyhedron, *, z0: np.ndarray) -> np.ndarray:
    """Euclidean projection of g onto P by a primal active-set method.

    `g` may be shorter than P.num_vars: trailing variables are costless
    auxiliaries of a lifted representation, and only the leading
    len(g) coordinates enter the squared distance.  The full point is
    returned; slice off the target block as needed.

    The walk starts from `z0`, which must lie in P.  A `g` or `z0` with a
    NaN or infinite entry, or a `z0` outside P, raises ValueError.
    Each active set is factored once, for the step and the bound
    multipliers, by `_free_factors`: the costless auxiliaries absorb
    every target move in their range, so no SVD spans all free columns
    (the Gaussian projection of Rothvoss, "Constructive discrepancy
    minimization for convex sets", FOCS 2014).
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
        free_idx = np.flatnonzero(~(at_lo | at_up))
        T = free_idx[free_idx < t]
        move, multipliers = _free_factors(E, T, free_idx[free_idx >= t])
        p_free = move(z[T] - g[T])

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
            zero_steps = zero_steps + 1 if step <= tol_step else 0
            if zero_steps > n + 10:
                raise NumericalError(
                    "projection stalled on degenerate bounds",
                    residual=float(np.max(np.abs(p_free))),
                )
            if tau_min <= 1.0 + 1e-12:
                blocked = tau <= tau_min * (1.0 + 1e-10) + 1e-15
                hit_up = free_idx[blocked & (p_free > 0)]
                hit_lo = free_idx[blocked & (p_free <= 0)]
                z[hit_up] = upper[hit_up]
                at_up[hit_up] = True
                z[hit_lo] = lower[hit_lo]
                at_lo[hit_lo] = True
                continue

        # Subproblem optimal (a full step keeps the free set and its
        # factors): verify the bound multipliers.
        grad = np.zeros(n)
        grad[:t] = z[:t] - g
        r = grad - E.T @ multipliers(grad[T])
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

