"""The simplex pivot loop against a plain reference loop.

`_Simplex._run_phase` keeps its entry masks (free columns included) and
basic bounds up to date in place instead of rebuilding them on every
pivot.  `PlainLoop` below is that loop written out directly, one full
recomputation per pivot; on every LP both must take the same pivots and
return the same bits.
"""

import numpy as np
import pytest

from zonobalance import convex
from zonobalance.convex import TOL_FEAS, Polyhedron, _Simplex, lp_solve
from zonobalance.errors import NumericalError
from zonobalance.instancefile import generate_instance
from zonobalance.lewis import lewis_position
from zonobalance.verify import _l1_ball_lp, polar_identity_check, width_estimate
from zonobalance.zonotope import VectorFamily, Zonotope, zonotope_norm

from test_convex import highs, random_polyhedron, sparse_polyhedron, triangular_polyhedron
from test_zonotope import highs_gauge


class PlainLoop(_Simplex):
    """The pivot loop with every mask, bound gather and ratio recomputed
    on each pivot, and no small-pivot guard.  Dantzig pricing takes the
    eligible free columns first, while any is eligible."""

    def _run_phase(self, c, stop_at_feasible=False):
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
            nonbasic = self.status != convex._BASIC
            up_ok = nonbasic & movable & (
                (self.status == convex._AT_LOWER) | (self.status == convex._FREE)) & (d < -tol_d)
            dn_ok = nonbasic & movable & (
                (self.status == convex._AT_UPPER) | (self.status == convex._FREE)) & (d > tol_d)
            eligible = up_ok | dn_ok
            if not np.any(eligible):
                return "optimal"
            if phase_pivots < self.dantzig_limit:
                free_ok = eligible & (self.status == convex._FREE)
                pool = free_ok if np.any(free_ok) else eligible
                score = np.where(pool, np.abs(d), -1.0)
                j = int(np.argmax(score))
            else:
                j = int(np.argmax(eligible))
            sigma = 1.0 if up_ok[j] else -1.0

            col = self.W[:, j]
            delta = sigma * col
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
                self.x[self.basis] -= t_own * delta
                self.x[j] = self.upper[j] if sigma > 0 else self.lower[j]
                self.status[j] = convex._AT_UPPER if sigma > 0 else convex._AT_LOWER
            else:
                ties = np.flatnonzero(t_block <= t_min + 1e-15)
                p = int(ties[np.argmin(self.basis[ties])])
                piv = self.W[p, j]
                q = int(self.basis[p])
                self.x[self.basis] -= t_min * delta
                self.x[j] = self.x[j] + sigma * t_min
                hit_lower = delta[p] > 0
                self.x[q] = self.lower[q] if hit_lower else self.upper[q]
                self.status[q] = convex._AT_LOWER if hit_lower else convex._AT_UPPER
                self.W[p, :] /= piv
                wj = self.W[:, j].copy()
                wj[p] = 0.0
                self.W -= np.outer(wj, self.W[p, :])
                self.W[:, j] = 0.0
                self.W[p, j] = 1.0
                self.basis[p] = j
                self.status[j] = convex._BASIC
                self.since_refactor += 1
                if self.since_refactor >= self.refactor_every:
                    self._refactor()
            self.pivots += 1
            phase_pivots += 1


def outcome(cls, P, c, refactor_every=_Simplex.REFACTOR_EVERY, dantzig_limit=None):
    """Status, pivot count and the exact bits of the point and objective."""
    sim = cls(P, c, refactor_every)
    if dantzig_limit is not None:
        sim.dantzig_limit = dantzig_limit
    try:
        sol = sim.solve()
    except NumericalError as exc:
        return type(exc).__name__, sim.pivots, str(exc), b""
    point = b"" if sol.point is None else sol.point.tobytes()
    return sol.status, sim.pivots, point, np.float64(sol.objective).tobytes()


def captured_lps(run):
    """The (P, c) of every LP that run() solves."""
    seen = []

    class Capture(_Simplex):
        def __init__(self, P, c, refactor_every=_Simplex.REFACTOR_EVERY):
            if refactor_every == _Simplex.REFACTOR_EVERY:
                seen.append((P, c))
            super().__init__(P, c, refactor_every)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convex, "_Simplex", Capture)
        run()
    return seen


def gauge_lps():
    """m = 4d gauge LPs of random-zonotope bodies, d = 4, 8 and 16."""
    rng = np.random.default_rng(23)
    lps = []
    for d in (4, 8, 16):
        for _ in range(5):
            Z = Zonotope(generate_instance("random-zonotope", d, 4 * d, 1, rng).A)
            xs = rng.standard_normal((4, d))
            lps += captured_lps(lambda: [zonotope_norm(Z, x) for x in xs])
    return lps


def width_lps():
    """Width and polar-identity LPs over verify._l1_ball_lp sections."""
    rng = np.random.default_rng(29)
    lps = []
    for d in (4, 8, 16):
        for _ in range(3):
            inst = generate_instance("random-zonotope", d, 4 * d, d, rng)
            Z = Zonotope(inst.A)
            LP = lewis_position(Z)
            lps += captured_lps(lambda: width_estimate(LP, 4, rng))
            lps += captured_lps(lambda: polar_identity_check(Z, VectorFamily(inst.V), None, 2, rng))
    # A direct section of a random tall matrix as well.
    R = rng.standard_normal((24, 6))
    lps.append((_l1_ball_lp(R), np.concatenate([rng.standard_normal(6), np.zeros(49)])))
    return lps


def assert_same(lps, **options):
    statuses = []
    for P, c in lps:
        mine = outcome(_Simplex, P, c, **options)
        ref = outcome(PlainLoop, P, c, **options)
        assert mine == ref
        statuses.append(mine[0])
    return statuses


class TestSameAsPlainLoop:
    def test_sparse_polyhedra(self):
        rng = np.random.default_rng(17)
        lps = []
        for _ in range(150):
            P = sparse_polyhedron(rng)
            lps.append((P, rng.standard_normal(P.num_vars)))
        # Crash bases with shared columns on zero-residual rows.
        for _ in range(100):
            P = triangular_polyhedron(rng)
            lps.append((P, rng.standard_normal(P.num_vars)))
        statuses = assert_same(lps)
        assert {"optimal", "infeasible", "unbounded"} <= set(statuses), statuses
        # Bland's rule from the first pivot, and a switch to it mid-phase.
        assert_same(lps, dantzig_limit=0)
        assert_same(lps[:50], dantzig_limit=2)

    def test_random_polyhedra(self):
        rng = np.random.default_rng(31)
        lps = []
        for _ in range(60):
            P, _ = random_polyhedron(rng)
            lps.append((P, rng.standard_normal(P.num_vars)))
        statuses = assert_same(lps)
        assert {"optimal", "unbounded"} <= set(statuses), statuses
        assert_same(lps[:20], refactor_every=1)

    def test_gauge_lps(self):
        lps = gauge_lps()
        assert len(lps) == 60
        assert set(assert_same(lps)) == {"optimal"}
        # Frequent refactorizations, and Bland's rule throughout.
        assert_same(lps[::4], refactor_every=7)
        assert_same(lps[::4], dantzig_limit=0)

    def test_width_lps(self):
        lps = width_lps()
        assert len(lps) >= 40
        assert set(assert_same(lps)) == {"optimal"}
        assert_same(lps[::4], dantzig_limit=0)

    def test_infeasible_and_unbounded(self):
        infeasible = Polyhedron(2, [[1.0, 1.0]], [5.0], [0.0, 0.0], [1.0, 2.0])
        unbounded = Polyhedron(3, [[1.0, -1.0, 0.0]], [1.0], [0.0, 0.0, -1.0],
                               [np.inf, np.inf, 1.0])
        lps = [(infeasible, np.array([1.0, 1.0])), (unbounded, np.array([-1.0, 0.0, 1.0]))]
        assert assert_same(lps) == ["infeasible", "unbounded"]
        assert assert_same(lps, dantzig_limit=0) == ["infeasible", "unbounded"]


class TestPivotCounts:
    # Pinned through LpSolution.pivots.  The width LPs have d free columns
    # each, which the pricing takes first (5,144 pivots when they waited
    # for the largest reduced cost), and the crash gives every row a
    # structural column (3,876 pivots when each p_i row started on an
    # artificial pinned at zero).  The gauge LPs have neither.
    def test_width_lps(self):
        assert sum(lp_solve(c, P).pivots for P, c in width_lps()) == 2813

    def test_gauge_lps(self):
        lps = gauge_lps()
        assert not any(np.any(P.lower == -np.inf) for P, _ in lps)
        assert sum(lp_solve(c, P).pivots for P, c in lps) == 1338


class TestSmallPivotGuard:
    # x1 enters first and replaces x0 (pivot 1).  x4 enters next, and the
    # degenerate row of x3 blocks it at ratio 0 through the coefficient
    # 1e-10, which is 1e-10 of its column's largest entry.
    P = Polyhedron(5, [[0.0, 0.0, 1.0, 0.0, 1.0],
                       [0.0, 0.0, 0.0, 1.0, 1e-10],
                       [1.0, 1.0, 0.0, 0.0, 0.0]],
                   [1.0, 0.0, 1.0], np.zeros(5), [2.0, 5.0, 2.0, 1.0, 5.0])
    c = np.array([0.0, -2.0, 0.0, 0.0, -1.0])

    def refactors(self, cls):
        calls = []

        class Spy(cls):
            def _refactor(self):
                calls.append((self.pivots, self.since_refactor))
                super()._refactor()

        sol = Spy(self.P, self.c).solve()
        return sol, calls

    def test_refactorizes_before_a_small_pivot(self):
        sol, calls = self.refactors(_Simplex)
        ref, ref_calls = self.refactors(PlainLoop)
        # The guard adds one refactorization, at pivot 1 of an updated
        # tableau, and then takes the same pivot from the fresh one.
        assert (1, 1) in calls and (1, 1) not in ref_calls
        assert len(calls) == len(ref_calls) + 1
        assert sol.status == ref.status == "optimal"
        # x3 >= 0 forces x4 <= 0, so the optimum is x1 = 1, x4 = 0.  (HiGHS
        # drops the 1e-10 coefficient and reports -3.)
        assert sol.objective == ref.objective == pytest.approx(-2.0, abs=1e-9)
        assert self.P.contains(sol.point)

    def test_highs_references_refuse_it(self):
        # HiGHS would drop the 1e-10 coefficient and answer -3, so the
        # reference helpers refuse the LP instead of judging by it.
        with pytest.raises(ValueError, match="below 1e-9"):
            highs(self.c, self.P)
        with pytest.raises(ValueError, match="below 1e-9"):
            highs_gauge(np.array([[1.0, 1e-10], [0.0, 1.0]]), [1.0, 1.0])

    def test_fresh_tableau_takes_the_small_pivot(self):
        # Refactorizing at every pivot leaves no updated tableau to doubt.
        sim = _Simplex(self.P, self.c, refactor_every=1)
        sol = sim.solve()
        assert sol.objective == pytest.approx(-2.0, abs=1e-9)
        assert sim.pivots == outcome(PlainLoop, self.P, self.c, refactor_every=1)[1]
