"""Tests for the LP and projection kernels."""

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from zonobalance import convex, zonotope
from zonobalance.cli import bench_specs
from zonobalance.coloring import DEFAULT_C0, GAUSSIAN_SCALE, _lift, round_scale
from zonobalance.convex import (
    Polyhedron,
    _Simplex,
    lp_solve,
    project_polyhedron,
)
from zonobalance.instancefile import generate_instance
from zonobalance.verify import _l1_ball_lp
from zonobalance.zonotope import Zonotope, preprocess, zonotope_norm

from test_zonotope import highs_gauge, refuse_tiny_coefficients


def box(lower, upper, E=None, e=None):
    lower = np.asarray(lower, dtype=float)
    n = lower.shape[0]
    if E is None:
        E = np.zeros((0, n))
        e = np.zeros(0)
    return Polyhedron(n, E, e, lower, np.asarray(upper, dtype=float))


def random_polyhedron(rng, n=None):
    """A random nonempty polyhedron with a known interior-ish point."""
    if n is None:
        n = int(rng.integers(1, 15))
    meq = int(rng.integers(0, min(n, 6) + 1))
    E = rng.standard_normal((meq, n))
    lower = np.where(rng.random(n) < 0.25, -np.inf, rng.uniform(-2.0, 0.0, n))
    upper = np.where(rng.random(n) < 0.25, np.inf, rng.uniform(0.5, 3.0, n))
    z = np.clip(np.zeros(n), lower + 0.25, upper - 0.25)
    e = E @ z if meq else np.zeros(0)
    return Polyhedron(n, E, e, lower, upper), z


def sparse_polyhedron(rng):
    """A polyhedron whose E mixes shared columns with 0-3 singleton columns
    per row; narrow bounds keep some singletons from absorbing their row's
    residual, some draws have no rows at all, and a fifth of the right-hand
    sides are random, so some draws are infeasible."""
    meq = int(rng.integers(0, 6))
    shared = int(rng.integers(1, 4))
    blocks = [rng.standard_normal((meq, shared)) * (rng.random((meq, shared)) < 0.7)]
    for r in range(meq):
        s = int(rng.integers(0, 4))
        block = np.zeros((meq, s))
        block[r] = rng.choice([-1.0, 1.0], s) * rng.uniform(0.5, 2.0, s)
        blocks.append(block)
    E = np.hstack(blocks)
    n = E.shape[1]
    z = rng.uniform(-1.0, 1.0, n)
    lower = np.where(rng.random(n) < 0.2, -np.inf, z - rng.uniform(0.0, 1.0, n))
    upper = np.where(rng.random(n) < 0.2, np.inf, z + rng.uniform(0.0, 1.0, n))
    e = E @ z if rng.random() < 0.8 else rng.standard_normal(meq) * 3.0
    return Polyhedron(n, E, e, lower, upper)


def triangular_polyhedron(rng):
    """A sparse polyhedron with rows of zero residual at the crash's start
    point: columns with one to three nonzeros, dyadic entries and integer
    bounds, so E z and E x0 are exact, and a right-hand side E z for an
    integer z that leaves most columns at their start x0.  A fifth of the
    draws take a random right-hand side, so some are infeasible, and some
    columns are free or unbounded above, so some are unbounded."""
    meq = int(rng.integers(1, 7))
    n = int(rng.integers(meq, 3 * meq + 3))
    E = np.zeros((meq, n))
    for j in range(n):
        rows = rng.choice(meq, size=min(meq, int(rng.integers(1, 4))), replace=False)
        E[rows, j] = rng.choice([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0], rows.size)
    free = rng.random(n) < 0.15
    lower = np.where(free, -np.inf, rng.integers(-2, 1, n).astype(float))
    upper = np.where(rng.random(n) < 0.3, np.inf, lower + rng.integers(0, 4, n))
    upper[free] = np.where(rng.random(free.sum()) < 0.5, np.inf, rng.integers(0, 3, free.sum()))
    x0 = np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 0.0))
    step = np.where(rng.random(n) < 0.3, rng.integers(0, 3, n), 0)
    z = np.where(np.isfinite(upper), np.minimum(x0 + step, upper), x0 + step)
    e = E @ z if rng.random() < 0.8 else rng.integers(-4, 5, meq).astype(float)
    return Polyhedron(n, E, e, lower, upper)


def crash_by_row_scan(P):
    """Reference crash, in waves: each open row scans its columns in order
    and takes the first whose other nonzeros lie in rows crashed in an
    earlier wave, if its row's residual is zero or it is a singleton whose
    value fits its bounds.  Returns the basis, with the artificials of the
    open rows numbered from n in row order."""
    n, meq = P.num_vars, P.num_eq
    x = np.where(np.isfinite(P.lower), P.lower, np.where(np.isfinite(P.upper), P.upper, 0.0))
    resid = P.e - P.E @ x
    col_nnz = np.count_nonzero(P.E, axis=0)
    basis = [None] * meq
    while True:
        done = {r for r in range(meq) if basis[r] is not None}
        wave = {}
        for r in range(meq):
            if r in done:
                continue
            for j in np.flatnonzero(P.E[r] != 0.0):
                if not set(np.flatnonzero(P.E[:, j])) - {r} <= done:
                    continue
                val = x[j] + resid[r] / P.E[r, j]
                fits = P.lower[j] - 1e-12 <= val <= P.upper[j] + 1e-12
                if resid[r] == 0.0 or (col_nnz[j] == 1 and fits):
                    wave[r] = int(j)
                    break
        if not wave:
            break
        for r, j in wave.items():
            basis[r] = j
    art = [r for r in range(meq) if basis[r] is None]
    for k, r in enumerate(art):
        basis[r] = n + k
    return np.array(basis, dtype=int)


def highs(c, P):
    refuse_tiny_coefficients(c, P.E)
    bounds = [(l if np.isfinite(l) else None, u if np.isfinite(u) else None)
              for l, u in zip(P.lower, P.upper)]
    return linprog(c, A_eq=P.E if P.num_eq else None,
                   b_eq=P.e if P.num_eq else None,
                   bounds=bounds, method="highs")


def spy_factorizations(monkeypatch):
    """Record ("svd" | "lstsq", matrix) for every numpy SVD and
    least-squares solve, in call order."""
    calls = []
    for name in ("svd", "lstsq"):
        def spy(a, *args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.asarray(a)))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def slsqp_projection(g, P, z0):
    """Reference projection: scipy SLSQP on 0.5 |z[:t] - g|^2 over P."""
    t = g.shape[0]
    bounds = [(l if np.isfinite(l) else None, u if np.isfinite(u) else None)
              for l, u in zip(P.lower, P.upper)]
    res = minimize(lambda z: 0.5 * np.sum((z[:t] - g) ** 2), z0,
                   jac=lambda z: np.concatenate([z[:t] - g, np.zeros(P.num_vars - t)]),
                   method="SLSQP", bounds=bounds,
                   constraints=[{"type": "eq", "fun": lambda z: P.E @ z - P.e,
                                 "jac": lambda z: P.E}],
                   options={"ftol": 1e-14, "maxiter": 1000})
    assert res.success, res.message
    return res.x


class TestPolyhedron:
    @pytest.mark.parametrize("lower, upper", [
        ([np.inf, 0.0], [np.inf, 5.0]),
        ([-np.inf, 0.0], [-np.inf, 5.0]),
    ])
    def test_infinite_bound_on_the_wrong_side_rejected(self, lower, upper):
        # Such a bound admits no point; the simplex would start the
        # variable at 0, outside its bounds.
        with pytest.raises(ValueError, match="inf"):
            Polyhedron(2, [[1.0, 1.0]], [1.0], lower, upper)


class TestLpSolve:
    def test_forced_equality(self):
        P = Polyhedron(1, np.array([[1.0]]), np.array([1.0]),
                       np.array([-np.inf]), np.array([np.inf]))
        sol = lp_solve(np.array([1.0]), P)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-12)

    def test_three_generator_lift(self):
        # min t s.t. u1+u3 = 2, u2+u3 = 2, |u_i| <= t, as the slack lift
        # over (u1,u2,u3,t,alpha1..3,beta1..3).  Hand enumeration: any
        # feasible point has u1+u3 = 2 with both entries bounded by t, so
        # t >= 1, and u = (1,1,1), t = 1 attains it.
        n = 10
        E = np.zeros((8, n))
        E[0, 0] = E[0, 2] = 1.0
        E[1, 1] = E[1, 2] = 1.0
        for i in range(3):  # u_i - t + alpha_i = 0
            E[2 + i, i] = 1.0
            E[2 + i, 3] = -1.0
            E[2 + i, 4 + i] = 1.0
        for i in range(3):  # -u_i - t + beta_i = 0
            E[5 + i, i] = -1.0
            E[5 + i, 3] = -1.0
            E[5 + i, 7 + i] = 1.0
        e = np.array([2.0, 2.0, 0, 0, 0, 0, 0, 0])
        lower = np.concatenate([np.full(3, -np.inf), [0.0], np.zeros(6)])
        upper = np.full(n, np.inf)
        P = Polyhedron(n, E, e, lower, upper)
        c = np.zeros(n)
        c[3] = 1.0
        sol = lp_solve(c, P)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_zero_objective_max(self):
        P, _ = random_polyhedron(np.random.default_rng(0))
        # A maximization passes the negated objective, as the callers do.
        sol = lp_solve(-np.zeros(P.num_vars), P)
        assert sol.status == "optimal"
        assert -sol.objective == 0.0

    def test_infeasible_reported_by_status(self):
        P = Polyhedron(1, np.array([[1.0]]), np.array([2.0]),
                       np.array([0.0]), np.array([1.0]))
        sol = lp_solve(np.array([1.0]), P)
        assert sol.status == "infeasible"
        assert sol.point is None

    def test_unbounded_reported_by_status(self):
        P = box([-np.inf, 0.0], [np.inf, 1.0])
        sol = lp_solve(np.array([1.0, 0.0]), P)
        assert sol.status == "unbounded"

    def test_fixed_variables_direct_evaluation(self):
        P = Polyhedron(2, np.array([[1.0, 1.0]]), np.array([3.0]),
                       np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        sol = lp_solve(np.array([5.0, 1.0]), P)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(7.0)
        bad = Polyhedron(2, np.array([[1.0, 1.0]]), np.array([4.0]),
                         np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert lp_solve(np.array([5.0, 1.0]), bad).status == "infeasible"

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            P, _ = random_polyhedron(rng)
            c = rng.standard_normal(P.num_vars)
            a = lp_solve(c, P)
            b = lp_solve(c, P)
            assert a.status == b.status
            if a.status == "optimal":
                assert np.array_equal(a.point, b.point)
                assert a.objective == b.objective

    def test_against_reference_solver(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            P, _ = random_polyhedron(rng)
            c = rng.standard_normal(P.num_vars)
            mine = lp_solve(c, P)
            ref = highs(c, P)
            if ref.status == 0:
                assert mine.status == "optimal"
                assert mine.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
                assert P.contains(mine.point)
            elif ref.status == 3:
                assert mine.status == "unbounded"
            elif ref.status == 2:
                assert mine.status == "infeasible"

    def test_singleton_columns_against_reference_solver(self):
        rng = np.random.default_rng(17)
        seen = {"optimal": 0, "infeasible": 0, "unbounded": 0, "no rows": 0, "crashed": 0}
        for _ in range(150):
            P = sparse_polyhedron(rng)
            c = rng.standard_normal(P.num_vars)
            mine = lp_solve(c, P)
            ref = highs(c, P)
            seen[mine.status] += 1
            seen["no rows"] += P.num_eq == 0
            seen["crashed"] += bool(np.any(_Simplex(P, c).basis < P.num_vars))
            if ref.status == 0:
                assert mine.status == "optimal"
                assert mine.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
                assert P.contains(mine.point)
            elif ref.status == 3:
                assert mine.status == "unbounded"
            elif ref.status == 2:
                assert mine.status == "infeasible"
        assert min(seen.values()) > 0, seen

    def test_blands_rule_against_reference_solver(self, monkeypatch):
        # Bland's rule from the first pivot on, over the sparse polyhedra
        # of the test above: same statuses and optima, on other pivot paths.
        pivots = {False: [], True: []}

        class Counted(convex._Simplex):
            bland = False

            def __init__(self, P, c, refactor_every=convex._Simplex.REFACTOR_EVERY):
                super().__init__(P, c, refactor_every)
                if self.bland:
                    self.dantzig_limit = 0

        monkeypatch.setattr(convex, "_Simplex", Counted)
        rng = np.random.default_rng(17)
        for _ in range(150):
            P = sparse_polyhedron(rng)
            c = rng.standard_normal(P.num_vars)
            ref = highs(c, P)
            for bland in (False, True):
                Counted.bland = bland
                mine = lp_solve(c, P)
                pivots[bland].append(mine.pivots)
                if ref.status == 0:
                    assert mine.status == "optimal"
                    assert mine.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
                    assert P.contains(mine.point)
                else:
                    assert mine.status == {2: "infeasible", 3: "unbounded"}[ref.status]
        assert pivots[True] != pivots[False]

    def test_l1_sections_with_ties_against_reference_solver(self):
        # l1-ball sections of tall matrices whose rows repeat, as they are
        # and negated: every LP has free columns, many optimal bases and
        # ties in the ratio test, the more so with rows in {-1, 0, 1} and
        # objectives along a row.
        rng = np.random.default_rng(37)
        for trial in range(40):
            r = int(rng.integers(2, 7))
            if trial % 2:
                base = rng.standard_normal((r + 2, r))
            else:
                base = rng.integers(-1, 2, (r + 2, r)).astype(float)
            R = np.vstack([base, base, -base[::2], 2.0 * base[1::3]])
            R = R[rng.permutation(R.shape[0])]
            P = _l1_ball_lp(R)
            g = base[0] if trial % 4 < 2 else rng.standard_normal(r)
            c = np.concatenate([g, np.zeros(P.num_vars - r)])
            mine = lp_solve(c, P)
            ref = highs(c, P)
            assert ref.status == 0
            assert mine.status == "optimal"
            assert mine.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
            assert P.contains(mine.point)

    def test_drifted_tableau_resolves(self, monkeypatch):
        # A perturbed tableau at pivot 20 of the first attempt makes many
        # d = 16, m = 64 gauge LPs end on a basis that breaks a bound, which
        # the refactor-every-pivot re-solve repairs.  The others end on a
        # feasible but suboptimal basis, which pricing on the final
        # factorization must catch and pivot on from.  Either way the
        # gauge must be HiGHS's, and the solution's pivots count both
        # attempts.
        periods, sims, solutions = [], [], []

        class Drift(convex._Simplex):
            def __init__(self, P, c, refactor_every=convex._Simplex.REFACTOR_EVERY):
                periods.append(refactor_every)
                sims.append(self)
                super().__init__(P, c, refactor_every)

            def _reduced_costs(self, c):
                if self.pivots == 20 and self.refactor_every == self.REFACTOR_EVERY:
                    self.W += 1e-2 * np.random.default_rng(0).standard_normal(self.W.shape)
                return super()._reduced_costs(c)

        def recorded_lp_solve(objective, P):
            solutions.append(lp_solve(objective, P))
            return solutions[-1]

        monkeypatch.setattr(convex, "_Simplex", Drift)
        monkeypatch.setattr(zonotope, "lp_solve", recorded_lp_solve)
        rng = np.random.default_rng(7)
        resolved = 0
        for _ in range(40):
            Z = Zonotope(generate_instance("random-zonotope", 16, 64, 1, rng).A)
            x = rng.standard_normal(16)
            periods.clear()
            sims.clear()
            value = zonotope_norm(Z, x)
            assert periods[0] == convex._Simplex.REFACTOR_EVERY
            resolved += periods[1:] == [1]
            assert solutions[-1].pivots == sum(sim.pivots for sim in sims)
            assert value == pytest.approx(highs_gauge(Z.A, x), abs=1e-7)
        assert resolved >= 5, resolved

    def test_crash_basis_hand_built(self):
        # Row 0: singleton 0 would need 5 > 1, singleton 1 fits at 10.
        # Row 1: both columns also appear in row 2, and its residual is 1.
        # Row 2: singleton 4 fits at 2.  Row 3: singletons 5 and 6 would
        # both go negative.  So rows 1 and 3 keep artificials 7 and 8.
        E = np.array([[2.0, 1, 0, 0, 0, 0, 0],
                      [0, 0, 1, 1, 0, 0, 0],
                      [0, 0, 1, -1, -1, 0, 0],
                      [0, 0, 0, 0, 0, 1, 3]])
        P = Polyhedron(7, E, np.array([10.0, 1.0, -2.0, -1.0]), np.zeros(7),
                       np.array([1.0, 10.0, np.inf, np.inf, np.inf, 1.0, 1.0]))
        sim = _Simplex(P, np.zeros(7))
        assert sim.basis.tolist() == [1, 7, 4, 8]
        assert sim.E_full.shape == (4, 9)
        assert sim.upper[7:].tolist() == [np.inf, np.inf]
        assert sim.x[[1, 4, 7, 8]].tolist() == [10.0, 2.0, 1.0, 1.0]
        assert lp_solve(np.zeros(7), P).status == "infeasible"
        empty = Polyhedron(3, np.zeros((0, 3)), np.zeros(0), -np.ones(3), np.ones(3))
        sim = _Simplex(empty, np.ones(3))
        assert sim.basis.size == 0
        assert sim.upper.tolist() == [1.0, 1.0, 1.0]
        assert lp_solve(np.ones(3), empty).point.tolist() == [-1.0, -1.0, -1.0]

    # Column 0 touches rows 1 and 2, column 2 rows 0 and 1, column 3 rows
    # 0 and 2; columns 1 (row 0) and 4 (row 2, at most 1) are singletons.
    TRIANGLE = np.array([[0.0, 2, 1, 1, 0],
                         [1, 0, -1, 0, 0],
                         [1, 0, 0, 1, 1]])
    TRIANGLE_UPPER = np.array([np.inf, 10.0, np.inf, np.inf, 1.0])

    def test_crash_takes_a_zero_residual_row_after_a_singleton_wave(self):
        # Singleton 1 absorbs row 0's residual at 2.  Then column 2 has no
        # nonzero left outside row 0, so it takes row 1, whose residual is
        # zero, and stays at 0.  Column 0, of lower index, still touches
        # the open row 2.  Row 2 keeps an artificial, so the tableau is
        # n + 1 columns wide.
        P = Polyhedron(5, self.TRIANGLE, [4.0, 0.0, 5.0], np.zeros(5), self.TRIANGLE_UPPER)
        sim = _Simplex(P, np.ones(5))
        assert sim.basis.tolist() == [1, 2, 5]
        assert sim.E_full.shape == (3, 6)
        assert sim.x.tolist() == [0.0, 2.0, 0.0, 0.0, 0.0, 5.0]
        sol = lp_solve(np.ones(5), P)
        ref = highs(np.ones(5), P)
        assert sol.objective == pytest.approx(ref.fun, abs=1e-9)
        assert P.contains(sol.point)
        # With a zero residual in row 2 as well, singleton 4 takes row 2 in
        # the first wave.  Column 0 is then open only in row 1 and, of the
        # lowest index, takes it in the second, and no artificial is left.
        P = Polyhedron(5, self.TRIANGLE, [4.0, 0.0, 0.0], np.zeros(5), self.TRIANGLE_UPPER)
        sim = _Simplex(P, np.ones(5))
        assert sim.basis.tolist() == [1, 0, 4]
        assert sim.E_full.shape == (3, 5)

    def test_nonzero_residual_takes_no_shared_column(self):
        # Row 2's residual is 5: singleton 4 cannot absorb it, and columns
        # 0 and 3 are open only in row 2 once rows 0 and 1 are crashed,
        # but they touch other rows, so they may not move.  Row 2 keeps
        # its artificial, whatever the waves before it.
        for e0 in (4.0, 0.0):
            P = Polyhedron(5, self.TRIANGLE, [e0, 0.0, 5.0], np.zeros(5), self.TRIANGLE_UPPER)
            sim = _Simplex(P, np.zeros(5))
            assert sim.basis[2] == 5
            assert sim.basis[:2].tolist() == [1, 2]

    def test_l1_ball_crash_is_complete(self):
        # The slack takes the last row and each p_i its own row, so the
        # tableau has no artificial column and phase 1 takes no pivot.
        R = np.random.default_rng(3).standard_normal((10, 4))
        P = _l1_ball_lp(R)
        sim = _Simplex(P, np.zeros(P.num_vars))
        assert sim.basis.tolist() == list(range(4, 14)) + [24]
        assert sim.E_full.shape == (11, 25)
        sim._run_phase(np.zeros(sim.ntot), stop_at_feasible=True)
        assert sim.pivots == 0

    def test_crash_matches_row_scan(self):
        rng = np.random.default_rng(19)
        shared = 0
        for draw in range(200):
            P = sparse_polyhedron(rng) if draw % 2 else triangular_polyhedron(rng)
            sim = _Simplex(P, np.zeros(P.num_vars))
            basis = crash_by_row_scan(P)
            assert np.array_equal(sim.basis, basis)
            assert sim.E_full.shape[1] == P.num_vars + np.count_nonzero(basis >= P.num_vars)
            crashed = basis[basis < P.num_vars]
            shared += np.any(np.count_nonzero(P.E[:, crashed], axis=0) > 1)
        assert shared >= 20, shared

    def test_zero_residual_rows_against_reference_solver(self):
        rng = np.random.default_rng(41)
        seen = {"optimal": 0, "infeasible": 0, "unbounded": 0, "shared column crashed": 0,
                "open row left": 0}
        for _ in range(200):
            P = triangular_polyhedron(rng)
            c = rng.standard_normal(P.num_vars)
            mine = lp_solve(c, P)
            ref = highs(c, P)
            seen[mine.status] += 1
            basis = _Simplex(P, c).basis
            crashed = basis[basis < P.num_vars]
            seen["shared column crashed"] += bool(np.any(np.count_nonzero(P.E[:, crashed], axis=0) > 1))
            seen["open row left"] += bool(np.any(basis >= P.num_vars))
            if ref.status == 0:
                assert mine.status == "optimal"
                assert mine.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
                assert P.contains(mine.point)
            else:
                assert mine.status == {2: "infeasible", 3: "unbounded"}[ref.status]
        assert min(seen.values()) >= 10, seen

    def test_weak_duality_spot_check(self):
        # Any feasible point's objective bounds the optimum from above
        # when minimizing.
        rng = np.random.default_rng(13)
        for _ in range(10):
            P, z_feas = random_polyhedron(rng)
            c = rng.standard_normal(P.num_vars)
            sol = lp_solve(c, P)
            if sol.status != "optimal":
                continue
            assert c @ z_feas >= sol.objective - 1e-7 * (1 + abs(sol.objective))
            other = lp_solve(rng.standard_normal(P.num_vars), P)
            if other.status == "optimal":
                assert c @ other.point >= sol.objective - 1e-7 * (1 + abs(sol.objective))


class TestProjection:
    def test_point_already_inside(self):
        P, z = random_polyhedron(np.random.default_rng(2), n=6)
        out = project_polyhedron(z, P, z0=z)
        assert np.allclose(out, z, atol=1e-7)

    def test_box_clamp(self):
        P = box([-1.0, -1.0], [1.0, 1.0])
        out = project_polyhedron(np.array([2.0, 0.0]), P, z0=np.zeros(2))
        assert np.allclose(out, [1.0, 0.0], atol=1e-9)

    def test_hyperplane_closed_form(self):
        P = Polyhedron(2, np.array([[1.0, 1.0]]), np.array([1.0]),
                       np.full(2, -np.inf), np.full(2, np.inf))
        out = project_polyhedron(np.array([2.0, 2.0]), P, z0=np.array([1.0, 0.0]))
        assert np.allclose(out, [0.5, 0.5], atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            P, z_feas = random_polyhedron(rng)
            g = rng.standard_normal(P.num_vars) * 2.0
            z = project_polyhedron(g, P, z0=z_feas)
            z2 = project_polyhedron(z, P, z0=z)
            d1 = float(np.sum((z - g) ** 2))
            d2 = float(np.sum((z2 - z) ** 2))
            assert d2 <= 1e-7

    def test_variational_inequality(self):
        # <g - x*, z - x*> <= tol for sampled feasible z, on the block
        # that carries the objective.
        rng = np.random.default_rng(4)
        for _ in range(5):
            P, z_feas = random_polyhedron(rng, n=8)
            t = int(rng.integers(1, P.num_vars + 1))
            g = rng.standard_normal(t) * 2.0
            x = project_polyhedron(g, P, z0=z_feas)
            for _ in range(100):
                sol = lp_solve(rng.standard_normal(P.num_vars), P)
                z = sol.point if sol.status == "optimal" else z_feas
                assert (g - x[:t]) @ (z[:t] - x[:t]) <= 1e-6 * (1 + np.abs(g).max())

    def test_lifted_objective_ignores_auxiliaries(self):
        # Projecting onto the first coordinate only: the auxiliary is free
        # to sit anywhere feasible, the target coordinate must match the
        # unconstrained projection of g onto the interval.
        P = Polyhedron(2, np.array([[1.0, -1.0]]), np.array([0.0]),
                       np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
        out = project_polyhedron(np.array([5.0]), P, z0=np.zeros(2))
        assert out[0] == pytest.approx(1.0, abs=1e-9)

    def test_against_slsqp_on_lifts(self):
        # Small partial-coloring lifts: target block a, auxiliaries u.
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            m = int(rng.integers(d, 2 * d + 1))
            k = int(rng.integers(1, d + 1))
            A = rng.standard_normal((m, d))
            V_S = rng.uniform(-1.0, 1.0, (k, m)) @ A
            y = rng.uniform(-0.9, 0.9, k)
            P = _lift(Zonotope(A), V_S, -1.0 - y, 1.0 - y, float(rng.uniform(0.3, 2.0)))
            g = 2.0 * rng.standard_normal(k)
            z = project_polyhedron(g, P, z0=np.zeros(k + m))
            assert P.contains(z)
            ref = slsqp_projection(g, P, np.zeros(k + m))
            assert np.max(np.abs(z[:k] - ref[:k])) <= 1e-6

    def test_against_slsqp_on_random_polyhedra(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            P, z_feas = random_polyhedron(rng)
            t = int(rng.integers(1, P.num_vars + 1))
            g = 2.0 * rng.standard_normal(t)
            z = project_polyhedron(g, P, z0=z_feas)
            assert P.contains(z)
            ref = slsqp_projection(g, P, z_feas)
            assert np.max(np.abs(z[:t] - ref[:t])) <= 1e-6

    def test_bound_release(self, monkeypatch):
        # Two bounds block the walk from 0, then the multiplier check
        # releases one of them: the free set grows between two steps.
        P = Polyhedron(4, [[-0.6, 0.3, 0.0, -0.2], [-0.1, 1.0, 1.3, -0.2]], [0.0, 0.0],
                       [-1.0, -1.9, -0.3, -1.8], [1.1, 0.3, 1.0, 1.1])
        g = np.array([4.3, 3.2, 3.7, -1.5])
        calls = spy_factorizations(monkeypatch)
        z = project_polyhedron(g, P, z0=np.zeros(4))
        free_cols = [a.shape[1] for kind, a in calls if kind == "svd"]
        assert any(b > a for a, b in zip(free_cols, free_cols[1:])), free_cols
        assert P.contains(z)
        assert np.max(np.abs(z - slsqp_projection(g, P, np.zeros(4)))) <= 1e-6

    def test_one_factorization_per_free_set(self, monkeypatch):
        # Each iteration takes one SVD of a new free set and one step
        # solve from it; a full step goes straight on to the multiplier
        # check with the same SVD.  Cases: the first round's lift of the
        # default grid's first two seeds at d = 8 and 16, with their first
        # Gaussian draw, and random polyhedra.
        cases = []
        grid = bench_specs(["cube", "spencer-random", "random-zonotope"], [8, 16, 32, 64], 10, 0, 4)
        for spec in (s for s in grid if s.d <= 16 and s.index % 10 < 2):
            inst = generate_instance(spec.kind, spec.d, spec.m, spec.n,
                                     np.random.default_rng(spec.instance_seed))
            Z, V, _ = preprocess(inst.A, inst.V, inst.U)
            k = V.n
            P = _lift(Z, V.V, -np.ones(k), np.ones(k), round_scale(k, Z.d, DEFAULT_C0))
            g = GAUSSIAN_SCALE * np.random.default_rng(spec.balance_seed).standard_normal(k)
            cases.append((g, P, np.zeros(k + Z.m)))
        rng = np.random.default_rng(13)
        for _ in range(40):
            P, z_feas = random_polyhedron(rng)
            cases.append((2.0 * rng.standard_normal(int(rng.integers(1, P.num_vars + 1))),
                          P, z_feas))
        calls = spy_factorizations(monkeypatch)
        for g, P, z0 in cases:
            calls.clear()
            project_polyhedron(g, P, z0=z0)
            free_cols = [a.shape[1] for kind, a in calls if kind == "svd"]
            assert all(a != b for a, b in zip(free_cols, free_cols[1:])), free_cols
            assert [kind for kind, _ in calls] == ["svd", "lstsq"] * len(free_cols)

    def test_multipliers_on_an_empty_free_set(self, monkeypatch):
        # From 0 the step along (1, -1) hits both bounds at once, so the
        # multiplier check runs with every variable at a bound.
        P = Polyhedron(2, [[1.0, 1.0]], [0.0], [-1.0, -1.0], [1.0, 1.0])
        g = np.array([5.0, -0.5])
        calls = spy_factorizations(monkeypatch)
        z = project_polyhedron(g, P, z0=np.zeros(2))
        assert 0 in [a.shape[1] for kind, a in calls if kind == "svd"]
        assert np.max(np.abs(z - [1.0, -1.0])) <= 1e-12
        assert np.max(np.abs(z - slsqp_projection(g, P, np.zeros(2)))) <= 1e-6
