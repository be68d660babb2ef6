"""Tests for the oracles and probes: brute force, polar identity, width."""

import math

import numpy as np
import pytest

from zonobalance import convex
from zonobalance.errors import InputError
from zonobalance.instancefile import generate_instance
from zonobalance.lewis import lewis_position
from zonobalance.seeding import run_seed
from zonobalance.verify import (
    bound_report,
    brute_force_min_discrepancy,
    csv_header,
    csv_row,
    polar_identity_check,
    width_estimate,
)
from zonobalance.coloring import balance
from zonobalance.zonotope import (
    VectorFamily,
    Zonotope,
    preprocess,
    zonotope_norm,
)

from test_zonotope import highs_gauge


def random_zonotope_instance(d, m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, d))
    U = rng.uniform(-1.0, 1.0, (n, m))
    return Zonotope(A), VectorFamily(U @ A)


class TestOracle:
    def test_duplicated_cancels(self):
        Z = Zonotope(np.eye(2))
        res = brute_force_min_discrepancy(
            Z, VectorFamily(np.array([[0.7, 0.1], [0.7, 0.1]])))
        assert res.opt == 0.0
        assert res.best_signs[0] == -res.best_signs[1]
        assert res.evaluations == 2

    def test_two_coordinate_vectors(self):
        res = brute_force_min_discrepancy(Zonotope(np.eye(2)), VectorFamily(np.eye(2)))
        assert res.opt == pytest.approx(1.0, abs=1e-12)

    def test_three_overlapping_rows(self):
        # Independent enumeration oracle: with identity generators the
        # gauge is the max-absolute-coordinate, so enumerate directly.
        V = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        best = min(
            np.abs(V.T @ np.array(signs)).max()
            for signs in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
        )
        assert best == 2.0  # every sign class gives max coordinate 2
        res = brute_force_min_discrepancy(Zonotope(np.eye(3)), VectorFamily(V))
        assert res.opt == pytest.approx(best, abs=1e-12)
        assert res.evaluations == 4

    def test_matches_norm_of_reported_signs(self):
        Z, V = random_zonotope_instance(4, 10, 4, seed=0)
        res = brute_force_min_discrepancy(Z, V)
        from zonobalance.zonotope import zonotope_norm
        direct = zonotope_norm(Z, V.V.T @ res.best_signs)
        assert direct == pytest.approx(res.opt, abs=1e-8)

    def test_symmetry_under_negation(self):
        Z, V = random_zonotope_instance(4, 8, 4, seed=1)
        a = brute_force_min_discrepancy(Z, V)
        b = brute_force_min_discrepancy(Z, VectorFamily(-V.V))
        assert a.opt == b.opt
        assert np.array_equal(a.best_signs, b.best_signs)

    def test_cap_enforced(self):
        Z = Zonotope(np.eye(23))
        V = VectorFamily(np.eye(23) * 0.5)
        with pytest.raises(InputError):
            brute_force_min_discrepancy(Z, V)

    def test_dominates_balance(self):
        for seed in range(4):
            Z, V = random_zonotope_instance(8, 24, 8, seed=200 + seed)
            res = brute_force_min_discrepancy(Z, V)
            rep = balance(Z, V, seed=seed)
            assert rep.discrepancy >= res.opt - 1e-8


class TestPolarIdentity:
    def test_zero_direction(self):
        Z, V = random_zonotope_instance(3, 6, 3, seed=2)
        # y = 0 gives LHS = RHS = 0; the sampled check subsumes it, but
        # pin the exact case through a single-trial zero-variance rng.
        class ZeroRng:
            def standard_normal(self, k):
                return np.zeros(k)

        gap = polar_identity_check(Z, V, [0, 1, 2], 1, ZeroRng())
        assert gap == 0.0

    def test_cube_identity_is_linf_l1_duality(self):
        Z = Zonotope(np.eye(3))
        V = VectorFamily(np.eye(3))
        rng = np.random.default_rng(3)
        gap = polar_identity_check(Z, V, [0, 1, 2], 50, rng)
        assert gap <= 1e-9

    def test_random_instances_agree(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for seed in range(4):
            Z, V = random_zonotope_instance(4, 10, 4, seed=300 + seed)
            for _ in range(25):
                size = int(rng.integers(1, 5))
                S = sorted(rng.choice(4, size=size, replace=False).tolist())
                worst = max(worst, polar_identity_check(Z, V, S, 1, rng))
        assert worst <= 1e-6

    def test_drawn_index_sets_match_explicit_draws(self):
        # S=None draws each trial's index set from rng in the order the
        # explicit loop below does, so both see the same vectors.
        Z, V = random_zonotope_instance(4, 10, 4, seed=301)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(12):
            size = int(rng.integers(1, V.n + 1))
            S = sorted(rng.choice(V.n, size=size, replace=False).tolist())
            worst = max(worst, polar_identity_check(Z, V, S, 1, rng))
        assert polar_identity_check(Z, V, None, 12, np.random.default_rng(5)) == worst

    @pytest.mark.parametrize("S, bad", [([0, -1], -1), ([3, 4, 1], 4), ([7, 5], 7)])
    def test_index_outside_family_rejected(self, S, bad):
        # -1 would check the last vector and n would raise IndexError.
        Z, V = random_zonotope_instance(3, 6, 4, seed=2)
        with pytest.raises(InputError, match=f"index {bad} is outside 0..3"):
            polar_identity_check(Z, V, S, 1, np.random.default_rng(0))

    def test_drifted_section_lp_recovers(self, monkeypatch):
        # Under plain Dantzig pricing the rank-1 tableau updates of one
        # section LP of this instance drifted onto a near-singular basis
        # (a point breaking a bound by 6.7e-3, value 1.31448 for a gauge of
        # 1.30029).  With free columns entering first its pivots avoid that
        # basis: neither the small-pivot guard nor a re-solve runs.  HiGHS
        # recomputes each gauge independently.
        refactor_periods, guarded = [], []

        class SpySimplex(convex._Simplex):
            in_phase = False

            def __init__(self, P, c, refactor_every=convex._Simplex.REFACTOR_EVERY):
                refactor_periods.append(refactor_every)
                super().__init__(P, c, refactor_every)

            def _run_phase(self, c, stop_at_feasible=False):
                self.in_phase = True
                try:
                    return super()._run_phase(c, stop_at_feasible)
                finally:
                    self.in_phase = False

            def _refactor(self):
                # Inside a phase, off the schedule: the guard's call.
                if self.in_phase and 0 < self.since_refactor < self.refactor_every:
                    guarded.append(self.pivots)
                super()._refactor()

        monkeypatch.setattr(convex, "_Simplex", SpySimplex)
        rs = run_seed(3, 72)
        inst = generate_instance("random-zonotope", 16, 64, 16,
                                 np.random.default_rng(run_seed(rs, 0)))
        Z, V, _ = preprocess(inst.A, inst.V, inst.U)
        gap = polar_identity_check(Z, V, range(16), 4,
                                   np.random.default_rng(run_seed(rs, 1)))
        assert gap <= 1e-6
        assert guarded == []
        assert 1 not in refactor_periods
        rng = np.random.default_rng(run_seed(rs, 1))  # the check's y stream
        for _ in range(4):
            x = V.V.T @ rng.standard_normal(16)
            assert zonotope_norm(Z, x) == pytest.approx(highs_gauge(Z.A, x), abs=1e-6)

    @pytest.mark.parametrize("factor", [2, 4])
    def test_gauge_matches_highs_on_tall_bodies(self, factor):
        # m = 2d and m = 4d bodies take the LP path with its sign-guided
        # start: Gaussian generators, and the +-1/sqrt(d) generators of
        # the bench grid, at the gauges of signed and fractional sums.
        worst = 0.0
        for d in (3, 8, 16, 32):
            for kind, seed in (("gaussian", d), ("random-zonotope", d + 1)):
                if kind == "gaussian":
                    Z, V = random_zonotope_instance(d, factor * d, d, seed=seed)
                else:
                    inst = generate_instance(kind, d, factor * d, d,
                                             np.random.default_rng(seed))
                    Z, V, _ = preprocess(inst.A, inst.V, inst.U)
                rng = np.random.default_rng(seed)
                for y in (rng.choice([-1.0, 1.0], d), rng.uniform(-1.0, 1.0, d)):
                    x = V.V.T @ y
                    value = zonotope_norm(Z, x)
                    assert type(value) is float
                    ref = highs_gauge(Z.A, x)
                    worst = max(worst, abs(value - ref) / ref)
        assert worst <= 1e-8


class TestWidth:
    def test_one_dimensional_closed_form(self):
        LP = lewis_position(Zonotope([[3.0], [1.0]]))
        est = width_estimate(LP, 500, np.random.default_rng(5))
        target = math.sqrt(2.0 / math.pi)
        assert abs(est.mean - target) <= 3.0 * est.stderr

    def test_cross_polytope_against_direct_mc(self):
        d = 6
        est = width_estimate(lewis_position(Zonotope(np.eye(d))), 400,
                             np.random.default_rng(6))
        g = np.random.default_rng(7).standard_normal((200000, d))
        direct = float(np.abs(g).max(axis=1).mean())
        assert abs(est.mean - direct) <= 3.0 * est.stderr

    def test_single_direction_lower_bound(self):
        # Any x0 in the body certifies sqrt(2/pi) * ||x0||_2 as a width
        # lower bound.  The support value h(e_i) = max x_i is itself a
        # lower bound for max ||x||_2, and it is computable by feeding the
        # probe fixed axis directions.
        rng = np.random.default_rng(8)
        A = rng.standard_normal((16, 4))
        LP = lewis_position(Zonotope(A))
        est = width_estimate(LP, 300, np.random.default_rng(9))
        radius_lb = max(
            width_estimate(LP, 2, _FixedRng([np.eye(4)[i]])).mean for i in range(4)
        )
        assert radius_lb > 0
        assert est.mean >= math.sqrt(2.0 / math.pi) * radius_lb - 3.0 * est.stderr

    def test_stderr_definition(self):
        LP = lewis_position(Zonotope(np.eye(2)))
        est = width_estimate(LP, 50, np.random.default_rng(10))
        assert est.samples == 50
        assert est.stderr > 0


class _FixedRng:
    def __init__(self, seq):
        self.seq = [np.asarray(s, dtype=float) for s in seq]
        self.i = 0

    def standard_normal(self, k):
        out = self.seq[self.i % len(self.seq)]
        self.i += 1
        return out


class TestReports:
    def test_csv_schema(self):
        assert csv_header() == ("kind,d,m,n,seed,c0,discrepancy,bound,ratio,"
                                "rounds,c_final,opt")

    def test_text_report_na_on_zero_opt(self):
        Z = Zonotope(np.eye(2))
        V = VectorFamily(np.array([[0.5, 0.1], [0.5, 0.1]]))
        rep = balance(Z, V, seed=0)
        res = brute_force_min_discrepancy(Z, V)
        text = bound_report(rep, res)
        assert "opt: 0.0" in text
        assert "discrepancy/opt: NA" in text

    def test_csv_row_roundtrip_floats(self):
        Z, V = random_zonotope_instance(4, 8, 4, seed=11)
        rep = balance(Z, V, seed=1)
        row = csv_row("random-zonotope", rep)
        cells = row.split(",")
        assert cells[0] == "random-zonotope"
        assert float(cells[6]) == rep.discrepancy
        assert cells[11] == ""
