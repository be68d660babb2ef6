"""Tests for coordinate-body lifts, partial coloring, and the driver."""

import itertools
import math

import numpy as np
import pytest

from zonobalance import coloring
from zonobalance.coloring import balance, partial_coloring, round_scale
from zonobalance.convex import lp_solve
from zonobalance.errors import InputError, NumericalError
from zonobalance.zonotope import VectorFamily, Zonotope, zonotope_norm


def spencer_instance(d, seed):
    rng = np.random.default_rng(seed)
    return Zonotope(np.eye(d)), VectorFamily(rng.uniform(-1.0, 1.0, (d, d)))


def random_zonotope_instance(d, m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.choice([-1.0, 1.0], size=(m, d)) / math.sqrt(d)
    U = rng.uniform(-1.0, 1.0, (n, m))
    return Zonotope(A), VectorFamily(U @ A)


def lift_contains(Z, V, a, s):
    """Feasibility of the coordinate-body lift of s * K with a pinned."""
    a = np.asarray(a, dtype=float)
    P = coloring._lift(Z, V.V, a, a, s)
    return lp_solve(np.zeros(P.num_vars), P).is_optimal


class TestCoordinateBody:
    def test_zero_vector_everything_feasible(self):
        Z = Zonotope(np.eye(3))
        V = VectorFamily(np.zeros((1, 3)))
        assert lift_contains(Z, V, [1e6], 1.0)
        assert lift_contains(Z, V, [-1e6], 1.0)

    def test_cube_with_coordinate_vectors_is_sign_box(self):
        Z = Zonotope(np.eye(4))
        V = VectorFamily(np.eye(4))
        assert lift_contains(Z, V, [1.0, -1.0, 0.5, 0.0], 1.0)
        assert not lift_contains(Z, V, [1.2, 0.0, 0.0, 0.0], 1.0)

    def test_lift_feasibility_matches_norm(self):
        Z, V = random_zonotope_instance(4, 12, 4, seed=0)
        s = 1.3
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.uniform(-2.0, 2.0, 4)
            val = zonotope_norm(Z, V.V.T @ a)
            if abs(val - s) < 1e-7:
                continue  # boundary ties are tolerance-dependent
            assert lift_contains(Z, V, a, s) == (val <= s)


class TestPartialColoring:
    def test_single_coordinate_endpoint(self):
        Z = Zonotope(np.eye(3))
        V = VectorFamily(np.array([[0.4, -0.2, 0.1]]))
        step = partial_coloring(Z, V, np.zeros(1), rng=np.random.default_rng(0))
        assert step.y_new[0] in (-1.0, 1.0)
        norm_v = zonotope_norm(Z, V.V[0])
        assert step.increment <= norm_v + 1e-12
        assert step.increment <= 2.0 * math.sqrt(math.log2(6.0))
        assert step.tight_gained == 1

    def test_cancelling_pair(self):
        Z = Zonotope(np.eye(2))
        v = np.array([0.3, -0.7])
        V = VectorFamily(np.vstack([v, -v]))
        step = partial_coloring(Z, V, np.zeros(2), rng=np.random.default_rng(0))
        assert set(np.abs(step.y_new)) == {1.0}
        assert step.y_new[0] == step.y_new[1]  # same sign cancels
        assert step.increment <= 1e-6
        assert step.tight_gained == 2

    def test_regression_cube_d8(self):
        # Frozen run of the implementation; correctness rides on the
        # postconditions, the numbers just pin the stream.
        rng = np.random.default_rng(42)
        Z = Zonotope(np.eye(8))
        V = VectorFamily(rng.uniform(-1.0, 1.0, (8, 8)))
        step = partial_coloring(Z, V, np.zeros(8), c0=2.0, retries=16,
                                rng=np.random.default_rng(42))
        assert step.tight_gained >= 4
        assert step.increment <= step.scale_used
        assert step.tight_gained == 5
        assert step.attempts == 1
        assert step.increment == pytest.approx(2.656003373548618, rel=1e-12)

    def test_rejects_coordinates_already_at_signs(self):
        Z = Zonotope(np.eye(2))
        V = VectorFamily(np.eye(2))
        with pytest.raises(InputError):
            partial_coloring(Z, V, np.array([1.0, 0.0]), rng=np.random.default_rng(0))

    def test_tight_half_and_budget_on_random_instances(self):
        for seed in range(5):
            Z, V = random_zonotope_instance(10, 30, 10, seed=seed)
            step = partial_coloring(Z, V, np.zeros(10),
                                    rng=np.random.default_rng(seed))
            assert step.tight_gained >= 5
            assert step.increment <= step.scale_used
            assert np.abs(step.y_new).max() <= 1.0

    def test_rejected_draws_retry_then_double(self, monkeypatch):
        # Draw 1's projection fails and draw 2 moves over the scale, so
        # with two draws per scale draw 3, at 2 c0, is the one accepted.
        Z, V = spencer_instance(8, seed=0)
        project, norm = coloring.project_polyhedron, coloring.zonotope_norm
        draws, normed = [], []

        def failing_first(g, P, *, z0):
            draws.append(g)
            if len(draws) == 1:
                raise NumericalError("injected projection failure")
            return project(g, P, z0=z0)

        def over_scale_second(Z, x):
            normed.append(len(draws))
            return 2.0 * round_scale(8, 8, 2.0) if len(draws) == 2 else norm(Z, x)

        monkeypatch.setattr(coloring, "project_polyhedron", failing_first)
        monkeypatch.setattr(coloring, "zonotope_norm", over_scale_second)
        step = partial_coloring(Z, V, np.zeros(8), c0=2.0, retries=2,
                                rng=np.random.default_rng(0))
        assert normed == [2, 3]
        assert step.attempts == 3
        assert step.c_used == 4.0
        assert step.scale_used == round_scale(8, 8, 4.0)
        assert step.tight_gained >= 4
        assert np.count_nonzero(np.abs(step.y_new) == 1.0) == step.tight_gained
        assert np.abs(step.y_new).max() <= 1.0
        assert step.increment == norm(Z, V.V.T @ step.y_new)
        assert step.increment <= step.scale_used

    def test_every_draw_failing_raises(self, monkeypatch):
        def failing(g, P, *, z0):
            raise NumericalError("injected projection failure")

        monkeypatch.setattr(coloring, "project_polyhedron", failing)
        Z, V = spencer_instance(8, seed=0)
        # 25 scales (c0 and 24 doublings) of two draws each.
        with pytest.raises(NumericalError, match=r"after 50 draws .*doubled 24 times"):
            partial_coloring(Z, V, np.zeros(8), retries=2, rng=np.random.default_rng(0))


def all_patterns_endpoint(Z, V, y):
    """The k <= 2 endpoint with one gauge LP per completion: the first
    completion of least increment among those fixing half the coordinates."""
    k = y.shape[0]
    best = None
    for pattern in itertools.product((1.0, -1.0, None), repeat=k):
        fixed = sum(1 for p in pattern if p is not None)
        if fixed < (k + 1) // 2:
            continue
        y_new = np.array([y[i] if pattern[i] is None else pattern[i] for i in range(k)])
        val = zonotope_norm(Z, V.V.T @ (y - y_new))
        if best is None or val < best[0]:
            best = (val, y_new, fixed)
    return best


class TestEndpoint:
    def test_matches_all_patterns_loop(self, monkeypatch):
        calls = []
        norm = coloring.zonotope_norm

        def counted(Z, x):
            calls.append(1)
            return norm(Z, x)

        monkeypatch.setattr(coloring, "zonotope_norm", counted)
        rng = np.random.default_rng(21)
        draws = {1: 0, 2: 0}
        for body in range(40):
            d = int(rng.integers(2, 7))
            k = 1 + body % 2
            Z, V = random_zonotope_instance(d, 4 * d, k, seed=body)
            for draw in range(5):
                # Some draws start at zero, where the two signs of a
                # coordinate tie and the first pattern must win.
                y = np.zeros(k) if draw == 0 else rng.uniform(-1.0, 1.0, k)
                val, y_ref, fixed = all_patterns_endpoint(Z, V, y)
                calls.clear()
                step = partial_coloring(Z, V, y, rng=np.random.default_rng(0))
                assert len(calls) == {1: 1, 2: 6}[k]
                assert np.array_equal(step.y_new, y_ref)
                assert step.tight_gained == fixed
                assert type(step.increment) is float  # its repr is printed
                assert step.increment == pytest.approx(val, rel=1e-12, abs=1e-12)
                draws[k] += 1
        assert draws == {1: 100, 2: 100}


class TestBalance:
    def test_single_unit_vector(self):
        Z = Zonotope(np.eye(3))
        rep = balance(Z, VectorFamily(np.array([[1.0, 0.0, 0.0]])), seed=5)
        assert abs(rep.signs[0]) == 1
        assert rep.discrepancy == pytest.approx(1.0, abs=1e-9)

    def test_duplicated_pair_cancels(self):
        Z = Zonotope(np.eye(2))
        V = VectorFamily(np.array([[0.5, 0.25], [0.5, 0.25]]))
        rep = balance(Z, V, seed=2)
        assert rep.discrepancy <= 1e-9
        assert rep.signs[0] == -rep.signs[1]

    def test_two_coordinate_vectors(self):
        # Every sign pattern gives (+-1, +-1), so the discrepancy is 1.
        rep = balance(Zonotope(np.eye(2)), VectorFamily(np.eye(2)), seed=3)
        assert rep.discrepancy == pytest.approx(1.0, abs=1e-9)

    def test_regression_cube_d8_signs(self):
        rng = np.random.default_rng(42)
        Z = Zonotope(np.eye(8))
        V = VectorFamily(rng.uniform(-1.0, 1.0, (8, 8)))
        rep = balance(Z, V, seed=42)
        assert rep.signs.tolist() == [1, -1, 1, 1, -1, -1, -1, 1]
        assert rep.discrepancy == pytest.approx(2.891168330059776, rel=1e-12)
        assert rep.rounds == 3

    def test_all_signs_and_accounting(self):
        for seed in range(3):
            Z, V = random_zonotope_instance(12, 36, 12, seed=100 + seed)
            rep = balance(Z, V, seed=seed)
            assert set(np.abs(rep.signs)) == {1}
            fresh = zonotope_norm(Z, V.V.T @ rep.signs)
            assert fresh == pytest.approx(rep.discrepancy, abs=1e-6)
            assert rep.discrepancy <= sum(rep.increments) + 1e-6

    def test_halving_and_round_cap(self):
        Z, V = random_zonotope_instance(16, 48, 16, seed=9)
        rep = balance(Z, V, seed=9)
        sizes = [r.n_active for r in rep.log]
        for prev, nxt in zip(sizes, sizes[1:]):
            assert nxt <= math.ceil(prev / 2)
        assert rep.rounds <= math.ceil(math.log2(16)) + 1
        for r in rep.log:
            assert r.increment <= r.scale_used
            assert r.tight_gained >= math.ceil(r.n_active / 2)
            assert r.scale_used == pytest.approx(
                round_scale(r.n_active, Z.d, r.c_used), rel=1e-12)

    def test_seeded_determinism(self):
        Z, V = spencer_instance(12, seed=4)
        a = balance(Z, V, seed=77)
        b = balance(Z, V, seed=77)
        assert np.array_equal(a.signs, b.signs)
        assert a.discrepancy == b.discrepancy
        assert a.log == b.log
        c = balance(Z, V, seed=78)
        assert a.signs.tolist() != c.signs.tolist() or a.discrepancy != c.discrepancy

    def test_joint_scale_invariance(self):
        # Scaling generators and vectors together leaves the coordinate
        # body unchanged: same signs, same reported discrepancy, and the
        # signed sum measured in the original gauge scales by lambda.
        Z, V = spencer_instance(8, seed=6)
        lam = 2.0
        rep = balance(Z, V, seed=11)
        rep2 = balance(Zonotope(lam * Z.A), VectorFamily(lam * V.V), seed=11)
        assert np.array_equal(rep.signs, rep2.signs)
        assert rep2.discrepancy == pytest.approx(rep.discrepancy, rel=1e-8)
        in_original_gauge = zonotope_norm(Z, (lam * V.V).T @ rep2.signs)
        assert in_original_gauge == pytest.approx(lam * rep.discrepancy, rel=1e-8)

    def test_rejects_unpreprocessed_wide_family(self):
        Z = Zonotope(np.eye(2))
        V = VectorFamily(np.array([[0.1, 0.0], [0.0, 0.1], [0.1, 0.1]]))
        with pytest.raises(InputError):
            balance(Z, V)

    def test_partial_coloring_rejects_more_active_vectors_than_d(self):
        # Past d active vectors the round scale is 0 (k = 2d) or undefined.
        Z = Zonotope(np.eye(4))
        for k in (5, 8, 9):
            V = VectorFamily(0.1 * np.eye(4)[np.arange(k) % 4])
            with pytest.raises(InputError, match=f"more active vectors \\({k}\\)"):
                partial_coloring(Z, V, np.zeros(k), rng=np.random.default_rng(0))

    def test_vector_dimension_must_match_body(self):
        Z, V = Zonotope(np.eye(4)), VectorFamily(0.1 * np.ones((3, 2)))
        with pytest.raises(InputError, match="dimension 2, the body has 4"):
            balance(Z, V)
        with pytest.raises(InputError, match="dimension 2, the body has 4"):
            partial_coloring(Z, V, np.zeros(3), rng=np.random.default_rng(0))

    def test_exact_finish_small_instance(self):
        Z = Zonotope(np.eye(4))
        rng = np.random.default_rng(12)
        V = VectorFamily(rng.uniform(-1.0, 1.0, (4, 4)))
        rep = balance(Z, V, seed=1, exact_finish=True)
        assert rep.rounds == 1
        assert set(np.abs(rep.signs)) == {1}
        from zonobalance.verify import brute_force_min_discrepancy
        assert rep.discrepancy == pytest.approx(
            brute_force_min_discrepancy(Z, V).opt, abs=1e-9)
