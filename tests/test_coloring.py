"""Tests for coordinate-body lifts, partial coloring, and the driver."""

import itertools
import math

import numpy as np
import pytest

from zonobalance import coloring
from zonobalance.cli import bench_specs, execute_spec, main
from zonobalance.coloring import balance, partial_coloring, round_scale
from zonobalance.convex import lp_solve
from zonobalance.errors import InputError, NumericalError
from zonobalance.instancefile import generate_instance
from zonobalance.zonotope import VectorFamily, Zonotope, preprocess, zonotope_norm


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
        # Two open coordinates are finished by balance's sign search.
        Z = Zonotope(np.eye(2))
        v = np.array([0.3, -0.7])
        rep = balance(Z, VectorFamily(np.vstack([v, -v])), seed=0)
        assert set(np.abs(rep.signs)) == {1}
        assert rep.signs[0] == rep.signs[1]  # same sign cancels
        assert rep.discrepancy <= 1e-9

    def test_regression_cube_d8(self):
        # Frozen run of the implementation; correctness rides on the
        # postconditions, the numbers just pin the stream.
        rng = np.random.default_rng(42)
        Z = Zonotope(np.eye(8))
        V = VectorFamily(rng.uniform(-1.0, 1.0, (8, 8)))
        step = partial_coloring(Z, V, np.zeros(8), c0=2.0, rng=np.random.default_rng(42))
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
        monkeypatch.setattr(coloring, "RETRIES", 2)
        step = partial_coloring(Z, V, np.zeros(8), c0=2.0, rng=np.random.default_rng(0))
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
        monkeypatch.setattr(coloring, "RETRIES", 2)
        Z, V = spencer_instance(8, seed=0)
        # 25 scales (c0 and 24 doublings) of two draws each.
        with pytest.raises(NumericalError, match=r"after 50 draws .*; 50 of 50 projections "
                                                 r"failed; c0 = 2.0 doubled 24 times"):
            partial_coloring(Z, V, np.zeros(8), rng=np.random.default_rng(0))

    def test_failed_projections_counted_among_rejected_draws(self, monkeypatch):
        # Every other projection fails; the rest move over every scale.
        project, draws = coloring.project_polyhedron, []

        def failing_odd(g, P, *, z0):
            draws.append(g)
            if len(draws) % 2:
                raise NumericalError("injected projection failure")
            return project(g, P, z0=z0)

        monkeypatch.setattr(coloring, "project_polyhedron", failing_odd)
        monkeypatch.setattr(coloring, "zonotope_norm", lambda Z, x: math.inf)
        monkeypatch.setattr(coloring, "RETRIES", 2)
        Z, V = spencer_instance(8, seed=0)
        with pytest.raises(NumericalError, match=r"after 50 draws .*; 25 of 50 projections failed"):
            partial_coloring(Z, V, np.zeros(8), rng=np.random.default_rng(0))


    def test_one_and_two_coordinates_take_the_projection(self, monkeypatch):
        project, projected = coloring.project_polyhedron, []

        def counted(g, P, *, z0):
            projected.append(1)
            return project(g, P, z0=z0)

        monkeypatch.setattr(coloring, "project_polyhedron", counted)
        rng = np.random.default_rng(5)
        for body in range(20):
            k = 1 + body % 2
            Z, V = random_zonotope_instance(int(rng.integers(2, 7)), 12, k, seed=body)
            y = np.zeros(k) if body < 4 else rng.uniform(-0.9, 0.9, k)
            projected.clear()
            step = partial_coloring(Z, V, y, rng=np.random.default_rng(body))
            assert len(projected) == step.attempts >= 1
            signs = np.abs(step.y_new) == 1.0
            assert np.count_nonzero(signs) == step.tight_gained >= (k + 1) // 2
            assert np.all(np.abs(step.y_new[~signs]) < 1.0)
            assert step.increment == zonotope_norm(Z, V.V.T @ (y - step.y_new))
            assert step.increment <= step.scale_used


def first_best_completion(Z, V, offset):
    """The first sign vector, in itertools order, of least
    ||offset + sum_i x_i v_i||, with one gauge LP per sign vector."""
    best = None
    for pattern in itertools.product((-1.0, 1.0), repeat=V.n):
        x = np.array(pattern)
        val = zonotope_norm(Z, offset + V.V.T @ x)
        if best is None or val < best[0]:
            best = (val, x)
    return best[1]


class TestExactFinish:
    def test_matches_first_best_completion(self, monkeypatch):
        calls = []
        norm = coloring.zonotope_norm

        def counted(Z, x):
            calls.append(1)
            return norm(Z, x)

        monkeypatch.setattr(coloring, "zonotope_norm", counted)
        rng = np.random.default_rng(21)
        draws = {}
        for body, k in enumerate([1, 2] * 12 + [3, 5, 8]):
            if k <= 2:
                d = int(rng.integers(2, 7))
                Z, V = random_zonotope_instance(d, 4 * d, k + 2, seed=body)
            else:  # the cube's gauge is in closed form, so 2^k of them are cheap
                d = k + 2
                Z, V = spencer_instance(d, seed=body)
            V, fixed = VectorFamily(V.V[:k]), V.V[k:]
            for draw in range(3):
                # The first draw starts at zero with no offset, where x and
                # -x tie and the first completion must win.
                if draw == 0:
                    y, offset = np.zeros(k), np.zeros(d)
                else:
                    y = rng.uniform(-1.0, 1.0, k)
                    offset = fixed.T @ rng.choice([-1.0, 1.0], 2)
                x_ref = first_best_completion(Z, V, offset)
                calls.clear()
                step = coloring._enumeration_step(Z, V, y, 2.0, offset)
                assert len(calls) == 2**k + 1
                assert np.array_equal(step.y_new, x_ref)
                assert step.tight_gained == k and step.attempts == 1
                assert type(step.increment) is float  # its repr is printed
                assert step.increment == norm(Z, V.V.T @ (y - x_ref))
                assert step.increment <= step.scale_used
                assert step.scale_used == round_scale(k, d, step.c_used)
                draws[k] = draws.get(k, 0) + 1
        assert draws == {1: 36, 2: 36, 3: 3, 5: 3, 8: 3}


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
        assert rep.signs.tolist() == [-1, -1, 1, 1, -1, -1, -1, 1]
        assert rep.discrepancy == pytest.approx(2.470065955413796, rel=1e-12)
        assert rep.rounds == 3
        # 2.891168330059776 came from an endpoint that fixed one of the
        # last open coordinates per round.  The sign search compares that
        # completion too, so it can only do better.
        assert rep.discrepancy <= 2.891168330059776

    def test_all_signs_and_accounting(self):
        for seed in range(3):
            Z, V = random_zonotope_instance(12, 36, 12, seed=100 + seed)
            rep = balance(Z, V, seed=seed)
            assert set(np.abs(rep.signs)) == {1}
            fresh = zonotope_norm(Z, V.V.T @ rep.signs)
            assert fresh == pytest.approx(rep.discrepancy, abs=1e-6)
            assert rep.discrepancy <= sum(r.increment for r in rep.log) + 1e-6

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
        # signed sum measured in the original gauge scales by lambda.  The
        # random-zonotope body (m = 4d) runs the gauge LP, which sees the
        # generators at their own scale whatever lambda is.
        inst = generate_instance("random-zonotope", 8, 32, 8, np.random.default_rng(1))
        rz = preprocess(inst.A, inst.V, inst.U)[:2]
        for (Z, V), lam, rel in ((spencer_instance(8, seed=6), 2.0, 1e-8),
                                 (rz, 1e-8, 1e-12), (rz, 1e8, 1e-12)):
            rep = balance(Z, V, seed=11)
            rep2 = balance(Zonotope(lam * Z.A), VectorFamily(lam * V.V), seed=11)
            assert np.array_equal(rep.signs, rep2.signs)
            assert rep2.discrepancy == pytest.approx(rep.discrepancy, rel=rel)
            in_original_gauge = zonotope_norm(Z, (lam * V.V).T @ rep2.signs)
            assert in_original_gauge == pytest.approx(lam * rep.discrepancy, rel=rel)

    def test_rejects_unpreprocessed_wide_family(self):
        Z = Zonotope(np.eye(2))
        V = VectorFamily(np.array([[0.1, 0.0], [0.0, 0.1], [0.1, 0.1]]))
        with pytest.raises(InputError, match="more active vectors \\(3\\)"):
            balance(Z, V)

    def test_negative_seed_rejected(self):
        # numpy's generators would raise a bare ValueError.
        with pytest.raises(InputError, match="seed must be non-negative, got -1"):
            balance(Zonotope(np.eye(2)), VectorFamily(0.1 * np.eye(2)), seed=-1)

    def test_partial_coloring_rejects_more_active_vectors_than_d(self):
        # Past d active vectors the round scale is 0 (k = 2d) or undefined.
        Z = Zonotope(np.eye(4))
        for k in (5, 8, 9):
            V = VectorFamily(0.1 * np.eye(4)[np.arange(k) % 4])
            with pytest.raises(InputError, match=f"more active vectors \\({k}\\)"):
                partial_coloring(Z, V, np.zeros(k), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("c0, y, match", [
        (0.0, [0.0, 0.0], "c0 must be positive"),
        (-1.0, [0.0, 0.0], "c0 must be positive"),
        (math.nan, [0.0, 0.0], "c0 must be positive"),
        (math.inf, [0.0, 0.0], "c0 must be positive"),
        (2.0, 0.0, "y must match"),
        (2.0, [0.0, math.nan], "strictly inside"),
    ])
    def test_partial_coloring_refuses_bad_input_before_projecting(self, monkeypatch, c0, y,
                                                                 match):
        # Past the projection a bad c0 would spend every draw or raise a
        # bare ValueError, and a scalar y an IndexError.
        projected = []
        monkeypatch.setattr(coloring, "project_polyhedron",
                            lambda *a, **k: projected.append(a))
        Z, V = Zonotope(np.eye(2)), VectorFamily(0.1 * np.eye(2))
        with pytest.raises(InputError, match=match):
            partial_coloring(Z, V, y, c0=c0, rng=np.random.default_rng(0))
        assert projected == []

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


class TestDoublingOnGridSpecs:
    # At c0 = 0.5 these runs of the default grid's first three dimensions
    # double their scale with nothing patched: run 0 (cube, d = 8) in its
    # two-coordinate finish, run 43 (spencer-random, d = 16) in its first
    # projection round and again in its finish.
    KINDS = ["cube", "spencer-random", "random-zonotope"]
    C0 = 0.5
    RUNS = (0, 43)

    def test_both_doubling_paths_keep_the_round_contract(self):
        specs = bench_specs(self.KINDS, [8, 16, 32], 10, 0, 4)
        doubled = set()
        for spec in (specs[i] for i in self.RUNS):
            _, rep, Z, V = execute_spec(spec, c0=self.C0)
            assert set(np.abs(rep.signs)) == {1}
            assert rep.rounds <= math.ceil(math.log2(spec.n)) + 1
            sizes = [r.n_active for r in rep.log]
            assert sizes[0] == spec.n
            for r, nxt in zip(rep.log, sizes[1:] + [0]):
                assert r.tight_gained >= math.ceil(r.n_active / 2)
                assert nxt == r.n_active - r.tight_gained
                assert r.increment <= r.scale_used
                assert r.scale_used == round_scale(r.n_active, spec.d, r.c_used)
                assert math.log2(r.c_used / self.C0).is_integer()
                if r.c_used > self.C0:
                    doubled.add("finish" if r.n_active <= coloring.FINISH_MAX else "projection")
            assert rep.c_final == max(r.c_used for r in rep.log) > self.C0
            assert rep.discrepancy == zonotope_norm(Z, V.V.T @ rep.signs.astype(float))
        assert doubled == {"finish", "projection"}

    def test_cli_balance_doubles_and_exits_zero(self, tmp_path, capsys):
        spec = bench_specs(self.KINDS, [8], 1, 0, 4)[0]
        path = str(tmp_path / "run0.txt")
        assert main(["gen", "--kind", spec.kind, "--d", str(spec.d), "--m", str(spec.m),
                     "--n", str(spec.n), "--seed", str(spec.instance_seed), "--out", path]) == 0
        assert main(["balance", path, "--seed", str(spec.balance_seed), "--c0", str(self.C0),
                     "--format", "csv"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1]
        expected = execute_spec(spec, c0=self.C0)[0]
        assert row.rsplit(",", 11)[1:] == expected.rsplit(",", 11)[1:]
        assert float(row.split(",")[-2]) == 2 * self.C0  # c_final
