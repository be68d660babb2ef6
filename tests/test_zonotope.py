"""Tests for the zonotope data model and its norm oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zonobalance import coloring, convex, zonotope
from zonobalance.errors import InputError, MembershipError, NumericalError, SpanError
from zonobalance.instancefile import generate_instance
from zonobalance.zonotope import (
    VectorFamily,
    Zonotope,
    polar_norm,
    preprocess,
    reduce_generators,
    zonotope_norm,
)

THREE_GEN = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def random_instance(rng, d, m, n):
    A = rng.standard_normal((m, d))
    U = rng.uniform(-1.0, 1.0, (n, m))
    return Zonotope(A), VectorFamily(U @ A)


class TestConstruction:
    def test_zero_row_rejected(self):
        with pytest.raises(InputError):
            Zonotope(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rank_deficient_rejected(self):
        with pytest.raises(InputError):
            Zonotope(np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_m_less_than_d_rejected(self):
        with pytest.raises(InputError):
            Zonotope(np.array([[1.0, 2.0]]))


class TestNorm:
    def test_cube_axis(self):
        Z = Zonotope(np.eye(2))
        assert zonotope_norm(Z, [3.0, 0.0]) == pytest.approx(3.0, abs=1e-9)

    def test_three_generators_hand_lp(self):
        # Per-coordinate budgets u1+u3 = 2 and u2+u3 = 2 force t >= 1,
        # and u = (1,1,1) attains it.
        value = zonotope_norm(Zonotope(THREE_GEN), [2.0, 2.0])
        assert type(value) is float
        assert value == pytest.approx(1.0, abs=1e-9)
        assert value == pytest.approx(highs_gauge(THREE_GEN, [2.0, 2.0]), abs=1e-9)

    def test_zero_vector(self):
        for A in (THREE_GEN, np.eye(2)):
            value = zonotope_norm(Zonotope(A), [0.0, 0.0])
            assert type(value) is float and value == 0.0

    def test_outside_span_error(self):
        # 2 generators spanning a line inside the plane is rank deficient,
        # so drive the span error through a tall thin instance instead.
        Z = Zonotope(np.array([[1.0]]))
        with pytest.raises(InputError):
            zonotope_norm(Z, [1.0, 2.0])

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        Z, _ = random_instance(rng, 3, 7, 1)
        for _ in range(20):
            x = rng.standard_normal(3)
            lam = float(rng.uniform(-3.0, 3.0))
            a = zonotope_norm(Z, lam * x)
            b = abs(lam) * zonotope_norm(Z, x)
            assert a == pytest.approx(b, abs=1e-8)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        Z, _ = random_instance(rng, 4, 9, 1)
        for _ in range(20):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            assert (zonotope_norm(Z, x + y)
                    <= zonotope_norm(Z, x) + zonotope_norm(Z, y) + 1e-8)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        Z, _ = random_instance(rng, 3, 6, 1)
        for _ in range(10):
            x = rng.standard_normal(3)
            assert zonotope_norm(Z, x) == zonotope_norm(Z, -x)

    # A square body and one with m = 4d; the scaled vectors below stay
    # in the normal float range, where a power-of-two scaling is exact.
    SCALED_BODIES = (Zonotope(np.random.default_rng(3).standard_normal((4, 4))),
                     Zonotope(np.random.default_rng(4).standard_normal((16, 4))))

    @given(body=st.sampled_from(SCALED_BODIES),
           entries=st.lists(st.integers(-1000, 1000), min_size=4, max_size=4),
           k=st.integers(-1000, 1000))
    def test_exactly_homogeneous_under_powers_of_two(self, body, entries, k):
        x = np.array(entries) / 1000.0
        value = zonotope_norm(body, np.ldexp(x, k))
        assert value == np.ldexp(zonotope_norm(body, x), k)
        assert zonotope_norm(body, -np.ldexp(x, k)) == value

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        for A in (np.eye(2), THREE_GEN):
            with pytest.raises(InputError, match="NaN or infinity"):
                zonotope_norm(Zonotope(A), [bad, 0.0])


def highs_gauge(A, x):
    """min t s.t. A^T u = x, -t <= u_j <= t, solved by scipy's HiGHS."""
    from scipy.optimize import linprog

    m, d = A.shape
    c = np.zeros(m + 1)
    c[m] = 1.0
    A_ub = np.block([[np.eye(m), -np.ones((m, 1))],
                     [-np.eye(m), -np.ones((m, 1))]])
    ref = linprog(c, A_ub=A_ub, b_ub=np.zeros(2 * m),
                  A_eq=np.hstack([A.T, np.zeros((d, 1))]), b_eq=x,
                  bounds=[(None, None)] * (m + 1), method="highs")
    assert ref.status == 0
    return ref.fun


def square_bodies():
    """(A, condition number) for random invertible A with d = 1..64, signed
    permutation matrices, and matrices conditioned up to 1e6."""
    rng = np.random.default_rng(12)
    for d in range(1, 65):
        A = rng.standard_normal((d, d))
        yield A, np.linalg.cond(A)
    for d in (1, 2, 7, 16, 64):
        yield np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], (d, 1)), 1.0
    for d, cond in ((3, 1e2), (8, 1e4), (16, 1e6), (40, 1e6)):
        Q1 = np.linalg.qr(rng.standard_normal((d, d)))[0]
        Q2 = np.linalg.qr(rng.standard_normal((d, d)))[0]
        yield (Q1 * np.logspace(0.0, -np.log10(cond), d)) @ Q2.T, cond


class TestSquareClosedForm:
    def test_preimage_value_and_symmetry(self):
        rng = np.random.default_rng(13)
        for A, _ in square_bodies():
            Z, d = Zonotope(A), A.shape[1]
            for _ in range(3):
                x = rng.standard_normal(d)
                value = zonotope_norm(Z, x)
                assert type(value) is float
                assert value == np.max(np.abs(np.linalg.solve(A.T, x)))
                assert zonotope_norm(Z, -x) == value
            zero = zonotope_norm(Z, np.zeros(d))
            assert type(zero) is float and zero == 0.0

    def test_overflowing_preimage_raises(self):
        # The preimage 1e400 overflows to inf, which no residual check passes.
        with pytest.raises(NumericalError):
            zonotope_norm(Zonotope([[1e-200]]), [1e200])

    def test_against_highs_and_the_square_lp(self):
        # Both references solve the gauge LP; the LP is built here with
        # lp_solve, as zonotope_norm built it for every body before.
        rng = np.random.default_rng(14)
        for A, cond in square_bodies():
            Z, d = Zonotope(A), A.shape[1]
            for _ in range(2):
                x = rng.standard_normal(d)
                value = zonotope_norm(Z, x)
                tol = 1e-12 * cond * value
                assert value == pytest.approx(highs_gauge(A, x), abs=tol)
                assert value == pytest.approx(_norm_in_span(A, x), abs=tol)

    def test_spencer_preprocess_and_balance_build_no_lp(self, monkeypatch, norm_calls):
        built = []

        class SpySimplex(convex._Simplex):
            def __init__(self, *args, **kwargs):
                built.append(args[0].num_vars)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(convex, "_Simplex", SpySimplex)
        inst = generate_instance("spencer-random", 16, None, 16, np.random.default_rng(15))
        assert inst.U is None
        Z, V, _ = preprocess(inst.A, inst.V, inst.U)
        assert len(norm_calls) == 16
        rep = coloring.balance(Z, V, seed=15)
        assert set(np.abs(rep.signs)) == {1}
        assert built == []


class TestPolarNorm:
    def test_cube_is_l1(self):
        assert polar_norm(Zonotope(np.eye(2)), [1.0, 1.0]) == 2.0

    def test_three_generators(self):
        assert polar_norm(Zonotope(THREE_GEN), [1.0, 1.0]) == 4.0

    def test_zero(self):
        assert polar_norm(Zonotope(THREE_GEN), [0.0, 0.0]) == 0.0

    def test_cauchy_schwarz_duality(self):
        rng = np.random.default_rng(3)
        Z, _ = random_instance(rng, 3, 8, 1)
        for _ in range(30):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            lhs = abs(float(x @ y))
            assert lhs <= zonotope_norm(Z, x) * polar_norm(Z, y) + 1e-8

    def test_dual_certificate_attains_equality(self):
        # A dual certificate y* with |<x, y*>| = ||x||_Z * ||A y*||_1 comes
        # from maximizing <x, y> over the polar body by an independent LP
        # (split-variable lift of ||A y||_1 <= 1).
        from zonobalance.convex import Polyhedron, lp_solve

        rng = np.random.default_rng(4)
        Z, _ = random_instance(rng, 3, 8, 1)
        for _ in range(5):
            x = rng.standard_normal(3)
            target = zonotope_norm(Z, x)
            d, m = Z.d, Z.m
            nv = d + 2 * m + 1
            E = np.zeros((m + 1, nv))
            E[:m, :d] = Z.A
            E[:m, d:d + m] = -np.eye(m)
            E[:m, d + m:d + 2 * m] = np.eye(m)
            E[m, d:d + 2 * m + 1] = 1.0
            e = np.zeros(m + 1)
            e[m] = 1.0
            lower = np.concatenate([np.full(d, -np.inf), np.zeros(2 * m + 1)])
            c = np.zeros(nv)
            c[:d] = x
            sol = lp_solve(-c, Polyhedron(nv, E, e, lower, np.full(nv, np.inf)))
            assert sol.status == "optimal"
            y_star = sol.point[:d]
            lhs = abs(float(x @ y_star))
            assert lhs <= target * polar_norm(Z, y_star) + 1e-8
            assert abs(lhs - target * polar_norm(Z, y_star)) <= 1e-6


@pytest.fixture
def norm_calls(monkeypatch):
    """Count the norm LPs that preprocess solves."""
    calls = []
    solve = zonotope.zonotope_norm

    def counted(Z, x):
        calls.append(x)
        return solve(Z, x)

    monkeypatch.setattr(zonotope, "zonotope_norm", counted)
    return calls


class TestPreprocess:
    def test_identity_instance_unchanged(self):
        V = np.array([[0.3, -0.4], [0.1, 0.9]])
        Z, fam, change = preprocess(np.eye(2), V)
        assert np.array_equal(Z.A, np.eye(2))
        assert np.array_equal(fam.V, V)
        assert change.dropped_generators == ()
        assert np.array_equal(change.Q, np.eye(2))

    def test_zero_row_dropped_duplicate_kept(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        Z, _, change = preprocess(A, np.array([[0.5, 0.5]]))
        assert Z.m == 3
        assert change.dropped_generators == (2,)

    def test_zero_row_drop_keeps_preimages_aligned(self, norm_calls):
        A = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        U = np.array([[0.5, 9.0, 0.25]])  # dead column may hold anything
        V = np.array([[0.5, 0.25]])
        Z, fam, _ = preprocess(A, V, U)
        # A misaligned column would fail the certificate and cost an LP.
        assert Z.m == 2
        assert norm_calls == []
        assert np.array_equal(fam.V, V)

    def test_rank_reduction_preserves_norms(self):
        # A 3x3 generator matrix of rank 2; all data lives in a plane.
        rng = np.random.default_rng(5)
        B = rng.standard_normal((2, 3))
        A = rng.standard_normal((3, 2)) @ B  # rank 2, rows in span(B)
        plane_points = rng.standard_normal((100, 2)) @ B * 0.05
        V = plane_points[:2]
        Z, fam, change = preprocess(A, V)
        assert Z.d == 2
        assert change.reduced_d == 2
        # independent check: norms before reduction == norms after,
        # using a fresh tall zonotope on the raw matrix for "before"
        for x, x_red in zip(plane_points, change.rows_to_reduced(plane_points)):
            before = _norm_in_span(A, x)
            after = zonotope_norm(Z, x_red)
            assert after == pytest.approx(before, abs=1e-8)

    def test_vector_outside_span_rejected(self):
        A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        A = np.vstack([A, A])  # rank 2 in ambient dimension 3
        with pytest.raises(SpanError):
            preprocess(A, np.array([[0.0, 0.0, 1.0]]))

    def test_span_rule_matches_row_loop(self):
        # Reference: the per-vector residual test, one row at a time.
        def first_outside(V, Q):
            for i in range(V.shape[0]):
                resid = np.linalg.norm(V[i] - Q @ (Q.T @ V[i]))
                if resid > zonotope.TOL_SPAN * (1.0 + np.linalg.norm(V[i])):
                    return i
            return None

        rng = np.random.default_rng(9)
        normal = np.array([0.0, 0.0, 1.0])
        A = rng.standard_normal((4, 2)) @ np.eye(2, 3)  # spans the first two axes
        _, change = reduce_generators(A)
        outcomes = set()
        for _ in range(200):
            V = rng.standard_normal((4, 3)) * [1.0, 1.0, 0.0]
            V += np.outer(10.0 ** rng.uniform(-10, -6, 4), normal)
            expected = first_outside(V, change.Q)
            outcomes.add(expected)
            if expected is None:
                assert np.array_equal(change.rows_to_reduced(V), V @ change.Q)
            else:
                with pytest.raises(SpanError, match=f"vector {expected} "):
                    change.rows_to_reduced(V)
        assert None in outcomes and len(outcomes) > 2

    def test_vector_outside_body_rejected_with_index(self):
        with pytest.raises(MembershipError) as exc:
            preprocess(np.eye(2), np.array([[0.5, 0.0], [3.0, 0.0]]))
        assert exc.value.index == 1

    def test_rescale_pulls_back_to_boundary(self):
        Z, fam, _ = preprocess(np.eye(2), np.array([[3.0, 0.0]]), rescale=True)
        assert zonotope_norm(Z, fam.V[0]) == pytest.approx(1.0, abs=1e-9)

    def test_preimage_certificate_accepted(self, norm_calls):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((8, 3))
        U = rng.uniform(-1.0, 1.0, (2, 8))
        Z, fam, _ = preprocess(A, U @ A, U)
        assert fam.n == 2
        assert norm_calls == []
        preprocess(A, U @ A)
        assert len(norm_calls) == 2

    def test_n_exceeding_dimension_rejected(self):
        with pytest.raises(InputError):
            preprocess(np.eye(2), np.array([[0.1, 0.0], [0.0, 0.1], [0.1, 0.1]]))


def _norm_in_span(A_raw, x):
    """Oracle for the reduction test: gauge computed on the raw tall matrix
    through its own span reduction done independently via least squares."""
    # minimize ||u||_inf s.t. A_raw^T u = x  -- same lambda trick, but we
    # build it directly here to stay independent of preprocess().
    from zonobalance.convex import Polyhedron, lp_solve

    m = A_raw.shape[0]
    E = np.hstack([A_raw.T, -np.asarray(x, dtype=float)[:, None]])
    P = Polyhedron(m + 1, E, np.zeros(A_raw.shape[1]),
                   np.concatenate([-np.ones(m), [0.0]]),
                   np.concatenate([np.ones(m), [np.inf]]))
    c = np.zeros(m + 1)
    c[m] = 1.0
    sol = lp_solve(-c, P)
    assert sol.status == "optimal" and -sol.objective > 1e-12
    return 1.0 / -sol.objective
