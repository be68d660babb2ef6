"""Tests for Lewis weights, the isotropic position from one thin QR per
step, and the ball sandwich."""

import numpy as np
import pytest

from zonobalance import lewis, seeding
from zonobalance.errors import InputError, NumericalError
from zonobalance.instancefile import generate_instance
from zonobalance.lewis import (
    TOL_LEWIS,
    check_inclusions,
    k1_norm,
    lewis_position,
)


class TestWeights:
    def test_identity_fixed_point(self):
        assert np.allclose(lewis_position(np.eye(5)).w, np.ones(5), atol=1e-12)

    def test_scalar_duplicated_row(self):
        # d=1, m=2, both rows (1): the fixed point solves w = sqrt(w/2),
        # hence w = 1/2 for both rows.
        w = lewis_position(np.array([[1.0], [1.0]])).w
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((20, 5))
        w = lewis_position(A).w
        assert w.sum() == pytest.approx(5.0, abs=1e-6)
        assert np.all(w > 0)

    def test_residual_monotone_after_burn_in(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            A = rng.standard_normal((30, 6))
            # The max relative weight change at each of the iterations
            # that lewis_position runs.
            w = np.full(30, 6 / 30)  # lewis_position's start, d / m
            history = []
            for _ in range(lewis_position(A).iterations):
                w_new = lewis._lewis_step(A, w)[1]
                history.append(float(np.max(np.abs(w_new - w) / w)))
                w = w_new
            for i in range(5, len(history) - 1):
                assert history[i + 1] <= history[i] + 1e-12

    def test_nonconvergence_error_carries_residual(self, monkeypatch):
        monkeypatch.setattr(lewis, "MAX_ITER_LEWIS", 2)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((12, 4))
        with pytest.raises(NumericalError):
            lewis_position(A)


class TestTransform:
    def test_identity(self):
        LP = lewis_position(np.eye(4))
        assert np.allclose(LP.c, np.ones(4))
        assert np.allclose(LP.U_dirs, np.eye(4))
        assert LP.residual == pytest.approx(0.0, abs=1e-12)

    def test_scalar_duplicated_row(self):
        # From the fixed point w = 1/2: M = 2/w = 4, so T = 2, and
        # T^{-1} a_i = 1/2 gives c_i = 1/2 with unit directions (1); the
        # sign rule keeps them (1), not (-1).
        A = np.array([[1.0], [1.0]])
        LP = lewis_position(A)
        assert np.allclose(LP.c, [0.5, 0.5], atol=1e-10)
        assert np.allclose(LP.U_dirs, [[1.0], [1.0]])

    def test_isotropy_residual_small(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            A = rng.standard_normal((24, 6))
            LP = lewis_position(A)
            assert LP.residual <= TOL_LEWIS
            assert np.allclose(np.linalg.norm(LP.U_dirs, axis=1), 1.0, atol=1e-10)
            assert LP.c.sum() == pytest.approx(6.0, abs=1e-6)
            assert np.allclose(LP.c, LP.w, atol=1e-8)
            # direct evaluation of the isotropy sum
            S = (LP.U_dirs.T * LP.c) @ LP.U_dirs
            assert np.linalg.norm(S - np.eye(6)) <= TOL_LEWIS


class TestK1Norm:
    def test_identity_axis(self):
        LP = lewis_position(np.eye(4))
        assert k1_norm(LP, np.eye(4)[0]) == pytest.approx(1.0)

    def test_zero(self):
        LP = lewis_position(np.eye(3))
        assert k1_norm(LP, np.zeros(3)) == 0.0

    def test_gauge_sandwich(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((32, 8))
        LP = lewis_position(A)
        for _ in range(1000):
            x = rng.standard_normal(8)
            val = k1_norm(LP, x)
            nrm = np.linalg.norm(x)
            assert val >= nrm - 1e-8
            assert val <= np.sqrt(8) * nrm + 1e-8


class TestInclusions:
    def test_cube_polar(self):
        # Generators I_d: the normalized polar body is the l1 ball, whose
        # gauge on unit vectors ranges over [1, sqrt(d)].
        LP = lewis_position(np.eye(4))
        rep = check_inclusions(LP, 500, np.random.default_rng(5))
        assert rep.passed
        assert rep.max_violation <= 1e-6

    def test_one_dimensional_tight(self):
        LP = lewis_position(np.array([[2.0], [-1.0], [0.5]]))
        rep = check_inclusions(LP, 100, np.random.default_rng(6))
        assert rep.passed
        assert rep.max_violation == pytest.approx(0.0, abs=1e-9)

    def test_random_instance(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((32, 8))
        rep = check_inclusions(lewis_position(A), 1000, rng)
        assert rep.passed, f"violation {rep.max_violation} at {rep.worst_direction}"

    def test_broken_position_fails_with_direction(self):
        # Halving the weights deflates the gauge below the Euclidean norm,
        # so the report must fail and name an offending direction.
        from zonobalance.lewis import LewisPosition

        good = lewis_position(np.eye(3))
        bad = LewisPosition(w=good.w, c=0.5 * good.c,
                            U_dirs=good.U_dirs, residual=good.residual,
                            iterations=good.iterations)
        rep = check_inclusions(bad, 200, np.random.default_rng(8))
        assert not rep.passed
        assert rep.max_violation > 1e-6
        assert rep.worst_direction is not None
        assert rep.worst_direction.shape == (3,)

    def test_samples_below_one_rejected(self):
        with pytest.raises(InputError, match="at least 1"):
            check_inclusions(lewis_position(np.eye(2)), 0, np.random.default_rng(9))


def spectral_reference(A):
    """A construction from the Gram matrix M(w): each step solves
    M(w) X = A^T for w -> (a_i^T M(w)^{-1} a_i)^{1/2}, and the converged
    weights are put in position by the eigh square root T = M(w)^{1/2}.
    Returns (w, c, U_dirs, iterations) under lewis_position's stopping rule."""
    m, d = A.shape
    w = np.full(m, d / m)
    for it in range(1, lewis.MAX_ITER_LEWIS + 1):
        w_new = np.sqrt(np.einsum("ij,ji->i", A, np.linalg.solve(A.T @ (A / w[:, None]), A.T)))
        rel = float(np.max(np.abs(w_new - w) / w))
        w = w_new
        if rel <= TOL_LEWIS * 1e-2:
            vals, vecs = np.linalg.eigh(A.T @ (A / w[:, None]))
            X = np.linalg.solve((vecs * np.sqrt(vals)) @ vecs.T, A.T)
            c = np.linalg.norm(X, axis=0)
            S = (X * (1.0 / c)) @ X.T
            if np.linalg.norm(S - np.eye(d)) <= TOL_LEWIS:
                return w, c, (X / c).T, it
    raise AssertionError("reference iteration did not converge")


def reference_bodies():
    """The 40 probes bodies of benchmark seed 1, then Gaussian bodies at
    d = 1..32 with m = d..4d, some with duplicated rows.

    The reference forms the Gram matrix, so its weights carry rounding
    of order cond(A)^2 * eps; on these bodies that stays far below the
    stopping tolerance.  TestIllConditioned covers the bodies where it
    does not."""
    for i in range(40):
        rs = seeding.run_seed(1, i)
        yield generate_instance("random-zonotope", 16, 64, 16,
                                np.random.default_rng(seeding.run_seed(rs, 0))).A
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 5, 8, 13, 21, 32):
        for m in sorted({d, 2 * d, 4 * d}):
            A = rng.standard_normal((m, d))
            yield A
            if m >= 2 * d:
                k = m // 4
                yield np.vstack([A[:m - k], A[:k]])


class TestAgainstSpectralReference:
    def test_same_position_up_to_rotation(self):
        count = 0
        for A in reference_bodies():
            w, c, U, iterations = spectral_reference(A)
            LP = lewis_position(A)
            assert LP.iterations == iterations
            np.testing.assert_allclose(LP.w, w, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(LP.c, c, rtol=0.0, atol=1e-10)
            # The factors differ by a rotation, which U U^T does not see.
            np.testing.assert_allclose(LP.U_dirs @ LP.U_dirs.T, U @ U.T, rtol=0.0, atol=1e-10)
            assert LP.residual <= TOL_LEWIS
            count += 1
        assert count == 80

    def test_rank_deficient_raises(self):
        # A duplicated column, a rank-3 product, fewer rows than columns,
        # and a zero row, which leaves a zero direction.
        rng = np.random.default_rng(12)
        B = rng.standard_normal((12, 3))
        for A, message in ((np.hstack([B, B[:, :1]]), "not positive definite"),
                           (rng.standard_normal((20, 3)) @ rng.standard_normal((3, 5)),
                            "not positive definite"),
                           (rng.standard_normal((3, 5)), "not positive definite"),
                           (np.vstack([np.eye(3), np.zeros((1, 3))]), "zero direction")):
            with pytest.raises(NumericalError, match=message):
                lewis_position(A)
            with pytest.raises(NumericalError, match=message):
                lewis._lewis_step(A, np.ones(A.shape[0]))

    @pytest.mark.parametrize("A, message", [
        (np.ones(3), "2-D"),
        (np.zeros((0, 2)), "2-D"),
        (np.array([[1.0, 0.0], [0.0, np.nan], [1.0, 1.0]]), "NaN or infinity"),
        (np.array([[1.0, 0.0], [0.0, np.inf], [1.0, 1.0]]), "NaN or infinity"),
    ], ids=["one-dimensional", "no-rows", "nan", "inf"])
    def test_malformed_array_is_an_input_error(self, A, message):
        with pytest.raises(InputError, match=message):
            lewis_position(A)


def row_scaled(rng, m, d, spread):
    """Gaussian m x d generators, rows scaled by exp(U(-ln spread, ln spread))."""
    scales = np.exp(rng.uniform(-np.log(spread), np.log(spread), m))
    return rng.standard_normal((m, d)) * scales[:, None]


class TestIllConditioned:
    """Bodies whose Gram matrix M(w) is too ill-conditioned for the
    reference above, judged by what the exact weights must satisfy."""

    def test_invariant_under_column_transform(self):
        # The Lewis weights of A G equal those of A for any invertible G;
        # here G has singular values log-spaced from 1 to 1e6.
        rng = np.random.default_rng(13)
        count = 0
        for d in (2, 3, 5, 8, 13, 16, 21, 24, 32, 4):
            for m in (d, 2 * d, 4 * d):
                A = rng.standard_normal((m, d))
                U = np.linalg.qr(rng.standard_normal((d, d)))[0]
                V = np.linalg.qr(rng.standard_normal((d, d)))[0]
                G = (U * np.logspace(0, 6, d)) @ V.T
                w = lewis_position(A).w
                np.testing.assert_allclose(lewis_position(A @ G).w, w, rtol=1e-9, atol=0.0)
                count += 1
        assert count == 30

    def test_row_scaled_square_bodies(self):
        # A square body's Lewis weights are all 1, however its rows scale.
        rng = np.random.default_rng(14)
        for d in (4, 8, 12, 16, 20, 24, 28, 32):
            for spread in (100.0, 1000.0):
                LP = lewis_position(row_scaled(rng, d, d, spread))
                np.testing.assert_allclose(LP.w, 1.0, rtol=0.0, atol=1e-12)
                assert LP.residual <= TOL_LEWIS

    def test_box_with_far_apart_sides(self):
        # Generators that differ in length by 1e16 are still independent.
        LP = lewis_position(np.diag([1e-8, 1.0, 1e8]))
        np.testing.assert_allclose(LP.w, 1.0, rtol=0.0, atol=1e-12)
        assert LP.residual <= TOL_LEWIS
