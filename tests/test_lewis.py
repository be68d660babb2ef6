"""Tests for Lewis weights, the isotropy transform, its PSD square root,
and the ball sandwich."""

import numpy as np
import pytest

from zonobalance import lewis
from zonobalance.errors import InputError, NumericalError
from zonobalance.lewis import (
    TOL_LEWIS,
    _psd_sqrt,
    _weight_map,
    check_inclusions,
    k1_norm,
    lewis_position,
    lewis_transform,
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
                w_new = _weight_map(A, w)
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
        LP = lewis_transform(np.eye(4), np.ones(4))
        assert np.allclose(LP.T, np.eye(4))
        assert np.allclose(LP.c, np.ones(4))
        assert np.allclose(LP.U_dirs, np.eye(4))
        assert LP.residual == pytest.approx(0.0, abs=1e-12)

    def test_scalar_duplicated_row(self):
        # From the fixed point w = 1/2: M = 2/w = 4, so T = 2, and
        # T^{-1} a_i = 1/2 gives c_i = 1/2 with unit directions (1).
        A = np.array([[1.0], [1.0]])
        LP = lewis_transform(A, lewis_position(A).w)
        assert LP.T == pytest.approx(np.array([[2.0]]))
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
        bad = LewisPosition(w=good.w, T=good.T, c=0.5 * good.c,
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


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(_psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(_psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_random_gram_reconstruction(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            B = rng.standard_normal((6, 4))
            M = B.T @ B
            S = _psd_sqrt(M)
            assert np.allclose(S, S.T)
            assert np.linalg.norm(S @ S - M) <= 1e-8 * (1 + np.linalg.norm(M))
            vals = np.linalg.eigvalsh(S)
            assert vals.min() >= -1e-10

    def test_indefinite_rejected(self):
        with pytest.raises(NumericalError):
            _psd_sqrt(np.diag([1.0, -0.5]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            _psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))
