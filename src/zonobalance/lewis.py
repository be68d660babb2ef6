"""Lewis position of the polar body: weights and unit directions.

The l1 Lewis weights are the positive fixed point of w_i = |T^{-1} a_i|
with T the Cholesky factor of M(w) = A^T diag(w)^{-1} A.  The plain
fixed-point iteration contracts for this exponent (Lewis, Studia Math.
1978; Cohen & Peng, STOC 2015), so only an iteration cap guards it.
Any factor of M(w) gives the same position up to a rotation: at the
fixed point x_i = T^{-1} a_i gives unit directions u_i = x_i / |x_i|
and weights c_i = |x_i| = w_i with sum_i c_i u_i u_i^T = I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .zonotope import Zonotope

TOL_LEWIS = 1e-8
MAX_ITER_LEWIS = 200


@dataclass(frozen=True)
class LewisPosition:
    w: np.ndarray       # Lewis weights, length m
    c: np.ndarray       # |T^{-1} a_i|, the weights of the isotropy identity (= w at the fixed point)
    U_dirs: np.ndarray  # m x d, unit rows T^{-1} a_i / c_i
    residual: float     # Frobenius norm of sum_i c_i u_i u_i^T - I
    iterations: int

    @property
    def d(self) -> int:
        return self.U_dirs.shape[1]

    @property
    def m(self) -> int:
        return self.w.shape[0]


def _factor_solve(A: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X = T^{-1} A^T for the Cholesky factor T of M(w), and its column norms."""
    try:
        T = np.linalg.cholesky(A.T @ (A / w[:, None]))
    except np.linalg.LinAlgError:
        raise NumericalError("weighted Gram matrix is not positive definite")
    X = np.linalg.inv(T) @ A.T  # cheaper than solve(T, A.T) with its m right-hand sides
    c = np.sqrt(np.einsum("ij,ij->j", X, X))
    if not c.min() > 0.0:  # also catches a NaN
        raise NumericalError("zero direction in the Lewis decomposition")
    return X, c


def lewis_transform(A, w, iterations: int = 0) -> LewisPosition:
    """Assemble the Lewis position at weights w from one Cholesky factor."""
    A = np.asarray(A, dtype=float)
    w = np.asarray(w, dtype=float)
    X, c = _factor_solve(A, w)
    U = X / c  # columns u_i, so U @ X.T = sum_i c_i u_i u_i^T
    residual = float(np.linalg.norm(U @ X.T - np.eye(A.shape[1])))
    return LewisPosition(w=w, c=c, U_dirs=U.T, residual=residual, iterations=iterations)


def lewis_position(Z: Zonotope | np.ndarray) -> LewisPosition:
    """Run the fixed-point iteration and assemble the Lewis position.

    Convergence within MAX_ITER_LEWIS iterations requires both a max
    relative weight change below TOL_LEWIS * 1e-2 and an isotropy
    residual below TOL_LEWIS; NumericalError carries the last relative
    change otherwise.  A weighted Gram matrix that is not positive
    definite, as from a rank-deficient A, raises NumericalError.
    """
    A = Z.A if isinstance(Z, Zonotope) else np.asarray(Z, dtype=float)
    m, d = A.shape
    w = np.full(m, d / m)
    for it in range(1, MAX_ITER_LEWIS + 1):
        w_new = _factor_solve(A, w)[1]
        rel = float(np.max(np.abs(w_new - w) / w))
        w = w_new
        if rel <= TOL_LEWIS * 1e-2:
            position = lewis_transform(A, w, iterations=it)
            if position.residual <= TOL_LEWIS:
                return position
    raise NumericalError("Lewis weight iteration did not converge", residual=rel)


def k1_norm(LP: LewisPosition, x) -> float:
    """Gauge of the normalized polar body: sum_i c_i |<x, u_i>|."""
    x = np.asarray(x, dtype=float)
    return float(np.dot(LP.c, np.abs(LP.U_dirs @ x)))


@dataclass(frozen=True)
class InclusionReport:
    samples: int
    max_violation: float
    worst_direction: np.ndarray | None
    passed: bool


def check_inclusions(LP: LewisPosition, samples: int, rng) -> InclusionReport:
    """Sampled check of the ball sandwich around the normalized polar body.

    For unit directions x the gauge must satisfy
    ||x||_2 <= gauge(x) <= sqrt(d) ||x||_2.  Returns the largest violation
    seen; the report fails beyond 1e-6 and records the offending
    direction.
    """
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    d = LP.d
    sqrt_d = np.sqrt(d)
    worst = 0.0
    worst_dir = None
    for _ in range(samples):
        x = rng.standard_normal(d)
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            continue
        x /= nrm
        val = k1_norm(LP, x)
        violation = max(1.0 - val, val - sqrt_d)
        if violation > worst:
            worst = violation
            worst_dir = x.copy()
    return InclusionReport(samples=samples, max_violation=worst,
                           worst_direction=worst_dir, passed=worst <= 1e-6)
