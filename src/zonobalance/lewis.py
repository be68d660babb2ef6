"""Lewis position of the polar body: weights and unit directions.

The l1 Lewis weights are the positive fixed point of w_i = |T^{-1} a_i|
for any factor T T^T = A^T diag(w)^{-1} A; the plain fixed-point
iteration contracts for this exponent (Lewis, Studia Math. 1978; Cohen &
Peng, STOC 2015), so only an iteration cap guards it.  No step forms that
Gram matrix, which would square the condition number: with the thin QR
Q R = diag(w)^{-1/2} A and diag(R) > 0, T = R^T and x_i = T^{-1} a_i is
sqrt(w_i) q_i.  At the fixed point c_i = |x_i| = w_i, and the unit
directions u_i = x_i / c_i satisfy sum_i c_i u_i u_i^T = I.
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


def _lewis_step(A: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows x_i = T^{-1} a_i at weights w, from the thin QR of
    diag(w)^{-1/2} A, and their norms c_i = |x_i|."""
    m, d = A.shape
    sqrt_w = np.sqrt(w)[:, None]
    Q, R = np.linalg.qr(A / sqrt_w)
    diag = np.diagonal(R)
    # Column j is dependent on those before it within an angle of 1e-11.
    if m < d or not np.all(np.abs(diag) > 1e-11 * np.linalg.norm(R, axis=0)):
        raise NumericalError("weighted Gram matrix is not positive definite")
    X = Q * np.sign(diag) * sqrt_w
    c = np.sqrt(np.einsum("ij,ij->i", X, X))
    if not c.min() > 0.0:  # also catches a NaN
        raise NumericalError("zero direction in the Lewis decomposition")
    return X, c


def lewis_position(Z: Zonotope | np.ndarray) -> LewisPosition:
    """Run the fixed-point iteration and assemble the Lewis position.

    Convergence within MAX_ITER_LEWIS iterations requires both a max
    relative weight change below TOL_LEWIS * 1e-2 and an isotropy
    residual below TOL_LEWIS; the step at the converged weights gives
    the position, and NumericalError carries the last relative change
    otherwise.  A rank-deficient A, or fewer rows than columns, raises
    NumericalError.
    """
    A = Z.A if isinstance(Z, Zonotope) else np.asarray(Z, dtype=float)
    m, d = A.shape
    w = np.full(m, d / m)
    X, c = _lewis_step(A, w)
    for it in range(1, MAX_ITER_LEWIS + 1):
        rel = float(np.max(np.abs(c - w) / w))
        w = c
        X, c = _lewis_step(A, w)
        if rel <= TOL_LEWIS * 1e-2:
            U = X / c[:, None]
            residual = float(np.linalg.norm(U.T @ X - np.eye(d)))
            if residual <= TOL_LEWIS:
                return LewisPosition(w=w, c=c, U_dirs=U, residual=residual, iterations=it)
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
