"""Lewis position of the polar body: weights, directions, and the
isotropy transform.

The l1 Lewis weights are the positive fixed point of
w_i = (a_i^T M(w)^{-1} a_i)^{1/2} with M(w) = A^T diag(w)^{-1} A.  The
plain fixed-point iteration contracts for this exponent, so no
safeguarding is needed beyond an iteration cap.  From converged weights
the transform T = M(w)^{1/2}, a spectral PSD square root, yields unit
directions u_i = T^{-1}a_i / |T^{-1}a_i| and weights
c_i = |T^{-1}a_i| = w_i satisfying sum_i c_i u_i u_i^T = I.
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
    T: np.ndarray       # d x d symmetric positive definite transform
    c: np.ndarray       # weights of the isotropy identity (= w at the fixed point)
    U_dirs: np.ndarray  # m x d, unit rows
    residual: float     # Frobenius norm of sum_i c_i u_i u_i^T - I
    iterations: int

    @property
    def d(self) -> int:
        return self.T.shape[0]

    @property
    def m(self) -> int:
        return self.w.shape[0]


def _weight_map(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One fixed-point step: w -> (a_i^T M(w)^{-1} a_i)^{1/2}."""
    M = A.T @ (A / w[:, None])
    try:
        X = np.linalg.solve(M, A.T)
    except np.linalg.LinAlgError:
        raise NumericalError("weighted Gram matrix is numerically singular")
    q = np.einsum("ij,ji->i", A, X)
    if np.any(q <= 0.0):
        raise NumericalError("nonpositive leverage value; matrix is degenerate")
    return np.sqrt(q)


def _psd_sqrt(M) -> np.ndarray:
    """Symmetric PSD square root via the spectral decomposition.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything more
    negative is treated as a genuinely indefinite input.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("psd_sqrt expects a square matrix")
    scale = float(np.max(np.abs(M), initial=0.0))
    if np.max(np.abs(M - M.T), initial=0.0) > 1e-8 * (1.0 + scale):
        raise ValueError("psd_sqrt expects a symmetric matrix")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    if vals.size and vals[0] < -1e-10:
        raise NumericalError(
            "matrix is significantly indefinite", residual=float(-vals[0])
        )
    vals = np.clip(vals, 0.0, None)
    S = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (S + S.T)


def lewis_transform(A, w, iterations: int = 0) -> LewisPosition:
    """Assemble the Lewis position from converged weights."""
    A = np.asarray(A, dtype=float)
    w = np.asarray(w, dtype=float)
    M = A.T @ (A / w[:, None])
    T = _psd_sqrt(M)
    X = np.linalg.solve(T, A.T)  # columns are T^{-1} a_i
    c = np.linalg.norm(X, axis=0)
    if np.any(c <= 0.0):
        raise NumericalError("zero direction in the Lewis decomposition")
    U_dirs = (X / c).T
    S = (X * (1.0 / c)) @ X.T
    residual = float(np.linalg.norm(S - np.eye(A.shape[1])))
    return LewisPosition(w=w, T=T, c=c, U_dirs=U_dirs,
                         residual=residual, iterations=iterations)


def lewis_position(Z: Zonotope | np.ndarray) -> LewisPosition:
    """Run the fixed-point iteration and assemble the Lewis position.

    Convergence within MAX_ITER_LEWIS iterations requires both a max
    relative weight change below TOL_LEWIS * 1e-2 and an isotropy
    residual below TOL_LEWIS; NumericalError carries the last relative
    change otherwise.
    """
    A = Z.A if isinstance(Z, Zonotope) else np.asarray(Z, dtype=float)
    m, d = A.shape
    w = np.full(m, d / m)
    for it in range(1, MAX_ITER_LEWIS + 1):
        w_new = _weight_map(A, w)
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
