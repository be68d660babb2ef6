"""Zonotope data model, its gauge and polar gauge, and instance preprocessing.

A zonotope is stored through its generator matrix A (one generator per
row); the body is the set of all combinations sum_i u_i a_i with
|u_i| <= 1.  Its gauge ||x|| is the smallest t such that x lies in the
t-scaled body.  A square body (m = d) has the unique preimage
A^{-T} x, so its gauge is the closed form |A^{-T} x|_inf; any other
body's gauge is computed by a single LP.  The polar gauge is the plain
l1 expression ||A y||_1 and needs no LP.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .convex import TOL_FEAS, Polyhedron, _truncated_svd, lp_solve
from .errors import InputError, MembershipError, NumericalError, SpanError

TOL_SPAN = 1e-8


class Zonotope:
    """Immutable zonotope A^T [-1,1]^m; rows of A are the generators."""

    def __init__(self, A):
        A = np.array(A, dtype=float)
        if A.ndim != 2:
            raise InputError("generator matrix must be two-dimensional")
        m, d = A.shape
        if d < 1 or m < d:
            raise InputError(f"need m >= d >= 1 generators, got m={m}, d={d}")
        if not np.all(np.isfinite(A)):
            raise InputError("generator matrix contains NaN or infinity")
        row_zero = ~np.any(A != 0.0, axis=1)
        if np.any(row_zero):
            raise InputError(
                f"generator row {int(np.flatnonzero(row_zero)[0])} is zero; "
                "run preprocess() first"
            )
        if np.linalg.matrix_rank(A) < d:
            raise InputError("generator matrix is rank deficient; run preprocess() first")
        A.setflags(write=False)
        self.A = A
        # The power of two nearest the longest generator, measured on A
        # scaled to max|A| in [1, 2) so that no square overflows.  The
        # gauge runs on A scaled by it, so its tolerances do not see the
        # body's size.  Unit-length generators, as every built-in kind
        # has, run unscaled: scaling max|A| into [1, 2) instead cost
        # their gauge LPs up to 2.4 times the pivots.
        top = math.frexp(float(np.abs(A).max()))[1] - 1
        A_top = np.ldexp(A, -top)
        longest = math.sqrt(float(np.einsum("ij,ij->i", A_top, A_top).max()))
        self._exp = top + round(math.log2(longest))
        self._unit_A = A if self._exp == 0 else np.ldexp(A, -self._exp)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def __repr__(self) -> str:
        return f"Zonotope(m={self.m}, d={self.d})"


class VectorFamily:
    """Vectors to balance, stacked as rows of V."""

    def __init__(self, V):
        V = np.array(V, dtype=float)
        if V.ndim != 2 or V.shape[0] < 1:
            raise InputError("V must be a nonempty matrix with one vector per row")
        if not np.all(np.isfinite(V)):
            raise InputError("V contains NaN or infinity")
        V.setflags(write=False)
        self.V = V

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def d(self) -> int:
        return self.V.shape[1]

    def restrict(self, indices) -> "VectorFamily":
        return VectorFamily(self.V[np.asarray(indices, dtype=int)])

    def __repr__(self) -> str:
        return f"VectorFamily(n={self.n}, d={self.d})"


def zonotope_norm(Z: Zonotope, x) -> float:
    """Gauge of x in Z: the least t with x in tZ.

    A square body has one preimage u = A^{-T} x, and the gauge is
    max|u_i| in closed form; a residual check on A^T u = x raises
    NumericalError.  Otherwise the gauge is a single LP, max lambda
    subject to A^T u = lambda x, |u_i| <= 1, and the norm is 1/lambda.
    This keeps the LP at d equality rows regardless of the generator
    count.  The simplex starts each u_i at its lower bound; the LP runs
    on the generators s_i a_i, s_i = -sign of the least-squares
    preimage's u_i, which span the same body, so that start is the side
    of that preimage: a guess at the optimal side (the sign of <a_i, y*>
    for the dual optimum y*) that saves pivots.  Both branches see x
    scaled by the power of two that puts max|x| in [1, 2), and A by the
    power of two nearest its longest generator, so the gauge is exactly
    homogeneous under power-of-two scalings of either.  A Zonotope spans
    R^d, so every x has a gauge: an LP that is not optimal or finds no
    lambda above 1e-14 raises NumericalError, and so does a gauge past
    the float range.  NaN or infinite entries raise InputError.
    """
    x = np.asarray(x, dtype=float)
    m, d = Z.m, Z.d
    if x.shape != (d,):
        raise InputError(f"x must have dimension {d}")
    top = float(np.abs(x).max())
    if not math.isfinite(top):  # also catches a NaN
        raise InputError("x contains NaN or infinity")
    if top == 0.0:
        return 0.0
    # Canonicalize the sign so that x and -x take the identical path and
    # the gauge is exactly symmetric, and the scale so that the LP's
    # absolute tolerances see max|x| in [1, 2), a power-of-two scaling.
    e = math.frexp(top)[1] - 1
    x = np.ldexp(-x if x[np.flatnonzero(x)[0]] < 0.0 else x, -e)
    A = Z._unit_A
    if m == d:
        u = np.linalg.solve(A.T, x)
        value = float(np.max(np.abs(u)))
        resid = float(np.max(np.abs(A.T @ u - x)))
        # The LP's feasibility check, applied to the point u / value.
        if not (np.isfinite(value) and resid <= 100 * TOL_FEAS * value):
            raise NumericalError("closed-form preimage failed the residual check",
                                 residual=resid)
    else:
        u_ls = np.linalg.lstsq(A.T, x, rcond=None)[0]
        s = np.where(u_ls > 0.0, -1.0, 1.0)
        E = np.hstack([(A * s[:, None]).T, -x[:, None]])
        P = Polyhedron(
            m + 1, E, np.zeros(d),
            np.concatenate([-np.ones(m), [0.0]]),
            np.concatenate([np.ones(m), [np.inf]]),
        )
        c = np.zeros(m + 1)
        c[m] = 1.0
        sol = lp_solve(-c, P)  # max lambda
        if not sol.is_optimal or -sol.objective <= 1e-14:
            raise NumericalError(f"gauge LP ended {sol.status} with lambda {-sol.objective:.3e}")
        value = 1.0 / -sol.objective
    try:
        return math.ldexp(value, e - Z._exp)
    except OverflowError:
        raise NumericalError("the gauge overflows the float range")


def polar_norm(Z: Zonotope, y) -> float:
    """Gauge of the polar body: sum_i |<a_i, y>|, evaluated directly."""
    y = np.asarray(y, dtype=float)
    if y.shape != (Z.d,):
        raise InputError(f"y must have dimension {Z.d}")
    return float(np.abs(Z.A @ y).sum())


class BasisChange(NamedTuple):
    """Record of the preprocessing basis change and dropped generators.

    Reduced coordinates relate to the originals by x_orig = Q x_red.
    """

    Q: np.ndarray  # (original d, reduced d), orthonormal columns
    dropped_generators: tuple[int, ...]

    def rows_to_reduced(self, X, body: Zonotope) -> tuple[np.ndarray, np.ndarray]:
        """(R, s) with X Q = R * 2^s row by row, s the power of two that
        puts the row's largest entry in [1, 2): R is X Q computed on X
        scaled by 2^-s, so it never leaves the float range, or that scaled
        X itself when Q keeps every coordinate.  R is then taken to the
        power of two of the reduced `body` when that is below 1, so that
        R's gauges on it stay in the float range.  The one gate for
        ambient vectors, it checks shape, finiteness and span: it raises
        InputError unless X is a matrix of rows of the original d (Q's
        rows), InputError naming the first row with a NaN or infinite
        entry, and SpanError the first row x off the span by over
        TOL_SPAN * (1 + |x|), a rule run on the same scaled rows, and the
        threshold with them, so no square overflows."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.Q.shape[0]:
            raise InputError(f"vectors must be rows of dimension {self.Q.shape[0]}, "
                             f"got an array of shape {X.shape}")
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise InputError(f"vector {int(bad[0])} contains NaN or infinity")
        s = np.frexp(np.abs(X).max(axis=1))[1] - 1
        R = X_unit = np.ldexp(X, -s[:, None])
        if self.Q.shape[1] < self.Q.shape[0]:
            R = X_unit @ self.Q
            resid = np.linalg.norm(X_unit - R @ self.Q.T, axis=1)
            norm = np.linalg.norm(X_unit, axis=1)
            with np.errstate(over="ignore"):  # inf below 2^-1023: no residual passes
                one = np.ldexp(1.0, -s)
            outside = np.flatnonzero(resid > TOL_SPAN * (one + norm))
            if outside.size:
                i = int(outside[0])
                raise SpanError(f"vector {i} lies outside the span of the generators "
                                f"(residual {resid[i] / norm[i]:.3e} of its norm)")
        e = min(body._exp, 0)
        return np.ldexp(R, e), s - e


def reduce_generators(A_raw) -> tuple[Zonotope, BasisChange]:
    """Build the zonotope of raw generators: drop zero rows and, when A is
    rank deficient, reduce to an orthonormal basis of its span.

    Returns (Zonotope, BasisChange).
    """
    A = np.array(A_raw, dtype=float)
    if A.ndim != 2:
        raise InputError("A must be a matrix")
    if not np.all(np.isfinite(A)):
        raise InputError("generator matrix contains NaN or infinity")
    keep = np.any(A != 0.0, axis=1)
    dropped = tuple(int(i) for i in np.flatnonzero(~keep))
    A = A[keep]
    if A.shape[0] == 0:
        raise InputError("all generators are zero")

    d0 = A.shape[1]
    Q = _truncated_svd(A)[2].T  # orthonormal basis of the generator span
    if Q.shape[1] < d0:
        A = A @ Q
    else:
        Q = np.eye(d0)
    return Zonotope(A), BasisChange(Q, dropped)


def preprocess(A_raw, V_raw, U_raw=None, *, rescale: bool = False):
    """Normalize a raw instance into a valid (Zonotope, VectorFamily) pair.

    Builds the zonotope with `reduce_generators`, maps the vectors into
    its span through `BasisChange.rows_to_reduced`, the one gate that
    checks their shape, finiteness and span, and certifies that every
    vector lies in the body: a row of the optional cube preimages U with
    |u_i| <= 1 and |A^T u_i - v_i| <= 1e-8 |v_i| (max norms, so the
    verdict does not depend on the instance's scale) certifies v_i
    without an LP, any other vector is certified by its gauge.  The
    preimages are not kept.  Vectors outside the body are rejected
    unless `rescale` pulls them back to the boundary.  Any number of
    vectors is kept.

    Returns (Zonotope, VectorFamily, BasisChange).
    """
    Z, change = reduce_generators(A_raw)
    V = np.array(V_raw, dtype=float)  # writable, for the rescale
    # Row i of V is R[i] * 2^s[i]; a body reduced to its span maps V too.
    R, s = change.rows_to_reduced(V, Z)
    U = None
    if U_raw is not None:
        U = np.array(U_raw, dtype=float)
        if U.shape != (V.shape[0], Z.m + len(change.dropped_generators)):
            raise InputError("U must be n x m")
        U = np.delete(U, change.dropped_generators, axis=1)
    if Z.d < V.shape[1]:
        with np.errstate(over="ignore"):  # a row past the float range reads inf
            V = np.ldexp(R, s[:, None])

    for i in range(V.shape[0]):
        if U is not None and np.max(np.abs(U[i]), initial=0.0) <= 1.0 + TOL_FEAS:
            with np.errstate(over="ignore"):  # at R[i]'s scale; inf fails
                resid = np.abs(np.ldexp(Z.A.T @ U[i], -s[i]) - R[i]).max()
            if resid <= 1e-8 * np.abs(R[i]).max():
                continue
        value_r = zonotope_norm(Z, R[i])
        try:
            value = math.ldexp(value_r, int(s[i]))  # the gauge of V[i]
        except OverflowError:
            value = math.inf
        if value <= 1.0 + TOL_FEAS:
            continue
        if not rescale:
            raise MembershipError(i, value)
        V[i] = R[i] / value_r

    return Z, VectorFamily(V), change
