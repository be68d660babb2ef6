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
from dataclasses import dataclass

import numpy as np

from .convex import TOL_FEAS, Polyhedron, lp_solve
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
    scaled by the power of two that puts max|x| in [1, 2), so the gauge
    is exactly homogeneous under such scalings.  NaN or infinite entries
    raise InputError, and a gauge past the float range NumericalError.
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
    if m == d:
        u = np.linalg.solve(Z.A.T, x)
        value = float(np.max(np.abs(u)))
        resid = float(np.max(np.abs(Z.A.T @ u - x)))
        # The LP's feasibility check, applied to the point u / value.
        if not (np.isfinite(value) and resid <= 100 * TOL_FEAS * value):
            raise NumericalError("closed-form preimage failed the residual check",
                                 residual=resid)
    else:
        u_ls = np.linalg.lstsq(Z.A.T, x, rcond=None)[0]
        s = np.where(u_ls > 0.0, -1.0, 1.0)
        E = np.hstack([(Z.A * s[:, None]).T, -x[:, None]])
        P = Polyhedron(
            m + 1, E, np.zeros(d),
            np.concatenate([-np.ones(m), [0.0]]),
            np.concatenate([np.ones(m), [np.inf]]),
        )
        c = np.zeros(m + 1)
        c[m] = 1.0
        sol = lp_solve(-c, P)  # max lambda
        if sol.status != "optimal" or -sol.objective <= 1e-14:
            raise SpanError("x does not lie in the span of the generators")
        value = 1.0 / -sol.objective
    try:
        return math.ldexp(value, e)
    except OverflowError:
        raise NumericalError("the gauge overflows the float range")


def polar_norm(Z: Zonotope, y) -> float:
    """Gauge of the polar body: sum_i |<a_i, y>|, evaluated directly."""
    y = np.asarray(y, dtype=float)
    if y.shape != (Z.d,):
        raise InputError(f"y must have dimension {Z.d}")
    return float(np.abs(Z.A @ y).sum())


@dataclass(frozen=True)
class BasisChange:
    """Record of the preprocessing basis change and dropped generators.

    Reduced coordinates relate to the originals by x_orig = Q x_red.
    """

    Q: np.ndarray  # (original_d, reduced_d), orthonormal columns
    dropped_generators: tuple[int, ...]
    original_d: int

    @property
    def reduced_d(self) -> int:
        return self.Q.shape[1]

    def rows_to_reduced(self, X) -> np.ndarray:
        """Reduced coordinates X Q of the rows of X; raises SpanError naming
        the first row whose residual off the span exceeds TOL_SPAN."""
        X = np.asarray(X, dtype=float)
        X_red = X @ self.Q
        resid = np.linalg.norm(X - X_red @ self.Q.T, axis=1)
        outside = np.flatnonzero(resid > TOL_SPAN * (1.0 + np.linalg.norm(X, axis=1)))
        if outside.size:
            i = int(outside[0])
            raise SpanError(f"vector {i} lies outside the span of the generators "
                            f"(residual {resid[i]:.3e})")
        return X_red


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
    _, svals, vt = np.linalg.svd(A, full_matrices=False)
    rank_tol = max(A.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    r = int(np.sum(svals > rank_tol))
    if r < d0:
        Q = vt[:r].T  # orthonormal basis of the generator span
        A = A @ Q
    else:
        Q = np.eye(d0)
    return Zonotope(A), BasisChange(Q, dropped, d0)


def preprocess(A_raw, V_raw, U_raw=None, *, rescale: bool = False):
    """Normalize a raw instance into a valid (Zonotope, VectorFamily) pair.

    Builds the zonotope with `reduce_generators`, maps the vectors into
    its span, and certifies that every vector lies in the body: a row of
    the optional cube preimages U (v_i = A^T u_i, |u_i| <= 1) certifies
    its vector without an LP, any other vector is certified by its
    gauge.  The preimages are not kept.  Vectors outside the span are
    rejected; vectors outside the body are rejected unless `rescale`
    pulls them back to the boundary.

    Returns (Zonotope, VectorFamily, BasisChange).
    """
    A = np.array(A_raw, dtype=float)
    V = np.array(V_raw, dtype=float)
    if A.ndim != 2 or V.ndim != 2:
        raise InputError("A and V must be matrices")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(V))):
        raise InputError("instance contains NaN or infinity")
    if V.shape[1] != A.shape[1]:
        raise InputError("A and V must share the ambient dimension")
    if V.shape[0] < 1:
        raise InputError("need at least one vector")
    U = None
    if U_raw is not None:
        U = np.array(U_raw, dtype=float)
        if U.shape != (V.shape[0], A.shape[0]):
            raise InputError("U must be n x m")

    Z, change = reduce_generators(A)
    if U is not None:
        U = np.delete(U, change.dropped_generators, axis=1)
    if change.reduced_d < change.original_d:
        V = change.rows_to_reduced(V)

    if V.shape[0] > Z.d:
        raise InputError(
            f"more vectors ({V.shape[0]}) than the zonotope dimension ({Z.d}); "
            "the n > d case is out of scope"
        )

    for i in range(V.shape[0]):
        if U is not None and (
            np.max(np.abs(U[i]), initial=0.0) <= 1.0 + TOL_FEAS
            and np.linalg.norm(Z.A.T @ U[i] - V[i]) <= 1e-8
        ):
            continue
        value = zonotope_norm(Z, V[i])
        if value <= 1.0 + TOL_FEAS:
            continue
        if not rescale:
            raise MembershipError(i, value)
        V[i] /= value

    return Z, VectorFamily(V), change
