"""Iterated partial coloring: the balancing algorithm itself.

Each round projects a scaled Gaussian point onto the intersection of the
shifted sign cube with a scaled coordinate body, represented through its
lift over cube preimages.  Coordinates that land on the cube boundary
are clamped to exact signs; a round is accepted once at least half the
active coordinates become signs and the movement stays within the round
scale.  Accepted rounds at least halve the active set, and the last two
open coordinates (eight under `exact_finish`) are finished by trying
every sign completion, so the driver finishes within ceil(log2 n) + 1
rounds.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .convex import Polyhedron, project_polyhedron
from .errors import InputError, NumericalError
from .zonotope import VectorFamily, Zonotope, zonotope_norm

TOL_TIGHT = 1e-7
DEFAULT_C0 = 2.0
RETRIES = 16
MAX_DOUBLINGS = 24

# Active sets of at most this many coordinates are finished by trying
# every sign completion; `balance(exact_finish=True)` uses the larger one.
FINISH_MAX = 2
EXACT_FINISH_MAX = 8

# Std deviation of the Gaussian fed to the projection.  With a unit
# Gaussian, even a free cube clamps only P(|N(0,1)|>=1) ~ 31.7% of the
# coordinates, which can never reach the required half; at sigma = 2 the
# free-cube clamp rate is ~61.7%, so retries succeed quickly.
GAUSSIAN_SCALE = 2.0

# Bound constant for reporting: discrepancy <= C_IMPL * sqrt(n log2(2d/n))
# on the standard suite (see the acceptance tests, which enforce it).
C_IMPL = 16.0


def round_scale(k: int, d: int, c: float) -> float:
    """Movement budget c * sqrt(k * log2(2d/k)) for a round with k active."""
    return c * math.sqrt(k * math.log2(2.0 * d / k))


def _lift(Z: Zonotope, V_S: np.ndarray, a_lower, a_upper, s: float) -> Polyhedron:
    """{(a, u) : sum_i a_i v_i = A^T u, a_lower <= a <= a_upper, |u_j| <= s}."""
    k, m = V_S.shape[0], Z.m
    E = np.hstack([V_S.T, -Z.A.T])  # d rows, k+m columns
    lower = np.concatenate([a_lower, np.full(m, -s)])
    upper = np.concatenate([a_upper, np.full(m, s)])
    return Polyhedron(k + m, E, np.zeros(Z.d), lower, upper)


class PartialColoringStep(NamedTuple):
    y_new: np.ndarray
    increment: float
    scale_used: float
    c_used: float
    attempts: int
    tight_gained: int


def _doubled_scales(k: int, d: int, c0: float, failure):
    """Yield (c, round_scale(k, d, c)) for c = c0, 2 c0, ..., 2^MAX_DOUBLINGS c0,
    then raise NumericalError with the message `failure()` returns, with
    the cap appended."""
    c = c0
    for _ in range(MAX_DOUBLINGS + 1):
        yield c, round_scale(k, d, c)
        c *= 2.0
    raise NumericalError(f"{failure()}; c0 = {c0!r} doubled {MAX_DOUBLINGS} times")


def _enumeration_step(Z: Zonotope, V: VectorFamily, y: np.ndarray, c0: float,
                      offset: np.ndarray) -> PartialColoringStep:
    """Exact finish: try every sign completion x of y and keep the first
    with the least ||offset + sum_i x_i v_i||.  The scale doubles from c0
    until it covers the increment ||sum_i (y_i - x_i) v_i||.
    """
    k = y.shape[0]
    y_new = min((np.array(pattern) for pattern in itertools.product((-1.0, 1.0), repeat=k)),
                key=lambda x: zonotope_norm(Z, offset + V.V.T @ x))
    inc = zonotope_norm(Z, V.V.T @ (y - y_new))
    scales = _doubled_scales(k, Z.d, c0, lambda: f"increment {inc!r} exceeds every round scale")
    for c, s in scales:
        if inc <= s:
            return PartialColoringStep(y_new=y_new, increment=inc, scale_used=s,
                                       c_used=c, attempts=1, tight_gained=k)


def _check_input(Z: Zonotope, V: VectorFamily, c0: float) -> None:
    """The input rules that `balance` and `partial_coloring` check first."""
    if V.d != Z.d:
        raise InputError(f"vectors have dimension {V.d}, the body has {Z.d}")
    if V.n > Z.d:
        raise InputError(f"more active vectors ({V.n}) than the body's dimension ({Z.d})")
    if not (c0 > 0.0 and math.isfinite(c0)):
        raise InputError(f"c0 must be positive and finite, got {c0!r}")


def partial_coloring(Z: Zonotope, V: VectorFamily, y, c0: float = DEFAULT_C0,
                     *, rng) -> PartialColoringStep:
    """One partial-coloring round over the active coordinates.

    `V` holds the active vectors only (see `_check_input`), and `y` their
    fractional values, all strictly inside (-1, 1).  Returns the new
    fractional point (at least half its entries exact signs), the
    measured movement norm, and the accepted scale.  The scale starts at
    c0 * sqrt(k log2(2d/k)) and doubles after every RETRIES failed
    Gaussian draws from `rng`; a draw fails when its projection raises
    NumericalError (the final error counts these), when fewer than half
    the coordinates clamp, or when the movement exceeds the scale.
    """
    _check_input(Z, V, c0)
    y = np.asarray(y, dtype=float)
    k = V.n
    if y.shape != (k,):
        raise InputError("y must match the number of active vectors")
    if not np.all(np.abs(y) < 1.0):
        raise InputError("active coordinates must be strictly inside (-1, 1)")

    need = (k + 1) // 2
    attempts = 0
    failed = 0  # draws whose projection raised NumericalError
    best_count = 0
    scales = _doubled_scales(k, Z.d, c0, lambda: (
        f"partial coloring failed after {attempts} draws "
        f"(best tight count {best_count} of {need} needed); "
        f"{failed} of {attempts} projections failed"))
    for c, s in scales:
        P = _lift(Z, V.V, -1.0 - y, 1.0 - y, s)
        for _ in range(RETRIES):
            attempts += 1
            g = GAUSSIAN_SCALE * rng.standard_normal(k)
            try:
                z = project_polyhedron(g, P, z0=np.zeros(k + Z.m))
            except NumericalError:
                failed += 1
                continue
            y_new = y + z[:k]
            tight = np.abs(y_new) >= 1.0 - TOL_TIGHT
            count = int(np.count_nonzero(tight))
            if count < need:
                best_count = max(best_count, count)
                continue
            y_new[tight] = np.sign(y_new[tight])
            inc = zonotope_norm(Z, V.V.T @ (y - y_new))
            if inc > s:
                continue
            return PartialColoringStep(y_new=y_new, increment=inc, scale_used=s,
                                       c_used=c, attempts=attempts,
                                       tight_gained=count)


class RoundRecord(NamedTuple):
    index: int
    n_active: int
    scale_used: float
    c_used: float
    attempts: int
    tight_gained: int
    increment: float


class BalanceReport(NamedTuple):
    signs: np.ndarray
    discrepancy: float
    bound: float
    ratio: float
    rounds: int
    seed: int
    c0: float
    c_final: float
    log: tuple[RoundRecord, ...]
    n: int
    d: int
    m: int


def balance(Z: Zonotope, V: VectorFamily, c0: float = DEFAULT_C0,
            seed: int = 0, exact_finish: bool = False) -> BalanceReport:
    """Balance the family to exact signs by iterated partial coloring.

    `_check_input` states the rules of Z, V and c0, n <= d among them.
    Deterministic given (instance, seed, c0): the Gaussian stream is
    drawn from a fresh PCG64 generator seeded with `seed`.  Once at most
    FINISH_MAX coordinates are open (EXACT_FINISH_MAX with
    `exact_finish`), one last round tries every sign completion and keeps
    the one of least discrepancy.
    """
    _check_input(Z, V, c0)
    n, d = V.n, Z.d
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    active = np.arange(n)
    log: list[RoundRecord] = []
    c_final = c0
    while active.size:
        k = active.size
        if k <= (EXACT_FINISH_MAX if exact_finish else FINISH_MAX):
            offset = V.V.T @ y - V.V[active].T @ y[active]
            step = _enumeration_step(Z, V.restrict(active), y[active], c0, offset)
        else:
            step = partial_coloring(Z, V.restrict(active), y[active], c0=c0, rng=rng)
        # Written so that NaN fails the check too.
        if not np.all(np.abs(step.y_new) <= 1.0):
            raise NumericalError("a coloring round left the sign cube")
        y[active] = step.y_new
        active = active[np.abs(step.y_new) < 1.0]
        if active.size > k - (k + 1) // 2:
            raise NumericalError("partial coloring fixed fewer than half the coordinates")
        log.append(RoundRecord(index=len(log), n_active=k,
                               scale_used=step.scale_used, c_used=step.c_used,
                               attempts=step.attempts,
                               tight_gained=step.tight_gained,
                               increment=step.increment))
        c_final = max(c_final, step.c_used)

    discrepancy = zonotope_norm(Z, V.V.T @ y)
    bound = round_scale(n, d, 1.0)
    return BalanceReport(
        signs=y.astype(int), discrepancy=discrepancy, bound=bound,
        ratio=discrepancy / bound, rounds=len(log), seed=seed, c0=c0,
        c_final=c_final, log=tuple(log), n=n, d=d, m=Z.m,
    )
