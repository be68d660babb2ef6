"""Plain-text instance files and the built-in instance generators.

Format: comment lines start with '#', blank lines are skipped.  The
first data line is the header `d m n`, followed by m generator rows of
d decimals, n vector rows of d decimals, and optionally a line holding
the single token `U` followed by n preimage rows of m decimals.
Numbers serialize with Python's shortest round-trip representation, so
parse(serialize(x)) reproduces every field bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError, ParseError


class InstanceFile(NamedTuple):
    A: np.ndarray            # (m, d) generator rows
    V: np.ndarray            # (n, d) vector rows
    U: np.ndarray | None = None  # (n, m) preimage rows, optional

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.V.shape[0]


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped


def _parse_row(lineno: int, line: str, expected: int, what: str) -> list[float]:
    tokens = line.split()
    if len(tokens) != expected:
        raise ParseError(
            f"{what} row has {len(tokens)} entries, expected {expected}", lineno)
    values = []
    for col, tok in enumerate(tokens, start=1):
        try:
            v = float(tok)
        except ValueError:
            raise ParseError(f"column {col}: {tok!r} is not a number", lineno)
        if math.isnan(v) or math.isinf(v):
            raise ParseError(f"column {col}: NaN/Inf not allowed", lineno)
        values.append(v)
    return values


def parse_instance(text: str) -> InstanceFile:
    """Parse instance text; raises ParseError with the offending line."""
    lines = list(_data_lines(text))
    if not lines:
        raise ParseError("empty instance: missing header line")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 3:
        raise ParseError("header must be three integers: d m n", lineno)
    try:
        d, m, n = (int(t) for t in tokens)
    except ValueError:
        raise ParseError(f"header entries must be integers, got {header!r}", lineno)
    if d < 1 or m < 1 or n < 1:
        raise ParseError("header entries must be positive", lineno)

    body = lines[1:]
    need = m + n
    if len(body) < need:
        missing = lines[-1][0]
        raise ParseError(
            f"expected {m} generator and {n} vector rows, file ends early", missing)
    A = np.array([_parse_row(ln, s, d, "generator") for ln, s in body[:m]])
    V = np.array([_parse_row(ln, s, d, "vector") for ln, s in body[m:m + n]])
    rest = body[m + n:]
    U = None
    if rest:
        lineno, sentinel = rest[0]
        if sentinel != "U":
            raise ParseError(
                f"unexpected content after vectors: {sentinel!r} "
                "(expected the preimage sentinel 'U' or end of file)", lineno)
        if len(rest) - 1 < n:
            raise ParseError(f"expected {n} preimage rows after 'U'", lineno)
        if len(rest) - 1 > n:
            raise ParseError("trailing content after the preimage block",
                             rest[n + 1][0])
        U = np.array([_parse_row(ln, s, m, "preimage") for ln, s in rest[1:n + 1]])
    return InstanceFile(A=A, V=V, U=U)


def serialize_instance(inst: InstanceFile) -> str:
    """Render an instance back to text; floats use their shortest repr."""
    def row(values) -> str:
        return " ".join(repr(float(v)) for v in values)

    out = [f"{inst.d} {inst.m} {inst.n}"]
    out.extend(row(r) for r in inst.A)
    out.extend(row(r) for r in inst.V)
    if inst.U is not None:
        out.append("U")
        out.extend(row(r) for r in inst.U)
    return "\n".join(out) + "\n"


KINDS = ("cube", "spencer-random", "random-zonotope", "duplicated")


def check_kind(kind: str, d: int, m: int | None, n: int) -> int:
    """The rules of an instance kind; returns the generator count m.

    The identity kinds (all but random-zonotope) take m = d, and
    random-zonotope needs an m.  Every kind needs n, d >= 1 and d <= m,
    cube n <= d, and duplicated an even n.  Violations raise InputError.
    """
    if kind not in KINDS:
        raise InputError(f"unknown instance kind {kind!r}; choose from {KINDS}")
    if kind != "random-zonotope":
        m = d if m is None else m
        if m != d:
            raise InputError(f"kind {kind!r} uses the identity generators; m must equal d")
    if m is None:
        raise InputError("generator count m is required for random-zonotope")
    if not (n >= 1 and 1 <= d <= m) or (kind == "cube" and n > d):
        raise InputError(f"need n, d, m at least 1, d <= m, and n <= d for cube: n={n} d={d} m={m}")
    if kind == "duplicated" and n % 2 != 0:
        raise InputError("duplicated instances need an even vector count")
    return m


def generate_instance(kind: str, d: int, m: int | None, n: int, rng) -> InstanceFile:
    """Built-in instance families; `check_kind` states their rules.

    cube: identity generators, the first n <= d coordinate vectors.
    spencer-random: identity generators, vectors uniform in the cube.
    random-zonotope: sign-matrix generators rescaled to unit rows,
        vectors built from uniform cube preimages (stored in the file).
    duplicated: identity generators, consecutive equal pairs of uniform
        cube vectors, so the optimal discrepancy is exactly zero.
    """
    m = check_kind(kind, d, m, n)
    if kind == "cube":
        return InstanceFile(A=np.eye(d), V=np.eye(d)[:n].copy())
    if kind == "spencer-random":
        return InstanceFile(A=np.eye(d), V=rng.uniform(-1.0, 1.0, (n, d)))
    if kind == "duplicated":
        base = rng.uniform(-1.0, 1.0, (n // 2, d))
        return InstanceFile(A=np.eye(d), V=np.repeat(base, 2, axis=0))
    # random-zonotope
    while True:
        A = rng.choice([-1.0, 1.0], size=(m, d)) / math.sqrt(d)
        if np.linalg.matrix_rank(A) == d:
            break
    U = rng.uniform(-1.0, 1.0, (n, m))
    return InstanceFile(A=A, V=U @ A, U=U)
