"""Balancing sign assignments for vectors inside an arbitrary zonotope.

Given generators A (the zonotope is the image of the sign cube under
A^T) and vectors v_1..v_n drawn from that body, `balance` computes signs
x in {-1, +1}^n whose signed sum stays within a sqrt(n log2(2d/n))
multiple of the body, via iterated partial coloring.  Supporting pieces:
zonotope gauges, the Lewis position of the polar body, exhaustive and
sampling-based verification oracles, plus a plain-text instance format
and a CLI.
"""

from .coloring import (
    BalanceReport,
    PartialColoringStep,
    RoundRecord,
    balance,
    partial_coloring,
    round_scale,
)
from .convex import LpSolution, Polyhedron, lp_solve, project_polyhedron
from .errors import (
    InputError,
    MembershipError,
    NumericalError,
    ParseError,
    SpanError,
    ZonobalanceError,
)
from .instancefile import InstanceFile, generate_instance, parse_instance, serialize_instance
from .lewis import (
    InclusionReport,
    LewisPosition,
    check_inclusions,
    k1_norm,
    lewis_position,
    lewis_transform,
)
from .verify import (
    OracleResult,
    WidthEstimate,
    bound_report,
    brute_force_min_discrepancy,
    polar_identity_check,
    width_estimate,
)
from .zonotope import (
    BasisChange,
    VectorFamily,
    Zonotope,
    polar_norm,
    preprocess,
    reduce_generators,
    zonotope_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceReport", "BasisChange", "InclusionReport", "InputError", "InstanceFile",
    "LewisPosition", "LpSolution", "MembershipError", "NumericalError",
    "OracleResult", "ParseError", "PartialColoringStep", "Polyhedron",
    "RoundRecord", "SpanError", "VectorFamily", "WidthEstimate", "Zonotope",
    "ZonobalanceError", "balance", "bound_report",
    "brute_force_min_discrepancy", "check_inclusions",
    "generate_instance", "k1_norm", "lewis_position", "lewis_transform", "lp_solve",
    "parse_instance", "partial_coloring", "polar_identity_check", "polar_norm",
    "preprocess", "project_polyhedron", "reduce_generators",
    "round_scale", "serialize_instance", "width_estimate", "zonotope_norm",
]
