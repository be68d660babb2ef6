"""Balancing sign assignments for vectors inside an arbitrary zonotope.

Given generators A (the zonotope is the image of the sign cube under
A^T) and vectors v_1..v_n drawn from that body, `balance` computes signs
x in {-1, +1}^n whose signed sum stays within a sqrt(n log2(2d/n))
multiple of the body, via iterated partial coloring.  The package
exports that driver and what its users call around it: zonotope gauges,
the Lewis position of the polar body, the exhaustive and sampling-based
verification oracles, and the plain-text instance format.  The solvers
(`zonobalance.convex`), the partial-coloring round
(`zonobalance.coloring`) and the Lewis sandwich checks
(`zonobalance.lewis`) import from their modules, and `zonobalance.cli`
writes all text output.
"""

from .coloring import BalanceReport, RoundRecord, balance
from .errors import (
    InputError,
    MembershipError,
    NumericalError,
    ParseError,
    SpanError,
    ZonobalanceError,
)
from .instancefile import InstanceFile, generate_instance, parse_instance, serialize_instance
from .lewis import LewisPosition, lewis_position
from .verify import (
    OracleResult,
    WidthEstimate,
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
    "BalanceReport", "BasisChange", "InputError", "InstanceFile",
    "LewisPosition", "MembershipError", "NumericalError", "OracleResult",
    "ParseError", "RoundRecord", "SpanError", "VectorFamily",
    "WidthEstimate", "Zonotope", "ZonobalanceError", "balance",
    "brute_force_min_discrepancy", "generate_instance", "lewis_position",
    "parse_instance", "polar_identity_check", "polar_norm", "preprocess",
    "reduce_generators", "serialize_instance", "width_estimate",
    "zonotope_norm",
]
