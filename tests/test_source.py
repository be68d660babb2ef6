"""Checks on the library source itself."""

import ast
import importlib
from pathlib import Path

import pytest

import zonobalance

SRC = Path(zonobalance.__file__).resolve().parent


def test_no_assert_statements():
    # Failures are typed errors: `python -O` strips assert statements,
    # and with them any check they make.  The test itself fails through
    # pytest.fail, so that it also holds when run under -O.
    paths = sorted(SRC.glob("*.py"))
    if not paths:
        pytest.fail(f"no library source found in {SRC}")
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    if found:
        pytest.fail("assert statements in the library: " + ", ".join(found))


def test_console_script_resolves_to_a_callable():
    # The test runs import the package from the source tree, so this is
    # what checks the entry point that an install would write.
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent.parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip(f"no pyproject.toml next to the source tree {SRC}")
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"zonobalance": "zonobalance.cli:main"}
    module, _, attr = scripts["zonobalance"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


PUBLIC = [
    "BalanceReport", "BasisChange", "InputError", "InstanceFile", "LewisPosition",
    "MembershipError", "NumericalError", "OracleResult", "ParseError", "RoundRecord",
    "SpanError", "VectorFamily", "WidthEstimate", "ZonobalanceError", "Zonotope",
    "balance", "brute_force_min_discrepancy", "generate_instance", "lewis_position",
    "parse_instance", "polar_identity_check", "polar_norm", "preprocess",
    "reduce_generators", "serialize_instance", "width_estimate", "zonotope_norm",
]

# Names that import from their modules only: the solvers, the round
# primitive and the Lewis sandwich checks.
MODULE_ONLY = {
    "convex": ["LpSolution", "Polyhedron", "lp_solve", "project_polyhedron"],
    "coloring": ["PartialColoringStep", "partial_coloring", "round_scale"],
    "lewis": ["InclusionReport", "check_inclusions", "k1_norm"],
}


def test_public_surface():
    assert sorted(zonobalance.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(zonobalance, name), name
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert not hasattr(zonobalance, name), name
            assert hasattr(importlib.import_module(f"zonobalance.{module}"), name), name
    assert not hasattr(zonobalance, "bound_report")
