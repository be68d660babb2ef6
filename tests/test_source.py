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
