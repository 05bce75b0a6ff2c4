"""The library imports nothing outside the standard library; numpy, scipy,
mpmath and sympy serve the tests as oracles only."""
import ast
import sys
from pathlib import Path

import pytest

import fanokit

SOURCES = sorted(Path(fanokit.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_relative_or_stdlib(source):
    outside = []
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{source.name} imports {outside}"
