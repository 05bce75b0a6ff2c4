"""The library imports nothing outside the standard library; numpy, scipy,
mpmath and sympy serve the tests as oracles only.  Every error it raises is
a class of ``fanokit.errors``."""
import ast
import sys
from pathlib import Path

import pytest

import fanokit
from fanokit import errors

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


ALLOWED_RAISES = {name for name, value in vars(errors).items() if isinstance(value, type)}


def _raises(source):
    """(raise node, the name of the class it raises) for each raise in ``source``."""
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue   # a bare raise re-raises what it caught
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        yield node, exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_every_raise_names_an_errors_class(source):
    foreign = [f"line {node.lineno}: {ast.unparse(node.exc)[:60]}"
               for node, name in _raises(source) if name not in ALLOWED_RAISES]
    assert not foreign, f"{source.name} raises {foreign}"


def test_every_errors_class_is_raised():
    # a class whose last raiser went is dead code; the root is only caught
    raised = {name for source in SOURCES for _, name in _raises(source)}
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.FanokitError)}
    assert classes - raised - {"FanokitError"} == set()
