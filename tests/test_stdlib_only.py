"""The library imports nothing outside the standard library; numpy, scipy,
mpmath and sympy serve the tests as oracles only.  Every error it raises is
a class of ``fanokit.errors``."""
import ast
import sys
from collections import Counter
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


# library names that no library code reads yet, each with the planned work that reads it
UNREFERENCED = {
    "weighted_p112_polytope": "a golden sx row for a weighted projective plane (ROADMAP item 14)",
    "weighted_p113_polytope": "a golden sx row for a weighted projective plane (ROADMAP item 14)",
    "weighted_p112_centered": "the surface oracle of S(X) (ROADMAP item 8)",
}


def test_every_library_name_is_referenced():
    """Every def and class in the library but a dunder is read somewhere in the
    library outside its own body: as a name, an attribute or an import.  The
    check goes by name only, so a method that shares its name with an attribute
    read anywhere in the library passes."""
    trees = [ast.parse(source.read_text(encoding="utf-8")) for source in SOURCES]

    def references(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name.split(".")[-1]

    everywhere = Counter(name for tree in trees for name in references(tree))
    unread = {node.name for tree in trees for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and everywhere[node.name] == Counter(references(node))[node.name]}
    assert not unread - UNREFERENCED.keys(), \
        f"no library code reads {sorted(unread - UNREFERENCED.keys())}"
    # an exception leaves the list once the library reads it
    assert UNREFERENCED.keys() <= unread, f"read now: {sorted(UNREFERENCED.keys() - unread)}"


def test_all_names_resolve():
    # the exported API names only what the package defines
    assert [name for name in fanokit.__all__ if not hasattr(fanokit, name)] == []
