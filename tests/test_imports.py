"""The package runs on the standard library alone."""

import ast
import pathlib
import sys

import bvdouble

SOURCES = sorted(pathlib.Path(bvdouble.__file__).parent.glob("*.py"))


def _absolute_imports(path):
    """(line, top-level module) for every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_stdlib_or_package_relative():
    assert SOURCES
    outside = [
        f"{path.name}:{line}: {module}"
        for path in SOURCES
        for line, module in _absolute_imports(path)
        if module not in sys.stdlib_module_names
    ]
    assert outside == []


def test_no_function_imports():
    # imports sit at module top, where an import cycle shows at once
    inside = [
        f"{path.name}:{node.lineno}: in {fn.name}"
        for path in SOURCES
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert SOURCES and inside == []


def test_no_assert_statements():
    # ``python -O`` strips asserts, so no check of the package may be one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def test_every_draw_goes_through_randbelow():
    # ``scalars.randbelow`` is the one int draw; a stray ``rng.choice`` or
    # ``rng.randint`` would be slower and could drift off the locked stream
    found = [
        f"{path.name}:{node.lineno}: .{node.func.attr}("
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("choice", "randint", "randrange")
    ]
    assert SOURCES and found == []
