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


def _unused_relative_imports(path):
    """Names a relative import brings into one module that the module neither
    uses nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.asname or alias.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_relative_imports():
    assert SOURCES and [u for path in SOURCES for u in _unused_relative_imports(path)] == []


def test_the_unused_import_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from .a import used, unused, exported\n__all__ = ['exported']\nused()\n"
    )
    assert _unused_relative_imports(module) == ["mod.py:1: unused"]
