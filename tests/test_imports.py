"""The package runs on the standard library alone."""

import ast
import pathlib
import sys

import bvdouble

SOURCES = sorted(pathlib.Path(bvdouble.__file__).parent.glob("*.py"))
# the files outside the package that may use its public names; tests do not
# count, so API that only tests call fails the check below
CLIENTS = sorted((pathlib.Path(__file__).parents[1] / "bench").glob("*.py"))


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
    # every int is drawn as ``scalars.randbelow`` draws it, on ``getrandbits``;
    # a stray ``rng.choice`` or ``rng.randint`` would be slower and could
    # drift off the locked stream
    found = [
        f"{path.name}:{node.lineno}: .{node.func.attr}("
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("choice", "randint", "randrange")
    ]
    assert SOURCES and found == []


def _exported(tree):
    """The names listed in a module's ``__all__``."""
    return [
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]


def _referenced(tree):
    """Every identifier a file refers to by name, attribute or import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _referenced_outside(tree, name):
    """Every identifier a module refers to outside the top-level definition of ``name``."""
    found = set()
    for node in tree.body:
        defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if not (defines and node.name == name):
            found |= _referenced(node)
    return found


def _unused_public_names(modules, clients):
    """``file: name`` for every name in a module's ``__all__`` that no other
    module, no client file and no code of its own module outside its
    definition refers to."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in modules + clients}
    refs = {path: _referenced(tree) for path, tree in trees.items()}
    return [
        f"{path.name}: {name}"
        for path in modules
        for name in _exported(trees[path])
        if not any(name in used for other, used in refs.items() if other != path)
        and name not in _referenced_outside(trees[path], name)
    ]


def test_every_public_name_is_used():
    # delete unused API rather than keep it "just in case"
    assert CLIENTS and _unused_public_names(SOURCES, CLIENTS) == []


def test_the_unused_public_name_check_sees_an_unused_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['used', 'attr', 'own', 'recursive', 'tested', 'unused']\n"
        "def own(): pass\n"
        "def recursive(): return recursive()\n"
        "def helper(): return own()\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\nused()\n")
    (tmp_path / "client.py").write_text("import a\na.attr()\n")
    (tmp_path / "test_a.py").write_text("from a import tested\ntested()\n")
    modules = [tmp_path / "a.py", tmp_path / "b.py"]
    assert _unused_public_names(modules, [tmp_path / "client.py"]) == [
        "a.py: recursive",
        "a.py: tested",
        "a.py: unused",
    ]


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
    used.update(_exported(tree))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_relative_imports():
    assert SOURCES and [u for path in SOURCES for u in _unused_relative_imports(path)] == []


def test_the_unused_import_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from .a import used, unused, exported\n__all__ = ['exported']\nused()\n"
    )
    assert _unused_relative_imports(module) == ["mod.py:1: unused"]


def _terms_readers(paths):
    """``file:line`` for every use of the attribute ``_terms`` in the files:
    a ``._terms`` access, or the string ``"_terms"`` (as ``getattr`` takes it)."""
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "_terms")
        or (isinstance(node, ast.Constant) and node.value == "_terms")
    ]


def test_only_scalars_reads_the_coefficient_triples():
    # ``FourierScalar._terms`` holds raw (a, b, d) int triples; every other
    # module sees coefficients as ``GaussRational``s through ``coeffs``
    scalars = pathlib.Path(bvdouble.__file__).parent / "scalars.py"
    others = [path for path in SOURCES + CLIENTS if path != scalars]
    assert scalars in SOURCES and _terms_readers([scalars])
    assert others and _terms_readers(others) == []


def test_the_terms_check_sees_every_read(tmp_path):
    (tmp_path / "reads.py").write_text(
        "def f(x):\n"
        "    n = len(x._terms)\n"
        "    return getattr(x, '_terms'), n\n"
    )
    (tmp_path / "clean.py").write_text(
        '"""Mentions _terms in a docstring."""\n'
        "_terms = 1\n"
        "def g(x):\n"
        "    return x.coeffs, x._terms_seen, _terms\n"
    )
    assert _terms_readers([tmp_path / "reads.py", tmp_path / "clean.py"]) == [
        "reads.py:2",
        "reads.py:3",
    ]


# the one home of the entrywise linear structure, and the two scalar rings below it
_LINEAR_OPERATORS = {"__add__", "__radd__", "__sub__", "__neg__", "is_zero"}
_LINEAR_HOMES = {"Linear", "FourierScalar", "GaussRational"}


def _linear_operator_owners(paths):
    """``file:Class.name`` for each class body that defines (or aliases) one of
    ``_LINEAR_OPERATORS``."""
    found = []
    for path in paths:
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [f"{path.name}:{cls.name}.{n}" for n in names if n in _LINEAR_OPERATORS]
    return found


def test_one_home_for_the_linear_structure():
    # every module over the scalars (sections, graded elements, forms, grids)
    # takes its sum, difference, negation and zero test from ``Linear``
    owners = _linear_operator_owners(SOURCES)
    assert {o.partition(":")[2].partition(".")[0] for o in owners} == _LINEAR_HOMES, owners


def test_the_linear_structure_check_sees_every_definition(tmp_path):
    (tmp_path / "own.py").write_text(
        "class A:\n"
        "    def __neg__(self):\n"
        "        return self\n"
        "    def is_zero(self):\n"
        "        return False\n"
        "    __radd__ = __neg__\n"
        "class B:\n"
        "    def __mul__(self, c):\n"
        "        return self\n"
        "    parts = None\n"
        "def __add__(x, y):\n"
        "    return x\n"
    )
    assert _linear_operator_owners([tmp_path / "own.py"]) == [
        "own.py:A.__neg__",
        "own.py:A.is_zero",
        "own.py:A.__radd__",
    ]
