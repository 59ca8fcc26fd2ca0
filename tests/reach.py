"""Line reach: the ``src/`` statements that no pinned run of ``cli.main``
executes, gated by an allowlist.

Runs ``bvdouble verify`` in process under ``trace`` at the configurations
that ``tests/test_golden.py`` pins and at the three benchmark configurations
(``bench/configs``, with each workload's suites), then prints, per module,
the executable lines that never ran.  Lines of a ``raise`` statement are
left out: error paths are reached by the tests, not by a report.  Module
level lines count, because tracing starts before the package is imported.

Each unrun line belongs to the innermost statement, ``except`` clause or
lambda around it, keyed by its module, its enclosing def (dotted through
classes and defs, ``<module>`` at top level) and the stripped text of its
first line.  ``tests/reach_allow.txt`` names every key that may stay unrun,
with one reason from ``REASONS``; one entry covers every statement of that
text in that def.  The tool exits 1 on an unrun statement that the list
does not name, and on a listed statement that now runs or no longer exists:

    python tests/reach.py

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import pathlib
import sys
import tempfile
import trace
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bvdouble"
ALLOWLIST = pathlib.Path(__file__).with_name("reach_allow.txt")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

# why a statement may stay unrun by every pinned run (``reach_allow.txt``
# says what each means)
REASONS = ("failure-path", "refusal", "__main__", "test-facing-api", "bench-facing-api")


# the constants of ``test_golden.py`` that name the pinned runs
_PINNED = (
    "GOLDEN_ARGV",
    "DEFAULT_ARGV",
    "OFF_DIAGONAL_CONFIG",
    "OFF_DIAGONAL_SHA256",
    "DENOMINATOR_THREE_CONFIG",
    "DENOMINATOR_THREE_SHA256",
    "RANK_THREE_CONFIG",
    "DENSE_SIX_CONFIG",
    "OTHER_AXIS_COUNTS",
)


def _golden(source: str):
    """The pinned-run constants of ``test_golden.py`` from its ``source``,
    read without importing it (its import would load the package before
    tracing starts); every other statement of the file is left unread."""
    values = {
        node.targets[0].id: node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    return types.SimpleNamespace(**{name: ast.literal_eval(values[name]) for name in _PINNED})


def _argvs(tmp: pathlib.Path):
    """The ``verify`` argument lists of the golden and benchmark runs."""
    golden = _golden((ROOT / "tests" / "test_golden.py").read_text())
    workloads = importlib.import_module("workloads")

    def runs_at(name, config, suites, extra=("--seed", "101")):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(config))
        return [["verify", "--suite", s, *extra, "--config", str(path)] for s in suites]

    runs = [golden.GOLDEN_ARGV, golden.DEFAULT_ARGV]
    runs += runs_at("off-diagonal", golden.OFF_DIAGONAL_CONFIG, golden.OFF_DIAGONAL_SHA256)
    runs += runs_at("den-three", golden.DENOMINATOR_THREE_CONFIG, golden.DENOMINATOR_THREE_SHA256)
    runs += runs_at("rank-three", golden.RANK_THREE_CONFIG, ["ym"])
    runs += runs_at("dense-six", golden.DENSE_SIX_CONFIG, ["exterior"])
    for name, (config, _) in golden.OTHER_AXIS_COUNTS.items():
        runs += runs_at(name, config, ["all"], golden.GOLDEN_ARGV[3:])
    for name, suites in workloads.WORKLOADS.items():
        config = json.loads(pathlib.Path(workloads.config_path(name)).read_text())
        runs += runs_at(f"bench-{name}", config, suites)
    return runs


def _run_all(argvs):
    main = importlib.import_module("bvdouble.cli").main
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)


def _raise_lines(tree) -> set:
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def statements(source: str) -> dict:
    """Per line of ``source`` inside a statement, ``except`` clause or lambda,
    the key (enclosing def, first-line text) of the innermost one."""
    lines = source.splitlines()
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.stmt, ast.excepthandler, ast.Lambda)):
                decorators = getattr(child, "decorator_list", ())
                first = min([child.lineno, *(d.lineno for d in decorators)])
                key = scope, lines[child.lineno - 1].strip()
                found.update(dict.fromkeys(range(first, child.end_lineno + 1), key))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def allowlist(text: str) -> list:
    """The entries (module, def, statement, reason) of an allowlist, one per
    line as ``module def reason statement``; blank and ``#`` lines are skipped,
    and a line without four fields or with a reason outside ``REASONS`` raises
    ``ValueError``."""
    entries = []
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip() and not line.lstrip().startswith("#"):
            fields = line.split(maxsplit=3)
            if len(fields) != 4 or fields[2] not in REASONS:
                raise ValueError(f"allowlist line {number} is not 'module def reason statement'")
            module, scope, reason, statement = fields
            entries.append((module, scope, statement, reason))
    return entries


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        argvs = _argvs(pathlib.Path(tmp))
        tracer = trace.Trace(count=1, trace=0)
        tracer.runfunc(_run_all, argvs)
    counts = tracer.results().counts
    total = 0
    unrun, present = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        keys = statements(source)
        ran = {line for (name, line) in counts if pathlib.Path(name) == path}
        executable = set(trace._find_executable_linenos(str(path))) - {0}
        missed = sorted(executable - ran - _raise_lines(ast.parse(source)))
        total += len(missed)
        print(f"{path.name}: {len(missed)} of {len(executable)} lines never ran")
        if missed:
            print("    " + ", ".join(map(str, missed)))
        unrun |= {(path.stem, *keys[line]) for line in missed}
        present |= {(path.stem, *key) for key in keys.values()}
    print(f"total: {total} lines never ran, over {len(argvs)} runs")
    listed = {entry[:3] for entry in allowlist(ALLOWLIST.read_text())}
    faults = [f"unrun and not in {ALLOWLIST.name}: {key}" for key in sorted(unrun - listed)]
    faults += [
        f"listed in {ALLOWLIST.name} but "
        f"{'now runs' if key in present else 'no longer exists'}: {key}"
        for key in sorted(listed - unrun)
    ]
    print("\n".join(faults) or f"every unrun statement is in {ALLOWLIST.name}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
