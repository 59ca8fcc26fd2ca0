"""Line reach: the ``src/`` lines that no pinned run of ``cli.main`` executes.

Runs ``bvdouble verify`` in process under ``trace`` at the configurations
that ``tests/test_golden.py`` pins and at the three benchmark configurations
(``bench/configs``, with each workload's suites), then prints, per module,
the executable lines that never ran.  Lines of a ``raise`` statement are
left out: error paths are reached by the tests, not by a report.  Module
level lines count, because tracing starts before the package is imported.

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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        argvs = _argvs(pathlib.Path(tmp))
        tracer = trace.Trace(count=1, trace=0)
        tracer.runfunc(_run_all, argvs)
    counts = tracer.results().counts
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = {line for (name, line) in counts if pathlib.Path(name) == path}
        executable = set(trace._find_executable_linenos(str(path))) - {0}
        missed = sorted(executable - ran - _raise_lines(ast.parse(path.read_text())))
        total += len(missed)
        print(f"{path.name}: {len(missed)} of {len(executable)} lines never ran")
        if missed:
            print("    " + ", ".join(map(str, missed)))
    print(f"total: {total} lines never ran, over {len(argvs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
