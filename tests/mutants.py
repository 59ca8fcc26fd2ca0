"""Mutation runner: flip one ``+``, ``-``, unary minus or bound in ``src/`` at a time.

A site is one ``+`` or ``-`` of a binary expression or an augmented
assignment, one unary minus, one order comparison (``<``, ``<=``, ``>``,
``>=``), one list named ``plus`` or ``minus`` that an ``append``,
``extend`` or ``+=`` adds to, or one ``sum_of_products(dim, pairs[,
negated])`` or ``integral_of_products(dim, pairs[, negated])`` call with two
or three positional arguments and no star.  Its
mutant is the source with exactly that node changed: ``+`` and ``-`` (``+=``
and ``-=``) swap, a unary minus is dropped, a comparison moves its bound by
one (``<`` and ``<=`` swap, as do ``>`` and ``>=``), ``plus`` and ``minus``
swap, so that the pairs go to the other list of a fused ``sum_of_products``
kernel and enter with the other sign, and a call's ``pairs`` and
``negated`` arguments swap (a missing ``negated`` is ``()``), so that every
product of the call enters with the other sign.  Sites are named
``FILE:LINE:COL`` by the position of their operator, list name or called
name, with FILE relative to ``src/``.

    python tests/mutants.py --list [--file bvdouble/suites.py]
    python tests/mutants.py --sample 20 --seed 0 --out table.md -- python -m pytest -q
    python tests/mutants.py --site bvdouble/suites.py:320:12 -- \\
        python -m bvdouble verify --suite all --samples 3

The runner copies the repository (without ``.git`` and caches) to a
temporary directory, runs COMMAND there once unmutated and then once per
mutant, one mutant at a time, with ``PYTHONPATH`` on the copy's ``src``, and
restores each file before the next mutant.  A mutant run may take
``_LIMIT_FACTOR`` times the unmutated run's wall time, and at least
``_LIMIT_FLOOR_S`` seconds; one that runs longer (a flipped loop step can
loop for ever) is stopped and shown as "killed (timeout)".  The kill table
gives, per site, the exit status, the pytest tests that went red (from
``FAILED`` lines) and the report rows that went red (when COMMAND prints a
``verify`` report), each beside the unmutated run's.  A survivor is either a gap in the checks or an
equivalent mutant, which the reader names.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
_FLIP = {"+": "-", "-": "+", "+=": "-=", "-=": "+="}
_BOUND = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_SWAP = {"plus": "minus", "minus": "plus"}
_PRODUCTS = ("sum_of_products", "integral_of_products")
_SKIPPED = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}
# the unmutated run's limit; each mutant's is derived from its wall time
_TIMEOUT_S = 3600
_LIMIT_FACTOR = 10
_LIMIT_FLOOR_S = 30


class Site:
    """One operator, list name or called name: ``rel`` is the file under ``src/``,
    ``line`` is 1-based and ``col`` a character offset into that line."""

    __slots__ = ("rel", "line", "col", "unary", "swap", "bound", "operands")

    def __init__(
        self,
        rel: str,
        line: int,
        col: int,
        unary: bool,
        swap: bool = False,
        bound: bool = False,
        operands: bool = False,
    ):
        self.rel, self.line, self.col, self.unary = rel, line, col, unary
        self.swap, self.bound, self.operands = swap, bound, operands

    def __str__(self):
        return f"{self.rel}:{self.line}:{self.col}"


def _operator_tokens(source: str) -> list:
    """(line, byte column, text) of every ``+``, ``-``, ``+=``, ``-=`` and
    order comparison token."""
    return [
        (tok.start[0], len(tok.line[: tok.start[1]].encode()), tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.OP and (tok.string in _FLIP or tok.string in _BOUND)
    ]


def _between(tokens, lhs, rhs):
    """The operator token between two operands: only brackets, comments and
    line breaks lie between them besides the operator itself.  None inside
    an f-string, which is one token."""
    start, end = (lhs.end_lineno, lhs.end_col_offset), (rhs.lineno, rhs.col_offset)
    return next((t for t in tokens if start <= t[:2] < end), None)


def _swapped_list(node):
    """The ``plus`` or ``minus`` name whose list ``node`` adds to, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        target = node.func.value if node.func.attr in ("append", "extend") else None
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
        target = node.target
    else:
        return None
    while isinstance(target, ast.Subscript):
        target = target.value
    return target if isinstance(target, ast.Name) and target.id in _SWAP else None


def _product_call(node):
    """The (line, byte column) of the called name when ``node`` is a
    ``sum_of_products`` or ``integral_of_products`` call whose pair lists
    can be swapped, else None."""
    if not isinstance(node, ast.Call) or node.keywords or len(node.args) not in (2, 3):
        return None
    if any(isinstance(arg, ast.Starred) for arg in node.args):
        return None
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name not in _PRODUCTS:
        return None
    return func.end_lineno, func.end_col_offset - len(name)


def _swap_operands(source: str, site: Site) -> str:
    """The source with the ``pairs`` and ``negated`` arguments of the
    ``sum_of_products`` or ``integral_of_products`` call at ``site``
    swapped."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def at(line, byte_col):
        return starts[line - 1] + len(lines[line - 1].encode()[:byte_col].decode())

    for node in ast.walk(ast.parse(source)):
        name = _product_call(node)
        if name is None or at(*name) != at(site.line, 0) + site.col:
            continue
        pairs, *negated = node.args[1:]
        p0, p1 = at(pairs.lineno, pairs.col_offset), at(pairs.end_lineno, pairs.end_col_offset)
        if not negated:
            return source[:p0] + "(), " + source[p0:]
        (neg,) = negated
        n0, n1 = at(neg.lineno, neg.col_offset), at(neg.end_lineno, neg.end_col_offset)
        return source[:p0] + source[n0:n1] + source[p1:n0] + source[p0:p1] + source[n1:]
    raise ValueError(f"no {' or '.join(_PRODUCTS)} call at {site}")


def sites_in(source: str, rel: str) -> list:
    """Every mutable site of one file, in source order."""
    lines = source.splitlines(keepends=True)
    tokens = _operator_tokens(source)
    found = set()
    swaps = set()
    bounds = set()
    calls = set()
    for node in ast.walk(ast.parse(source)):
        name = _swapped_list(node)
        if name is not None:
            swaps.add((name.lineno, name.col_offset))
        call = _product_call(node)
        if call is not None:
            calls.add(call)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            found.add((node.lineno, node.col_offset, True))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            lhs = node.left if isinstance(node, ast.BinOp) else node.target
            rhs = node.right if isinstance(node, ast.BinOp) else node.value
            op = _between(tokens, lhs, rhs)
            if op is not None:
                found.add((op[0], op[1], False))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for lhs, cmp, rhs in zip(operands, node.ops, operands[1:]):
                op = _between(tokens, lhs, rhs) if isinstance(cmp, _ORDER) else None
                if op is not None:
                    bounds.add(op[:2])
    out = []
    for line, col, unary in sorted(found):
        raw = lines[line - 1].encode()
        if unary and raw[col : col + 1] != b"-":
            continue
        out.append(Site(rel, line, len(raw[:col].decode()), unary))
    for line, col in swaps | bounds | calls:
        raw = lines[line - 1].encode()
        kind = "bound" if (line, col) in bounds else "operands" if (line, col) in calls else "swap"
        out.append(Site(rel, line, len(raw[:col].decode()), False, **{kind: True}))
    return sorted(out, key=lambda site: (site.line, site.col))


def mutate(source: str, site: Site) -> str:
    """The source with the operator at ``site`` flipped or dropped, its
    bound moved, its list name swapped, or its call's pair lists swapped."""
    if site.operands:
        return _swap_operands(source, site)
    lines = source.splitlines(keepends=True)
    line = lines[site.line - 1]
    head, tail = line[: site.col], line[site.col :]
    if site.swap:
        name = next((n for n in _SWAP if tail.startswith(n)), None)
        if name is None or tail[len(name) : len(name) + 1].isidentifier():
            raise ValueError(f"no plus or minus list at {site}")
        tail = _SWAP[name] + tail[len(name) :]
    elif site.bound:
        op = next((o for o in ("<=", ">=", "<", ">") if tail.startswith(o)), None)
        if op is None or tail[len(op) : len(op) + 1] in ("<", ">", "="):
            raise ValueError(f"no order comparison at {site}")
        tail = _BOUND[op] + tail[len(op) :]
    elif site.unary:
        if not tail.startswith("-"):
            raise ValueError(f"no unary minus at {site}")
        tail = tail[1:]
    else:
        op = next((o for o in ("+=", "-=", "+", "-") if tail.startswith(o)), None)
        if op is None:
            raise ValueError(f"no + or - at {site}")
        tail = _FLIP[op] + tail[len(op) :]
    lines[site.line - 1] = head + tail
    return "".join(lines)


def node_diffs(a, b) -> list:
    """The (old, new) pairs at which two syntax trees differ; positions
    are attributes, not fields, so they do not count."""
    if type(a) is not type(b):
        return [(a, b)]
    if isinstance(a, ast.AST):
        return [d for field in a._fields for d in node_diffs(getattr(a, field), getattr(b, field))]
    if isinstance(a, list):
        if len(a) != len(b):
            return [(a, b)]
        return [d for x, y in zip(a, b) for d in node_diffs(x, y)]
    return [] if a == b else [(a, b)]


def all_sites(src: Path, files=None) -> list:
    paths = [src / rel for rel in files] if files else sorted(src.rglob("*.py"))
    return [
        site
        for path in paths
        for site in sites_in(path.read_text(encoding="utf-8"), path.relative_to(src).as_posix())
    ]


def pick(sites: list, chosen=(), sample=None, seed=0) -> list:
    """The named sites, else a seeded sample of ``sample`` sites in source order."""
    if chosen:
        by_name = {str(site): site for site in sites}
        missing = [name for name in chosen if name not in by_name]
        if missing:
            raise SystemExit(f"unknown sites: {', '.join(missing)}")
        return [by_name[name] for name in chosen]
    if sample is None:
        raise SystemExit("name sites with --site or pick them with --sample")
    picked = set(random.Random(seed).sample(range(len(sites)), min(sample, len(sites))))
    return [site for i, site in enumerate(sites) if i in picked]


def _outcome(proc) -> dict:
    tests = sorted(
        line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")
    )
    rows = []
    try:
        payload = json.loads(proc.stdout)
    except ValueError:
        payload = None
    if isinstance(payload, dict):
        for report in payload.get("suites", [payload]):
            rows += [
                f"{report['suite']}/{row['id']}"
                for row in report.get("identities", [])
                if not row["passed"]
            ]
    return {"exit": proc.returncode, "tests": tests, "rows": rows}


def run(sites: list, command: list) -> tuple:
    """Run ``command`` on a copy of the repository: unmutated, then once per site."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=lambda _, names: [n for n in names if n in _SKIPPED])
        src = copy / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        # no bytecode cache: a flip keeps the file's size, so a cached mutant
        # written in the same second as the next one could be reused
        env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}

        def attempt(limit):
            try:
                proc = subprocess.run(
                    command, cwd=copy, env=env, capture_output=True, text=True, timeout=limit
                )
            except subprocess.TimeoutExpired:
                return {"exit": "timeout", "tests": [], "rows": []}
            return _outcome(proc)

        start = perf_counter()
        baseline = attempt(_TIMEOUT_S)
        limit = mutant_limit(perf_counter() - start)
        results = []
        for site in sites:
            target = src / site.rel
            original = target.read_text(encoding="utf-8")
            target.write_text(mutate(original, site), encoding="utf-8")
            try:
                results.append((site, original.splitlines()[site.line - 1].strip(), attempt(limit)))
            finally:
                target.write_text(original, encoding="utf-8")
        return baseline, results


def mutant_limit(baseline_s: float) -> float:
    """The time limit of one mutant run, from the unmutated run's wall time."""
    return max(_LIMIT_FLOOR_S, _LIMIT_FACTOR * baseline_s)


def _kind(site: Site, unary, swap, bound, operands, flip):
    if site.operands:
        return operands
    return unary if site.unary else swap if site.swap else bound if site.bound else flip


def table(baseline: dict, results: list, command: list) -> str:
    def cell(items, base):
        new = [item for item in items if item not in base]
        return ", ".join(f"`{item}`" for item in new) or "—"

    out = [
        f"Command: `{' '.join(command)}`; unmutated exit {baseline['exit']}, "
        f"{len(baseline['tests'])} red tests, {len(baseline['rows'])} red rows.",
        "",
        "| site | mutation | line | exit | new red tests | new red rows |",
        "|---|---|---|---|---|---|",
    ]
    for site, line, got in results:
        change = _kind(
            site, "drop unary -", "swap plus/minus", "move bound", "swap pairs/negated", "flip +/-"
        )
        killed = got["exit"] != baseline["exit"] or got["tests"] != baseline["tests"] or (
            got["rows"] != baseline["rows"]
        )
        if got["exit"] == "timeout":
            status = "killed (timeout)"
        else:
            status = f"{got['exit']}" + ("" if killed else " (survived)")
        out.append(
            f"| `{site}` | {change} | `{line.replace('|', '&#124;')}` | {status} | "
            f"{cell(got['tests'], baseline['tests'])} | {cell(got['rows'], baseline['rows'])} |"
        )
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--file", action="append", help="a file under src/ (default: all)")
    parser.add_argument("--site", action="append", default=[], help="FILE:LINE:COL")
    parser.add_argument("--sample", type=int, help="mutate this many seeded sites")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--list", action="store_true", help="print the sites and stop")
    parser.add_argument("--out", help="write the kill table here (default: stdout)")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    sites = all_sites(ROOT / "src", args.file)
    if args.list:
        for site in sites:
            print(site, _kind(site, "(unary -)", "(plus/minus)", "(bound)", "(pairs/negated)", ""))
        return 0
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("give the command to run after --")
    chosen = pick(sites, args.site, args.sample, args.seed)
    baseline, results = run(chosen, command)
    text = table(baseline, results, command)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
