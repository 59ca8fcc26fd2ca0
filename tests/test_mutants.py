"""The mutation runner in ``tests/mutants.py`` builds one-node mutants.

These checks read and parse files only; they start no process (the run
check replaces ``subprocess.run``).
"""

import ast
import pathlib
import subprocess

import pytest

import mutants

SRC = pathlib.Path(mutants.__file__).resolve().parents[1] / "src"
SITES = mutants.all_sites(SRC)


def _operator_nodes(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
        or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Add, ast.Sub))
    ]


def _order_comparisons(tree):
    return [
        op
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for op in node.ops
        if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
    ]


def test_sites_cover_the_operators_outside_f_strings():
    by_file = {}
    for site in (s for s in SITES if not s.swap and not s.bound and not s.operands):
        by_file[site.rel] = by_file.get(site.rel, 0) + 1
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = _operator_nodes(tree)
        in_f_strings = {
            id(node)
            for joined in ast.walk(tree)
            if isinstance(joined, ast.JoinedStr)
            for node in _operator_nodes(joined)
        }
        rel = path.relative_to(SRC).as_posix()
        assert by_file.get(rel, 0) == len(nodes) - len(in_f_strings), rel


def test_bound_sites_cover_the_order_comparisons_outside_f_strings():
    by_file = {}
    for site in (s for s in SITES if s.bound):
        by_file[site.rel] = by_file.get(site.rel, 0) + 1
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_f_strings = [
            op for joined in ast.walk(tree) if isinstance(joined, ast.JoinedStr)
            for op in _order_comparisons(joined)
        ]
        rel = path.relative_to(SRC).as_posix()
        assert by_file.get(rel, 0) == len(_order_comparisons(tree)) - len(in_f_strings), rel


def test_each_pinned_mutant_differs_by_exactly_one_node():
    trees = {}
    sources = {}
    for site in mutants.pick(SITES, sample=30, seed=0):
        if site.rel not in trees:
            sources[site.rel] = (SRC / site.rel).read_text(encoding="utf-8")
            trees[site.rel] = ast.parse(sources[site.rel])
        mutant = mutants.mutate(sources[site.rel], site)
        if site.operands:
            assert ast.dump(ast.parse(mutant)) == ast.dump(_operands_swapped(sources[site.rel], site))
            continue
        ((old, new),) = mutants.node_diffs(trees[site.rel], ast.parse(mutant))
        if site.swap:
            assert {old, new} == {"plus", "minus"}, site
        elif site.bound:
            assert {type(old), type(new)} in ({ast.Lt, ast.LtE}, {ast.Gt, ast.GtE}), site
        elif site.unary:
            assert isinstance(old, ast.UnaryOp) and isinstance(old.op, ast.USub), site
            assert ast.dump(new) == ast.dump(old.operand), site
        else:
            assert {type(old), type(new)} == {ast.Add, ast.Sub}, site


def test_sample_is_pinned_by_its_seed():
    first = [str(s) for s in mutants.pick(SITES, sample=10, seed=3)]
    assert first == [str(s) for s in mutants.pick(SITES, sample=10, seed=3)]
    assert first != [str(s) for s in mutants.pick(SITES, sample=10, seed=4)]
    assert mutants.pick(SITES, chosen=[first[0]])[0].line == int(first[0].split(":")[1])


def test_a_site_without_its_operator_is_refused():
    site = mutants.Site("m.py", 1, 0, unary=False)
    with pytest.raises(ValueError, match="no \\+ or -"):
        mutants.mutate("x * y\n", site)


BOUND_SOURCE = """\
def f(a, b, c):
    if 0 <= a < b and c >= (a
            > b) != (a == b):
        return a << b, f"{a < b}", a in b
    return -a if c <= b else b >> a
"""


def test_bound_sites_are_the_order_comparisons():
    sites = [s for s in mutants.sites_in(BOUND_SOURCE, "m.py") if s.bound]
    assert [(s.line, s.col) for s in sites] == [(2, 9), (2, 14), (2, 24), (3, 12), (5, 19)]
    lines = [mutants.mutate(BOUND_SOURCE, s).splitlines()[s.line - 1] for s in sites]
    assert lines == [
        "    if 0 < a < b and c >= (a",
        "    if 0 <= a <= b and c >= (a",
        "    if 0 <= a < b and c > (a",
        "            >= b) != (a == b):",
        "    return -a if c < b else b >> a",
    ]


def test_every_bound_mutant_differs_by_exactly_one_comparison():
    bounds = [site for site in SITES if site.bound]
    assert {site.rel for site in bounds} >= {"bvdouble/scalars.py", "bvdouble/suites.py"}
    trees, sources = {}, {}
    for site in bounds:
        if site.rel not in trees:
            sources[site.rel] = (SRC / site.rel).read_text(encoding="utf-8")
            trees[site.rel] = ast.parse(sources[site.rel])
        mutant = mutants.mutate(sources[site.rel], site)
        ((old, new),) = mutants.node_diffs(trees[site.rel], ast.parse(mutant))
        assert {type(old), type(new)} in ({ast.Lt, ast.LtE}, {ast.Gt, ast.GtE}), site


def test_a_bound_site_without_its_comparison_is_refused():
    for source in ("a << b\n", "a >> b\n", "a == b\n", "a + b\n"):
        with pytest.raises(ValueError, match="no order comparison"):
            mutants.mutate(source, mutants.Site("m.py", 1, 2, False, bound=True))


SWAP_SOURCE = """\
def f(a, b, plus, minus, plusses):
    plus.append((a, b))
    minus.extend([(b, a)])
    plus[0][1] += [(a, a)]
    minus[a].append(b)
    plusses.append(a)
    plus = minus + [a]
    minus.count(a)
    return plus
"""


def test_swap_sites_are_the_lists_that_plus_and_minus_pairs_join():
    sites = [s for s in mutants.sites_in(SWAP_SOURCE, "m.py") if s.swap]
    assert [(s.line, s.col) for s in sites] == [(2, 4), (3, 4), (4, 4), (5, 4)]
    assert [str(s) for s in sites] == ["m.py:2:4", "m.py:3:4", "m.py:4:4", "m.py:5:4"]
    mutant = mutants.mutate(SWAP_SOURCE, sites[2])
    assert mutant.splitlines()[3] == "    minus[0][1] += [(a, a)]"


def test_every_swap_mutant_differs_by_exactly_one_name():
    swaps = [site for site in SITES if site.swap]
    # the fused kernels of deform, sections and bvops fill plus/minus lists
    assert {site.rel for site in swaps} >= {"bvdouble/deform.py", "bvdouble/sections.py"}
    trees, sources = {}, {}
    for site in swaps:
        if site.rel not in trees:
            sources[site.rel] = (SRC / site.rel).read_text(encoding="utf-8")
            trees[site.rel] = ast.parse(sources[site.rel])
        mutant = mutants.mutate(sources[site.rel], site)
        ((old, new),) = mutants.node_diffs(trees[site.rel], ast.parse(mutant))
        assert {old, new} == {"plus", "minus"}, site


def test_a_swap_site_without_its_list_name_is_refused():
    with pytest.raises(ValueError, match="no plus or minus"):
        mutants.mutate("plusses.append(1)\n", mutants.Site("m.py", 1, 0, False, swap=True))
    with pytest.raises(ValueError, match="no plus or minus"):
        mutants.mutate("x.append(1)\n", mutants.Site("m.py", 1, 0, False, swap=True))


OPERANDS_SOURCE = """\
def f(dim, a, b, c):
    x = sum_of_products(dim, [(a, b)], [(b, a),
                                        (c, c)])
    y = scalars.sum_of_products(dim, zip(a, b))
    z = sum_of_products(dim, (), ((a, c),))
    sum_of_products(dim, *t)
    sum_of_products(dim, a, negated=b)
    return other(dim, a, b) + sum_of_products(dim)
"""


def _operands_swapped(source, site):
    """The syntax tree of ``source`` with the call at ``site`` swapped by hand."""
    tree = ast.parse(source)
    col = len(source.splitlines()[site.line - 1][: site.col].encode())
    (call,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.end_lineno, node.func.end_col_offset - len("sum_of_products"))
        == (site.line, col)
    ]
    dim, pairs, *negated = call.args
    call.args = [dim, *negated, pairs] if negated else [dim, ast.Tuple([], ast.Load()), pairs]
    return tree


def test_operand_sites_are_the_product_calls_with_positional_pair_lists():
    sites = [s for s in mutants.sites_in(OPERANDS_SOURCE, "m.py") if s.operands]
    assert [(s.line, s.col) for s in sites] == [(2, 8), (4, 16), (5, 8)]
    assert mutants.mutate(OPERANDS_SOURCE, sites[0]).splitlines()[1:3] == [
        "    x = sum_of_products(dim, [(b, a),",
        "                                        (c, c)], [(a, b)])",
    ]
    assert mutants.mutate(OPERANDS_SOURCE, sites[1]).splitlines()[3] == (
        "    y = scalars.sum_of_products(dim, (), zip(a, b))"
    )
    assert mutants.mutate(OPERANDS_SOURCE, sites[2]).splitlines()[4] == (
        "    z = sum_of_products(dim, ((a, c),), ())"
    )
    for site in sites:
        mutant = mutants.mutate(OPERANDS_SOURCE, site)
        assert ast.dump(ast.parse(mutant)) == ast.dump(_operands_swapped(OPERANDS_SOURCE, site))


def test_every_operand_mutant_swaps_exactly_one_call():
    calls = [site for site in SITES if site.operands]
    # the fused kernels of deform, doublecopy and sections pass their pair lists
    assert {site.rel for site in calls} >= {
        "bvdouble/deform.py", "bvdouble/doublecopy.py", "bvdouble/sections.py"
    }
    sources = {}
    for site in calls:
        if site.rel not in sources:
            sources[site.rel] = (SRC / site.rel).read_text(encoding="utf-8")
        mutant = mutants.mutate(sources[site.rel], site)
        assert ast.dump(ast.parse(mutant)) == ast.dump(_operands_swapped(sources[site.rel], site))


def test_an_operand_site_without_its_call_is_refused():
    for source in ("sum_of_products(dim, *t)\n", "other(dim, a, b)\n"):
        with pytest.raises(ValueError, match="no sum_of_products call"):
            mutants.mutate(source, mutants.Site("m.py", 1, 0, False, operands=True))


def test_a_mutant_run_is_limited_by_the_unmutated_time(monkeypatch):
    # the unmutated run takes 12 s on a fake clock, so a mutant gets 120 s;
    # the fake mutant run times out and the table names it killed
    clock = iter([100.0, 112.0])
    monkeypatch.setattr(mutants, "perf_counter", lambda: next(clock))
    limits = []

    def fake_run(command, **kwargs):
        limits.append(kwargs["timeout"])
        if len(limits) == 1:
            return subprocess.CompletedProcess(command, 0, stdout="", stderr="")
        raise subprocess.TimeoutExpired(command, kwargs["timeout"])

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    baseline, results = mutants.run(SITES[:1], ["verify"])
    assert limits == [mutants._TIMEOUT_S, 120.0]
    assert results[0][2]["exit"] == "timeout"
    assert f"| `{SITES[0]}` |" in mutants.table(baseline, results, ["verify"])
    assert "| killed (timeout) |" in mutants.table(baseline, results, ["verify"])


def test_a_fast_unmutated_run_gives_the_floor():
    assert mutants.mutant_limit(0.2) == mutants._LIMIT_FLOOR_S
    assert mutants.mutant_limit(10.0) == 10 * mutants._LIMIT_FACTOR
