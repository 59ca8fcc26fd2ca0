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
    kinds = ("swap", "bound", "operands", "index", "drop", "weight")
    for site in (s for s in SITES if not any(getattr(s, kind) for kind in kinds)):
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
        if site.index:
            first, second = mutants.node_diffs(trees[site.rel], ast.parse(mutant))
            assert first == second[::-1], site
            continue
        if site.drop:
            assert_one_list_emptied(trees[site.rel], mutant, site)
            continue
        ((old, new),) = mutants.node_diffs(trees[site.rel], ast.parse(mutant))
        if site.weight:
            assert type(old) is int and old >= 2 and new == old + 1, site
        elif site.swap:
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
    w = integral_of_products(dim, a, b)
    sum_of_products(dim, *t)
    sum_of_products(dim, a, negated=b)
    return other(dim, a, b) + sum_of_products(dim)
"""


def _called(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _operands_swapped(source, site):
    """The syntax tree of ``source`` with the call at ``site`` swapped by hand."""
    tree = ast.parse(source)
    col = len(source.splitlines()[site.line - 1][: site.col].encode())
    (call,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.end_lineno, node.func.end_col_offset - len(_called(node)))
        == (site.line, col)
    ]
    dim, pairs, *negated = call.args
    call.args = [dim, *negated, pairs] if negated else [dim, ast.Tuple([], ast.Load()), pairs]
    return tree


def test_operand_sites_are_the_product_calls_with_positional_pair_lists():
    sites = [s for s in mutants.sites_in(OPERANDS_SOURCE, "m.py") if s.operands]
    assert [(s.line, s.col) for s in sites] == [(2, 8), (4, 16), (5, 8), (6, 8)]
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
    assert mutants.mutate(OPERANDS_SOURCE, sites[3]).splitlines()[5] == (
        "    w = integral_of_products(dim, b, a)"
    )
    for site in sites:
        mutant = mutants.mutate(OPERANDS_SOURCE, site)
        assert ast.dump(ast.parse(mutant)) == ast.dump(_operands_swapped(OPERANDS_SOURCE, site))


def test_every_operand_mutant_swaps_exactly_one_call():
    calls = [site for site in SITES if site.operands]
    # the fused kernels of deform, doublecopy and sections pass their pair
    # lists, and so does the pairing of bvcomplex
    assert {site.rel for site in calls} >= {
        "bvdouble/bvcomplex.py", "bvdouble/deform.py", "bvdouble/doublecopy.py",
        "bvdouble/sections.py",
    }
    sources = {}
    for site in calls:
        if site.rel not in sources:
            sources[site.rel] = (SRC / site.rel).read_text(encoding="utf-8")
        mutant = mutants.mutate(sources[site.rel], site)
        assert ast.dump(ast.parse(mutant)) == ast.dump(_operands_swapped(sources[site.rel], site))


def test_an_operand_site_without_its_call_is_refused():
    for source in ("sum_of_products(dim, *t)\n", "other(dim, a, b)\n"):
        with pytest.raises(ValueError, match="no sum_of_products or integral_of_products call"):
            mutants.mutate(source, mutants.Site("m.py", 1, 0, False, operands=True))


INDEX_SOURCE = """\
def f(v, w, n, r):
    a = [v[i][j] + v[i][i] + v[i][n] for i in r for j in r]
    b = [[w[k][l].x[i][j] for i in r for j in r] for k in r for l in r]
    c = {v[k][i][j]: f"{v[i][j]}" for (i, j), k in zip(r, r)}
    d = sum(w[q][
        p] for p in r for q in r)
    return v[1][2], [v[i][j] for i in r], [v[k][l] for k in r if (l := k)]
"""


def test_index_sites_are_chains_of_two_loop_names_of_one_comprehension():
    sites = [s for s in mutants.sites_in(INDEX_SOURCE, "m.py") if s.index]
    positions = [(2, 11), (3, 12), (3, 20), (4, 11), (4, 14), (5, 14)]
    assert [(s.line, s.col) for s in sites] == positions
    lines = [mutants.mutate(INDEX_SOURCE, s).splitlines()[s.line - 1 : s.line + 1] for s in sites]
    assert [chunk[0].strip() for chunk in lines] == [
        "a = [v[j][i] + v[i][i] + v[i][n] for i in r for j in r]",
        "b = [[w[l][k].x[i][j] for i in r for j in r] for k in r for l in r]",
        "b = [[w[k][l].x[j][i] for i in r for j in r] for k in r for l in r]",
        'c = {v[i][k][j]: f"{v[i][j]}" for (i, j), k in zip(r, r)}',
        'c = {v[k][j][i]: f"{v[i][j]}" for (i, j), k in zip(r, r)}',
        "d = sum(w[p][",
    ]
    assert lines[-1][1].strip() == "q] for p in r for q in r)"
    for site in sites:
        first, second = mutants.node_diffs(
            ast.parse(INDEX_SOURCE), ast.parse(mutants.mutate(INDEX_SOURCE, site))
        )
        assert first == second[::-1] and first[0] != first[1], site


def test_index_sites_include_the_transposed_mixed_derivative():
    # d_i dt_j read as d_j dt_i in the double bracket, a mutant the
    # doublecopy report cannot see (ROADMAP item 3)
    source = (SRC / "bvdouble/doublecopy.py").read_text(encoding="utf-8")
    mutated = [
        mutants.mutate(source, site).splitlines()[site.line - 1].strip()
        for site in SITES
        if site.index and site.rel == "bvdouble/doublecopy.py"
    ]
    assert "[(a[i][j].f, b[k][l].xt[j][i]) for a, b in both for i in r for j in r]," in mutated


def test_an_index_site_without_its_chain_is_refused():
    for source in ("v[i][j]\n", "[v[i][n] for i in r]\n", "[v[i][i] for i in r]\n"):
        with pytest.raises(ValueError, match="no index pair"):
            mutants.mutate(source, mutants.Site("m.py", 1, 1, False, index=True))


DROP_SOURCE = """\
def f(dim, a, b, r):
    x = sum_of_products(dim, [(a, b)], [(b, a) for _ in r])
    y = integral_of_products(dim, zip(a, b), negated=[(a, a)])
    plus, minus = [(a, b)], []
    pm = [u for u in r], [
        (v, v) for v in r]
    return ([a], {}), (a, [b]), f"{([a], [b])}", other(dim, [a], [b])
"""


def assert_one_list_emptied(tree, mutant, site):
    """``mutant`` differs from ``tree`` in one list, now ``[]``, at ``site``."""
    ((old, new),) = mutants.node_diffs(tree, ast.parse(mutant))
    if isinstance(old, list):  # a list display loses its elements
        assert old and new == [], site
    else:
        assert isinstance(old, ast.ListComp), site
        assert isinstance(new, ast.List) and not new.elts, site


def test_drop_sites_are_the_product_lists_and_plus_minus_pairs():
    sites = [s for s in mutants.sites_in(DROP_SOURCE, "m.py") if s.drop]
    assert [(s.line, s.col) for s in sites] == [(2, 29), (2, 39), (3, 53), (4, 18), (5, 9), (5, 25)]
    lines = [mutants.mutate(DROP_SOURCE, s).splitlines()[s.line - 1] for s in sites]
    assert lines == [
        "    x = sum_of_products(dim, [], [(b, a) for _ in r])",
        "    x = sum_of_products(dim, [(a, b)], [])",
        "    y = integral_of_products(dim, zip(a, b), negated=[])",
        "    plus, minus = [], []",
        "    pm = [], [",
        "    pm = [u for u in r], []",
    ]
    for site in sites:
        assert_one_list_emptied(ast.parse(DROP_SOURCE), mutants.mutate(DROP_SOURCE, site), site)


def test_an_f_string_is_never_a_site():
    source = (
        'x = f"{([a], [b])} {sum_of_products(d, [(a, b)], [(b, a)])} {-a} {a - b} {a < b}"\n'
        "y = f\"{', '.join(f'{v[i][j]}' for i in r for j in r)} {t[-1]} {-t[0]}\"\n"
    )
    assert mutants.sites_in(source, "m.py") == []
    assert [s for s in mutants.sites_in(DROP_SOURCE, "m.py") if s.drop and s.line == 7] == []


def test_drop_sites_include_the_minus_list_of_the_double_bracket(capsys):
    # hand mutant A drops the -d_i g^{kj} dt_j h^{il} terms of the double
    # bracket, a mutant the doublecopy report cannot see (ROADMAP item 3)
    rel = "bvdouble/doublecopy.py"
    source = (SRC / rel).read_text(encoding="utf-8")
    minus = "[(a[k][j].x[i], b[i][l].t[j]) for a, b in both for i in r for j in r]"
    line = next(n for n, text in enumerate(source.splitlines(), 1) if text.strip() == minus + ",")
    col = source.splitlines()[line - 1].index("[")
    assert mutants.main(["--list", "--file", rel]) == 0
    assert f"{rel}:{line}:{col} (drop)\n" in capsys.readouterr().out
    (site,) = [s for s in SITES if s.drop and s.rel == rel and (s.line, s.col) == (line, col)]
    assert mutants.mutate(source, site).splitlines()[line - 1].strip() == "[],"


def test_every_drop_mutant_empties_exactly_one_list():
    drops = [site for site in SITES if site.drop]
    assert {site.rel for site in drops} >= {"bvdouble/bvops.py", "bvdouble/doublecopy.py"}
    trees, sources = {}, {}
    for site in drops:
        if site.rel not in trees:
            sources[site.rel] = (SRC / site.rel).read_text(encoding="utf-8")
            trees[site.rel] = ast.parse(sources[site.rel])
        assert_one_list_emptied(trees[site.rel], mutants.mutate(sources[site.rel], site), site)


def test_a_drop_site_without_its_list_is_refused():
    for source in ("f(dim, [a])\n", "sum_of_products(dim, [])\n", "([a], {})\n"):
        with pytest.raises(ValueError, match="no product list"):
            mutants.mutate(source, mutants.Site("m.py", 1, 0, False, drop=True))


WEIGHT_SOURCE = """\
def f(d, n, r):
    x = [(a, d * 2) for a in r], 3 * (n
                                     * 10)
    y = d * 1, d * True, d * 2.0, d + 2, d ** 2, d * -2, d * 0x10, 2 @ d
    return f"{d * 2}", (2 * n) * d, d // 2 * 2
"""


def test_weight_sites_are_the_int_factors_of_products():
    sites = [s for s in mutants.sites_in(WEIGHT_SOURCE, "m.py") if s.weight]
    assert [(s.line, s.col) for s in sites] == [(2, 17), (2, 33), (3, 39), (4, 61), (5, 24), (5, 45)]
    lines = [mutants.mutate(WEIGHT_SOURCE, s).splitlines()[s.line - 1] for s in sites]
    assert lines == [
        "    x = [(a, d * 3) for a in r], 3 * (n",
        "    x = [(a, d * 2) for a in r], 4 * (n",
        "                                     * 11)",
        "    y = d * 1, d * True, d * 2.0, d + 2, d ** 2, d * -2, d * 17, 2 @ d",
        '    return f"{d * 2}", (3 * n) * d, d // 2 * 2',
        '    return f"{d * 2}", (2 * n) * d, d // 2 * 3',
    ]
    for site in sites:
        ((old, new),) = mutants.node_diffs(
            ast.parse(WEIGHT_SOURCE), ast.parse(mutants.mutate(WEIGHT_SOURCE, site))
        )
        assert new == old + 1, site


def test_weight_sites_include_the_dilaton_weight(capsys):
    # hand mutant C weights the dilaton by 3 instead of 2 in the weighted
    # divergence, a mutant the doublecopy report cannot see (ROADMAP item 3)
    rel = "bvdouble/doublecopy.py"
    source = (SRC / rel).read_text(encoding="utf-8")
    text = "return [(d, one) for d in dfs], [(f, d * 2) for f, d in zip(fs, dphi)]"
    line = next(n for n, got in enumerate(source.splitlines(), 1) if got.strip() == text)
    col = source.splitlines()[line - 1].index("d * 2") + 4
    assert mutants.main(["--list", "--file", rel]) == 0
    assert f"{rel}:{line}:{col} (weight)\n" in capsys.readouterr().out
    (site,) = [s for s in SITES if s.weight and s.rel == rel and (s.line, s.col) == (line, col)]
    assert mutants.mutate(source, site).splitlines()[line - 1].strip() == text.replace("* 2", "* 3")


def test_every_weight_mutant_raises_exactly_one_literal():
    weights = [site for site in SITES if site.weight]
    assert {site.rel for site in weights} >= {"bvdouble/doublecopy.py", "bvdouble/scalars.py"}
    trees, sources = {}, {}
    for site in weights:
        if site.rel not in trees:
            sources[site.rel] = (SRC / site.rel).read_text(encoding="utf-8")
            trees[site.rel] = ast.parse(sources[site.rel])
        mutant = mutants.mutate(sources[site.rel], site)
        ((old, new),) = mutants.node_diffs(trees[site.rel], ast.parse(mutant))
        assert type(old) is int and old >= 2 and new == old + 1, site


def test_a_weight_site_without_its_literal_is_refused():
    for source in ("d * 1\n", "d * x\n", "d + 2\n", "d * True\n", "d * 2.0\n"):
        with pytest.raises(ValueError, match="no weight literal"):
            mutants.mutate(source, mutants.Site("m.py", 1, 4, False, weight=True))


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
