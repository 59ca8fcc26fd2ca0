"""The closed forms in ``bvdouble.deform`` against their definitional oracles.

Every comparison is exact and also byte-level: the canonical encodings must
agree, degree tags of zero elements included, because reports and failure
witnesses are written from these values.  Each law is checked on the
diagonal Lorentzian metric and on an off-diagonal metric; the sums over the
raised coordinate sections also at D = 2 and on a denominator-3 metric, and
the field equations also at D = 4.
"""

import itertools
import random
from fractions import Fraction

import deform_oracle as oracle
import pytest

from bvdouble import deform
from bvdouble.bvcomplex import BVElement, random_element
from bvdouble.bvops import brack, nusym
from bvdouble.deform import (
    LieValuedBVElement,
    MatrixFunction,
    Q_eta,
    R_eta,
    _Jet,
    _matrix_sum,
    _musym_terms,
    _slot_split,
    bracket_laplacian,
    dictionary_fields,
    flat_sections,
    gauge_variation,
    mc_from_fields,
    mc_residual,
    mu_bar_eta,
    mu_bar_eta_table,
    musym_eta,
    ym_embed,
    ym_field_residual,
)
from bvdouble.exterior import random_ym_element
from bvdouble.scalars import FourierScalar, Metric, random_scalar, sum_of_products
from bvdouble.sections import GenSection, pairing
from bvdouble.serialize import canonical_dumps

DIM = 3
LORENTZ = Metric.diagonal([1, 1, -1])
DENSE = Metric(
    [
        [Fraction(5, 4), Fraction(3, 4), 0],
        [Fraction(3, 4), Fraction(5, 4), 0],
        [0, 0, -1],
    ]
)
METRICS = {"lorentz": LORENTZ, "dense": DENSE}
# degrees -1 and 4 hold only zero elements; their degree tags must agree too
DEGREES = range(-1, 5)
PAIRS = [(d1, d2) for d1 in DEGREES for d2 in DEGREES]


def same(a, b):
    assert a == b
    assert canonical_dumps(a) == canonical_dumps(b)


# -- sums over the raised coordinate sections --------------------------------

F = Fraction
AXIS_METRICS = {
    (2, "lorentz"): Metric.diagonal([1, -1]),
    (2, "offdiag"): Metric([[F(5, 4), F(3, 4)], [F(3, 4), F(5, 4)]]),
    (2, "third"): Metric.diagonal([3, F(1, 3)]),
    (3, "lorentz"): LORENTZ,
    (3, "offdiag"): DENSE,
    (3, "third"): Metric.diagonal([3, F(1, 3), -1]),
}
ZERO_DEGREES = range(-1, 6)


def same_graded(a, b):
    assert a.degree == b.degree
    same(a, b)


def unary_args(rng, dim):
    """Two draws of each degree 0..3, then the zeros of degrees -1..5."""
    for degree in range(4):
        yield random_element(rng, dim, 1, degree)
        yield random_element(rng, dim, 1, degree)
    for degree in ZERO_DEGREES:
        yield BVElement.zero(degree, dim)


def binary_args(rng, dim):
    """Every pattern of degrees 0..3, a zero of each degree -1..5 in either
    slot beside a random draw, and every pair of such zeros."""
    for d1, d2 in itertools.product(range(4), repeat=2):
        yield random_element(rng, dim, 1, d1), random_element(rng, dim, 1, d2)
    for degree in ZERO_DEGREES:
        zero, other = BVElement.zero(degree, dim), random_element(rng, dim, 1, rng.randrange(4))
        yield zero, other
        yield other, zero
    for d1, d2 in itertools.product(ZERO_DEGREES, repeat=2):
        yield BVElement.zero(d1, dim), BVElement.zero(d2, dim)


@pytest.mark.parametrize("dim,name", AXIS_METRICS)
def test_r_eta_is_the_pair_sum(dim, name):
    eta = AXIS_METRICS[dim, name]
    for x in unary_args(random.Random(f"r-eta-axes:{dim}:{name}"), dim):
        same_graded(R_eta(x, eta), oracle.R_eta(x, eta))


@pytest.mark.parametrize("dim,name", AXIS_METRICS)
def test_bracket_laplacian_is_the_pair_sum(dim, name):
    eta = AXIS_METRICS[dim, name]
    for x in unary_args(random.Random(f"laplacian-axes:{dim}:{name}"), dim):
        same_graded(bracket_laplacian(x, eta), oracle.bracket_laplacian(x, eta))


@pytest.mark.parametrize("dim,name", AXIS_METRICS)
def test_mu_bar_eta_table_is_the_pair_sum(dim, name):
    eta = AXIS_METRICS[dim, name]
    for x, y in binary_args(random.Random(f"mu-bar-table-axes:{dim}:{name}"), dim):
        same_graded(mu_bar_eta_table(x, y, eta), oracle.mu_bar_eta_table(x, y, eta))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_coordinate_bracket_is_the_slotwise_derivative(name):
    f = flat_sections(METRICS[name].dim)
    rng = random.Random(f"slotwise:{name}")
    for degree in DEGREES:
        for _ in range(3):
            x = random_element(rng, DIM, 2, degree)
            for j in range(DIM):
                same(brack(f[j], x), oracle.slotwise_derivative(x, j))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_q_eta_matches_the_bracket_built_deformation(name):
    eta = METRICS[name]
    rng = random.Random(f"q-eta:{name}")
    for degree in DEGREES:
        for _ in range(3):
            x = random_element(rng, DIM, 2, degree)
            same(Q_eta(x, eta), oracle.q_eta(x, eta))


@pytest.mark.parametrize("name", ["dense", "euclidean", "lorentz"])
def test_mu_bar_eta_matches_the_bracket_loop(name):
    # the closed form and the four-cell table against the paper's sum
    eta = {**METRICS, "euclidean": Metric.diagonal([1, 1, 1])}[name]
    rng = random.Random(f"mu-bar:{name}")
    for d1, d2 in PAIRS:
        for _ in range(2):
            x = random_element(rng, DIM, 2, d1)
            y = random_element(rng, DIM, 2, d2)
            want = oracle.mu_bar_eta(x, y, eta)
            same(mu_bar_eta(x, y, eta), want)
            same(mu_bar_eta_table(x, y, eta), want)


@pytest.mark.parametrize("name", ["dense", "third"])
def test_mu_bar_eta_contracts_eta_on_the_small_operands(name):
    # against the closed form that raised whole element gradients, on all
    # 16 degree patterns; "third" is the denominator-3 golden metric
    eta = {**METRICS, "third": Metric.diagonal([3, Fraction(1, 3), -1])}[name]
    rng = random.Random(f"mu-bar-raised:{name}")
    for d1 in range(4):
        for d2 in range(4):
            for _ in range(3):
                x = random_element(rng, DIM, 2, d1)
                y = random_element(rng, DIM, 2, d2)
                same(mu_bar_eta(x, y, eta), oracle.mu_bar_eta_raised(x, y, eta))


# the symbol passes and sums of products of each pattern that mu_bar_eta
# does not answer with a zero: one pass per component read, one sum per
# output component
MU_BAR_COST = {(1, 0): (1, 1), (1, 2): (1, 1), (2, 1): (1, 1), (1, 1): (4 * DIM, 2 * DIM)}


@pytest.mark.parametrize("name", sorted(METRICS))
def test_mu_bar_eta_reads_only_what_its_pattern_needs(name, monkeypatch):
    # no FourierScalar.derivative on any pattern, and no symbol pass and no
    # product on the patterns whose value is zero, such as (1, 3)
    eta = METRICS[name]
    rng = random.Random(f"mu-bar-cost:{name}")
    args = [(random_element(rng, DIM, 2, d1), random_element(rng, DIM, 2, d2)) for d1, d2 in PAIRS]
    calls = {"derivative": 0, "symbols": 0, "products": 0}

    def counted(key, fn):
        def call(*a, **k):
            calls[key] += 1
            return fn(*a, **k)

        return call

    monkeypatch.setattr(
        FourierScalar, "derivative", counted("derivative", FourierScalar.derivative)
    )
    monkeypatch.setattr(FourierScalar, "symbols", counted("symbols", FourierScalar.symbols))
    monkeypatch.setattr(deform, "sum_of_products", counted("products", sum_of_products))
    got, costs = [], []
    for x, y in args:
        before = dict(calls)
        got.append(mu_bar_eta(x, y, eta))
        costs.append({k: calls[k] - before[k] for k in calls})
    monkeypatch.undo()
    for (x, y), result, cost in zip(args, got, costs):
        symbols, products = MU_BAR_COST.get((x.degree, y.degree), (0, 0))
        assert cost == {"derivative": 0, "symbols": symbols, "products": products}
        same(result, oracle.mu_bar_eta(x, y, eta))


def random_matrices(rng, rank, modes, dim=DIM):
    """``dim`` random matrix functions, each entry with 1..modes modes."""
    return [
        MatrixFunction([[random_scalar(rng, dim, 1, modes) for _ in range(rank)] for _ in range(rank)])
        for _ in range(dim)
    ]


YM_METRICS = {
    **METRICS,
    "lorentz4": Metric.diagonal([1, 1, 1, -1]),
    "dense4": Metric(
        [
            [Fraction(5, 4), Fraction(3, 4), 0, 0],
            [Fraction(3, 4), Fraction(5, 4), 0, 0],
            [0, 0, 2, Fraction(1, 2)],
            [0, 0, Fraction(1, 2), -1],
        ]
    ),
}


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(YM_METRICS))
def test_ym_field_residual_matches_the_triple_loop(name, rank):
    eta = YM_METRICS[name]
    rng = random.Random(f"ym:{name}:{rank}")
    for _ in range(2 if rank < 3 else 1):
        # one mode per entry at rank 3 keeps the triple loop near a second
        modes = 2 if rank < 3 else 1
        avec = random_matrices(rng, rank, modes, eta.dim)
        bform = random_matrices(rng, rank, modes, eta.dim)
        cal_a, phi = dictionary_fields(mc_from_fields(avec, bform, eta), eta)
        e1, e2 = ym_field_residual(cal_a, phi, eta)
        o1, o2 = oracle.ym_field_residual(cal_a, phi, eta)
        same(e1, o1)
        same(e2, o2)
        r1, r2 = oracle.ym_field_residual_raised(cal_a, phi, eta)
        same(e1, r1)
        same(e2, r2)
        assert not all(r.is_zero() for r in e1 + e2)


def gauge_fields(rng, rank, eta):
    psi = mc_from_fields(random_matrices(rng, rank, 2), random_matrices(rng, rank, 2), eta)
    return psi, dictionary_fields(psi, eta)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(METRICS))
def test_gram_difference_is_half_the_pairing_gram(name, rank):
    # G_A(pr, sq) - G_phi(pr, sq) = eta^{ij} ((A_i)_pr (A_j)_sq - (phi_i)_pr (phi_j)_sq)
    # is half the pairing <psi_pr, psi_sq> under the slot dictionary, so the
    # cubic terms of the field equations meet nusym's Gram terms of mc_residual
    eta = METRICS[name]
    psi, (cal_a, phi) = gauge_fields(random.Random(f"gram:{name}:{rank}"), rank, eta)
    entries = psi.parts()
    difference = oracle.gram_difference(cal_a, phi, eta)
    for e, x in enumerate(entries):
        for f, y in enumerate(entries):
            same(difference[e][f], pairing(x.section, y.section) * Fraction(1, 2))
    assert any(not g.is_zero() for row in difference for g in row)
    if rank > 1:
        raised = eta.raise_index(cal_a), eta.raise_index(phi)
        same(deform._cubic_weights(cal_a, phi, *raised), oracle.cubic_weights(cal_a, phi, eta))


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(METRICS))
def test_ym_field_residual_builds_one_gram_and_no_commutator(name, rank, monkeypatch):
    # the cubic terms come from one Gram matrix S = 2 (G_A - G_phi) per field,
    # each of its n^2 (n^2 + 1)/2 distinct entries one sum of products and
    # the weights merges; no MatrixFunction.commutator is called, and at
    # rank 1, where every commutator vanishes, no Gram is built
    eta = METRICS[name]
    psi, fields = gauge_fields(random.Random(f"ym-gram:{name}:{rank}"), rank, eta)
    calls, products = [], []

    def counting(dim, pairs, negated=()):
        if calls and calls[-1] is None:  # inside _cubic_weights
            products.append(list(pairs) + list(negated))
        return sum_of_products(dim, pairs, negated)

    def spying(*args):
        calls.append(None)
        calls[-1] = weights(*args)
        return calls[-1]

    def banned(a, b):
        raise AssertionError("ym_field_residual called MatrixFunction.commutator")

    weights = deform._cubic_weights
    monkeypatch.setattr(deform, "sum_of_products", counting)
    monkeypatch.setattr(deform, "_cubic_weights", spying)
    monkeypatch.setattr(MatrixFunction, "commutator", banned)
    got = ym_field_residual(*fields, eta)
    monkeypatch.undo()
    m = rank * rank
    if rank == 1:
        assert calls == [] and products == []
    else:
        assert len(calls) == 1 and len(products) == m * (m + 1) // 2
        assert all(len(pairs) == 2 * DIM for pairs in products)
    want = oracle.ym_field_residual(*fields, eta)
    same(got[0], want[0])
    same(got[1], want[1])


# -- the matrix-tensored Maurer-Cartan kernels ------------------------------


def degree_one(rng, section=True):
    """A random degree-1 element; without ``section`` it is (0, v)."""
    x = random_element(rng, DIM, 1, 1)
    return x if section else BVElement.deg1(GenSection.zero(DIM), x.scalar)


def random_psi(rng, rank, zeros=True):
    """A degree-1 matrix element off the gauge slice.  With ``zeros``, the last
    entry is (0, v) and, from rank 2 on, the last entry of the first row is 0."""
    grid = [[degree_one(rng) for _ in range(rank)] for _ in range(rank)]
    if zeros:
        grid[-1][-1] = degree_one(rng, section=False)
        if rank > 1:
            grid[0][-1] = BVElement.zero(1, DIM)
    return LieValuedBVElement(grid)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_musym_closed_form_matches_musym_eta(name):
    eta = METRICS[name]
    rng = random.Random(f"musym:{name}")
    for sx, sy in [(True, True), (True, False), (False, True), (False, False)]:
        for _ in range(3):
            x, y = degree_one(rng, sx), degree_one(rng, sy)
            jx, jy = _Jet(x, eta), _Jet(y, eta)
            comps = []
            for c in range(2 * DIM):
                plus, minus = [], []
                _musym_terms(jx, jy, c, plus, minus)
                comps.append(sum_of_products(DIM, plus, minus))
            closed = BVElement.deg2(GenSection(comps[:DIM], comps[DIM:]))
            same(closed, musym_eta(x, y, eta))


def test_nusym_closed_form_matches_nusym():
    # on (1, 1, 1): nusym(x, y, z) = (-<x,z> B + <y,z> A / 2 + <x,y> C / 2, 0)
    rng = random.Random("nusym")
    half = Fraction(1, 2)
    for sections in [(True, True, True), (True, False, True), (False, True, False)]:
        for _ in range(3):
            x, y, z = (degree_one(rng, s) for s in sections)
            a, b, c = x.section, y.section, z.section
            closed = BVElement.deg2(
                b * -pairing(a, c) + a * (pairing(b, c) * half) + c * (pairing(a, b) * half)
            )
            same(closed, nusym(x, y, z))


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(METRICS))
def test_mc_residual_matches_the_tensored_operators(name, rank):
    eta = METRICS[name]
    rng = random.Random(f"mc:{name}:{rank}")
    for zeros in (False, True) if rank < 3 else (True,):
        psi = random_psi(rng, rank, zeros)
        same(mc_residual(psi, eta), oracle.mc_residual(psi, eta))
    avec = [MatrixFunction.random(rng, rank, DIM, 1) for _ in range(DIM)]
    bform = [MatrixFunction.random(rng, rank, DIM, 1) for _ in range(DIM)]
    psi = mc_from_fields(avec, bform, eta)
    res = mc_residual(psi, eta)
    same(res, oracle.mc_residual(psi, eta))
    assert not res.is_zero()


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(METRICS))
def test_gauge_variation_matches_the_tensored_operators(name, rank):
    eta = METRICS[name]
    rng = random.Random(f"gauge:{name}:{rank}")
    for zeros in (False, True):
        psi = random_psi(rng, rank, zeros)
        grid = [[random_scalar(rng, DIM, 1) for _ in range(rank)] for _ in range(rank)]
        if rank > 1:
            grid[0][-1] = FourierScalar.zero(DIM)
        u = MatrixFunction(grid)
        delta = gauge_variation(psi, u, eta)
        same(delta, oracle.gauge_variation(psi, u, eta))
        assert not delta.is_zero()


def _third_entry(rng, rank):
    """A random matrix whose last-row first entry has a denominator 3."""
    rows = [list(row) for row in MatrixFunction.random(rng, rank, DIM, 2).rows]
    rows[-1][0] = rows[-1][0] * Fraction(1, 3)
    return MatrixFunction(rows)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_matrix_product_and_commutator_match_the_entrywise_sums(rank):
    rng = random.Random(f"matmul:{rank}")
    for _ in range(3):
        a = MatrixFunction.random(rng, rank, DIM, 2)
        b = MatrixFunction.random(rng, rank, DIM, 2)
        same(a * b, oracle.matrix_product(a, b))
        same(a.commutator(b), oracle.commutator(a, b))
        same(a.commutator(a), oracle.zero_matrix(rank, DIM))
    c = _third_entry(rng, rank)
    same(c.commutator(a), oracle.commutator(c, a))
    same(a.commutator(c), oracle.commutator(a, c))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_matrix_sum_matches_the_oracle_commutators(rank):
    # several brackets beside added and subtracted matrices, one of them with
    # a denominator-3 entry, each entry summed in the closed-form layout
    rng = random.Random(f"matrix-sum:{rank}")
    a = _third_entry(rng, rank)
    b, c, d, e, f = (MatrixFunction.random(rng, rank, DIM, 2) for _ in range(5))
    got = _matrix_sum([c, d], [e], [(a, b), (e, f), (b, a), (f, c)])
    want = c + d - e + oracle.commutator(e, f) + oracle.commutator(f, c)
    same(got, want)
    same(_matrix_sum([a], [f, b], [(c, a)]), a - f - b + oracle.commutator(c, a))


@pytest.mark.parametrize("rank,count", [(1, 0), (2, 6), (3, 30), (4, 84)])
def test_commutator_makes_no_cancelling_products(rank, count, monkeypatch):
    # n(n-1)(2n-1) products that are not by the constant 1, against the
    # definition's 2n^3: the r = p = q pairs and the second half of each
    # antisymmetric diagonal pair are never built
    rng = random.Random(f"commutator-cost:{rank}")
    a, b = (MatrixFunction.random(rng, rank, DIM, 2) for _ in range(2))
    one = FourierScalar.one(DIM)
    products = []

    def counting(dim, pairs, negated=()):
        pairs, negated = list(pairs), list(negated)
        products.extend(p for p in pairs + negated if one not in p)
        return sum_of_products(dim, pairs, negated)

    monkeypatch.setattr(deform, "sum_of_products", counting)
    got = a.commutator(b)
    monkeypatch.undo()
    assert len(products) == count == rank * (rank - 1) * (2 * rank - 1)
    same(got, oracle.commutator(a, b))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_commutator_forms_each_diagonal_difference_once(rank, monkeypatch):
    # a_pp - a_qq and b_pp - b_qq once per pair p < q; [a, b]_qp takes each
    # with the other sign
    rng = random.Random(f"commutator-differences:{rank}")
    a, b = (MatrixFunction.random(rng, rank, DIM, 2) for _ in range(2))
    differences = []

    def counting(f, g):
        differences.append((f, g))
        return f.__add__(g, -1)

    monkeypatch.setattr(FourierScalar, "__sub__", counting)
    got = a.commutator(b)
    monkeypatch.undo()
    diagonals = [[id(m.rows[p][p]) for p in range(rank)] for m in (a, b)]
    pairs = {(d[p], d[q]) for d in diagonals for p in range(rank) for q in range(p + 1, rank)}
    assert len(differences) == len(pairs) == rank * (rank - 1)
    assert {(id(f), id(g)) for f, g in differences} == pairs
    same(got, oracle.commutator(a, b))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_slot_split_matches_the_entrywise_lowering(name):
    eta = METRICS[name]
    rng = random.Random(f"slots:{name}")
    for rank in (1, 2):
        avec = [MatrixFunction.random(rng, rank, DIM, 2) for _ in range(DIM)]
        bform = [MatrixFunction.random(rng, rank, DIM, 2) for _ in range(DIM)]
        psi = mc_from_fields(avec, bform, eta)
        cal_a, phi = dictionary_fields(psi, eta)
        o_a, o_phi = oracle.dictionary_fields(psi, eta)
        same(cal_a, o_a)
        same(phi, o_phi)
        # degree-2 entries, and a zero of another degree, which has no section
        grid = [
            [random_element(rng, DIM, 2, 2) for _ in range(rank)] for _ in range(rank)
        ]
        grid[-1][-1] = BVElement.zero(3, DIM)
        x = LieValuedBVElement(grid)
        plus, minus = _slot_split(x, eta)
        o_plus, o_minus = oracle.dictionary_fields(x, eta)
        same(plus, [m * 2 for m in o_plus])
        same(minus, [m * 2 for m in o_minus])


@pytest.mark.parametrize("degree", [0, 2, 3])
def test_zero_entries_of_another_degree_read_as_zeros(degree):
    # the tensored operators cannot sum such grids; the kernels read the zero
    # as the zero of the grid's degree
    eta = LORENTZ
    rng = random.Random(f"zeros:{degree}")
    psi = random_psi(rng, 2)
    u = MatrixFunction.random(rng, 2, DIM, 1)
    other = BVElement.zero(degree, DIM)
    psi_other = LieValuedBVElement([[psi.entry(0, 0), other], list(psi.rows[1])])
    same(mc_residual(psi_other, eta), mc_residual(psi, eta))
    same(gauge_variation(psi_other, u, eta), gauge_variation(psi, u, eta))


EMBED_METRICS = {
    "D2-lorentz": Metric.diagonal([1, -1]),
    "D2-euclid": Metric.diagonal([1, 1]),
    "D3-lorentz": LORENTZ,
    "D3-euclid": Metric.diagonal([1, 1, 1]),
    "D3-dense": DENSE,
    "D4-lorentz": Metric.diagonal([1, 1, 1, -1]),
    "D4-split": Metric.diagonal([1, 1, -1, -1]),
}


@pytest.mark.parametrize("name", sorted(EMBED_METRICS))
@pytest.mark.parametrize("degree", range(4))
def test_ym_embed_matches_the_one_form_embeddings(name, degree):
    eta = EMBED_METRICS[name]
    rng = random.Random(f"embed:{name}:{degree}")
    for _ in range(3):
        x = random_ym_element(rng, eta.dim, 2, degree)
        same(ym_embed(x, eta), oracle.ym_embed(x, eta))
