"""Metric deformation of the graded structure and the gauge-theory match."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from bvdouble.bvcomplex import BVElement, op_b, random_element
from bvdouble.bvops import m_op, sign
from bvdouble.deform import (
    LieValuedBVElement,
    MatrixFunction,
    Q_eta,
    R_eta,
    bracket_laplacian,
    dictionary_fields,
    gauge_variation,
    mc_from_fields,
    mc_residual,
    mc_ym_residual,
    mu_bar_eta,
    mu_bar_eta_table,
    ym_field_residual,
)
from bvdouble.exterior import random_ym_element
from bvdouble.scalars import Metric, random_scalar
from bvdouble.suites import (
    _ELEMENT,
    _FORM_ELEMENT,
    _SUITES,
    SuiteConfig,
    _deform_laws,
    _equal_degree_pairs,
    _vanishes,
    run_suite,
)

LORENTZ = Metric.diagonal([1, 1, -1])
DIM = 3
PAIRS = [(d1, d2) for d1 in range(4) for d2 in range(4)]


def _random_degree_laws(rows):
    """{id: (arity, residual, draw)} for the zero-expectation rows whose
    arguments are elements of random degree, with the draw of one element
    at a given degree."""
    laws = {}
    for ident, _, draws, res, *rest in rows:
        if rest[:1] == ["nonzero"]:
            continue
        if draws is _equal_degree_pairs:
            laws[ident] = (2, res, random_ym_element)
            continue
        if callable(draws) or len(draws) != 1:
            continue
        (recipe,) = draws
        for element, draw in ((_ELEMENT, random_element), (_FORM_ELEMENT, random_ym_element)):
            if set(recipe) == {element}:
                laws[ident] = (len(recipe), res, draw)
    return laws


def _arity_and_residual(laws):
    return {ident: (arity, fn) for ident, (arity, fn, _) in laws.items()}


def _case_id(suite, ident):
    # deform ids drop their suite prefix and exterior ids stay as they are;
    # the other suites' ids gain their suite's name, which keeps bvlz and
    # deform ``homotopy-associativity`` apart
    if suite == "deform":
        return ident.removeprefix("deform-")
    return ident if suite == "exterior" else f"{suite}-{ident}"


LAWS = _arity_and_residual(_random_degree_laws(_deform_laws(LORENTZ)))
# every law of every suite on elements of random degree, with the draw of
# its arguments
_SMALL = SuiteConfig(dim=DIM, metric=LORENTZ, mode_cutoff=1, samples=1, matrix_rank=1)
LAW_CASES = [
    pytest.param(ident, arity, fn, draw, id=_case_id(suite, ident))
    for suite, build in _SUITES.items()
    for ident, (arity, fn, draw) in _random_degree_laws(build(_SMALL)[0]).items()
]


@pytest.fixture
def rng():
    return random.Random(98765)


def elem(rng, degree, cutoff=1):
    return random_element(rng, DIM, cutoff, degree)


@lru_cache(maxsize=None)
def _deform_rows():
    cfg = SuiteConfig(dim=DIM, metric=LORENTZ, mode_cutoff=1, samples=4, seed=3)
    return {row["id"]: row for row in run_suite("deform", cfg)["identities"]}


# -- the deformed homotopy relations ---------------------------------------


@pytest.mark.parametrize("ident,arity,fn,draw", LAW_CASES)
def test_identity_pool_member(ident, arity, fn, draw):
    # unary and binary laws see every degree pattern twice, ternary and
    # quaternary ones every pattern once (64 and 256): some homotopy terms,
    # such as p(nu(a1, a2, a3), a4) of the pentagon, are nonzero on only a
    # few of them
    name = ident.removeprefix("deform-")
    rng = random.Random(f"pool:{name}")
    patterns = list(itertools.product(range(4), repeat=arity))
    if arity <= 2:
        patterns = [p for p in patterns for _ in range(2)]
    failing = [
        degs for degs in patterns if not _vanishes(fn(*(draw(rng, DIM, 1, d) for d in degs)))
    ]
    assert not failing, f"{ident} fails on {len(failing)} of {len(patterns)} patterns: {failing}"


def test_residual_driver_reports_all_clean():
    rows = _deform_rows()
    for ident in LAWS:
        row = rows[ident]
        assert row["passed"] and row["samples"] == 4, ident


def test_product_correction_graded_flip(rng):
    # regression: the flip law carries the graded sign, visible only on (1,1)
    for d1, d2 in PAIRS:
        for _ in range(3):
            x, y = elem(rng, d1), elem(rng, d2)
            res = (
                mu_bar_eta(x, y, LORENTZ)
                - sign(d1 * d2) * mu_bar_eta(y, x, LORENTZ)
                - R_eta(m_op(x, y), LORENTZ)
                - m_op(R_eta(x, LORENTZ), y)
                - sign(d1) * m_op(x, R_eta(y, LORENTZ))
            )
            assert res.is_zero()


def test_product_correction_matches_the_cell_table(rng):
    for d1, d2 in PAIRS:
        x, y = elem(rng, d1), elem(rng, d2)
        lhs = mu_bar_eta(x, y, LORENTZ)
        assert (lhs - mu_bar_eta_table(x, y, LORENTZ)).is_zero()


def test_deforming_operator_matches_slotwise_arrows():
    _, fn = LAWS["deform-r-slotwise-table"]
    rng = random.Random(11)
    for _ in range(4):
        for degree in range(4):
            assert fn(elem(rng, degree, 2)).is_zero(), degree


def test_deforming_operator_squares_to_zero(rng):
    for degree in range(4):
        for _ in range(3):
            x = elem(rng, degree, 2)
            assert R_eta(R_eta(x, LORENTZ), LORENTZ).is_zero()
            assert Q_eta(Q_eta(x, LORENTZ), LORENTZ).is_zero()


def test_antibracket_generator_commutator_is_the_laplacian(rng):
    for degree in range(4):
        x = elem(rng, degree, 2)
        res = (
            Q_eta(op_b(x), LORENTZ)
            + op_b(Q_eta(x, LORENTZ))
            + bracket_laplacian(x, LORENTZ)
        )
        assert res.is_zero()


def test_deformed_bracket_loses_the_derivation_property():
    rows = _deform_rows()
    comm = rows["deform-bracket-laplacian"]
    assert comm["passed"] and comm["samples"] == 4 * 4  # every degree per sample
    defect = rows["deform-derivation-defect-witness"]
    assert defect["passed"] and defect["witness"] is not None


def test_deformation_with_euclidean_signature(rng):
    # the relations hold for any flat invertible metric, not just (2,1)
    euclid = Metric.diagonal([1, 1, 1])
    laws = _arity_and_residual(_random_degree_laws(_deform_laws(euclid)))
    for name in ("q-eta-squared", "mu-bar-antisymmetry", "q-mu-bar-plus-r-mu"):
        arity, fn = laws[f"deform-{name}"]
        for degs in itertools.product(range(4), repeat=arity):
            xs = [elem(rng, d) for d in degs]
            assert fn(*xs).is_zero()


# -- the gauge-theory comparison -------------------------------------------


def _random_psi(rng, rank, cutoff):
    avec = [MatrixFunction.random(rng, rank, DIM, cutoff) for _ in range(DIM)]
    bform = [MatrixFunction.random(rng, rank, DIM, cutoff) for _ in range(DIM)]
    return mc_from_fields(avec, bform, LORENTZ)


DICTIONARY_METRICS = {
    "D2": Metric.diagonal([1, -1]),
    "D3-lorentzian": LORENTZ,
    "D3-dense": Metric(
        [[Fraction(5, 4), Fraction(3, 4), 0], [Fraction(3, 4), Fraction(5, 4), 0], [0, 0, -1]]
    ),
    "D3-third": Metric.diagonal([Fraction(1, 3), 1, -1]),
    "D4": Metric.diagonal([1, 1, 1, -1]),
}


@pytest.mark.parametrize("rank", (1, 2))
@pytest.mark.parametrize("name", DICTIONARY_METRICS)
def test_dictionary_constants_close_the_ym_residual(name, rank):
    # the constants 2 and 2 hold on commuting (rank 1) and non-commuting
    # (rank 2) fields alike, on definite, Lorentzian and dense metrics
    eta = DICTIONARY_METRICS[name]
    rng = random.Random(f"dictionary:{name}:{rank}")
    avec = [MatrixFunction.random(rng, rank, eta.dim, 1) for _ in range(eta.dim)]
    bform = [MatrixFunction.random(rng, rank, eta.dim, 1) for _ in range(eta.dim)]
    psi = mc_from_fields(avec, bform, eta)
    aslot, pslot, scalars = mc_ym_residual(psi, eta)
    assert len(aslot) == len(pslot) == eta.dim
    assert all(m.is_zero() for m in aslot + pslot) and scalars.is_zero()
    # the match is not 0 == 0: both field residual families are nonzero here
    e1, e2 = ym_field_residual(*dictionary_fields(psi, eta), eta)
    assert not all(m.is_zero() for m in e1) and not all(m.is_zero() for m in e2)


def test_gauge_moves_become_covariant_transformations(rng):
    for _ in range(3):
        rank = 2
        psi = _random_psi(rng, rank, 1)
        umat = MatrixFunction.random(rng, rank, DIM, 1)
        delta = gauge_variation(psi, umat, LORENTZ)
        cala, phi = dictionary_fields(psi, LORENTZ)
        da, dp = dictionary_fields(delta, LORENTZ)
        for k in range(DIM):
            assert (da[k] - (umat.derivative(k) + cala[k].commutator(umat))).is_zero()
            assert (dp[k] - phi[k].commutator(umat)).is_zero()


def test_degree_constraints_on_field_and_parameter(rng):
    psi = _random_psi(rng, 2, 1)
    umat = MatrixFunction.random(rng, 2, DIM, 1)
    u = LieValuedBVElement(
        [[BVElement.deg0(umat.entry(p, q)) for q in range(2)] for p in range(2)]
    )
    # the gauge parameter is the matrix itself, not a grid of degree-0 elements
    for grid in (psi, u):
        with pytest.raises(TypeError, match="MatrixFunction"):
            gauge_variation(psi, grid, LORENTZ)
    with pytest.raises(ValueError):
        mc_residual(u, LORENTZ)
    with pytest.raises(ValueError):
        gauge_variation(_random_psi(rng, 1, 1), umat, LORENTZ)


def test_matrix_inputs_are_validated_without_assert(rng):
    # only pytest.raises below, so the test means the same under python -O
    f2, f3 = random_scalar(rng, 2, 1), random_scalar(rng, 3, 1)
    for rows, error in [
        ([], ValueError),
        ([[f3, f3]], ValueError),
        ([[f3, f3], [f3]], ValueError),
        ([[f3, f2], [f3, f3]], ValueError),
        ([[f3, 1], [f3, f3]], TypeError),
    ]:
        with pytest.raises(error):
            MatrixFunction(rows)
    one, two = MatrixFunction([[f3]]), MatrixFunction.zero(2, 3)
    with pytest.raises(ValueError):
        one + two
    with pytest.raises(ValueError):
        one - two
    with pytest.raises(TypeError):
        one + f3


def zero_grid(degree, dim, rank):
    """A rank x rank grid of ``BVElement.zero(degree, dim)`` entries."""
    return LieValuedBVElement([[BVElement.zero(degree, dim)] * rank for _ in range(rank)])


def test_lie_valued_inputs_are_validated_without_assert(rng):
    x1, x0 = elem(rng, 1), elem(rng, 0)
    for grid, error in [
        ([], ValueError),
        ([[x1, x1]], ValueError),
        ([[x1, x0], [x1, x1]], ValueError),
        ([[x1, random_element(rng, 2, 1, 1)], [x1, x1]], ValueError),
        ([[x1, x0.scalar], [x1, x1]], TypeError),
    ]:
        with pytest.raises(error):
            LieValuedBVElement(grid)
    # a zero entry of another degree is accepted
    LieValuedBVElement([[x1, BVElement.zero(0, DIM)], [x1, x1]])
    one, two = LieValuedBVElement([[x1]]), zero_grid(1, DIM, 2)
    with pytest.raises(ValueError):
        one + two
    with pytest.raises(TypeError):
        one + x1


def test_lie_valued_equality_is_entrywise():
    def residual():
        return mc_residual(_random_psi(random.Random(606), 2, 1), LORENTZ)

    r1, r2 = residual(), residual()
    assert r1 is not r2 and r1.rows[0][0] is not r2.rows[0][0]
    assert r1 == r2 and not r1 != r2
    entry = r1.entry(0, 1)
    changed = LieValuedBVElement(
        [[r1.entry(0, 0), entry + entry], list(r1.rows[1])]
    )
    assert not entry.is_zero() and changed != r1 and r1 != changed
    assert r1.__eq__(r1.entry(0, 0)) is NotImplemented and r1 != r1.entry(0, 0)


def test_lie_valued_zero_grids_compare_by_degree_rank_and_torus():
    # as for BVElement: a zero keeps its degree, so zeros of two degrees differ
    assert zero_grid(1, DIM, 2) == zero_grid(1, DIM, 2)
    assert zero_grid(1, DIM, 2) != zero_grid(2, DIM, 2)
    assert zero_grid(1, DIM, 2) != zero_grid(1, DIM, 3)
    assert zero_grid(1, DIM, 2) != zero_grid(1, 2, 2)
