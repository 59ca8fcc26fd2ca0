"""Exact coefficient and torus-scalar arithmetic."""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalars_oracle import metric_pairs, seeded_scalar

from bvdouble.bvcomplex import random_element
from bvdouble.deform import LieValuedBVElement, MatrixFunction
from bvdouble.doublecopy import random_bivector
from bvdouble.exterior import random_form, random_ym_element
from bvdouble.sections import random_section
from bvdouble.serialize import canonical_dumps
from bvdouble.scalars import (
    FourierScalar,
    GaussRational,
    Metric,
    _constant,
    integral_of_products,
    laplacian,
    random_coefficient,
    random_scalar,
    sum_of_products,
)

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
gauss = st.builds(GaussRational, fractions, fractions)


def scalars(dim=2, max_modes=3):
    mode = st.tuples(*([st.integers(-2, 2)] * dim))
    entry = st.tuples(mode, gauss)
    return st.lists(entry, max_size=max_modes).map(
        lambda items: FourierScalar(dim, dict(items))
    )


# -- Gaussian rationals ----------------------------------------------------


@given(gauss, gauss, gauss)
def test_gauss_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(gauss)
def test_gauss_conjugate_norm_is_real(a):
    norm = a * GaussRational(a.re, -a.im)
    assert norm.im == 0
    assert norm.re == a.re * a.re + a.im * a.im


def test_gauss_i_squares_to_minus_one():
    i = GaussRational(0, 1)
    assert i * i == GaussRational(-1)


# -- Fourier scalars -------------------------------------------------------


@settings(max_examples=60)
@given(scalars(), scalars(), scalars())
def test_scalar_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_product_convolves_modes():
    f = FourierScalar.harmonic(2, (1, 0), GaussRational(2))
    g = FourierScalar.harmonic(2, (0, -1), GaussRational(0, 1))
    assert f * g == FourierScalar.harmonic(2, (1, -1), GaussRational(0, 2))


def test_derivative_multiplies_by_i_mode():
    f = FourierScalar.harmonic(3, (2, -1, 0), GaussRational(1))
    assert f.derivative(0) == FourierScalar.harmonic(3, (2, -1, 0), GaussRational(0, 2))
    assert f.derivative(1) == FourierScalar.harmonic(3, (2, -1, 0), GaussRational(0, -1))
    assert f.derivative(2).is_zero()


@settings(max_examples=60)
@given(scalars(), scalars(), st.integers(0, 1))
def test_derivative_is_a_derivation(f, g, j):
    lhs = (f * g).derivative(j)
    rhs = f.derivative(j) * g + f * g.derivative(j)
    assert (lhs - rhs).is_zero()


@settings(max_examples=60)
@given(scalars(), st.integers(0, 1), st.integers(0, 1))
def test_mixed_partials_commute(f, i, j):
    assert f.derivative(i).derivative(j) == f.derivative(j).derivative(i)


def test_integral_reads_the_constant_mode():
    f = FourierScalar(
        2,
        {(0, 0): GaussRational(Fraction(3, 2)), (1, 1): GaussRational(7)},
    )
    assert f.integral() == GaussRational(Fraction(3, 2))
    assert FourierScalar.harmonic(2, (1, 0)).integral() == GaussRational(0)


@settings(max_examples=60)
@given(scalars(), st.integers(0, 1))
def test_integration_by_parts(f, j):
    # the integral of a total derivative over the torus vanishes
    assert not f.derivative(j).integral()


def test_normalization_drops_zero_coefficients():
    f = FourierScalar(2, {(1, 0): GaussRational(0), (0, 1): GaussRational(1)})
    assert (1, 0) not in f.coeffs
    g = FourierScalar.harmonic(2, (0, 1))
    assert (f - g).is_zero()


def test_public_constructor_validates_without_assert():
    with pytest.raises(ValueError, match="dimension"):
        FourierScalar(0)
    with pytest.raises(ValueError, match="arity"):
        FourierScalar(2, {(1, 0, 0): GaussRational(1)})


reals = st.one_of(st.integers(-6, 6), fractions)


@given(reals, gauss, st.integers(1, 3))
def test_equal_values_compare_equal(r, g, dim):
    as_gauss = GaussRational(r)
    assert as_gauss == r and r == as_gauss
    assert GaussRational(r, 0) == as_gauss
    for value in (r, as_gauss, g):
        const = FourierScalar.const(dim, value)
        assert const == FourierScalar.const(dim, GaussRational(value))
        assert const.integral() == value
    rebuilt = GaussRational(g.re, g.im)
    assert rebuilt == g


class _Ratio(Fraction):
    pass


# inexact, non-numeric or merely int-like: a constant is read by exact type
NOT_CONSTANTS = (0.5, 0.1, "1/3", True, False, 1j, None, _Ratio(1, 3))


def test_constant_entry_points_take_only_ints_fractions_and_gauss_rationals():
    g, f = GaussRational(1, 1), FourierScalar.harmonic(2, (1, 0))
    for bad in NOT_CONSTANTS:
        assert _constant(bad) is None
        for build in (
            lambda: GaussRational(bad),
            lambda: GaussRational(0, bad),
            lambda: FourierScalar(2, {(0, 0): bad}),
            lambda: FourierScalar.const(2, bad),
            lambda: FourierScalar.harmonic(2, (1, 0), bad),
        ):
            with pytest.raises(TypeError):
                build()
        for x in (g, f):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(x, bad)
                with pytest.raises(TypeError):
                    op(bad, x)
            assert (x == bad) is False and (bad == x) is False
    # a scalar adds only scalars: a constant enters as ``FourierScalar.const``
    for c in (1, Fraction(1, 2), GaussRational(0, 1)):
        with pytest.raises(TypeError):
            f + c
        with pytest.raises(TypeError):
            c - f
        assert f * c == f * FourierScalar.const(2, c) and (f == c) is False
    # the three exact types parse to one canonical triple, on either part
    assert _constant(Fraction(6, 4)) == (3, 0, 2) and _constant(-7) == (-7, 0, 1)
    assert GaussRational(Fraction(1, 2), GaussRational(0, 1)) == GaussRational(Fraction(-1, 2))
    assert GaussRational(g, Fraction(1, 3)) == GaussRational(1, Fraction(4, 3))
    # equality reads the whole triple: values that differ only in d differ
    assert GaussRational(Fraction(1, 2)) != GaussRational(1) and Fraction(1, 2) != GaussRational(1)


# -- metrics ---------------------------------------------------------------


def test_metric_inverse_is_exact():
    m = Metric([[2, 1], [1, 1]])
    for i in range(2):
        for j in range(2):
            acc = sum(m.upper[i][k] * m.lower[k][j] for k in range(2))
            assert acc == (1 if i == j else 0)
    assert m.det_upper == Fraction(1)


def test_metric_rejects_singular_and_asymmetric():
    with pytest.raises(ValueError):
        Metric([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="symmetric"):
        Metric([[1, 2], [3, 1]])
    with pytest.raises(ValueError, match="square"):
        Metric([[1, 0], [0]])


LORENTZ = Metric.diagonal([1, 1, -1])
DENSE = Metric(
    [
        [Fraction(5, 4), Fraction(3, 4), 0],
        [Fraction(3, 4), Fraction(5, 4), 0],
        [0, 0, -1],
    ]
)
# positive definite, off-diagonal: 2 on the diagonal, 1/2 beside it
DEFINITE6 = Metric(
    [[2 if i == j else Fraction(1, 2) if abs(i - j) == 1 else 0 for j in range(6)] for i in range(6)]
)
METRICS = {"lorentz": LORENTZ, "dense": DENSE, "definite6": DEFINITE6}


def _index_values(kind, rng, dim):
    if kind == "scalar":
        return [random_scalar(rng, dim, 2) for _ in range(dim)]
    if kind == "element":
        degree = rng.choice(range(4))
        return [random_element(rng, dim, 1, degree) for _ in range(dim)]
    return [MatrixFunction.random(rng, 2, dim, 1) for _ in range(dim)]


@pytest.mark.parametrize("kind", ["scalar", "element", "matrix"])
@pytest.mark.parametrize("name", sorted(METRICS))
def test_lower_index_inverts_raise_index(name, kind):
    eta = METRICS[name]
    rng = random.Random(f"index:{name}:{kind}")
    for _ in range(3):
        ts = _index_values(kind, rng, eta.dim)
        assert eta.lower_index(eta.raise_index(ts)) == ts
        assert eta.raise_index(eta.lower_index(ts)) == ts


@pytest.mark.parametrize("name", sorted(METRICS))
def test_raise_index_and_pairs_follow_the_matrix(name):
    eta = METRICS[name]
    n = eta.dim
    rng = random.Random(f"raise:{name}")
    ts = [random_scalar(rng, n, 2) for _ in range(n)]
    for i, t in enumerate(eta.raise_index(ts)):
        expected = sum((ts[j] * eta.upper[i][j] for j in range(n)), FourierScalar.zero(n))
        assert t == expected
    assert metric_pairs(eta) == [
        (i, j, eta.upper[i][j]) for i in range(n) for j in range(n) if eta.upper[i][j]
    ]


def test_definiteness():
    assert DEFINITE6.is_definite()
    assert Metric.diagonal([-1, -2]).is_definite()
    assert not LORENTZ.is_definite()
    assert not DENSE.is_definite()


def test_volume_root():
    # eta^{ij} = diag(1/4, 9, -1): |det eta_{ij}| = 4/9, a rational square
    assert Metric.diagonal([Fraction(1, 4), 9, -1]).volume_root() == Fraction(2, 3)
    assert DENSE.volume_root() == 1
    assert Metric.diagonal([1, 2]).volume_root() is None


@pytest.mark.parametrize("name", sorted(METRICS))
def test_laplacian_is_the_double_sum(name):
    eta = METRICS[name]
    n = eta.dim
    f = random_scalar(random.Random(f"lap:{name}"), n, 2, max_modes=4)
    expected = FourierScalar.zero(n)
    for i in range(n):
        for j in range(n):
            expected = expected + f.derivative(i).derivative(j) * eta.upper[i][j]
    assert laplacian(f, eta) == expected


# the raised gradient reads a scalar's Fourier terms, so it takes scalars only
@pytest.mark.parametrize("kind", ["scalar"])
@pytest.mark.parametrize("name", sorted(METRICS))
def test_gradient_is_the_double_sum(name, kind):
    eta = METRICS[name]
    n = eta.dim
    rng = random.Random(f"gradient:{name}:{kind}")
    for x in _index_values(kind, rng, n):
        expected = []
        for i in range(n):
            acc = x * 0
            for j in range(n):
                acc = acc + x.derivative(j) * eta.upper[i][j]
            expected.append(acc)
        assert eta.gradient(x) == expected


def test_laplacian_eigenvalue_on_harmonics():
    eta = Metric.diagonal([1, 1, -1])
    f = FourierScalar.harmonic(3, (1, 2, 2))
    # sum eta^{jj} (i k_j)^2 = -(1 + 4 - 4) = -1
    assert laplacian(f, eta) == f * GaussRational(-1)


def test_random_scalar_respects_cutoff():
    rng = random.Random(0)
    for dim in (3, 1, 8):
        for _ in range(50):
            f = random_scalar(rng, dim, 2)
            for mode in f.coeffs:
                assert len(mode) == dim and all(abs(k) <= 2 for k in mode)
            # nonzero on these 150 draws of seed 0; the docstring allows zero
            # when two draws of one mode cancel (pinned below)
            assert f.coeffs
            assert f.reach == 2  # the packed-mode bound is the cutoff


def test_random_scalar_can_cancel_to_zero_as_documented():
    # two draws on one mode with opposite coefficients leave the zero scalar:
    # at D = 1, cutoff 1, for 15 of the seeds 0..2999, the first being 1255
    zeros = [s for s in range(3000) if random_scalar(random.Random(s), 1, 1).is_zero()]
    assert len(zeros) == 15 and zeros[0] == 1255
    assert random_scalar(random.Random(1255), 1, 1).reach == 1


def test_random_coefficient_is_nonzero():
    rng = random.Random(1)
    for _ in range(100):
        assert random_coefficient(rng)


# -- the coefficient seam --------------------------------------------------


def assert_canonical_triples(f):
    """Every stored coefficient is a canonical nonzero (a, b, d) int triple."""
    for mode, t in f._terms.items():
        assert type(mode) is int
        assert type(t) is tuple and len(t) == 3 and all(type(x) is int for x in t)
        a, b, d = t
        assert d > 0 and (a or b) and gcd(a, b, d) == 1


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("den", [1, 2, 4, 6])
def test_every_operation_stores_canonical_triples(dim, den):
    factors = (3, -2, 0, Fraction(2, 3), Fraction(-4, 1), GaussRational(Fraction(1, 2), 1))
    for seed in range(20):
        rng = random.Random(f"seam:{dim}:{den}:{seed}")
        f, g, h = (seeded_scalar(rng, dim, den) for _ in range(3))
        results = [f, g, h, f + g, f - g, f - f, -f, f * g, f * f]
        results += [f * s for s in factors] + [s * g for s in factors]
        results += [f.derivative(j) for j in range(dim)]
        # f*g cancels against g*f, and h*g against twice its half
        cancelled = sum_of_products(dim, [(f, g), (h, g)], [(g, f), (h * Fraction(1, 2), g * 2)])
        assert cancelled.is_zero()
        results += [
            sum_of_products(dim, [(f, g), (h, g)], [(g, f)]),
            sum_of_products(dim, [(f, g), (g, h)], [(h, f)]),
            random_scalar(rng, dim, 2, max_modes=4),
        ]
        for r in results:
            assert_canonical_triples(r)


@pytest.mark.parametrize("w", [1, -1, 2, -2, 3, -3])
def test_weighted_sum_is_the_sum_with_the_scaled_term(w):
    # f.__add__(g, w) is f + w*g in one merge, over mixed denominators, on
    # shared and unshared modes, and where some or all of the sum cancels
    for seed in range(20):
        rng = random.Random(f"weighted:{w}:{seed}")
        f, g = seeded_scalar(rng, 2, 2), seeded_scalar(rng, 2, 3)
        h = g * -w + seeded_scalar(rng, 2, 4, max_terms=2)
        for x, y in [(f, g), (g, f), (h, g), (g * -w, g), (f, FourierScalar.zero(2))]:
            got = x.__add__(y, w)
            assert got == x + y * w
            assert_canonical_triples(got)
        assert (g * -w).__add__(g, w).is_zero()
        third = FourierScalar.const(2, Fraction(1, 3))
        assert f.__add__(third, w) == f + FourierScalar.const(2, Fraction(w, 3))


def _reflected(f):
    """f(-x): every mode negated, so each term of f meets one of it in f*f(-x)."""
    return FourierScalar(f.dim, {tuple(-k for k in m): c for m, c in f.coeffs.items()})


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_integral_of_products_is_the_integral_of_the_sum(dim):
    # empty groups, zero factors, negated pairs only, products whose mode-0
    # terms add up over shared and coprime denominators, and pairs that cancel
    zero = FourierScalar.zero(dim)
    nonzero = 0
    for seed in range(20):
        rng = random.Random(f"integral:{dim}:{seed}")
        f, g, h = seeded_scalar(rng, dim, 2), seeded_scalar(rng, dim, 3), seeded_scalar(rng, dim, 4)
        rf, rg = _reflected(f), _reflected(g)
        cases = [
            ((), ()),
            ([(f, zero), (zero, g)], [(zero, zero)]),
            ((), [(f, rf)]),
            ((), [(f, g), (g, rg), (h, f)]),
            ([(f, rf), (g, rg), (h, rf)], [(rg, f)]),
            ([(f, g), (h, h)], [(g, f), (h, rg), (f, rf)]),
            ([(f, rg)], [(rg, f)]),
            ([(f, rf), (f, rf)], [(f * Fraction(1, 2), rf * 4)]),
        ]
        for pairs, negated in cases:
            got = integral_of_products(dim, iter(pairs), iter(negated))
            want = sum_of_products(dim, pairs, negated).integral()
            assert type(got) is GaussRational and got == want
            assert canonical_dumps(got) == canonical_dumps(want)
            assert got._d > 0 and gcd(got._a, got._b, got._d) == 1
            nonzero += bool(got)
        assert integral_of_products(dim, [(f, rg)]) == (f * rg).integral()
    assert nonzero > 40


def test_integral_of_products_refuses_another_torus():
    rng = random.Random("integral-torus")
    f, g = random_scalar(rng, 3, 1), random_scalar(rng, 2, 1)
    for pairs, negated in (([(f, g)], ()), ((), [(g, f)]), ([(f, f)], [(f, g)])):
        with pytest.raises(ValueError):
            integral_of_products(3, pairs, negated)
    with pytest.raises(ValueError):
        integral_of_products(2, [(f, f)])


# -- the linear structure of every container -------------------------------


def _grids(rng, size):
    """One random value of each ``Linear`` type, all of one size: the grids of
    rank ``size`` (on T^2, the bivector on T^4), the others on T^size."""
    return [
        MatrixFunction.random(rng, size, 2, 2),
        LieValuedBVElement(
            [[random_element(rng, 2, 2, 1) for _ in range(size)] for _ in range(size)]
        ),
        random_bivector(rng, size, 2),
        random_section(rng, size, 2),
        random_element(rng, size, 2, 1),
        random_form(rng, size, 2, 1),
        random_ym_element(rng, size, 2, 1),
    ]


KINDS = len(_grids(random.Random(0), 1))


@pytest.mark.parametrize("kind", range(KINDS))
def test_grid_difference_is_the_sum_with_the_negation(kind):
    rng = random.Random(kind)
    for size in (1, 2, 3):
        for _ in range(5):
            g, h = _grids(rng, size)[kind], _grids(rng, size)[kind]
            assert g - h == g + (-h)
            assert canonical_dumps(g - h) == canonical_dumps(g + (-h))
            assert (g - g).is_zero() and type(g - h) is type(g)
            for c in (1, -1, 0, 3, Fraction(1, 2), GaussRational(0, 1)):
                for scaled in (g * c, c * g):
                    assert type(scaled) is type(g)
                    assert scaled.parts() == tuple(p * c for p in g.parts())
                    assert scaled.is_zero() == (c == 0)


@pytest.mark.parametrize("kind", range(KINDS))
def test_grid_difference_checks_the_rank_and_the_type(kind):
    rng = random.Random(kind)
    g, h = _grids(rng, 2)[kind], _grids(rng, 3)[kind]
    other = _grids(rng, 2)[(kind + 1) % KINDS]
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError, match="(rank|dimension) 2 and 3"):
            op(g, h)
        for operand in (1, random_scalar(rng, 2, 2), other):
            with pytest.raises(TypeError):
                op(g, operand)
            with pytest.raises(TypeError):
                op(operand, g)
    with pytest.raises(TypeError):
        g * other
    with pytest.raises(TypeError, match="-"):
        g - 1
