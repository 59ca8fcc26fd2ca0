"""The int-backed Q(i) arithmetic against the Fraction-pair oracle.

``fraction_gauss.FractionGauss`` stores re and im as two Fractions; the
package's ``GaussRational`` stores (a + b*i)/d as three canonical ints.  Every
operation must agree on the value and the ``.re``/``.im`` parts, and must
leave the result canonical: d > 0 and gcd(a, b, d) == 1.
"""

import operator
from fractions import Fraction
from math import gcd

import pytest
from fraction_gauss import FractionGauss
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdouble.scalars import FourierScalar, GaussRational

parts = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
)
pairs = st.tuples(parts, parts)
reals = st.one_of(st.integers(-40, 40), st.fractions(max_denominator=30))
OPS = (operator.add, operator.sub, operator.mul)
# the operations a Gaussian rational also supports with the rational on the left
REFLECTED = (operator.add, operator.mul)


def both(pair):
    return GaussRational(*pair), FractionGauss(*pair)


def assert_matches(got, want):
    assert type(got) is GaussRational
    assert got._d > 0 and gcd(got._a, got._b, got._d) == 1
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (want.re, want.im)
    assert bool(got) == bool(want)


@given(pairs)
def test_construction_unary_ops_and_bool_match_oracle(x):
    g, f = both(x)
    assert_matches(g, f)
    assert_matches(g * -1, -f)
    assert_matches(GaussRational(g.re, -g.im), f.conjugate())
    assert_matches(GaussRational(g), f)
    assert_matches(GaussRational(g, g), f * FractionGauss(1, 1))


@given(pairs, pairs, st.sampled_from(OPS))
def test_binary_ops_match_oracle(x, y, op):
    (g, f), (h, k) = both(x), both(y)
    assert_matches(op(g, h), op(f, k))


@given(pairs, reals, st.sampled_from(OPS))
def test_ops_with_int_and_fraction_match_oracle_both_ways(x, r, op):
    g, f = both(x)
    assert_matches(op(g, r), op(f, r))
    if op in REFLECTED:
        assert_matches(op(r, g), op(r, f))


@given(pairs, pairs, reals)
def test_equality_matches_oracle(x, y, r):
    (g, f), (h, k) = both(x), both(y)
    assert (g == h) == (f == k)
    assert (g != h) == (f != k)
    assert (g == r) == (f == r)
    assert (r == g) == (r == f)
    assert g == g.re + GaussRational(0, 1) * g.im


@settings(max_examples=60)
@given(pairs, st.lists(st.tuples(st.sampled_from(OPS), pairs), max_size=12))
def test_operation_chains_stay_canonical(start, steps):
    g, f = both(start)
    for op, y in steps:
        h, k = both(y)
        g, f = op(g, h), op(f, k)
        assert_matches(g, f)


def test_non_rational_operands_are_rejected():
    x = GaussRational(1, 1)
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(TypeError):
        x * 0.5
    assert (x == "1") is False


# -- the trusted FourierScalar constructor ---------------------------------

# small coefficients so that sums and convolutions cancel often
small = st.builds(
    GaussRational,
    st.sampled_from((0, 1, -1, Fraction(1, 2), Fraction(-1, 2))),
    st.sampled_from((0, 1, -1, Fraction(1, 2))),
)


def scalars(dim=2):
    mode = st.tuples(*([st.integers(-1, 1)] * dim))
    return st.dictionaries(mode, small, max_size=4).map(
        lambda coeffs: FourierScalar(dim, coeffs)
    )


def assert_public_form(f):
    rebuilt = FourierScalar(f.dim, f.coeffs)
    assert f.coeffs == rebuilt.coeffs and f == rebuilt
    assert all(f.coeffs.values()), "a zero coefficient was stored"
    for mode, c in f.coeffs.items():
        assert type(mode) is tuple and len(mode) == f.dim
        assert all(type(k) is int for k in mode)
        assert type(c) is GaussRational


@settings(max_examples=150)
@given(scalars(), scalars(), small, st.integers(0, 1))
def test_trusted_results_equal_the_public_constructor(f, g, s, j):
    for result in (
        f + g,
        f - g,
        f - f,
        -f,
        f * g,
        f * s,
        s * f,
        f * 0,
        f * Fraction(0),
        f + FourierScalar.const(f.dim, s),
        f.derivative(j),
        (f * g).derivative(j),
    ):
        assert_public_form(result)


def test_convolution_cancellation_drops_the_mode():
    # (e_1 + e_-1) * (e_1 - e_-1) = e_2 - e_-2: the constant modes cancel
    f = FourierScalar(1, {(1,): 1, (-1,): 1})
    g = FourierScalar(1, {(1,): 1, (-1,): -1})
    product = f * g
    assert product.coeffs == {(2,): GaussRational(1), (-2,): GaussRational(-1)}
    assert_public_form(product)


def test_derivative_drops_modes_with_zero_component():
    f = FourierScalar(2, {(0, 1): GaussRational(3), (2, 0): GaussRational(0, 1)})
    assert f.derivative(0).coeffs == {(2, 0): GaussRational(-2)}
    assert f.derivative(1).coeffs == {(0, 1): GaussRational(0, 3)}
