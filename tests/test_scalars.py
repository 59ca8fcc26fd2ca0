"""Exact coefficient and torus-scalar arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdouble.scalars import (
    FourierScalar,
    GaussRational,
    Metric,
    laplacian,
    random_coefficient,
    random_scalar,
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


@given(gauss, gauss)
def test_gauss_division_inverts_multiplication(a, b):
    if not b:
        return
    assert (a * b) / b == a
    assert (a / b) * b == a


@given(gauss)
def test_gauss_conjugate_norm_is_real(a):
    norm = a * a.conjugate()
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
def test_equal_values_hash_equal(r, g, dim):
    as_gauss = GaussRational(r)
    assert as_gauss == r and hash(as_gauss) == hash(r)
    assert GaussRational(r, 0) == as_gauss and hash(GaussRational(r, 0)) == hash(r)
    for value in (r, as_gauss, g):
        const = FourierScalar.const(dim, value)
        assert const == value and hash(const) == hash(value)
    if g == as_gauss:
        assert hash(g) == hash(r)
    rebuilt = GaussRational(g.re, g.im)
    assert rebuilt == g and hash(rebuilt) == hash(g)


def test_hash_examples():
    assert hash(GaussRational(3)) == hash(3)
    assert hash(GaussRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(FourierScalar.const(3, 2)) == hash(2)
    assert hash(FourierScalar.zero(2)) == hash(0)
    assert {GaussRational(3): "x"}[3] == "x"


# -- metrics ---------------------------------------------------------------


def test_metric_inverse_is_exact():
    m = Metric([[2, 1], [1, 1]])
    for i in range(2):
        for j in range(2):
            acc = sum(m.up(i, k) * m.down(k, j) for k in range(2))
            assert acc == (1 if i == j else 0)
    assert m.det_upper == Fraction(1)


def test_metric_rejects_singular_and_asymmetric():
    with pytest.raises(ValueError):
        Metric([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="symmetric"):
        Metric([[1, 2], [3, 1]])
    with pytest.raises(ValueError, match="square"):
        Metric([[1, 0], [0]])


def test_laplacian_eigenvalue_on_harmonics():
    eta = Metric.diagonal([1, 1, -1])
    f = FourierScalar.harmonic(3, (1, 2, 2))
    # sum eta^{jj} (i k_j)^2 = -(1 + 4 - 4) = -1
    assert laplacian(f, eta) == f * GaussRational(-1)


def test_random_scalar_respects_cutoff():
    rng = random.Random(0)
    for _ in range(50):
        f = random_scalar(rng, 3, 2)
        for mode in f.coeffs:
            assert all(abs(k) <= 2 for k in mode)
        assert f.coeffs  # never silently zero


def test_random_coefficient_is_nonzero():
    rng = random.Random(1)
    for _ in range(100):
        assert random_coefficient(rng)
