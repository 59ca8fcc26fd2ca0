"""Packed Fourier modes: each mode vector is stored as one int.

The public constructor packs a mode tuple, ``coeffs`` unpacks it, and
``derivative`` reads one component back out of the packed int.  These tests
check all three against plain tuples over the whole accepted component range
(|k_j| < 2**31), and check the guards that keep packed modes from aliasing:
the constructor's range check, the reach bound on products and the
dimension checks, all of which must raise rather than assert.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdouble.scalars import FourierScalar, GaussRational, sum_of_products

LIMIT = 2**31  # every accepted mode component k has |k| < LIMIT

components = st.one_of(
    st.integers(-(LIMIT - 1), LIMIT - 1),
    st.sampled_from([0, 1, -1, 2, -2, LIMIT - 1, -(LIMIT - 1), LIMIT - 2, -(LIMIT - 2)]),
)
coefficients = st.builds(
    GaussRational, st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)
).filter(bool)


@st.composite
def tuple_scalars(draw):
    """A dim in 1..8 and a tuple-keyed coefficient dict with nonzero values."""
    dim = draw(st.integers(1, 8))
    modes = draw(st.lists(st.tuples(*[components] * dim), max_size=4, unique=True))
    return dim, {m: draw(coefficients) for m in modes}


# -- pack and unpack -------------------------------------------------------


@settings(max_examples=150)
@given(tuple_scalars())
def test_pack_unpack_round_trip(case):
    dim, coeffs = case
    f = FourierScalar(dim, coeffs)
    assert f.coeffs == coeffs
    assert list(f.coeffs) == list(coeffs)  # storage keeps insertion order
    assert f.reach == max((abs(k) for m in coeffs for k in m), default=0)
    assert FourierScalar(dim, f.coeffs) == f


@settings(max_examples=150)
@given(tuple_scalars(), st.data())
def test_derivative_reads_each_component(case, data):
    dim, coeffs = case
    f = FourierScalar(dim, coeffs)
    j = data.draw(st.integers(0, dim - 1))
    expected = {m: c * GaussRational(0, m[j]) for m, c in coeffs.items() if m[j]}
    assert f.derivative(j).coeffs == expected


def test_neighbours_of_zero_do_not_borrow():
    # a -1 in a lower digit is the case where a plain shift would borrow
    for mode in [(-1, 0, 1), (0, -1, 0), (1, -1, -1), (-(LIMIT - 1), LIMIT - 1, -1)]:
        f = FourierScalar.harmonic(3, mode)
        assert f.coeffs == {mode: GaussRational(1)}
        for j in range(3):
            assert f.derivative(j).coeffs == (
                {mode: GaussRational(0, mode[j])} if mode[j] else {}
            )


def test_products_add_mode_vectors():
    f = FourierScalar(3, {(1, -2, 0): 1, (-1, 0, 5): GaussRational(0, 1)})
    g = FourierScalar(3, {(0, 2, -1): 2})
    assert (f * g).coeffs == {(1, 0, -1): GaussRational(2), (-1, 2, 4): GaussRational(0, 2)}
    assert (f * g).reach == 7


def test_coeffs_view_keeps_order_through_sums():
    f = FourierScalar(2, {(2, 0): 1, (-1, 1): 2, (0, 0): 3})
    g = FourierScalar(2, {(0, 0): 1, (5, -5): 1})
    assert list((f + g).coeffs) == [(2, 0), (-1, 1), (0, 0), (5, -5)]
    assert list((-f).coeffs) == [(2, 0), (-1, 1), (0, 0)]
    view = f.coeffs
    view[(9, 9)] = GaussRational(1)  # a fresh dict: editing it changes nothing
    assert (9, 9) not in f.coeffs


# -- guards ----------------------------------------------------------------


def test_constructor_refuses_components_outside_the_range():
    assert FourierScalar.harmonic(2, (LIMIT - 1, -(LIMIT - 1))).reach == LIMIT - 1
    for mode in [(LIMIT, 0), (0, -LIMIT)]:
        with pytest.raises(ValueError, match="outside"):
            FourierScalar.harmonic(2, mode)


@pytest.mark.parametrize("component", [1.5, -0.7, 2.0, Fraction(1, 2), Fraction(2), True, False])
def test_constructor_refuses_non_integer_components(component):
    # int() would truncate 1.5 to 1 and read True as 1, aliasing another mode
    with pytest.raises(TypeError):
        FourierScalar(2, {(component, 0): 1})
    with pytest.raises(TypeError):
        FourierScalar.harmonic(2, (0, component))


def test_product_past_the_digit_range_overflows():
    half = LIMIT // 2
    near = FourierScalar.harmonic(2, (half - 1, 0)) * FourierScalar.harmonic(2, (half, 0))
    assert near.coeffs == {(LIMIT - 1, 0): GaussRational(1)}
    # k_0 = 2**31 would carry into k_1 and read back as (-2**31, 1)
    with pytest.raises(OverflowError):
        FourierScalar.harmonic(2, (half, 0)) * FourierScalar.harmonic(2, (half, 0))


def test_dimension_mismatch_raises_value_error():
    f2, f3 = FourierScalar.one(2), FourierScalar.one(3)
    for op in (
        lambda: f2 + f3,
        lambda: f2 - f3,
        lambda: f2 * f3,
        lambda: sum_of_products(2, [(f2, f2)], [(f2, f3)]),
        lambda: sum_of_products(3, [(f2, f2)]),
        lambda: f2.derivative(2),
        lambda: f2.derivative(-1),
    ):
        with pytest.raises(ValueError):
            op()
