"""Generalized sections: bracket, pairing, anchor and divergence laws."""

import random

import pytest

from bvdouble.scalars import FourierScalar, GaussRational, random_scalar
from bvdouble.sections import (
    GenSection,
    anchor,
    coordinate_section,
    d_scalar,
    divergence,
    dorfman,
    lie_bracket_vec,
    pairing,
    random_section,
)

DIM = 3
TRIALS = 12


@pytest.fixture
def rng():
    return random.Random(27182)


def sec(rng):
    return random_section(rng, DIM, 2)


def scl(rng):
    return random_scalar(rng, DIM, 2)


# -- constructors and module structure -------------------------------------


def test_zero_and_coordinate_sections():
    z = GenSection.zero(DIM)
    assert z.is_zero()
    e1 = coordinate_section(DIM, 1)
    assert e1.vec[1] == FourierScalar.one(DIM)
    assert all(c.is_zero() for j, c in enumerate(e1.vec) if j != 1)
    assert all(c.is_zero() for c in e1.form)


def test_gradient_section_has_no_vector_part(rng):
    for _ in range(TRIALS):
        u = scl(rng)
        du = d_scalar(u)
        assert all(c.is_zero() for c in du.vec)
        for j in range(DIM):
            assert du.form[j] == u.derivative(j)


def test_pairing_is_symmetric_and_bilinear(rng):
    for _ in range(TRIALS):
        a, b, c = sec(rng), sec(rng), sec(rng)
        assert (pairing(a, b) - pairing(b, a)).is_zero()
        lhs = pairing(a + b, c)
        assert (lhs - pairing(a, c) - pairing(b, c)).is_zero()


def test_anchor_matches_pairing_with_gradient(rng):
    for _ in range(TRIALS):
        a, u = sec(rng), scl(rng)
        assert (anchor(a, u) - pairing(a, d_scalar(u))).is_zero()


def test_lie_bracket_on_coordinate_fields():
    # [x-translation, y-translation] = 0 for constant frames
    x = coordinate_section(DIM, 0).vec
    y = coordinate_section(DIM, 1).vec
    assert all(c.is_zero() for c in lie_bracket_vec(x, y))


# -- the six bracket/pairing axioms ----------------------------------------


def test_module_leibniz(rng):
    for _ in range(TRIALS):
        a1, a2, u = sec(rng), sec(rng), scl(rng)
        res = dorfman(a1, a2 * u) - dorfman(a1, a2) * u - a2 * pairing(
            a1, d_scalar(u)
        )
        assert res.is_zero()


def test_pairing_invariance(rng):
    for _ in range(TRIALS):
        a1, a2, a3 = sec(rng), sec(rng), sec(rng)
        res = (
            pairing(a1, d_scalar(pairing(a2, a3)))
            - pairing(dorfman(a1, a2), a3)
            - pairing(a2, dorfman(a1, a3))
        )
        assert res.is_zero()


def test_symmetric_part_is_a_gradient(rng):
    for _ in range(TRIALS):
        a1, a2 = sec(rng), sec(rng)
        res = dorfman(a1, a2) + dorfman(a2, a1) - d_scalar(pairing(a1, a2))
        assert res.is_zero()


def test_left_leibniz_jacobi(rng):
    for _ in range(TRIALS):
        a1, a2, a3 = sec(rng), sec(rng), sec(rng)
        res = (
            dorfman(a1, dorfman(a2, a3))
            - dorfman(dorfman(a1, a2), a3)
            - dorfman(a2, dorfman(a1, a3))
        )
        assert res.is_zero()


def test_gradients_act_trivially_on_the_left(rng):
    for _ in range(TRIALS):
        u, a = scl(rng), sec(rng)
        assert dorfman(d_scalar(u), a).is_zero()


def test_gradients_are_isotropic(rng):
    for _ in range(TRIALS):
        u1, u2 = scl(rng), scl(rng)
        assert pairing(d_scalar(u1), d_scalar(u2)).is_zero()


# -- divergence compatibilities --------------------------------------------


def test_divergence_kills_gradients(rng):
    for _ in range(TRIALS):
        assert divergence(d_scalar(scl(rng))).is_zero()


def test_divergence_module_rule(rng):
    for _ in range(TRIALS):
        a, u = sec(rng), scl(rng)
        res = divergence(a * u) - divergence(a) * u - pairing(d_scalar(u), a)
        assert res.is_zero()


def test_divergence_of_bracket(rng):
    for _ in range(TRIALS):
        a1, a2 = sec(rng), sec(rng)
        res = (
            divergence(dorfman(a1, a2))
            - anchor(a1, divergence(a2))
            + anchor(a2, divergence(a1))
        )
        assert res.is_zero()


# -- a frozen bracket value ------------------------------------------------


def test_dorfman_on_crafted_pair():
    # a = sin-like harmonic along x0 pointing in x1, b = gradient of e^{i x1}
    e = FourierScalar.harmonic
    zero = FourierScalar.zero(DIM)
    a = GenSection(
        (zero, e(DIM, (1, 0, 0)), zero),
        (zero, zero, zero),
    )
    u = e(DIM, (0, 1, 0))
    b = d_scalar(u)
    # [a, du] = d(anchor(a, u)): transport of an exact form stays exact
    res = dorfman(a, b)
    assert all(c.is_zero() for c in res.vec)
    expected_form = d_scalar(anchor(a, u)).form
    for got, want in zip(res.form, expected_form):
        assert (got - want).is_zero()
    # the anchor action is e^{i x0} * i e^{i x1}
    assert anchor(a, u) == e(DIM, (1, 1, 0), GaussRational(0, 1))


def test_malformed_sections_raise_value_error():
    # validation, not an assert: it must hold under ``python -O`` too
    f2, f3 = FourierScalar.zero(2), FourierScalar.zero(3)
    with pytest.raises(ValueError):
        GenSection((), ())
    with pytest.raises(ValueError):
        GenSection((f3,) * 3, (f3,) * 2)
    with pytest.raises(ValueError):
        GenSection((f3, f3, f2), (f3,) * 3)
    with pytest.raises(ValueError):  # two + two components on T^3
        GenSection((f3,) * 2, (f3,) * 2)


def test_mismatched_operands_raise_without_assert(rng):
    # validation, not an assert: it must hold under ``python -O`` too
    a, b = sec(rng), random_section(rng, 2, 2)
    with pytest.raises(TypeError):
        a + scl(rng)
    with pytest.raises(TypeError):
        a - scl(rng)
    for op in (lambda x, y: x + y, lambda x, y: x - y, dorfman, pairing):
        with pytest.raises(ValueError):
            op(a, b)
        with pytest.raises(ValueError):
            op(b, a)
