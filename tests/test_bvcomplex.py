"""The four-term complex: odd operators, pairing, and the half splitting."""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

from bvdouble.bvcomplex import (
    BVElement,
    complement_residual,
    odd_pairing,
    op_b,
    op_c,
    op_q,
    project_half,
    random_element,
)
from bvdouble.bvops import brack, mu, sign
from bvdouble.exterior import DifferentialForm, YMElement, random_form, random_ym_element
from bvdouble.scalars import FourierScalar, GaussRational, random_scalar, sum_of_products
from bvdouble.sections import (
    GenSection,
    anchor,
    d_scalar,
    divergence,
    dorfman,
    pairing,
    random_section,
)
from bvdouble.serialize import canonical_dumps

DIM = 3
TRIALS = 8


@pytest.fixture
def rng():
    return random.Random(31415)


def elem(rng, degree):
    return random_element(rng, DIM, 2, degree)


# -- slot tables of the three operators ------------------------------------


def test_b_slot_table(rng):
    u = random_scalar(rng, DIM, 2)
    a = random_section(rng, DIM, 2)
    v = random_scalar(rng, DIM, 2)

    assert op_b(BVElement.deg0(u)).is_zero()

    down = op_b(BVElement.deg1(a, v))
    assert down.degree == 0 and (down.scalar - v).is_zero()

    down = op_b(BVElement.deg2(a, v))
    assert down.degree == 1
    assert (down.section + a).is_zero() and down.scalar.is_zero()

    down = op_b(BVElement.deg3(u))
    assert down.degree == 2
    assert down.section.is_zero() and (down.scalar + u).is_zero()


def test_c_slot_table(rng):
    u = random_scalar(rng, DIM, 2)
    a = random_section(rng, DIM, 2)
    v = random_scalar(rng, DIM, 2)

    up = op_c(BVElement.deg0(u))
    assert up.degree == 1 and up.section.is_zero() and (up.scalar - u).is_zero()

    up = op_c(BVElement.deg1(a, v))
    assert up.degree == 2 and (up.section + a).is_zero() and up.scalar.is_zero()

    up = op_c(BVElement.deg2(a, v))
    assert up.degree == 3 and (up.scalar + v).is_zero()

    assert op_c(BVElement.deg3(u)).is_zero()


def test_q_slot_table(rng):
    u = random_scalar(rng, DIM, 2)
    a = random_section(rng, DIM, 2)
    v = random_scalar(rng, DIM, 2)
    half = Fraction(1, 2)

    up = op_q(BVElement.deg0(u))
    assert up.degree == 1
    assert (up.section - d_scalar(u)).is_zero() and up.scalar.is_zero()

    up = op_q(BVElement.deg1(a, v))
    assert up.degree == 2
    assert (up.section - d_scalar(v)).is_zero()
    assert (up.scalar - divergence(a) * half - v).is_zero()

    up = op_q(BVElement.deg2(a, v))
    assert up.degree == 3
    assert (up.scalar + divergence(a) * half).is_zero()

    assert op_q(BVElement.deg3(u)).is_zero()


# -- operator algebra across every degree ----------------------------------


@pytest.mark.parametrize("degree", range(4))
def test_squares_vanish(rng, degree):
    for _ in range(TRIALS):
        x = elem(rng, degree)
        assert op_q(op_q(x)).is_zero()
        assert op_b(op_b(x)).is_zero()
        assert op_c(op_c(x)).is_zero()


@pytest.mark.parametrize("degree", range(4))
def test_q_b_anticommute(rng, degree):
    for _ in range(TRIALS):
        x = elem(rng, degree)
        assert (op_q(op_b(x)) + op_b(op_q(x))).is_zero()


@pytest.mark.parametrize("degree", range(4))
def test_b_c_composition_is_identity(rng, degree):
    for _ in range(TRIALS):
        x = elem(rng, degree)
        assert (op_b(op_c(x)) + op_c(op_b(x)) - x).is_zero()


# -- odd pairing -----------------------------------------------------------


def test_pairing_supported_on_complementary_degrees(rng):
    for d1 in range(4):
        for d2 in range(4):
            p = odd_pairing(elem(rng, d1), elem(rng, d2))
            if d1 + d2 != 3:
                assert not p


def test_pairing_is_symmetric(rng):
    for d1 in range(4):
        x, y = elem(rng, d1), elem(rng, 3 - d1)
        assert odd_pairing(x, y) == odd_pairing(y, x)


def test_pairing_is_nondegenerate_somewhere(rng):
    found = False
    for _ in range(20):
        if odd_pairing(elem(rng, 1), elem(rng, 2)):
            found = True
            break
    assert found


@pytest.mark.parametrize("d1,d2", [(d1, d2) for d1 in range(4) for d2 in range(4)])
def test_pairing_covariance(rng, d1, d2):
    x, y = elem(rng, d1), elem(rng, d2)
    s = sign(d1 * d2)
    assert not (odd_pairing(op_q(x), y) + s * odd_pairing(op_q(y), x))
    assert not (odd_pairing(op_b(x), y) - s * odd_pairing(op_b(y), x))
    assert not (odd_pairing(op_c(x), y) + s * odd_pairing(op_c(y), x))


# -- half splitting --------------------------------------------------------


@pytest.mark.parametrize("degree", range(4))
def test_projection_splits_the_complex(rng, degree):
    for _ in range(TRIALS):
        x = elem(rng, degree)
        px = project_half(x)
        assert (project_half(px) - px).is_zero()
        assert complement_residual(x - px).is_zero()
        qpx = op_q(px)
        assert (project_half(qpx) - qpx).is_zero()


def test_half_and_complement_are_orthogonal(rng):
    for d1 in range(4):
        for _ in range(TRIALS):
            x, y = elem(rng, d1), elem(rng, 3 - d1)
            assert not odd_pairing(project_half(x), y - project_half(y))


def test_complement_is_q_stable_and_q_injective(rng):
    # the complement piece in degree 1 is (0, v); Q maps it to ((0, dv), v),
    # again in the complement, and the scalar slot still carries v, so Q is
    # injective there: the complement contributes no Q-cohomology in degree 1
    v = random_scalar(rng, DIM, 2)
    x = BVElement.deg1(GenSection.zero(DIM), v)
    assert complement_residual(x).is_zero()
    qx = op_q(x)
    assert complement_residual(qx).is_zero()
    assert (qx.scalar - v).is_zero()


# -- element bookkeeping ---------------------------------------------------


def test_zero_tolerant_addition_rejects_degree_mixing(rng):
    x = elem(rng, 1)
    z3 = BVElement.zero(3, DIM)
    assert ((x + z3) - x).is_zero()
    with pytest.raises(TypeError):
        _ = x + elem(rng, 2)
    with pytest.raises(TypeError):
        _ = x - elem(rng, 2)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_zero_of_another_degree_is_the_additive_identity(rng, degree):
    for y, zero in (
        (elem(rng, degree), BVElement.zero(0, DIM)),
        (random_ym_element(rng, DIM, 2, degree), YMElement.zero(0, DIM)),
        (random_form(rng, DIM, 2, degree), DifferentialForm.zero(DIM, 0)),
    ):
        assert not y.is_zero()
        assert zero + y == y and y + zero == y
        assert zero - y == -y and y - zero == y


def test_scalar_multiple_and_negation(rng):
    x = elem(rng, 2)
    two_x = x * GaussRational(2)
    assert (two_x - x - x).is_zero()
    assert (x + (-x)).is_zero()


def test_malformed_elements_raise_type_error(rng):
    # validation, not an assert: it must hold under ``python -O`` too
    with pytest.raises(TypeError):
        BVElement(1, DIM, random_scalar(rng, DIM, 2), None)
    with pytest.raises(TypeError):
        BVElement(0, DIM, None, Fraction(1))
    with pytest.raises(TypeError):
        elem(rng, 1) * random_scalar(rng, DIM, 2)


def test_minus_one_scaling_is_the_negation(rng, monkeypatch):
    # the -1 shortcut negates every part: equal to -x byte for byte, and no
    # scalar product is taken on the way
    xs = [elem(rng, degree) for degree in range(4)]
    negations = [-x for x in xs]
    products = []
    multiply = FourierScalar.__mul__

    def counted(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(FourierScalar, "__mul__", counted)
    monkeypatch.setattr(FourierScalar, "__rmul__", counted)
    for x, minus_x in zip(xs, negations):
        assert not x.is_zero()
        for y in (x * -1, -1 * x, x * Fraction(-1), x * GaussRational(-1)):
            assert y == minus_x and y.degree == x.degree
            assert canonical_dumps(y) == canonical_dumps(minus_x)
    assert products == []


def test_unit_scaling_returns_equal_elements(rng):
    for degree in range(4):
        x = elem(rng, degree)
        assert x * 1 is x and x * Fraction(1) is x
        assert x * -1 == -x and (x * -1).degree == degree
        assert x - x == BVElement.zero(degree, DIM)


def test_inconsistent_elements_raise_value_error(rng):
    # validation, not an assert: it must hold under ``python -O`` too
    a, u = random_section(rng, DIM, 2), random_scalar(rng, DIM, 2)
    for degree in (-1, 0, 3, 4):
        with pytest.raises(ValueError):
            BVElement(degree, DIM, a, None)
        BVElement(degree, DIM, GenSection.zero(DIM), None)
    for degree in (-1, 4):
        with pytest.raises(ValueError):
            BVElement(degree, DIM, None, u)
    for degree in (1, 2):  # a section on T^2 beside a scalar on T^3
        with pytest.raises(ValueError):
            BVElement(degree, DIM, random_section(rng, 2, 2), u)
    for degree in range(-1, 5):  # a scalar on T^2 in an element on T^3
        with pytest.raises(ValueError):
            BVElement(degree, DIM, None, random_scalar(rng, 2, 2))
    x, y = elem(rng, 1), random_element(rng, 2, 2, 1)
    for op in (lambda p, q: p + q, lambda p, q: p - q):
        with pytest.raises(ValueError):
            op(x, y)
        with pytest.raises(ValueError):
            op(BVElement.zero(0, DIM), y)
    with pytest.raises(ValueError):
        odd_pairing(x, random_element(rng, 2, 2, 2))


def test_slot_check_survives_optimize(subprocess_env):
    # with the check stripped, the section would be dropped without a word
    code = (
        "import random\n"
        "from bvdouble.bvcomplex import BVElement\n"
        "from bvdouble.sections import random_section\n"
        "try:\n"
        "    BVElement(0, 3, random_section(random.Random(1), 3, 1), None)\n"
        "except ValueError:\n"
        "    print('refused')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


def test_cached_zeros_are_shared_and_stay_empty(rng):
    # the zero constructors are cached, so one zero per torus (and degree)
    # is shared by every caller; no operation may write into it
    z = FourierScalar.zero(DIM)
    s = GenSection.zero(DIM)
    zeros = {d: BVElement.zero(d, DIM) for d in range(-1, 5)}
    assert FourierScalar.zero(DIM) is z and GenSection.zero(DIM) is s
    assert all(BVElement.zero(d, DIM) is e for d, e in zeros.items())
    assert s.vec == (z,) * DIM and all(c is z for c in s.vec + s.form)
    assert all(e.scalar is z for e in zeros.values())
    assert zeros[1].section is s and zeros[2].section is s
    before = canonical_dumps([z, s, *zeros.values()])
    f, a = random_scalar(rng, DIM, 2), random_section(rng, DIM, 2)
    out = []
    for c in (0, 1, -1, 3, Fraction(1, 2), GaussRational(0, 1)):
        out += [z * c, c * z, s * c, c * s]
        out += [v for e in zeros.values() for v in (e * c, c * e)]
    out += [z + f, f + z, z - f, f - z, -z, z * f, f * z, z.derivative(0)]
    out += [*z.symbols((1, 2), lambda k: k[:2]), sum_of_products(DIM, [(z, f), (f, z)], [(z, z)])]
    out += [s + a, a + s, s - a, a - s, -s, s * f, dorfman(s, a), dorfman(a, s), pairing(s, a)]
    out += [anchor(s, f), divergence(s), d_scalar(z)]
    for d, e in zeros.items():
        x = elem(rng, d)
        out += [e + x, x + e, e - x, x - e, -e, op_b(e), op_c(e), op_q(e), project_half(e)]
        out += [e == x, complement_residual(e), odd_pairing(e, x)]
        for y in (x, e, elem(rng, 1)):
            out += [mu(e, y), mu(y, e), brack(e, y), brack(y, e)]
    assert all(v is not None for v in out)
    assert canonical_dumps([z, s, *zeros.values()]) == before
    assert z._terms == {} and z.reach == 0 and FourierScalar.zero(DIM) is z
    assert s.is_zero() and GenSection.zero(DIM) is s
    assert all(e.is_zero() and BVElement.zero(d, DIM) is e for d, e in zeros.items())
