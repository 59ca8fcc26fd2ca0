"""The one-pass section and product kernels against their definitional oracles.

Every comparison is exact and also byte-level: the canonical encodings must
agree, because reports and failure witnesses are written from these values.
Sections are drawn with their vector part raised through the Lorentzian and
through an off-diagonal metric (denominators up to 4), and with zero vector
or zero form parts.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import sections_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from bvdouble import bvops, sections
from bvdouble.bvcomplex import BVElement, odd_pairing, random_element
from bvdouble.bvops import m_op, mu
from bvdouble.doublecopy import c_half_bracket, pair_constraint, random_vector_field
from bvdouble.scalars import (
    FourierScalar,
    GaussRational,
    Metric,
    random_coefficient,
    random_scalar,
    sum_of_products,
)
from bvdouble.sections import GenSection, anchor, d_scalar, dorfman, lie_bracket_vec, pairing
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
SHAPES = ("full", "no-vector", "no-form")
DEGREES = range(-1, 5)


def same(a, b):
    assert a == b
    assert canonical_dumps(a) == canonical_dumps(b)


def draw_section(rng, eta, shape):
    """A section whose vector part is the raised form of random covectors."""
    zero = FourierScalar.zero(DIM)
    low = [random_scalar(rng, DIM, 2) for _ in range(DIM)]
    vec = tuple(
        oracle.zsum((low[j] * eta.upper[i][j] for j in range(DIM) if eta.upper[i][j]), DIM)
        for i in range(DIM)
    )
    form = tuple(random_scalar(rng, DIM, 2) for _ in range(DIM))
    if shape == "no-vector":
        vec = (zero,) * DIM
    if shape == "no-form":
        form = (zero,) * DIM
    return GenSection(vec, form)


@pytest.mark.parametrize("name", sorted(METRICS))
@pytest.mark.parametrize("left", SHAPES)
@pytest.mark.parametrize("right", SHAPES)
def test_section_kernels_match_the_definitions(name, left, right):
    eta = METRICS[name]
    rng = random.Random(f"{name}:{left}:{right}")
    for _ in range(3):
        a, b = draw_section(rng, eta, left), draw_section(rng, eta, right)
        u = random_scalar(rng, DIM, 2)
        same(dorfman(a, b), oracle.dorfman(a, b))
        same(pairing(a, b), oracle.pairing(a, b))
        same(anchor(a, u), oracle.anchor(a, u))
        same(lie_bracket_vec(a.vec, b.vec), oracle.lie_bracket_vec(a.vec, b.vec))


# ints, Fractions and Gaussian rationals: units, zeros, reals and non-reals
CONSTANTS = (
    0, 1, -1, 3,
    Fraction(0), Fraction(1), Fraction(-1), Fraction(-3, 4), Fraction(6, 1),
    GaussRational(0), GaussRational(1), GaussRational(-1), GaussRational(2),
    GaussRational(0, 1), GaussRational(Fraction(1, 2), -3),
)


def test_constant_scaling_reads_no_fraction_operator(monkeypatch):
    # a constant on the right of a scalar, section or element (and an int or
    # Gaussian rational on its left) scales without Fraction.__eq__ or
    # Fraction.__mul__, and equals the convolution with the constant scalar
    rng = random.Random("constant-scaling")
    values = [random_scalar(rng, DIM, 2), FourierScalar.zero(DIM)]
    values += [draw_section(rng, DENSE, shape) for shape in SHAPES]
    values += [random_element(rng, DIM, 2, degree) for degree in DEGREES]
    pairs = [(x, c) for x in values for c in CONSTANTS]
    want = [oracle.scale(x, c) for x, c in pairs]
    lefts = [i for i, (_, c) in enumerate(pairs) if not isinstance(c, Fraction)]
    units = [i for i, (x, c) in enumerate(pairs) if c == 1 and not isinstance(x, GenSection)]

    def banned(*args):
        raise AssertionError("a constant scaling must not call a Fraction operator")

    monkeypatch.setattr(Fraction, "__eq__", banned)
    monkeypatch.setattr(Fraction, "__mul__", banned)
    got = [x * c for x, c in pairs]
    left = [pairs[i][1] * pairs[i][0] for i in lefts]
    monkeypatch.undo()
    for value, expected in zip(got, want):
        same(value, expected)
    for i, value in zip(lefts, left):
        same(value, want[i])
    # a unit returns the scalar or element itself
    assert units and all(got[i] is pairs[i][0] for i in units)


class _Scalar(FourierScalar):
    __slots__ = ()


class _Ratio(Fraction):
    pass


class _Gauss(GaussRational):
    __slots__ = ()


def test_subclass_operands_scale_like_their_base_types():
    # subclasses of the scalar and constant types, bool among the ints,
    # multiply and scale as their base values do
    rng = random.Random("subclass-operands")
    f, g = random_scalar(rng, DIM, 2), random_scalar(rng, DIM, 2)
    same(f * _Scalar(DIM, g.coeffs), oracle.convolve(f, g))
    cases = [
        (True, 1),
        (False, 0),
        (_Ratio(-3, 4), Fraction(-3, 4)),
        (_Ratio(-1), -1),
        (_Gauss(Fraction(1, 2), -3), GaussRational(Fraction(1, 2), -3)),
        (_Gauss(-1), -1),
    ]
    for c, base in cases:
        same(f * c, oracle.scale(f, base))
        same(c * f, oracle.scale(f, base))
    assert f * True is f and f * _Gauss(1) is f


@pytest.mark.parametrize("name", sorted(METRICS))
def test_c_bracket_kernels_match_the_definitions(name):
    eta = METRICS[name]
    rng = random.Random(name)
    for _ in range(4):
        a, b = random_vector_field(rng, DIM, 2), random_vector_field(rng, DIM, 2)
        same(c_half_bracket(a, b, eta), oracle.c_half_bracket(a, b, eta))
        same(pair_constraint(a, b, eta), oracle.pair_constraint(a, b, eta))


# the two metrics above, and the denominator-3 golden metric, whose raised
# vectors give the pairing coprime denominators (3 against 2)
PAIRING_METRICS = {**METRICS, "third": Metric.diagonal([3, Fraction(1, 3), -1])}


def draw_element(rng, eta, degree):
    """An element of ``degree`` on T^3 whose vector part is raised through
    eta; its modes lie in [-1, 1]^3, so that many pairings cancel a mode."""
    scalar = random_scalar(rng, DIM, 1)
    if degree in (0, 3):
        return BVElement(degree, DIM, None, scalar)
    vec = eta.raise_index([random_scalar(rng, DIM, 1) for _ in range(DIM)])
    form = [random_scalar(rng, DIM, 1) for _ in range(DIM)]
    return BVElement(degree, DIM, GenSection(vec, form), scalar)


@pytest.mark.parametrize("name", sorted(PAIRING_METRICS))
def test_odd_pairing_is_the_integral_of_the_whole_products(name, monkeypatch):
    # on all 16 degree patterns, byte for byte, and with no pairing scalar,
    # scalar product or Gaussian scaling built on the way
    eta = PAIRING_METRICS[name]
    rng = random.Random(f"odd-pairing:{name}")
    cases = [
        (draw_element(rng, eta, p), draw_element(rng, eta, q))
        for p in range(4)
        for q in range(4)
        for _ in range(12)
    ]
    want = [oracle.odd_pairing(x, y) for x, y in cases]

    def built(*args):
        raise AssertionError("odd_pairing integrates term pairs, it builds no product")

    for cls in (FourierScalar, GaussRational):
        monkeypatch.setattr(cls, "__mul__", built)
        monkeypatch.setattr(cls, "__rmul__", built)
    monkeypatch.setattr(sections, "sum_of_products", built)
    got = [odd_pairing(x, y) for x, y in cases]
    monkeypatch.undo()
    for value, expected in zip(got, want):
        same(value, expected)
    nonzero = [w for w in want if w]
    assert len(nonzero) >= 10
    if name == "third":
        assert any(w._d % 3 == 0 for w in nonzero)


def test_each_scalar_takes_its_jacobian_once(monkeypatch):
    # anchor, d_scalar and dorfman, called again and again, read one kept
    # Jacobian per scalar: equal to a fresh symbol pass, the same tuple each time
    rng = random.Random("jacobian-once")
    a, b = draw_section(rng, DENSE, "full"), draw_section(rng, DENSE, "full")
    u = random_scalar(rng, DIM, 2)
    inputs = a.parts() + b.parts() + (u,)
    fresh = [f.symbols((1,) * DIM, tuple) for f in inputs]
    passes = Counter()
    symbols = FourierScalar.symbols

    def counted(self, *args):
        passes[id(self)] += 1
        return symbols(self, *args)

    monkeypatch.setattr(FourierScalar, "symbols", counted)
    for _ in range(3):
        anchor(a, u), anchor(b, u), d_scalar(u), dorfman(a, b), dorfman(b, a)
    monkeypatch.undo()
    assert passes == Counter({id(f): 1 for f in inputs})
    for f, want in zip(inputs, fresh):
        jac = f.jacobian()
        assert type(jac) is tuple and f.jacobian() is jac
        same(jac, tuple(want))


def test_the_cached_zero_has_a_zero_jacobian():
    for dim in (1, 2, 3, 6):
        zero = FourierScalar.zero(dim)
        jac = zero.jacobian()
        assert type(jac) is tuple and len(jac) == dim
        assert all(type(d) is FourierScalar and d.dim == dim and d.is_zero() for d in jac)
        assert zero.jacobian() is jac and FourierScalar.zero(dim) is zero and zero.is_zero()


@pytest.mark.parametrize("seed", range(4))
def test_product_matches_the_full_formula_on_every_degree_pair(seed):
    rng = random.Random(seed)
    for d1 in DEGREES:
        for d2 in DEGREES:
            x = random_element(rng, DIM, 2, d1)
            y = random_element(rng, DIM, 2, d2)
            same(mu(x, y), oracle.mu(x, y))


def _section_free(rng):
    """A degree-1 element with no section, as ``m_op`` returns."""
    return m_op(random_element(rng, DIM, 2, 1), random_element(rng, DIM, 2, 1))


@pytest.mark.parametrize("seed", range(4))
def test_section_free_product_is_the_closed_form(seed, monkeypatch):
    rng = random.Random(seed)
    free = _section_free(rng)
    assert free.section.is_zero() and not free.scalar.is_zero()
    others = {d: random_element(rng, DIM, 2, d) for d in DEGREES}
    others["free"] = _section_free(rng)
    want = {
        key: (oracle.mu(free, z), oracle.mu(z, free)) for key, z in others.items()
    }

    def unused(*args):
        raise AssertionError("the section-free closed form should not need this")

    # On (1,1), (1,2) and (2,1) the closed form needs no bracket, pairing or
    # anchor at all; the other degrees go through the general product.
    for name in ("_dorfman_terms", "pairing", "anchor"):
        monkeypatch.setattr(bvops, name, unused)
    for key in (1, 2, "free"):
        z = others[key]
        same(mu(free, z), want[key][0])
        same(mu(z, free), want[key][1])
    monkeypatch.undo()
    for key, z in others.items():
        same(mu(free, z), want[key][0])
        same(mu(z, free), want[key][1])


# -- canonical coefficients --------------------------------------------------

DENOMINATORS = (1, 2, 3, 4, 6)
coefficients = st.builds(
    lambda a, b, d: GaussRational(Fraction(a, d), Fraction(b, d)),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.sampled_from(DENOMINATORS),
)
scalars = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), coefficients, max_size=5
).map(lambda coeffs: FourierScalar(2, coeffs))
constants = st.one_of(st.integers(-3, 3), coefficients)


def assert_canonical(f):
    for mode, c in f.coeffs.items():
        assert type(mode) is tuple and len(mode) == f.dim
        assert type(c) is GaussRational and c
        assert c._d > 0 and gcd(c._a, c._b, c._d) == 1


def termwise(f, g, sign):
    modes = f.coeffs.keys() | g.coeffs.keys()
    zero = GaussRational(0)
    return FourierScalar(
        f.dim, {m: f.coeffs.get(m, zero) + g.coeffs.get(m, zero) * sign for m in modes}
    )


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, constants)
def test_ring_operations_store_canonical_coefficients(f, g, c):
    for got, want in (
        (f * g, oracle.convolve(f, g)),
        (f + g, termwise(f, g, 1)),
        (f - g, termwise(f, g, -1)),
        (f * c, FourierScalar(2, {m: v * c for m, v in f.coeffs.items()})),
        (-f, FourierScalar(2, {m: -v for m, v in f.coeffs.items()})),
    ):
        assert_canonical(got)
        assert got.coeffs == want.coeffs


products = st.lists(st.tuples(scalars, scalars), max_size=4)


@settings(max_examples=100, deadline=None)
@given(products, products)
def test_sum_of_products_stores_canonical_coefficients(plus, minus):
    got = sum_of_products(2, plus, minus)
    want = oracle.zsum((oracle.convolve(f, g) for f, g in plus), 2)
    want = want - oracle.zsum((oracle.convolve(f, g) for f, g in minus), 2)
    assert_canonical(got)
    assert got.coeffs == want.coeffs


# -- sampler stream lock -------------------------------------------------------


@pytest.mark.parametrize("dim", range(1, 5))
@pytest.mark.parametrize("cutoff", (1, 2, 5))
def test_samplers_draw_the_randint_stream(dim, cutoff):
    for seed in range(200):
        rng, old = random.Random(seed), random.Random(seed)
        got, want = random_scalar(rng, dim, cutoff), oracle.random_scalar(old, dim, cutoff)
        assert got.coeffs == want.coeffs
        assert list(got.coeffs) == list(want.coeffs)
        assert_canonical(got)
        assert random_coefficient(rng) == oracle.random_coefficient(old)
        assert rng.getstate() == old.getstate()
