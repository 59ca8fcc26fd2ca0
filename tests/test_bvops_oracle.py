"""The closed-form derived bracket against its definition.

``bvops.brack`` evaluates s (b mu(x, y) - mu(bx, y) - s mu(x, by)) by a
table over degree patterns; ``bvops_oracle.brack`` is that definition term
by term.  Both must agree in value, in canonical bytes (reports and failure
witnesses are written from these values) and in the degree they carry, on
all 16 patterns at D = 2, 3 and 4, on the zero elements of degrees -1..5
that b, c and Q produce, and on degree-1/2 elements with no section.
``musym`` and ``l2``, which take the Courant bracket of two degree-1
arguments in one pass, are held to their averaging definitions the same way,
at D = 1 to 4.
"""

import itertools
import random

import bvops_oracle as oracle
import pytest

from bvdouble.bvcomplex import BVElement, op_b, op_c, op_q, random_element
from bvdouble import bvops
from bvdouble.bvops import brack, m_op
from bvdouble.scalars import FourierScalar
from bvdouble.sections import GenSection, coordinate_section
from bvdouble.serialize import canonical_dumps

DIMS = (2, 3, 4)
COURANT = ("musym", "l2")
PAIRS = list(itertools.product(range(4), repeat=2))


def same(got, want):
    assert got.degree == want.degree
    assert got == want
    assert canonical_dumps(got) == canonical_dumps(want)


def sectionless(rng, dim, degree):
    """A degree-1/2 element with a zero section, as ``m_op`` returns."""
    if degree == 1:
        return m_op(random_element(rng, dim, 2, 1), random_element(rng, dim, 2, 1))
    return BVElement.deg2(GenSection.zero(dim), random_element(rng, dim, 2, 3).scalar)


def pool(rng, dim):
    """Random elements of degrees 0..3, sectionless ones, zeros of degrees
    -1..5, and the constant coordinate section e_0."""
    out = [random_element(rng, dim, 2, d) for d in range(4)]
    out += [sectionless(rng, dim, d) for d in (1, 2)]
    out += [BVElement.zero(d, dim) for d in range(-1, 6)]
    out.append(BVElement.deg1(coordinate_section(dim, 0)))
    return out


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("d1,d2", PAIRS)
def test_closed_form_is_the_definition_on_every_pattern(dim, d1, d2):
    rng = random.Random(f"brack:{dim}:{d1}:{d2}")
    for cutoff in (1, 2):
        for _ in range(4):
            x = random_element(rng, dim, cutoff, d1)
            y = random_element(rng, dim, cutoff, d2)
            same(brack(x, y), oracle.brack(x, y))


@pytest.mark.parametrize("dim", DIMS)
def test_closed_form_is_the_definition_on_zeros_and_sectionless_elements(dim):
    rng = random.Random(f"brack-pool:{dim}")
    elements = pool(rng, dim)
    for x, y in itertools.product(elements, repeat=2):
        same(brack(x, y), oracle.brack(x, y))


@pytest.mark.parametrize("dim", DIMS)
def test_closed_form_is_the_definition_on_operator_images(dim):
    # b, c and Q walk off both ends of the complex; their images are the
    # out-of-range zeros the suites feed back into the bracket
    rng = random.Random(f"brack-images:{dim}")
    elements = [random_element(rng, dim, 1, d) for d in range(4)]
    images = [op(e) for op in (op_b, op_c, op_q) for e in elements]
    for x, y in itertools.product(elements + images, repeat=2):
        same(brack(x, y), oracle.brack(x, y))


def test_zero_brackets_carry_the_summed_degree_minus_one():
    for d1, d2 in itertools.product(range(-1, 6), repeat=2):
        x, y = BVElement.zero(d1, 3), BVElement.zero(d2, 3)
        assert brack(x, y).degree == d1 + d2 - 1 == oracle.brack(x, y).degree


def test_mismatched_dimensions_raise():
    rng = random.Random(5)
    for d1, d2 in PAIRS:
        x, y = random_element(rng, 2, 1, d1), random_element(rng, 3, 1, d2)
        with pytest.raises(ValueError, match="T\\^2 and T\\^3"):
            brack(x, y)


def test_degree_one_acts_by_its_section_alone():
    # v drops out: (A, v) acts on every slot as the Lie derivative along A
    rng = random.Random(11)
    x = random_element(rng, 3, 2, 1)
    bare = BVElement.deg1(x.section, FourierScalar.zero(3))
    for d in range(4):
        y = random_element(rng, 3, 2, d)
        same(brack(x, y), oracle.brack(bare, y))


@pytest.mark.parametrize("dim", (1,) + DIMS)
@pytest.mark.parametrize("d1,d2", PAIRS)
@pytest.mark.parametrize("name", COURANT)
def test_courant_forms_are_the_definitions_on_every_pattern(name, dim, d1, d2):
    rng = random.Random(f"{name}:{dim}:{d1}:{d2}")
    for cutoff in (1, 2):
        for _ in range(2):
            x = random_element(rng, dim, cutoff, d1)
            y = random_element(rng, dim, cutoff, d2)
            same(getattr(bvops, name)(x, y), getattr(oracle, name)(x, y))


@pytest.mark.parametrize("dim", (1,) + DIMS)
@pytest.mark.parametrize("name", COURANT)
def test_courant_forms_are_the_definitions_on_zero_sections(name, dim):
    # sectionless degree-1 elements, the zero (0, 0) and out-of-range zeros
    rng = random.Random(f"{name}-pool:{dim}")
    for x, y in itertools.product(pool(rng, dim), repeat=2):
        same(getattr(bvops, name)(x, y), getattr(oracle, name)(x, y))
