"""The closed-form derived bracket against its definition.

``bvops.brack`` evaluates s (b mu(x, y) - mu(bx, y) - s mu(x, by)) by a
table over degree patterns; ``bvops_oracle.brack`` is that definition term
by term.  Both must agree in value, in canonical bytes (reports and failure
witnesses are written from these values) and in the degree they carry, on
all 16 patterns at D = 2, 3 and 4, on the zero elements of degrees -1..5
that b, c and Q produce, and on degree-1/2 elements with no section.
The closed forms of ``musym``, ``l2`` and ``n_op`` (binary) and of ``nu``
and ``nusym`` (ternary) are held to their definitions the same way, at D = 1
to 4, on every pattern of degrees -1..4: the averages of two ``mu`` or
``brack`` calls, the ``m_op``/``mu`` compositions and [b, m].  A spy checks
that they stay closed forms (no averaging, no element-level sum), and every
one refuses elements on two tori, also under ``python -O``.
"""

import itertools
import random
import subprocess
import sys

import bvops_oracle as oracle
import pytest

from bvdouble.bvcomplex import BVElement, op_b, op_c, op_q, random_element
from bvdouble import bvops
from bvdouble.bvops import brack, m_op
from bvdouble.scalars import FourierScalar, Linear
from bvdouble.sections import GenSection, coordinate_section
from bvdouble.serialize import canonical_dumps

DIMS = (2, 3, 4)
BINARY = ("musym", "l2", "n_op")
TERNARY = ("nu", "nusym")
PAIRS = list(itertools.product(range(4), repeat=2))
TRIPLES = list(itertools.product(range(4), repeat=3))
# every degree from the one below the complex to the one above it
WIDE = range(-1, 5)


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
@pytest.mark.parametrize("name", BINARY)
def test_courant_forms_are_the_definitions_on_every_pattern(name, dim, d1, d2):
    rng = random.Random(f"{name}:{dim}:{d1}:{d2}")
    for cutoff in (1, 2):
        for _ in range(2):
            x = random_element(rng, dim, cutoff, d1)
            y = random_element(rng, dim, cutoff, d2)
            same(getattr(bvops, name)(x, y), getattr(oracle, name)(x, y))


@pytest.mark.parametrize("dim", (1,) + DIMS)
@pytest.mark.parametrize("name", BINARY)
def test_courant_forms_are_the_definitions_on_zero_sections(name, dim):
    # sectionless degree-1 elements, the zero (0, 0) and out-of-range zeros
    rng = random.Random(f"{name}-pool:{dim}")
    for x, y in itertools.product(pool(rng, dim), repeat=2):
        same(getattr(bvops, name)(x, y), getattr(oracle, name)(x, y))


@pytest.mark.parametrize("dim", (1,) + DIMS)
@pytest.mark.parametrize("name", BINARY)
def test_binary_forms_are_the_definitions_on_degrees_minus_one_to_four(name, dim):
    rng = random.Random(f"{name}-wide:{dim}")
    for d1, d2 in itertools.product(WIDE, repeat=2):
        for cutoff in (1, 2):
            x = random_element(rng, dim, cutoff, d1)
            y = random_element(rng, dim, cutoff, d2)
            same(getattr(bvops, name)(x, y), getattr(oracle, name)(x, y))


@pytest.mark.parametrize("dim", (1,) + DIMS)
@pytest.mark.parametrize("name", TERNARY)
def test_ternary_forms_are_the_definitions_on_degrees_minus_one_to_four(name, dim):
    rng = random.Random(f"{name}-wide:{dim}")
    for degrees in itertools.product(WIDE, repeat=3):
        for cutoff in (1, 2):
            xs = [random_element(rng, dim, cutoff, d) for d in degrees]
            same(getattr(bvops, name)(*xs), getattr(oracle, name)(*xs))


@pytest.mark.parametrize("dim", (1,) + DIMS)
@pytest.mark.parametrize("name", TERNARY)
def test_ternary_forms_are_the_definitions_on_zero_sections(name, dim):
    rng = random.Random(f"{name}-pool:{dim}")
    for xs in itertools.product(pool(rng, dim), repeat=3):
        same(getattr(bvops, name)(*xs), getattr(oracle, name)(*xs))


@pytest.mark.parametrize("dim", (1,) + DIMS)
def test_derived_forms_are_the_definitions_on_operator_images(dim):
    rng = random.Random(f"derived-images:{dim}")
    elements = [random_element(rng, dim, 1, d) for d in range(4)]
    images = [op(e) for op in (op_b, op_c, op_q) for e in elements]
    for x, y in itertools.product(elements + images, repeat=2):
        for name in BINARY:
            same(getattr(bvops, name)(x, y), getattr(oracle, name)(x, y))
    for xs in itertools.product(elements[1:3] + images, repeat=3):
        for name in TERNARY:
            same(getattr(bvops, name)(*xs), getattr(oracle, name)(*xs))


def test_derived_forms_evaluate_no_definition(monkeypatch):
    # musym reads at most one mu and l2 at most one brack; nu, nusym and
    # n_op read neither, nor m_op or boundary; none of the five averages or
    # sums elements, so a return to the definitions fails here
    rng = random.Random("derived-spy")
    cases = [
        (name, (random_element(rng, 3, 2, d1), random_element(rng, 3, 2, d2)))
        for name in BINARY
        for d1, d2 in itertools.product(WIDE, repeat=2)
    ]
    cases += [
        (name, tuple(random_element(rng, 3, 1, d) for d in degrees))
        for name in TERNARY
        for degrees in itertools.product(WIDE, repeat=3)
    ]
    want = [getattr(oracle, name)(*args) for name, args in cases]
    calls = []

    def spy(name):
        inner = getattr(bvops, name)

        def counted(*args):
            calls.append(name)
            return inner(*args)

        return counted

    def banned(*args):
        raise AssertionError("a closed form must not sum or scale elements")

    for name in ("mu", "brack", "m_op", "boundary"):
        monkeypatch.setattr(bvops, name, spy(name))
    for name in ("__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(Linear, name, banned)
    monkeypatch.setattr(BVElement, "__mul__", banned)
    monkeypatch.setattr(BVElement, "__rmul__", banned)
    allowed = {"musym": {"mu": 1}, "l2": {"brack": 1}}
    got = []
    for name, args in cases:
        calls.clear()
        got.append(getattr(bvops, name)(*args))
        counts = {callee: calls.count(callee) for callee in set(calls)}
        limit = allowed.get(name, {})
        assert all(n <= limit.get(callee, 0) for callee, n in counts.items()), (name, args, counts)
    monkeypatch.undo()
    for value, expected in zip(got, want):
        same(value, expected)


@pytest.mark.parametrize("name", BINARY + TERNARY)
def test_derived_forms_refuse_two_tori_on_every_pattern(name):
    # the argument in ``slot`` on T^3, the others on T^2
    rng = random.Random(f"{name}-tori")
    arity = 2 if name in BINARY else 3
    for degrees in PAIRS if arity == 2 else TRIPLES:
        for slot in range(arity):
            xs = [random_element(rng, 3 if i == slot else 2, 1, d) for i, d in enumerate(degrees)]
            with pytest.raises(ValueError) as refusal:
                getattr(bvops, name)(*xs)
            assert "T^2" in str(refusal.value) and "T^3" in str(refusal.value)


def test_derived_forms_refuse_two_tori_under_optimize(subprocess_env):
    # no assert guards the torus check, so python -O keeps every refusal
    code = (
        "import itertools, random\n"
        "from bvdouble import bvops\n"
        "from bvdouble.bvcomplex import random_element\n"
        "rng = random.Random(7)\n"
        "refused = 0\n"
        "for name, arity in [('musym', 2), ('l2', 2), ('n_op', 2), ('nu', 3), ('nusym', 3)]:\n"
        "    for degrees in itertools.product(range(4), repeat=arity):\n"
        "        for slot in range(arity):\n"
        "            xs = [random_element(rng, 3 if i == slot else 2, 1, d)\n"
        "                  for i, d in enumerate(degrees)]\n"
        "            try:\n"
        "                getattr(bvops, name)(*xs)\n"
        "            except ValueError:\n"
        "                refused += 1\n"
        "print(refused)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{3 * 16 * 2 + 2 * 64 * 3}\n"
