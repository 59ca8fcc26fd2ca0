"""The Koszul boundary ``bvops.boundary`` against the sums it replaced.

The [b, nu] term of ``nprime`` and the deformed derived bracket
s [b, mu_eta] are each one call of ``boundary``, and ``n_op = [b, m]`` is the
closed form of ``boundary(op_b, m_op, ...)``; ``bvops_oracle`` and
``deform_oracle`` keep them written out term by term.  Both must agree
in value, in canonical bytes and in the degree they carry, on every binary
and ternary degree pattern and on the zeros of degrees -1..5, at D = 2 and
D = 3; the deformed bracket also on a diagonal Lorentzian, an off-diagonal
and a denominator-3 metric.
"""

import itertools
import random
from fractions import Fraction

import bvops_oracle
import deform_oracle
import pytest

from bvdouble.bvcomplex import BVElement, op_b, op_c, op_q, random_element
from bvdouble.bvops import boundary, brack, m_op, n_op, nprime, nu, sign
from bvdouble.deform import deformed_bracket
from bvdouble.scalars import Metric
from bvdouble.serialize import canonical_dumps

F = Fraction
METRICS = {
    (2, "lorentz"): Metric.diagonal([1, -1]),
    (2, "offdiag"): Metric([[F(5, 4), F(3, 4)], [F(3, 4), F(5, 4)]]),
    (3, "lorentz"): Metric.diagonal([1, 1, -1]),
    (3, "offdiag"): Metric([[F(5, 4), F(3, 4), 0], [F(3, 4), F(5, 4), 0], [0, 0, -1]]),
    (2, "third"): Metric.diagonal([3, F(1, 3)]),
    (3, "third"): Metric.diagonal([3, F(1, 3), -1]),
}
DIMS = (2, 3)
ZERO_DEGREES = range(-1, 6)


def same(got, want):
    assert got.degree == want.degree
    assert got == want
    assert canonical_dumps(got) == canonical_dumps(want)


def draws(rng, dim, degrees):
    return [random_element(rng, dim, 1, d) for d in degrees]


def with_zeros(rng, dim, arity):
    """Argument tuples with one zero of degree -1..5 in each slot, the
    other slots drawn at random degrees."""
    for slot, d in itertools.product(range(arity), ZERO_DEGREES):
        xs = draws(rng, dim, [rng.randrange(4) for _ in range(arity)])
        xs[slot] = BVElement.zero(d, dim)
        yield xs


def binary_cases(rng, dim):
    for degs in itertools.product(range(4), repeat=2):
        yield draws(rng, dim, degs)
    yield from with_zeros(rng, dim, 2)
    for d1, d2 in itertools.product(ZERO_DEGREES, repeat=2):
        yield [BVElement.zero(d1, dim), BVElement.zero(d2, dim)]


def ternary_cases(rng, dim):
    for degs in itertools.product(range(4), repeat=3):
        yield draws(rng, dim, degs)
    yield from with_zeros(rng, dim, 3)


@pytest.mark.parametrize("dim", DIMS)
def test_n_op_is_the_written_out_commutator(dim):
    rng = random.Random(f"n_op:{dim}")
    for x, y in binary_cases(rng, dim):
        want = bvops_oracle.n_op(x, y)
        same(n_op(x, y), want)
        same(boundary(op_b, m_op, (x, y), True), want)


@pytest.mark.parametrize("dim", DIMS)
def test_b_nu_boundary_is_the_written_out_commutator(dim):
    rng = random.Random(f"nu_b:{dim}")
    for x, y, z in ternary_cases(rng, dim):
        want = bvops_oracle.nu_b_commutator(x, y, z)
        same(boundary(op_b, nu, (x, y, z), True), want)
        s = sign((x.degree + 1) * (y.degree + 1))
        same(nprime(x, y, z), s * m_op(y, brack(x, z)) + want)


@pytest.mark.parametrize("dim,name", METRICS)
def test_deformed_bracket_is_the_written_out_sum(dim, name):
    eta = METRICS[dim, name]
    rng = random.Random(f"deformed_bracket:{dim}:{name}")
    for x, y in binary_cases(rng, dim):
        same(deformed_bracket(x, y, eta), deform_oracle.deformed_bracket(x, y, eta))


@pytest.mark.parametrize("dim", DIMS)
def test_unary_boundary_is_the_anticommutator_or_commutator(dim):
    # [Q, b] = Q b + b Q for an odd b and Q b - b Q for an even one, on
    # every degree and on the zeros that b, c and Q walk off the complex to
    rng = random.Random(f"unary:{dim}")
    elements = draws(rng, dim, range(4)) + [BVElement.zero(d, dim) for d in ZERO_DEGREES]
    for x in elements:
        qb, bq = op_q(op_b(x)), op_b(op_q(x))
        same(boundary(op_q, op_b, (x,), True), qb + bq)
        same(boundary(op_q, op_b, (x,), False), qb - bq)
        same(boundary(op_b, op_c, (x,), True), op_b(op_c(x)) + op_c(op_b(x)))
