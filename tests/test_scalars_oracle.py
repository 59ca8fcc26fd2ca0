"""The triple-valued ``FourierScalar`` kernels against their object-valued forms.

``scalars_oracle`` keeps the bodies that read and wrote one
``GaussRational`` per coefficient.  On seeded inputs at D = 2 and 3 with
coefficient denominators 1, 2, 4 and 6, every sum, difference, negation,
product, signed sum of products, derivative and scaling must give the
oracle's coefficients in the oracle's storage order, the same canonical
bytes and the same hash; a constant result hashes like its coefficient.
"""

import random
from fractions import Fraction

import pytest
import scalars_oracle as oracle

from bvdouble.scalars import FourierScalar, GaussRational, sum_of_products
from bvdouble.serialize import canonical_dumps

# denominator 6 gives reduced coefficients over 2 and over 3, whose
# products meet with coprime denominators
CASES = [(dim, den) for dim in (2, 3) for den in (1, 2, 4, 6)]
SEEDS = range(25)
FACTORS = (
    1, -1, 0, 3, -2, Fraction(3, 4), Fraction(-5, 2), GaussRational(1, -1),
    GaussRational(Fraction(1, 2), 2),
)


def same(got, dim, terms):
    coeffs = oracle.unpacked(dim, terms)
    want = FourierScalar(dim, coeffs)
    assert list(got.coeffs.items()) == list(coeffs.items())
    assert got == want
    assert canonical_dumps(got) == canonical_dumps(want)
    assert hash(got) == hash(want)
    if not terms.keys() - {0}:
        assert hash(got) == hash(terms.get(0, GaussRational(0)))


@pytest.mark.parametrize("dim, den", CASES)
def test_ring_operations_match_the_object_valued_kernels(dim, den):
    for seed in SEEDS:
        rng = random.Random(f"ring:{dim}:{den}:{seed}")
        f, g, h = (oracle.seeded_scalar(rng, dim, den) for _ in range(3))
        F, G, H = map(oracle.gauss_terms, (f, g, h))
        same(f + g, dim, oracle.merge(F, G, 1))
        same(f - g, dim, oracle.merge(F, G, -1))
        same(f - f, dim, oracle.merge(F, F, -1))
        same(-f, dim, oracle.negate(F))
        same(f * g, dim, oracle.products([(F, G)]))
        same(
            sum_of_products(dim, [(f, g), (g, h)], [(h, f), (f, g)]),
            dim,
            oracle.products([(F, G), (G, H)], [(H, F), (F, G)]),
        )


@pytest.mark.parametrize("dim, den", CASES)
def test_derivative_and_scaling_match_the_object_valued_kernels(dim, den):
    for seed in SEEDS:
        rng = random.Random(f"calculus:{dim}:{den}:{seed}")
        f = oracle.seeded_scalar(rng, dim, den)
        F = oracle.gauss_terms(f)
        for j in range(dim):
            same(f.derivative(j), dim, oracle.derivative(F, j))
        for s in FACTORS:
            same(f * s, dim, oracle.scale(F, s))
            same(s * f, dim, oracle.scale(F, s))


def test_a_constant_scalar_hashes_like_its_coefficient():
    one = FourierScalar.one(3)
    for c in (GaussRational(Fraction(3, 4)), GaussRational(2, -1), GaussRational(0)):
        f = FourierScalar.const(3, c)
        for g, want in ((f, c), (f * 1, c), (-(-f), c), (f - one, c - 1), (f * f * one, c * c)):
            assert g == want and hash(g) == hash(want)
