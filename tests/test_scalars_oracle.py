"""The triple-valued ``FourierScalar`` kernels against their object-valued forms.

``scalars_oracle`` keeps the bodies that read and wrote one
``GaussRational`` per coefficient.  On seeded inputs at D = 2 and 3 with
coefficient denominators 1, 2, 4 and 6, every sum, difference, negation,
product, signed sum of products, derivative and scaling must give the
oracle's coefficients in the oracle's storage order, the same canonical
bytes and the same hash; a constant result hashes like its coefficient.

The one exact elimination ``_gauss_jordan`` is checked against the cofactor
determinant and the LDL^T definiteness test it replaced, on seeded Fraction
matrices: regular, singular (a zero row, a repeated row) and with a zero
leading entry, which makes it swap rows; ``Metric.lower`` must be the exact
inverse of ``upper``.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import scalars_oracle as oracle

from bvdouble.scalars import FourierScalar, GaussRational, Metric, _gauss_jordan, sum_of_products
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


# -- the exact elimination -------------------------------------------------


def _entry(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))


def _matrix(rng, n, m):
    return [[_entry(rng) for _ in range(m)] for _ in range(n)]


def _symmetric(rng, n):
    a = _matrix(rng, n, n)
    return [[a[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]


def _dots(a, b):
    """A B^T: the dot products of the rows of ``a`` with the rows of ``b``."""
    return [[sum((x * y for x, y in zip(u, v)), Fraction(0)) for v in b] for u in a]


def _product(a, b):
    return _dots(a, list(zip(*b)))


def _gram(rng, n, rank):
    """B B^T for a seeded n x rank matrix B: positive semidefinite, and of
    rank at most ``rank``."""
    b = _matrix(rng, n, rank)
    return _dots(b, b)


def _cases(rng, n):
    """A seeded regular matrix, a zero row, a repeated row and a zero
    leading entry, each n x n; the empty matrix alone at n = 0."""
    a = _matrix(rng, n, n)
    if not n:
        return {"regular": a}
    zero_row = [row[:] for row in a]
    zero_row[rng.randrange(n)] = [Fraction(0)] * n
    repeated = [row[:] for row in a]
    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
    repeated[j] = repeated[i][:]
    swap = [row[:] for row in a]
    swap[0][0] = Fraction(0)
    return {"regular": a, "zero-row": zero_row, "repeated-row": repeated, "zero-lead": swap}


@pytest.mark.parametrize("n", range(7))
def test_elimination_determinant_matches_the_cofactor_expansion(n):
    rng = random.Random(f"det:{n}")
    for _ in range(4):
        for name, a in _cases(rng, n).items():
            det = oracle.det_fraction(a)
            got, x = _gauss_jordan(a)
            assert got == det, name
            assert (x is None) == (det == 0), name
            if n > 1 and name == "repeated-row":
                assert det == 0 and x is None
            if det:
                b = _matrix(rng, n, 2)
                got, x = _gauss_jordan(a, b)
                assert got == det and _product(a, x) == b, name


@pytest.mark.parametrize("n", range(1, 7))
def test_metric_lower_is_the_exact_inverse(n):
    rng = random.Random(f"inverse:{n}")
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    found = 0
    for trial in range(12):
        rows = _symmetric(rng, n)
        if trial % 2:
            rows[0][0] = Fraction(0)
        det = oracle.det_fraction(rows)
        if not det:
            with pytest.raises(ValueError, match="singular"):
                Metric(rows)
            continue
        eta = Metric(rows)
        assert eta.det_upper == det
        assert _product(eta.upper, eta.lower) == identity
        assert _product(eta.lower, eta.upper) == identity
        found += 1
    assert found >= 4


@pytest.mark.parametrize("n", range(1, 6))
def test_definiteness_matches_the_ldlt_pivots(n):
    rng = random.Random(f"definite:{n}")
    for _ in range(6):
        positive = _gram(rng, n, n)
        for i in range(n):
            positive[i][i] += Fraction(1, rng.randint(1, 3))
        negative = [[-x for x in row] for row in positive]
        lead = _symmetric(rng, n)
        lead[0][0] = Fraction(0)
        cases = [(positive, True), (negative, True), (lead, False), (_symmetric(rng, n), None)]
        for rows, want in cases:
            if oracle.det_fraction(rows):
                got = Metric(rows).is_definite()
                assert got == oracle.is_definite(rows)
                assert want is None or got == want
        # a singular Gram matrix is semidefinite, which ``Metric`` refuses, so
        # the test runs on the bare matrix
        semi = _gram(rng, n, n - 1)
        bare = SimpleNamespace(dim=n, upper=tuple(map(tuple, semi)))
        assert Metric.is_definite(bare) is False
        assert oracle.is_definite(semi) is False
