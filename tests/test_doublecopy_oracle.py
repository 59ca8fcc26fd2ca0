"""The fused doubled-torus and C-bracket kernels against their loop oracles.

Every comparison is exact and also byte-level: the canonical encodings must
agree, because reports and failure witnesses are written from these values.
Bivectors are drawn at half-dimensions 2, 3 and 4 in each sector family,
with zero and constant entries mixed in, and with the dilaton zero or not.
"""

import random
from fractions import Fraction

import doublecopy_oracle as oracle
import pytest

from bvdouble import doublecopy
from bvdouble.doublecopy import (
    Bivector,
    bivector_mc_residual,
    c_bracket,
    delta_minus,
    div_omega,
    double_bracket,
    null_covector,
    random_doubled_scalar,
    random_vector_field,
    section_pair_residual,
)
from bvdouble.scalars import FourierScalar, GaussRational, Metric, sum_of_products
from bvdouble.serialize import canonical_dumps

HALFDIMS = (2, 3, 4)
SECTORS = ("both", "x", "xt")
SHAPES = ("random", "sparse", "constant")
METRICS = {
    "lorentz": Metric.diagonal([1, 1, -1]),
    "dense": Metric(
        [
            [Fraction(5, 4), Fraction(3, 4), 0],
            [Fraction(3, 4), Fraction(5, 4), 0],
            [0, 0, -1],
        ]
    ),
    "euclidean": Metric.diagonal([1, 1, 1]),
}


def same(a, b):
    assert a == b
    assert canonical_dumps(a) == canonical_dumps(b)


def draw_bivector(rng, n, sector, shape):
    """A random bivector; "sparse" zeroes about half of the entries and
    "constant" makes about half of them mode-0 constants."""
    g = Bivector(
        [[random_doubled_scalar(rng, n, 2, sector) for _ in range(n)] for _ in range(n)]
    )
    if shape == "random":
        return g
    rows = []
    for row in g.rows:
        out = []
        for s in row:
            if rng.random() < 0.5:
                zero = FourierScalar.zero(2 * n)
                s = zero if shape == "sparse" else random_doubled_scalar(rng, n, 0)
            out.append(s)
        rows.append(out)
    return Bivector(rows)


def draw_phi(rng, n, zero):
    return FourierScalar.zero(2 * n) if zero else random_doubled_scalar(rng, n, 2)


def draw_case(n, sector, shape, zero_phi):
    rng = random.Random(f"{n}:{sector}:{shape}:{zero_phi}")
    g = draw_bivector(rng, n, sector, shape)
    h = draw_bivector(rng, n, sector, shape)
    return g, h, draw_phi(rng, n, zero_phi)


@pytest.mark.parametrize("zero_phi", (True, False))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("sector", SECTORS)
@pytest.mark.parametrize("n", HALFDIMS)
def test_bivector_kernels_match_the_loops(n, sector, shape, zero_phi):
    g, h, phi = draw_case(n, sector, shape, zero_phi)
    same(double_bracket(g, h), oracle.double_bracket(g, h))
    same(double_bracket(g, g), oracle.double_bracket(g, g))
    same(div_omega(g, phi), oracle.div_omega(g, phi))
    same(bivector_mc_residual(g, phi), oracle.bivector_mc_residual(g, phi))


@pytest.mark.parametrize("sector", SECTORS)
@pytest.mark.parametrize("n", HALFDIMS)
def test_doubled_scalar_kernels_match_the_loops(n, sector):
    rng = random.Random(f"scalars:{n}:{sector}")
    for _ in range(4):
        f = random_doubled_scalar(rng, n, 2, sector)
        g = random_doubled_scalar(rng, n, 2, rng.choice(SECTORS))
        same(section_pair_residual(f, g), oracle.section_pair_residual(f, g))
        same(section_pair_residual(f, f), oracle.section_pair_residual(f, f))
        same(delta_minus(f), oracle.delta_minus(f))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_c_bracket_matches_the_antisymmetrized_half_brackets(name):
    eta = METRICS[name]
    rng = random.Random(name)
    zero = FourierScalar.zero(3)
    for _ in range(4):
        a, b = random_vector_field(rng, 3, 2), random_vector_field(rng, 3, 2)
        same(c_bracket(a, b, eta), oracle.c_bracket(a, b, eta))
        same(c_bracket(a, a, eta), oracle.c_bracket(a, a, eta))
        sparse = (zero, b[1], FourierScalar.const(3, GaussRational(2, -1)))
        same(c_bracket(a, sparse, eta), oracle.c_bracket(a, sparse, eta))


NULL_ENTRIES = (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4))


def draw_metric(rng, dim, diagonal):
    """A seeded invertible metric with small rational entries."""
    while True:
        rows = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                if i == j or not diagonal:
                    rows[i][j] = rows[j][i] = rng.choice(NULL_ENTRIES + ((0,) if i != j else ()))
        try:
            return Metric(rows)
        except ValueError:
            continue


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("diagonal", [True, False])
def test_null_covector_matches_the_fraction_search(dim, diagonal):
    # D = 4 searches three shells: the Fraction search takes about 1 s for six
    rng = random.Random(f"null:{dim}:{diagonal}")
    search = 6 if dim < 4 else 3
    found = []
    for _ in range(8 if dim < 4 else 4):
        eta = draw_metric(rng, dim, diagonal)
        n = null_covector(eta, search)
        assert n == oracle.null_covector(eta, search)
        found.append(n is not None)
    assert any(found)


def test_c_bracket_keeps_the_size_checks():
    eta = METRICS["lorentz"]
    a = random_vector_field(random.Random(0), 3, 1)
    for x, y in ((a, a[:2]), (a[:2], a[:2])):
        with pytest.raises(ValueError, match="components"):
            c_bracket(x, y, eta)


def test_fused_kernels_make_no_doubled_or_fourier_sums(monkeypatch):
    # Every output entry must come out of sum_of_products: the kernels may
    # neither add, subtract nor negate a scalar, nor multiply two scalars
    # outside it (a scalar times a constant stays allowed).
    calls = []
    for n in (2, 3):
        g, h, phi = draw_case(n, "both", "random", False)
        f, k = g.entry(0, 1), h.entry(1, 0)
        calls += [
            ("double_bracket", (g, h)),
            ("double_bracket", (g, g)),
            ("div_omega", (g, phi)),
            ("section_pair_residual", (f, k)),
            ("delta_minus", (f,)),
            ("bivector_mc_residual", (g, phi)),
        ]
    want = [getattr(oracle, name)(*args) for name, args in calls]

    def banned(*args):
        raise AssertionError("a fused kernel must not sum through this operator")

    scale = FourierScalar.__mul__

    def by_constant(self, other):
        if isinstance(other, FourierScalar):
            banned()
        return scale(self, other)

    for name in ("__add__", "__radd__", "__sub__", "__neg__"):
        monkeypatch.setattr(FourierScalar, name, banned)
    monkeypatch.setattr(FourierScalar, "__mul__", by_constant)
    monkeypatch.setattr(FourierScalar, "__rmul__", by_constant)
    got = [getattr(doublecopy, name)(*args) for name, args in calls]
    monkeypatch.undo()
    for value, expected in zip(got, want):
        same(value, expected)


@pytest.mark.parametrize("n", [2, 3])
def test_self_bracket_lists_each_product_once(n, monkeypatch):
    # [[g, g]] lists its n^2 + n^2 products per entry once, against the jets
    # of 2g, where [[g, h]] lists each twice over (g, h) and (h, g)
    g, h, _ = draw_case(n, "both", "random", False)
    counts = []

    def counting(dim, pairs, negated=()):
        pairs, negated = list(pairs), list(negated)
        counts.append(len(pairs) + len(negated))
        return sum_of_products(dim, pairs, negated)

    monkeypatch.setattr(doublecopy, "sum_of_products", counting)
    got = [double_bracket(g, g), double_bracket(g, h)]
    monkeypatch.undo()
    assert counts == [2 * n * n] * (n * n) + [4 * n * n] * (n * n)
    same(got[0], oracle.double_bracket(g, g))
    same(got[1], oracle.double_bracket(g, h))
