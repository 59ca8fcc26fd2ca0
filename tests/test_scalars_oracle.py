"""The triple-valued ``FourierScalar`` kernels against their object-valued forms.

``scalars_oracle`` keeps the bodies that read and wrote one
``GaussRational`` per coefficient.  On seeded inputs at D = 2 and 3 with
coefficient denominators 1, 2, 4 and 6, every sum, difference, negation,
product, signed sum of products, derivative and scaling must give the
oracle's coefficients in the oracle's storage order and the same canonical
bytes.

The one-pass symbols of the raised gradient, the Laplacian, the Jacobian
(and so the anchor action and d), the doubled-torus jets and the
cross-sector wave operator ``delta_minus`` are checked against the
compositions of ``derivative`` that they replaced, on D = 1..4 and T^6, on diagonal,
off-diagonal and denominator-3 metrics, on the zero scalar and on modes
with zero, negative and extreme (|k_j| = 2^31 - 1) components; and none of
them may take a ``derivative``, a scalar sum or a ``_merge``.

The one exact elimination ``_gauss_jordan`` is checked against the cofactor
determinant and the LDL^T definiteness test it replaced, on seeded Fraction
matrices: regular, singular (a zero row, a repeated row) and with a zero
leading entry, which makes it swap rows; ``Metric.lower`` must be the exact
inverse of ``upper``.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import doublecopy_oracle
import pytest
import scalars_oracle as oracle
import sections_oracle

from bvdouble import scalars
from bvdouble.doublecopy import _Jet, delta_minus
from bvdouble.scalars import (
    FourierScalar,
    GaussRational,
    Metric,
    _gauss_jordan,
    laplacian,
    random_scalar,
    sum_of_products,
)
from bvdouble.sections import GenSection, _jacobian, anchor, d_scalar
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


# -- the symbols ----------------------------------------------------------

# components 0 and negative, and the largest that a packed mode holds
TOP = 2**31 - 1
COMPONENTS = (0, 0, 1, -1, 2, -3, TOP, -TOP)
SYMBOL_DENS = (1, 2, 3, 4, 6)
_F = Fraction
SYMBOL_METRICS = {
    **{f"identity{n}": Metric.diagonal([1] * n) for n in range(1, 5)},
    "lorentz": Metric.diagonal([1, 1, -1]),
    "dense": Metric([[_F(5, 4), _F(3, 4), 0], [_F(3, 4), _F(5, 4), 0], [0, 0, -1]]),
    "third": Metric.diagonal([3, _F(1, 3), -1]),
    # I + J/2 on T^6: every entry nonzero, denominator 2
    "ij6": Metric([[_F(int(i == j)) + _F(1, 2) for j in range(6)] for i in range(6)]),
}


def symbol_scalar(rng, dim: int, den: int) -> FourierScalar:
    """1..4 draws of a mode from ``COMPONENTS`` with a coefficient (a + b*i)/den,
    |a|, |b| <= 4, built by the public constructor."""
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        mode = tuple(rng.choice(COMPONENTS) for _ in range(dim))
        coeffs[mode] = GaussRational(_F(rng.randint(-4, 4), den), _F(rng.randint(-4, 4), den))
    return FourierScalar(dim, coeffs)


def symbol_inputs(dim: int):
    """The zero scalar, then seeded scalars at every denominator."""
    yield FourierScalar.zero(dim)
    for den in SYMBOL_DENS:
        rng = random.Random(f"symbol:{dim}:{den}")
        for _ in range(6):
            yield symbol_scalar(rng, dim, den)


def equal(got, want):
    """Equal scalars: the same terms, bytes and reach (storage order may
    differ, since a composition appends the modes its later sums bring)."""
    assert got == want
    assert canonical_dumps(got) == canonical_dumps(want)
    assert got.reach == want.reach


def equal_lists(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        equal(g, w)


def _jet(f, n, mixed):
    jet = _Jet(f, n, mixed)
    assert (jet.xt is None) != mixed
    return jet.x + jet.t + (sum(jet.xt, []) if mixed else [])


def _oracle_jet(f, n, mixed):
    x, t, xt = oracle.jet(f, n, mixed)
    return x + t + (sum(xt, []) if mixed else [])


def _anchor_section(f):
    """A section to act on f: random vector components, constants when f
    reaches the largest packed components (a product adds the reaches)."""
    rng = random.Random(f"anchor:{f.dim}")
    cutoff = 0 if f.reach > 2**30 else 2
    return GenSection.from_vec(random_scalar(rng, f.dim, cutoff) for _ in range(f.dim))


def _d_scalar(d):
    return lambda f, _: list(d(f).vec + d(f).form)


def _delta_minus(d):
    return lambda f, n: [d(f)]


# kernel -> (the one-pass kernel, its composition), each giving a list of scalars
KERNELS = {
    "anchor": (
        lambda f, a: [anchor(a, f)],
        lambda f, a: [sections_oracle.anchor_by_derivatives(a, f)],
    ),
    "d_scalar": (_d_scalar(d_scalar), _d_scalar(sections_oracle.d_scalar)),
    "delta_minus": (
        _delta_minus(delta_minus),
        _delta_minus(doublecopy_oracle.delta_minus_by_derivatives),
    ),
    "gradient": (lambda f, eta: eta.gradient(f), oracle.gradient),
    "laplacian": (lambda f, eta: [laplacian(f, eta)], lambda f, eta: [oracle.laplacian(f, eta)]),
    "jacobian": (lambda f, _: _jacobian([f])[0], lambda f, _: oracle.jacobian([f])[0]),
    "jet": (lambda f, n: _jet(f, n, False), lambda f, n: _oracle_jet(f, n, False)),
    "mixed": (lambda f, n: _jet(f, n, True), lambda f, n: _oracle_jet(f, n, True)),
}


def symbol_cases():
    """(kernel, scalar, argument): the raised gradient and the Laplacian of
    every input on each metric's torus, the Jacobian, the anchor action and
    d on D = 1..4 and T^6, and on each even torus T^{2n} the plain and the
    mixed jets and the cross-sector wave operator."""
    cases = []
    for eta in SYMBOL_METRICS.values():
        cases += [(k, f, eta) for f in symbol_inputs(eta.dim) for k in ("gradient", "laplacian")]
    for dim in (1, 2, 3, 4, 6):
        for f in symbol_inputs(dim):
            cases += [(k, f, None) for k in ("jacobian", "d_scalar")]
            cases.append(("anchor", f, _anchor_section(f)))
            if dim % 2 == 0:
                cases += [(k, f, dim // 2) for k in ("jet", "mixed", "delta_minus")]
    return cases


def test_symbols_match_the_derivative_compositions():
    for kernel, f, arg in symbol_cases():
        new, old = KERNELS[kernel]
        equal_lists(new(f, arg), old(f, arg))


def test_symbols_read_extreme_and_signed_components():
    # i k_j and -k_i kt_j at |k_j| = 2^31 - 1, on a single term
    mode, c, i = (TOP, -TOP, 0, -1), GaussRational(_F(1, 3), 2), GaussRational(0, 1)
    jet = _Jet(FourierScalar.harmonic(4, mode, c), 2, True)
    assert [g.coeffs for g in jet.x + jet.t] == [{mode: c * i * k} if k else {} for k in mode]
    assert [[g.coeffs for g in row] for row in jet.xt] == [
        [{}, {mode: c * TOP}],
        [{}, {mode: c * -TOP}],
    ]
    g = FourierScalar.harmonic(3, (TOP, -2, 0), 1)
    want = GaussRational(-3 * TOP * TOP - _F(4, 3))
    assert laplacian(g, SYMBOL_METRICS["third"]).coeffs == {(TOP, -2, 0): want}


def test_symbol_kernels_take_no_derivative_sum_or_merge(monkeypatch):
    cases = symbol_cases()
    want = [KERNELS[k][1](f, arg) for k, f, arg in cases]

    def banned(*args):
        raise AssertionError("a symbol kernel must not compose through this operator")

    for name in ("derivative", "__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(FourierScalar, name, banned)
    monkeypatch.setattr(scalars, "_merge", banned)
    got = [KERNELS[k][0](f, arg) for k, f, arg in cases]
    monkeypatch.undo()
    for g, w in zip(got, want):
        equal_lists(g, w)


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
