"""Definitional forms of the section and product kernels, kept as test oracles.

``bvdouble.scalars`` accumulates every product as unreduced int triples and
reduces each output coefficient once; ``bvdouble.sections`` builds each
component of a Dorfman bracket, pairing, anchor action or Lie bracket with
one ``sum_of_products`` over one Jacobian per argument; ``bvdouble.bvops.mu``
folds the module action into the same sums and answers section-free
arguments in closed form; ``bvdouble.doublecopy`` does the same for the
C-bracket.  The functions below are the term-by-term forms those kernels
replaced: every product is a per-term ``GaussRational`` convolution and every
sum a chain of binary additions.  ``odd_pairing`` is the body that
``bvdouble.bvcomplex.odd_pairing`` replaced with one
``integral_of_products``: it integrates the whole pairing scalar and the
whole scalar product.  The random draws are the ``randint``-based
samplers whose stream the package's samplers must reproduce exactly.
"""

from fractions import Fraction

from bvdouble.bvcomplex import BVElement
from bvdouble.scalars import FourierScalar, GaussRational, Metric, sum_of_products
from bvdouble.sections import GenSection
from bvdouble.sections import pairing as section_pairing

_HALF = Fraction(1, 2)


def zsum(terms, dim):
    return sum(terms, FourierScalar.zero(dim))


def convolve(f, g):
    """f*g with one GaussRational product and one sum per pair of modes."""
    coeffs = {}
    for m1, c1 in f.coeffs.items():
        for m2, c2 in g.coeffs.items():
            mode = tuple(a + b for a, b in zip(m1, m2))
            coeffs[mode] = coeffs.get(mode, GaussRational(0)) + c1 * c2
    return FourierScalar(f.dim, coeffs)


# -- sections ---------------------------------------------------------------


def lie_bracket_vec(x, y):
    dim = len(x)
    return tuple(
        zsum(
            (
                convolve(x[i], y[j].derivative(i)) - convolve(y[i], x[j].derivative(i))
                for i in range(dim)
            ),
            x[0].dim,
        )
        for j in range(dim)
    )


def _lie_form(x, zeta):
    dim = len(x)
    return tuple(
        zsum(
            (
                convolve(x[i], zeta[j].derivative(i)) + convolve(zeta[i], x[i].derivative(j))
                for i in range(dim)
            ),
            x[0].dim,
        )
        for j in range(dim)
    )


def _contract_dform(y, zeta):
    dim = len(y)
    return tuple(
        zsum(
            (convolve(y[i], zeta[j].derivative(i) - zeta[i].derivative(j)) for i in range(dim)),
            y[0].dim,
        )
        for j in range(dim)
    )


def dorfman(a, b):
    lie_form = _lie_form(a.vec, b.form)
    corr = _contract_dform(b.vec, a.form)
    return GenSection(
        lie_bracket_vec(a.vec, b.vec), tuple(p - q for p, q in zip(lie_form, corr))
    )


def pairing(a, b):
    return zsum(
        (convolve(a.vec[i], b.form[i]) + convolve(b.vec[i], a.form[i]) for i in range(a.dim)),
        a.dim,
    )


def anchor(a, u):
    return zsum((convolve(a.vec[i], u.derivative(i)) for i in range(a.dim)), a.dim)


# the bodies of ``anchor`` and ``d_scalar`` before they read du from one
# Jacobian pass: one ``derivative`` pass per axis
def anchor_by_derivatives(a, u):
    return sum_of_products(a.dim, ((a.vec[i], u.derivative(i)) for i in range(a.dim)))


def d_scalar(u):
    zero = FourierScalar.zero(u.dim)
    return GenSection((zero,) * u.dim, tuple(u.derivative(i) for i in range(u.dim)))


# the body of ``bvcomplex.odd_pairing`` before it became one integral of
# products: the whole pairing scalar and the whole scalar product, integrated
def odd_pairing(x, y):
    if x.degree + y.degree != 3:
        return GaussRational(0)
    if x.degree > y.degree:
        return odd_pairing(y, x)
    if x.degree == 0:
        return (x.scalar * y.scalar).integral() * (-2)
    return section_pairing(x.section, y.section).integral() - (
        (x.scalar * y.scalar).integral() * 2
    )


def scale(x, c):
    """A scalar, section or element times the constant c: every component
    convolved with the constant scalar c."""
    if isinstance(x, FourierScalar):
        return convolve(FourierScalar.const(x.dim, c), x)
    if isinstance(x, GenSection):
        return GenSection(tuple(scale(a, c) for a in x.vec), tuple(scale(a, c) for a in x.form))
    section = None if x.section is None else scale(x.section, c)
    return BVElement(x.degree, x.dim, section, scale(x.scalar, c))


def _scale(section, u):
    return GenSection(
        tuple(convolve(u, c) for c in section.vec), tuple(convolve(u, c) for c in section.form)
    )


def mu(x, y):
    """The degree-0 product, every slot by the full formula."""
    d1, d2 = x.degree, y.degree
    dim = x.dim
    if d1 == 0:
        if d2 in (0, 3):
            return BVElement(d2, dim, None, convolve(x.scalar, y.scalar))
        if d2 in (1, 2):
            return BVElement(d2, dim, _scale(y.section, x.scalar), convolve(x.scalar, y.scalar))
    if d2 == 0:
        u = y.scalar
        if d1 == 3:
            return BVElement.deg3(convolve(x.scalar, u))
        if d1 == 1:
            return BVElement.deg1(
                _scale(x.section, u), convolve(x.scalar, u) - anchor(x.section, u)
            )
        if d1 == 2:
            return BVElement.deg2(_scale(x.section, u), convolve(x.scalar, u))
    if d1 == 1 and d2 == 1:
        at = (
            dorfman(x.section, y.section)
            + _scale(x.section, y.scalar)
            - _scale(y.section, x.scalar)
        )
        return BVElement.deg2(at, pairing(x.section, y.section) * _HALF)
    if (d1, d2) in ((1, 2), (2, 1)):
        one, two = (x, y) if d1 == 1 else (y, x)
        ut = (
            -(pairing(x.section, y.section) * _HALF)
            + anchor(one.section, two.scalar)
            - convolve(x.scalar, y.scalar)
        )
        return BVElement.deg3(ut)
    return BVElement.zero(d1 + d2, dim)


# -- the C-bracket ----------------------------------------------------------


def c_half_bracket(a, b, eta: Metric):
    n = len(a)
    dim = a[0].dim
    graded = [
        zsum(
            (
                convolve(a[k].derivative(r), b[l]) * eta.lower[k][l]
                for k in range(n)
                for l in range(n)
                if eta.lower[k][l]
            ),
            dim,
        )
        for r in range(n)
    ]
    out = []
    for j in range(n):
        transport = zsum((convolve(a[i], b[j].derivative(i)) for i in range(n)), dim)
        backreact = zsum((convolve(a[j].derivative(i), b[i]) for i in range(n)), dim)
        correction = zsum((graded[r] * eta.upper[r][j] for r in range(n) if eta.upper[r][j]), dim)
        out.append(transport - backreact + correction)
    return tuple(out)


def pair_constraint(a, b, eta: Metric):
    n = eta.dim
    return tuple(
        tuple(
            zsum(
                (
                    convolve(a[k].derivative(i), b[l].derivative(j)) * eta.upper[i][j]
                    for i in range(n)
                    for j in range(n)
                    if eta.upper[i][j]
                ),
                a[0].dim,
            )
            for l in range(n)
        )
        for k in range(n)
    )


# -- the randint-based samplers ---------------------------------------------


def random_coefficient(rng):
    while True:
        a = rng.randint(-2, 2)
        b = rng.randint(-2, 2)
        if a or b:
            d = rng.choice((1, 2))
            return GaussRational(Fraction(a, d), Fraction(b, d))


def random_scalar(rng, dim, cutoff, max_modes=2):
    coeffs = {}
    for _ in range(rng.randint(1, max_modes)):
        mode = tuple(rng.randint(-cutoff, cutoff) for _ in range(dim))
        c = random_coefficient(rng)
        coeffs[mode] = coeffs.get(mode, GaussRational(0)) + c
    return FourierScalar(dim, coeffs)
