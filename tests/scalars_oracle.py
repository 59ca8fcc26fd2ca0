"""The ``GaussRational``-valued bodies of the ``FourierScalar`` kernels, kept as oracles.

``FourierScalar`` stores each coefficient as a canonical ``(a, b, d)`` int
triple and builds a ``GaussRational`` only at its boundary.  Before that,
its kernels read and wrote one ``GaussRational`` object per coefficient.
The functions below are those bodies, on dicts from packed modes to
``GaussRational``s: the convolution into unreduced triples read out of the
objects, the reduction back into objects, the merge of a sum or difference,
the negation, the derivative and the scaling.  ``test_scalars_oracle``
requires the triple kernels to give the same scalars, in the same storage
order, with the same canonical bytes.

``gradient``, ``laplacian``, ``jacobian`` and ``jet`` are the compositions
of per-axis ``derivative`` calls, rational row sums and scalar sums that the
one-pass symbols of ``FourierScalar.symbols`` replaced: the raised gradient,
the Laplacian, the Jacobian of ``sections`` and the doubled-torus jets of
``doublecopy``.

``det_fraction`` and ``is_definite`` are the two exact eliminations that
``scalars._gauss_jordan`` replaced: the first-row cofactor expansion that
the Hodge star took of each minor, and the LDL^T pivot test of
``Metric.is_definite``.
"""

from fractions import Fraction

from bvdouble.scalars import (
    _BOUND,
    _MASK,
    _W,
    FourierScalar,
    GaussRational,
    _canon,
    _digits,
    _gauss,
)


def _reduced(a, b, d):
    """(a + b*i)/d for any d > 0 as a canonical ``GaussRational``."""
    return _gauss(*_canon(a, b, d))


def gauss_terms(f: FourierScalar) -> dict:
    """The packed terms of ``f`` as ``GaussRational`` values, in storage order."""
    return {m: _gauss(*t) for m, t in f._terms.items()}


def unpacked(dim: int, terms: dict) -> dict:
    """The packed terms keyed by mode tuples, in storage order."""
    bias, size, read = _digits(dim)
    return {read(((m + bias) ^ bias).to_bytes(size, "little")): c for m, c in terms.items()}


def convolve_into(acc: dict, f: dict, g: dict, sign: int) -> None:
    right = [(m, c._a, c._b, c._d) for m, c in g.items()]
    if not right:
        return
    get = acc.get
    for m1, c1 in f.items():
        a1, b1, d1 = sign * c1._a, sign * c1._b, c1._d
        for m2, a2, b2, d2 in right:
            mode = m1 + m2
            a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
            t = get(mode)
            if t is None:
                acc[mode] = (a, b, d)
                continue
            p, q, e = t
            if e == d:
                acc[mode] = (p + a, q + b, d)
            elif e % d == 0:
                k = e // d
                acc[mode] = (p + a * k, q + b * k, e)
            elif d % e == 0:
                k = d // e
                acc[mode] = (p * k + a, q * k + b, d)
            else:
                acc[mode] = (p * d + a * e, q * d + b * e, e * d)


def reduce_all(acc: dict) -> dict:
    return {m: _reduced(a, b, d) for m, (a, b, d) in acc.items() if a or b}


def products(pairs, negated=()) -> dict:
    """The terms of sum f*g over ``pairs`` minus sum f*g over ``negated``,
    each given as a pair of ``GaussRational``-valued term dicts."""
    acc = {}
    for sign, group in ((1, pairs), (-1, negated)):
        for f, g in group:
            convolve_into(acc, f, g, sign)
    return reduce_all(acc)


def merge(p: dict, q: dict, sign: int) -> dict:
    out = dict(p)
    get = out.get
    for mode, c in q.items():
        acc = get(mode)
        if acc is None:
            out[mode] = c if sign == 1 else _gauss(-c._a, -c._b, c._d)
            continue
        a, b, d, e = acc._a, acc._b, acc._d, c._d
        if d == e:
            a, b = a + sign * c._a, b + sign * c._b
        else:
            a, b, d = a * e + sign * c._a * d, b * e + sign * c._b * d, d * e
        if a or b:
            out[mode] = _reduced(a, b, d)
        else:
            del out[mode]
    return out


def negate(terms: dict) -> dict:
    return {m: _gauss(-c._a, -c._b, c._d) for m, c in terms.items()}


def _times_i(c, k):
    """c * (i*k) for a nonzero int k."""
    return _reduced(-c._b * k, c._a * k, c._d)


def derivative(terms: dict, j: int) -> dict:
    bias, shift = _digits(j + 1)[0], _W * j
    return {
        m: _times_i(c, k)
        for m, c in terms.items()
        if (k := (((m + bias) >> shift) & _MASK) - _BOUND)
    }


def scale(terms: dict, other) -> dict:
    """The terms times an int, ``Fraction`` or ``GaussRational``."""
    s = GaussRational(other)
    if not s:
        return {}
    return {m: c * s for m, c in terms.items()}


def seeded_scalar(rng, dim: int, den: int, max_terms: int = 4) -> FourierScalar:
    """A scalar of 1..max_terms draws of a mode in [-1, 1]^dim with a
    coefficient (a + b*i)/den, |a|, |b| <= 4, built by the public
    constructor.  Draws that land on one mode overwrite each other."""
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        mode = tuple(rng.randint(-1, 1) for _ in range(dim))
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        coeffs[mode] = GaussRational(Fraction(a, den), Fraction(b, den))
    return FourierScalar(dim, coeffs)


def gradient(x: FourierScalar, eta) -> list:
    """eta^{ij} d_j x over i: the derivatives, then the rows of eta^{ij}."""
    return eta.raise_index([x.derivative(j) for j in range(eta.dim)])


def laplacian(f: FourierScalar, eta) -> FourierScalar:
    """sum_i d_i of the raised gradient."""
    raised = enumerate(gradient(f, eta))
    return sum((g.derivative(i) for i, g in raised), FourierScalar.zero(f.dim))


def jacobian(comps) -> list:
    return [[f.derivative(k) for k in range(f.dim)] for f in comps]


def jet(f: FourierScalar, n: int, mixed: bool):
    """(d_i f, dt^i f, d_i dt^j f) of a scalar on T^{2n}; the last is None
    unless ``mixed``."""
    x = [f.derivative(i) for i in range(n)]
    t = [f.derivative(n + i) for i in range(n)]
    return x, t, [[d.derivative(n + j) for j in range(n)] for d in x] if mixed else None


def det_fraction(rows) -> Fraction:
    """Exact determinant of a square Fraction matrix, expanded along its
    first row."""
    if not rows:
        return Fraction(1)
    minors = ([r[:j] + r[j + 1 :] for r in rows[1:]] for j in range(len(rows)))
    terms = enumerate(zip(rows[0], minors))
    return sum(((-1) ** j * w * det_fraction(m) for j, (w, m) in terms if w), Fraction(0))


def is_definite(upper) -> bool:
    """Exact LDL^T test on a symmetric Fraction matrix: every pivot is
    nonzero and of one sign."""
    a = [list(row) for row in upper]
    first = a[0][0] > 0
    for k in range(len(a)):
        p = a[k][k]
        if not p or (p > 0) != first:
            return False
        for r in range(k + 1, len(a)):
            f = a[r][k] / p
            for c in range(k + 1, len(a)):
                a[r][c] -= f * a[k][c]
    return True
