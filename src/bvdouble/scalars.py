"""Exact scalar arithmetic on a torus.

Scalars are finite Fourier sums

    f(x) = sum_k  c_k  e^{i k.x},      k in Z^D,

with coefficients c_k in Q(i), stored sparsely as a dict from the integer
mode vector to the coefficient.  In this model

  * the product of two scalars is the convolution of their coefficient dicts,
  * the partial derivative d/dx^j multiplies the coefficient of mode k by i*k_j,
  * the normalised integral over the torus picks out the mode-0 coefficient,

so every operation stays inside Q(i) and all identity checks are exact.

A Gaussian rational (a + b*i)/d is held as three Python ints in canonical
form, d > 0 and gcd(a, b, d) = 1, so each operation is a few int products
and one gcd, and equal values have equal ints.  ``GaussRational`` wraps the
three ints in an object whose ``.re`` and ``.im`` give the parts as exact
Fractions.  Inside ``FourierScalar`` a coefficient is the bare int triple
``(a, b, d)`` in the same canonical form, never ``(0, 0, d)``: the ring
operations, the derivative, scaling and ``random_scalar`` read and write
triples, and a ``GaussRational`` is built only at the boundary, by
``coeffs``, ``integral``, ``integral_of_products`` and the public
constructor (which takes one apart).  ``_constant`` is the one parser of a
constant: it reads an int, ``Fraction`` or ``GaussRational``, by exact type,
as its canonical triple, and every constructor and ring operation that takes
a constant reads it there.  The ring operations build their results through
a trusted constructor that skips the public one's parsing and validation;
they keep its invariant that no zero coefficient is ever stored.

Packed modes: a mode k is stored as the one int  sum_j k_j * 2^(W*j),  its
components being signed digits of the fixed width W = 32 (Kronecker
substitution).  The map is linear, so the mode of a convolution term is one
int addition, and a dict lookup hashes a small int instead of a tuple.  It is
injective while every |k_j| < 2^(W-1); ``derivative`` reads k_j back by
adding 2^(W-1) to each digit up to j (so no lower digit borrows), then a
shift and a mask.  Each scalar carries ``reach``, an upper bound on every
|k_j|: the public constructor sets it, sums and derivatives keep the larger
one, and a product's reach is the sum of its factors'.  A product whose reach
would leave the digit range raises ``OverflowError`` instead of aliasing
modes.  The read-only property ``coeffs`` unpacks the modes into a new dict
keyed by mode tuples, in storage order.

Reduce once per output coefficient: products, sums, differences and whole
signed sums of products (``sum_of_products``) accumulate raw ``(a, b, d)``
int triples per mode, with no gcd, and bring each surviving coefficient to
canonical form once, as the result is built.

Symbols: a constant-coefficient operator of order p multiplies the term of
mode k by i^p P(k)/den, with P an integer polynomial.  ``symbols`` reads each
packed mode once, like ``coeffs``, and writes each coefficient of several
such operators with one ``_canon``: the raised gradient, the Laplacian, the
Jacobian (``jacobian``) and the doubled-torus jets of ``doublecopy``.  A
scalar's value is never written after construction (the cached zeros rely on
this too), so ``jacobian`` keeps its result, as a tuple, the first time it is
taken.  ``integral_of_products`` reads only the term pairs of a signed sum of
products whose modes cancel.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, isqrt, lcm
from operator import add, index, mul, neg, sub

__all__ = [
    "GaussRational",
    "FourierScalar",
    "Linear",
    "Metric",
    "SquareGrid",
    "integral_of_products",
    "laplacian",
    "randbelow",
    "random_coefficient",
    "random_scalar",
    "sum_of_products",
]


class GaussRational:
    """A Gaussian rational (a + b*i)/d held as three ints in canonical form.

    The form is unique: ``d > 0`` and ``gcd(a, b, d) == 1`` (zero is
    ``(0, 0, 1)``), so equality is a comparison of the three ints.
    ``GaussRational(re, im)`` is re + im*i for any two constants that
    ``_constant`` reads.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        t, u = _constant(re), _constant(im)
        if t is None or u is None:
            raise TypeError(f"cannot interpret {re!r} + {im!r}*i as a Gaussian rational")
        (a, b, d), (c, e, f) = t, u
        self._a, self._b, self._d = _canon(a * f - e * d, b * f + c * d, d * f)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other, sign=1):
        t = _constant(other)
        if t is None:
            return NotImplemented
        c, e, f = t
        d = self._d
        if d == f:
            return _gauss(*_canon(self._a + sign * c, self._b + sign * e, d))
        return _gauss(*_canon(self._a * f + sign * c * d, self._b * f + sign * e * d, d * f))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        t = _constant(other)
        if t is None:
            return NotImplemented
        a, b, (c, e, f) = self._a, self._b, t
        return _gauss(*_canon(a * c - b * e, a * e + b * c, self._d * f))

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        t = _constant(other)
        return NotImplemented if t is None else t == (self._a, self._b, self._d)


def _constant(value):
    """The one parser of a constant: the canonical triple (a, b, d) of an int,
    Fraction or GaussRational, taken by exact type, or None for any other
    value (a bool, a float and a str among them).  The constant is 1 or -1
    exactly when the triple is (1, 0, 1) or (-1, 0, 1), so a unit test
    compares ints."""
    kind = type(value)
    if kind is GaussRational:
        return value._a, value._b, value._d
    if kind is int:
        return value, 0, 1
    if kind is Fraction:
        return value.numerator, 0, value.denominator
    return None


def _gauss(a, b, d):
    """Trusted constructor: (a + b*i)/d, already in canonical form."""
    g = _new(GaussRational)
    g._a, g._b, g._d = a, b, d
    return g


def _canon(a, b, d):
    """The triple (a, b, d) for any d > 0, brought to canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return a // g, b // g, d // g
    return a, b, d


_new = object.__new__


_ZERO = GaussRational(0)

# Packed modes: digit width (the width of the ``struct`` format "i" that
# ``_digits`` reads), the bound every |k_j| stays below, and the digit mask.
_W = 32
_BOUND = 1 << (_W - 1)
_MASK = (1 << _W) - 1


@cache
def _weights(dim: int, kept: range) -> tuple:
    """Per axis j of T^dim, the packed-mode weight 2^(W j) when j is in ``kept``, else 0."""
    return tuple(1 << (_W * j) if j in kept else 0 for j in range(dim))


@cache
def _digits(n: int):
    """The bias, byte length and signed-digit reader of n packed digits.

    The bias is 2^(W-1) in each digit: added to a packed mode, it makes every
    digit nonnegative, so none borrows from the next.  XOR with the bias then
    leaves each digit as its 32-bit two's complement, which ``struct`` reads.
    """
    bias = _BOUND * (((1 << (_W * n)) - 1) // _MASK)
    return bias, _W // 8 * n, struct.Struct(f"<{n}i").unpack


def _component(k) -> int:
    """A mode component as an int; bools and non-integers raise ``TypeError``."""
    if isinstance(k, bool):
        raise TypeError(f"mode component {k!r} is a bool, not an integer")
    return index(k)


class FourierScalar:
    """A finite Fourier sum on the torus T^dim with Q(i) coefficients."""

    __slots__ = ("dim", "_terms", "reach", "_jac")

    def __init__(self, dim: int, coeffs=None):
        if dim < 1:
            raise ValueError(f"dimension must be at least 1, got {dim}")
        self.dim = dim
        self._jac = None
        clean = {}
        reach = 0
        if coeffs:
            for mode, c in coeffs.items():
                t = _constant(c)
                if t is None:
                    raise TypeError(f"cannot interpret {c!r} as a Gaussian rational")
                if t[0] or t[1]:
                    if len(mode) != dim:
                        raise ValueError(f"mode {mode} has wrong arity")
                    mode = tuple(map(_component, mode))
                    top = max(map(abs, mode))
                    if top >= _BOUND:
                        raise ValueError(
                            f"mode {mode} has a component outside (-2**{_W - 1}, 2**{_W - 1})"
                        )
                    reach = max(reach, top)
                    clean[sum(map(mul, mode, _weights(dim, range(dim))))] = t
        self._terms = clean
        self.reach = reach

    @property
    def coeffs(self) -> dict:
        """A new dict from mode tuples to coefficients, in storage order."""
        bias, size, read = _digits(self.dim)
        return {
            read(((m + bias) ^ bias).to_bytes(size, "little")): _gauss(*t)
            for m, t in self._terms.items()
        }

    # -- constructors ------------------------------------------------------

    @staticmethod
    @cache
    def zero(dim: int) -> "FourierScalar":
        return FourierScalar(dim)

    @staticmethod
    def const(dim: int, value) -> "FourierScalar":
        return FourierScalar(dim, {(0,) * dim: value})

    @staticmethod
    def one(dim: int) -> "FourierScalar":
        return FourierScalar.const(dim, 1)

    @staticmethod
    def harmonic(dim: int, mode, coeff=1) -> "FourierScalar":
        return FourierScalar(dim, {tuple(mode): coeff})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other, sign=1):
        """self + sign * other, in one merge, for any nonzero int ``sign``."""
        if not isinstance(other, FourierScalar):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"cannot add scalars on T^{self.dim} and T^{other.dim}")
        r, s = self.reach, other.reach
        return _scalar(self.dim, _merge(self._terms, other._terms, sign), r if r >= s else s)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        terms = {m: (-a, -b, d) for m, (a, b, d) in self._terms.items()}
        return _scalar(self.dim, terms, self.reach)

    def __mul__(self, other):
        if isinstance(other, FourierScalar):
            return sum_of_products(self.dim, ((self, other),))
        t = _constant(other)
        if t is None:
            return NotImplemented
        if t == (1, 0, 1):
            return self
        if t == (-1, 0, 1):
            return -self
        p, q, e = t
        items = self._terms.items()
        if q:
            terms = {m: _canon(a * p - b * q, a * q + b * p, d * e) for m, (a, b, d) in items}
        elif p:
            terms = {m: _canon(a * p, b * p, d * e) for m, (a, b, d) in items}
        else:
            return _scalar(self.dim, {}, 0)
        return _scalar(self.dim, terms, self.reach)

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def derivative(self, j: int) -> "FourierScalar":
        """d/dx^j: the coefficient of mode k picks up a factor i*k_j."""
        if not 0 <= j < self.dim:
            raise ValueError(f"no axis {j} on a torus of dimension {self.dim}")
        bias, shift = _digits(j + 1)[0], _W * j
        return _scalar(
            self.dim,
            {
                m: _canon(-b * k, a * k, d)
                for m, (a, b, d) in self._terms.items()
                if (k := (((m + bias) >> shift) & _MASK) - _BOUND)
            },
            self.reach,
        )

    def symbols(self, orders, poly, den: int = 1) -> list:
        """Per output, the scalar of coefficients i^p P(k) c_k / den, from one
        pass: ``poly(k)`` gives every output's int P(k) at the mode tuple k,
        and ``orders`` every output's order p, 1 or 2."""
        bias, size, read = _digits(self.dim)
        outs = [{} for _ in orders]
        for m, (a, b, d) in self._terms.items():
            k = read(((m + bias) ^ bias).to_bytes(size, "little"))
            d *= den
            for out, p, v in zip(outs, orders, poly(k)):
                if v:
                    out[m] = _canon(-b * v, a * v, d) if p == 1 else _canon(-a * v, -b * v, d)
        return [_scalar(self.dim, out, self.reach) for out in outs]

    def jacobian(self) -> tuple:
        """Every first derivative d_k self over k, from one ``symbols`` pass
        (the symbols i k_k), kept on first use; a tuple, so no caller can
        change what later callers read."""
        jac = self._jac
        if jac is None:
            jac = self._jac = tuple(self.symbols((1,) * self.dim, tuple))
        return jac

    def integral(self) -> GaussRational:
        """Normalised integral over the torus (the mode-0 coefficient)."""
        t = self._terms.get(0)
        return _ZERO if t is None else _gauss(*t)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, FourierScalar):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms


def _merge(p: dict, q: dict, sign: int) -> dict:
    """Triples of p + sign*q (sign a nonzero int); only shared modes reduce."""
    out = dict(p)
    get = out.get
    for mode, t in q.items():
        acc = get(mode)
        c, e, f = t
        if acc is None:
            out[mode] = t if sign == 1 else (-c, -e, f) if sign == -1 else _canon(sign * c, sign * e, f)
            continue
        a, b, d = acc
        if d == f:
            a, b = a + sign * c, b + sign * e
        else:
            a, b, d = a * f + sign * c * d, b * f + sign * e * d, d * f
        if a or b:
            out[mode] = _canon(a, b, d)
        else:
            del out[mode]
    return out


def sum_of_products(dim: int, pairs, negated=()) -> FourierScalar:
    """sum f*g over ``pairs`` minus sum f*g over ``negated``.

    Every product adds its term pairs, as unreduced ``(a, b, d)`` triples
    with ``d > 0`` that may share a gcd or be zero, into one dict keyed by
    packed mode; sums over a shared denominator (or one that divides the
    other) add the numerators only.  Each mode of the result is then
    reduced once, and a triple that is already canonical is kept as it is.
    Raises ``ValueError`` if a factor is not on T^dim and ``OverflowError``
    if a product's reach would leave the packed digit range.
    """
    acc = {}
    get = acc.get
    reach = 0
    for sign, group in ((1, pairs), (-1, negated)):
        for f, g in group:
            if f.dim != dim or g.dim != dim:
                raise ValueError(f"cannot multiply T^{f.dim} and T^{g.dim} scalars on T^{dim}")
            r = f.reach + g.reach
            if r > reach:
                if r >= _BOUND:
                    raise OverflowError(f"a product may reach mode component {r} >= 2**{_W - 1}")
                reach = r
            right = g._terms.items()
            if not right:
                continue
            for m1, (a1, b1, d1) in f._terms.items():
                if sign != 1:
                    a1, b1 = -a1, -b1
                for m2, (a2, b2, d2) in right:
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
    out = {}
    for m, t in acc.items():
        a, b, d = t
        if a or b:
            if d != 1:
                g = gcd(a, b, d)
                if g != 1:
                    t = a // g, b // g, d // g
            out[m] = t
    return _scalar(dim, out, reach)


def integral_of_products(dim: int, pairs, negated=()) -> GaussRational:
    """The integral of ``sum_of_products(dim, pairs, negated)``, from its
    mode-0 term pairs only: per term of mode m in f, one lookup of the mode
    -m in g.  Packing is linear and every |k_j| < 2^(W-1), so the packed -m
    is the mode -k; no mode is formed, so no reach can overflow.  Raises
    ``ValueError`` if a factor is not on T^dim.
    """
    total = _ZERO
    for sign, group in ((1, pairs), (-1, negated)):
        for f, g in group:
            if f.dim != dim or g.dim != dim:
                raise ValueError(f"cannot multiply T^{f.dim} and T^{g.dim} scalars on T^{dim}")
            get = g._terms.get
            for m, (a1, b1, d1) in f._terms.items():
                t = get(-m)
                if t is not None:
                    a2, b2, d2 = t
                    total = total.__add__(
                        _gauss(*_canon(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)), sign
                    )
    return total


def _scalar(dim: int, terms: dict, reach: int) -> FourierScalar:
    """Trusted constructor for the ring operations.

    ``terms`` must already map packed modes on T^dim to canonical nonzero
    ``(a, b, d)`` int triples, each mode component within ``reach``; it is
    stored without copying.
    """
    f = _new(FourierScalar)
    f.dim = dim
    f._terms = terms
    f.reach = reach
    f._jac = None
    return f


class Metric:
    """A constant symmetric invertible matrix with exact rational entries.

    ``upper`` holds the contravariant components eta^{ij}; ``lower`` is the
    exact matrix inverse eta_{ij}.  ``_num`` holds the ints ``_den`` eta^{ij},
    ``_den`` the least common denominator of the entries, for the raised
    gradient, and ``_form`` their nonzero (i, j, int) for the Laplacian.  All
    index contractions go through the methods below: ``raise_index`` and
    ``lower_index`` take any values that add and scale by a rational (ints,
    scalars, graded and matrix-valued elements); each row of an invertible
    matrix has a nonzero entry, so no zero value is needed to start a sum.
    """

    __slots__ = (
        "dim", "upper", "lower", "det_upper", "_up_rows", "_down_rows", "_den", "_num", "_form"
    )

    def __init__(self, rows):
        mat = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(mat)
        if not all(len(row) == n for row in mat):
            raise ValueError("metric must be square")
        if not all(mat[i][j] == mat[j][i] for i in range(n) for j in range(n)):
            raise ValueError("metric must be symmetric")
        self.dim = n
        self.upper = mat
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        self.det_upper, self.lower = _gauss_jordan(mat, identity)
        if self.lower is None:
            raise ValueError("metric is singular")
        self._up_rows = _nonzero_rows(self.upper)
        self._down_rows = _nonzero_rows(self.lower)
        self._den = lcm(*(w.denominator for row in mat for w in row))
        self._num = tuple(tuple(int(w * self._den) for w in row) for row in mat)
        self._form = [(i, j, w) for i, r in enumerate(self._num) for j, w in enumerate(r) if w]

    @staticmethod
    def diagonal(entries) -> "Metric":
        n = len(entries)
        return Metric(
            [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    def pairs(self):
        """The nonzero entries (i, j, eta^{ij}), row by row."""
        return [(i, j, w) for i, row in enumerate(self._up_rows) for j, w in row]

    def raise_index(self, ts) -> list:
        """The list of eta^{ij} t_j over i."""
        return [_row_sum(row, ts) for row in self._up_rows]

    def lower_index(self, ts) -> list:
        """The list of eta_{ij} t^j over i."""
        return [_row_sum(row, ts) for row in self._down_rows]

    def _raised(self, k) -> list:
        """``_den`` eta^{ij} k_j over i, for ints k_j."""
        return [sum(map(mul, row, k)) for row in self._num]

    def quadratic(self, k) -> int:
        """``_den`` eta^{ij} k_i k_j, for ints k_j, over the nonzero entries."""
        return sum([w * k[i] * k[j] for i, j, w in self._form])

    def gradient(self, x: FourierScalar) -> list:
        """The raised gradient eta^{ij} d_j x over i of a scalar, from one pass:
        the symbol i eta^{ij} k_j."""
        return x.symbols((1,) * self.dim, self._raised, self._den)

    def is_definite(self) -> bool:
        """Sylvester's test on eta^{ij}: the products Delta_{k-1} Delta_k of its
        leading minors, signed like the unpivoted pivots, share one sign."""
        minors = [_gauss_jordan([r[:k] for r in self.upper[:k]])[0] for k in range(self.dim + 1)]
        pivots = [d * e for d, e in zip(minors, minors[1:])]
        return all(p > 0 for p in pivots) or all(p < 0 for p in pivots)

    def volume_root(self):
        """sqrt|det eta_{ij}| when it is rational, else None."""
        det = abs(1 / self.det_upper)
        num, den = det.numerator, det.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn != num or rd * rd != den:
            return None
        return Fraction(rn, rd)


def _nonzero_rows(mat):
    """Per row, the (column, entry) pairs of the nonzero entries."""
    return tuple(tuple((j, w) for j, w in enumerate(row) if w) for row in mat)


def _row_sum(row, ts):
    """sum_j w t_j over the (j, w) pairs of one nonempty metric row."""
    (j, w), *rest = row
    acc = ts[j] * w
    for j, w in rest:
        acc = acc + ts[j] * w
    return acc


def laplacian(f: FourierScalar, metric: Metric) -> FourierScalar:
    """The constant-coefficient Laplacian eta^{ij} d_i d_j f, from one pass:
    the symbol -eta^{ij} k_i k_j."""
    return f.symbols((2,), lambda k: (metric.quadratic(k),), metric._den)[0]


def _gauss_jordan(a, b=None):
    """(det A, A^-1 B) by Gauss-Jordan elimination on the rows of [A | B],
    or (0, None) when A is singular.

    ``a`` is a square matrix of Fractions; ``b`` has as many rows, and none
    of its columns when omitted.
    """
    n = len(a)
    rows = [[*r, *s] for r, s in zip(a, b or [()] * n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        p = rows[col][col]
        det *= p
        top = rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
    return det, tuple(tuple(row[n:]) for row in rows)


class Linear:
    """An element of a free module over the scalars of one torus.

    A subclass supplies ``parts()``, the flat tuple of its entries;
    ``_like(parts)``, the value of its own shape with those entries, built
    through its constructor so that every result passes its checks; and
    ``_shape()``, its size (dimension or rank, as ``_SIZE`` names it) and its
    degree (None if ungraded).  Here they give the entrywise sum, difference,
    negation, scaling by a constant on each entry's right, zero test and
    equality.  Another size raises ``ValueError``; another degree absorbs a
    zero operand (0 - y is -y) and otherwise raises ``TypeError``.
    """

    __slots__ = ()
    _SIZE = "dimension"

    def __add__(self, other, op=add):
        if not isinstance(other, type(self)):
            return NotImplemented
        shape, other_shape = self._shape(), other._shape()
        if other_shape != shape:
            (n, degree), (m, other_degree) = shape, other_shape
            if n != m:
                raise ValueError(f"{type(self).__name__}s of {self._SIZE} {n} and {m}")
            if self.is_zero():
                return other if op is add else -other
            if other.is_zero():
                return self
            raise TypeError(f"cannot combine degrees {degree} and {other_degree}")
        return self._like(tuple(map(op, self.parts(), other.parts())))

    def __sub__(self, other):
        return self.__add__(other, sub)

    def __neg__(self):
        return self._like(tuple(map(neg, self.parts())))

    def __mul__(self, const):
        if isinstance(const, Linear):
            return NotImplemented
        return self._like(tuple([p * const for p in self.parts()]))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        for p in self.parts():
            if not p.is_zero():
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._shape() == other._shape() and self.parts() == other.parts()


class SquareGrid(Linear):
    """A nonempty square grid of ``ENTRY`` values on one torus T^dim; its
    parts are the entries row by row.

    Subclasses name the entry type and add the checks of their own.
    """

    __slots__ = ("rank", "rows", "dim")
    ENTRY = object
    _SIZE = "rank"

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n, name = len(rows), type(self).__name__
        if not n or any(len(r) != n for r in rows):
            raise ValueError(f"a {name} needs a nonempty square grid of entries")
        entry = self.ENTRY
        if not all(isinstance(e, entry) for row in rows for e in row):
            raise TypeError(f"{name} entries must be {entry.__name__}s")
        dim = rows[0][0].dim
        if any(e.dim != dim for row in rows for e in row):
            raise ValueError(f"{name} entries live on tori of different dimensions")
        self.rank = n
        self.rows = rows
        self.dim = dim

    def entry(self, p: int, q: int):
        return self.rows[p][q]

    def apply(self, fn):
        return self._like(tuple(map(fn, self.parts())))

    def parts(self) -> tuple:
        return tuple(chain.from_iterable(self.rows))

    @classmethod
    def _like(cls, parts):
        n = isqrt(len(parts))
        return cls([parts[i * n : i * n + n] for i in range(n)])

    def _shape(self):
        return self.rank, None


# -- randomised inputs -----------------------------------------------------
#
# Identity checks run on random sparse scalars: one or two Fourier modes with
# small coefficients.  Sparsity keeps the exact convolutions cheap while still
# exercising every term of the identities (derivatives, convolutions and index
# contractions all mix modes).  Every sampler draws its scalars in one call of
# ``_random_scalars``, which takes each int of ``randbelow`` straight from
# ``rng.getrandbits`` and each coefficient's canonical triple from ``_SMALL``:
# the same ``getrandbits`` calls, in the same order, as ``rng.choice``, so
# the stream, and every seeded report, stays as it was.


def randbelow(bits, n: int) -> int:
    """The ``Random._randbelow(n)`` behind ``rng.choice`` and ``rng.randint``, on
    ``bits = rng.getrandbits``: ``choice(seq)`` is ``seq[randbelow(bits, len(seq))]``."""
    if n < 1:
        raise ValueError(f"no int in [0, {n})")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


# The canonical triple of (a - 2 + (b - 2) i)/(d + 1) at index 10 a + 2 b + d,
# for a, b in range(5) and d in range(2): every coefficient a draw can give.
_SMALL = tuple(_canon(a - 2, b - 2, d + 1) for a in range(5) for b in range(5) for d in range(2))


def random_coefficient(rng) -> GaussRational:
    """A small nonzero Gaussian rational with denominator 1 or 2."""
    bits = rng.getrandbits
    while True:
        a = randbelow(bits, 5)
        b = randbelow(bits, 5)
        if a != 2 or b != 2:
            return _gauss(*_SMALL[10 * a + 2 * b + randbelow(bits, 2)])


def random_scalar(rng, dim: int, cutoff: int, max_modes: int = 2) -> FourierScalar:
    """A sparse random scalar: 1..max_modes draws of a mode in [-cutoff,
    cutoff]^dim with a random coefficient.  Draws that land on one mode add
    up and can cancel, so the scalar may have fewer modes, or none (at D=1,
    cutoff 1, for 15 of the seeds 0..2999)."""
    return _random_scalars(rng, dim, cutoff, 1, max_modes)[0]


def _random_scalars(rng, dim: int, cutoff: int, count: int, max_modes: int = 2, kept=None) -> list:
    """``count`` draws of ``random_scalar`` in draw order, from one loop.
    Every axis of T^dim is drawn, and a mode keeps the components of the axes
    in ``kept`` (default: all; the others read 0).  Each ``randbelow(bits, n)``
    is written out with its ``k = n.bit_length()``: 3 bits for a coefficient
    part in range(5) and 2 for a denominator in range(2)."""
    if not 0 <= cutoff < _BOUND:
        raise ValueError(f"mode cutoff {cutoff} is outside the packed range")
    if max_modes < 1:  # as in randbelow: the loop below would spin on bits(0) == 0
        raise ValueError(f"no int in [0, {max_modes})")
    bits = rng.getrandbits
    width = 2 * cutoff + 1
    kw, km = width.bit_length(), max_modes.bit_length()
    weights = _weights(dim, range(dim) if kept is None else kept)
    out = []
    for _ in range(count):
        n = bits(km)
        while n >= max_modes:
            n = bits(km)
        coeffs = {}
        cancelled = False
        for _ in range(n + 1):
            mode = 0
            for weight in weights:
                r = bits(kw)
                while r >= width:
                    r = bits(kw)
                mode += (r - cutoff) * weight
            while True:
                a = bits(3)
                while a >= 5:
                    a = bits(3)
                b = bits(3)
                while b >= 5:
                    b = bits(3)
                if a != 2 or b != 2:
                    break
            d = bits(2)
            while d >= 2:
                d = bits(2)
            t = _SMALL[10 * a + 2 * b + d]
            s = coeffs.get(mode)
            if s is not None:
                (p, q, e), (a, b, d) = s, t
                t = _canon(p * d + a * e, q * d + b * e, e * d)
                cancelled = cancelled or not (t[0] or t[1])
            coeffs[mode] = t
        if cancelled:
            coeffs = {m: t for m, t in coeffs.items() if t[0] or t[1]}
        out.append(_scalar(dim, coeffs, cutoff))
    return out
