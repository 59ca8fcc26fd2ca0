"""Reference Q(i) arithmetic: a Gaussian rational as a pair of Fractions.

This is the straightforward representation that ``bvdouble.scalars`` used
before it moved to three canonical ints.  It is kept only as a test oracle
for ``tests/test_gauss_oracle.py``; nothing in the package imports it.
"""

from fractions import Fraction


class FractionGauss:
    """A Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def coerce(value) -> "FractionGauss":
        if isinstance(value, FractionGauss):
            return value
        if isinstance(value, (int, Fraction)):
            return FractionGauss(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other):
        if not isinstance(other, (FractionGauss, int, Fraction)):
            return NotImplemented
        other = FractionGauss.coerce(other)
        return FractionGauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (FractionGauss, int, Fraction)):
            return NotImplemented
        other = FractionGauss.coerce(other)
        return FractionGauss(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        if not isinstance(other, (FractionGauss, int, Fraction)):
            return NotImplemented
        return FractionGauss.coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, (FractionGauss, int, Fraction)):
            return NotImplemented
        other = FractionGauss.coerce(other)
        return FractionGauss(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = FractionGauss.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionGauss(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return FractionGauss.coerce(other) / self

    def __neg__(self):
        return FractionGauss(-self.re, -self.im)

    def conjugate(self):
        return FractionGauss(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        try:
            other = FractionGauss.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return f"{self.re}"
        if not self.re:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"
