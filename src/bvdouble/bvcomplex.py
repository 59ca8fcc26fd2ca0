"""The four-term graded complex and its odd operators.

Degrees and slots (D = torus dimension):

    degree 0:  u                  one scalar
    degree 1:  (A, v)             generalized section + scalar
    degree 2:  (At, vt)           generalized section + scalar
    degree 3:  ut                 one scalar

An element is stored uniformly as (degree, section-or-None, scalar).  Its
sums, constant multiples, zero test and equality come from
``scalars.Linear``, which absorbs a zero of another degree in a sum.  The
three odd endomorphisms are

    b:  (A, v) -> v,     (At, vt) -> (-At, 0),   ut -> (0, -ut),   u -> 0
    c:  u -> (0, u),     (A, v) -> (-A, 0),      (At, vt) -> -vt,  ut -> 0
    Q:  u -> ((0, du), 0)
        (A, v) -> ((0, dv), div A / 2 + v)
        (At, vt) -> -div At / 2
        ut -> 0

which satisfy Q^2 = b^2 = c^2 = 0, Qb + bQ = 0 and bc + cb = id.

The complex splits orthogonally (for the degree-complementary pairing
defined below) into the subcomplex where v = -div A / 2 and vt = 0 after
removing the exact dvt part, and an acyclic complement spanned by (0, v) in
degree 1 and ((0, dv), v) in degree 2; ``project_half`` is the projection
onto the first summand.
"""

from __future__ import annotations

from functools import cache
from itertools import chain

from .scalars import (
    FourierScalar,
    GaussRational,
    Linear,
    _constant,
    _random_scalars,
    integral_of_products,
)
from .sections import _HALF, GenSection, d_scalar, divergence

__all__ = [
    "BVElement",
    "op_b",
    "op_c",
    "op_q",
    "project_half",
    "complement_residual",
    "odd_pairing",
    "random_element",
]


class BVElement(Linear):
    """A homogeneous element of the graded complex."""

    __slots__ = ("degree", "dim", "section", "scalar")

    def __init__(self, degree: int, dim: int, section, scalar):
        # Degrees outside 0..3 only ever hold the zero element; they appear
        # transiently when operators walk off the end of the complex.
        if degree in (1, 2):
            if section is None:
                section = GenSection.zero(dim)
            elif not isinstance(section, GenSection):
                raise TypeError(f"a degree-{degree} section must be a GenSection")
            elif section.dim != dim:
                raise ValueError(f"a section on T^{section.dim} in an element on T^{dim}")
        else:
            if section is not None and not section.is_zero():
                raise ValueError(f"degree {degree} has no section slot")
            section = None
        scalar = FourierScalar.zero(dim) if scalar is None else scalar
        if not isinstance(scalar, FourierScalar):
            raise TypeError(f"the scalar slot must be a FourierScalar, not {scalar!r}")
        if scalar.dim != dim:
            raise ValueError(f"a scalar on T^{scalar.dim} in an element on T^{dim}")
        if degree not in (0, 1, 2, 3) and not scalar.is_zero():
            raise ValueError(f"degree {degree} space is zero")
        self.degree = degree
        self.dim = dim
        self.section = section
        self.scalar = scalar

    # -- constructors ------------------------------------------------------

    @staticmethod
    @cache
    def zero(degree: int, dim: int) -> "BVElement":
        return BVElement(degree, dim, None, None)

    @staticmethod
    def deg0(u: FourierScalar) -> "BVElement":
        return BVElement(0, u.dim, None, u)

    @staticmethod
    def deg1(a: GenSection, v: FourierScalar | None = None) -> "BVElement":
        return BVElement(1, a.dim, a, v)

    @staticmethod
    def deg2(at: GenSection, vt: FourierScalar | None = None) -> "BVElement":
        return BVElement(2, at.dim, at, vt)

    @staticmethod
    def deg3(ut: FourierScalar) -> "BVElement":
        return BVElement(3, ut.dim, None, ut)

    # -- linear structure --------------------------------------------------

    def parts(self) -> tuple:
        """The section's components, then the scalar (alone without a section)."""
        if self.section is None:
            return (self.scalar,)
        return self.section.vec + self.section.form + (self.scalar,)

    def _like(self, parts):
        if self.section is None:
            return BVElement(self.degree, self.dim, None, parts[0])
        d = self.dim
        return BVElement(self.degree, d, GenSection(parts[:d], parts[d:-1]), parts[-1])

    def _shape(self):
        return self.dim, self.degree

    def __mul__(self, const):
        """Multiplication by a constant from Q(i) (not by a scalar field)."""
        t = _constant(const)
        if t is None:
            raise TypeError(f"cannot scale a BVElement by {const!r}")
        if t == (1, 0, 1):
            return self
        if t == (-1, 0, 1):
            return -self
        return Linear.__mul__(self, const)

    __rmul__ = __mul__


def op_b(x: BVElement) -> BVElement:
    """The degree -1 operator b."""
    d = x.degree
    if d == 1:
        return BVElement.deg0(x.scalar)
    if d == 2:
        return BVElement.deg1(-x.section, None)
    if d == 3:
        return BVElement.deg2(GenSection.zero(x.dim), -x.scalar)
    return BVElement.zero(d - 1, x.dim)


def op_c(x: BVElement) -> BVElement:
    """The degree +1 operator c, a contracting homotopy for b."""
    d = x.degree
    if d == 0:
        return BVElement.deg1(GenSection.zero(x.dim), x.scalar)
    if d == 1:
        return BVElement.deg2(-x.section, None)
    if d == 2:
        return BVElement.deg3(-x.scalar)
    return BVElement.zero(d + 1, x.dim)


def op_q(x: BVElement) -> BVElement:
    """The differential Q."""
    d = x.degree
    if d == 0:
        return BVElement.deg1(d_scalar(x.scalar), None)
    if d == 1:
        return BVElement.deg2(
            d_scalar(x.scalar), divergence(x.section) * _HALF + x.scalar
        )
    if d == 2:
        return BVElement.deg3(-(divergence(x.section) * _HALF))
    return BVElement.zero(d + 1, x.dim)


# -- the orthogonal splitting ---------------------------------------------


def project_half(x: BVElement) -> BVElement:
    """Projection onto the constrained subcomplex.

    Degree 1: (A, v) -> (A, -div A / 2).  Degree 2: (At, vt) -> (At - (0, dvt), 0).
    Degrees 0 and 3 are untouched.
    """
    if x.degree == 1:
        return BVElement.deg1(x.section, -(divergence(x.section) * _HALF))
    if x.degree == 2:
        return BVElement.deg2(x.section - d_scalar(x.scalar), None)
    return x


def complement_residual(x: BVElement):
    """Vanishes exactly on the acyclic complement, (0, v) resp. ((0, dv), v),
    which it describes without ``project_half``."""
    if x.degree == 1:
        return x.section
    if x.degree == 2:
        return x.section - d_scalar(x.scalar)
    return x


# -- the degree-complementary pairing --------------------------------------


def odd_pairing(x: BVElement, y: BVElement) -> GaussRational:
    """Symmetric pairing between degrees d and 3 - d.

    (u, ut) = -2 int u ut;   ((A, v), (At, vt)) = int <A, At> - 2 int v vt;
    zero unless the degrees sum to 3.  One integral of products: the
    pairing's X_A . xi_B + X_B . xi_A, less the scalar product twice.
    """
    if x.dim != y.dim:
        raise ValueError(f"elements on T^{x.dim} and T^{y.dim}")
    if x.degree + y.degree != 3:
        return GaussRational(0)
    v = (x.scalar, y.scalar)
    pairs = ()
    if x.section is not None:
        a, b = x.section, y.section
        pairs = chain(zip(a.vec, b.form), zip(b.vec, a.form))
    return integral_of_products(x.dim, pairs, (v, v))


def random_element(rng, dim: int, cutoff: int, degree: int) -> BVElement:
    """A random sparse element of the requested degree: a scalar, or at
    degrees 1 and 2 a section and a scalar, its 2D + 1 scalars in one draw
    (in the order of its parts); the zero outside degrees 0..3."""
    zero = BVElement.zero(degree, dim)
    if degree not in (0, 1, 2, 3):
        return zero
    return zero._like(_random_scalars(rng, dim, cutoff, len(zero.parts())))
