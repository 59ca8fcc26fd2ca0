"""Operations of ``bvdouble.bvops`` by their definitions, as byte-comparing
oracles.

``brack`` is s (b mu(x, y) - mu(bx, y) - s mu(x, by)) with s = (-1)^|x|:
three products, two applications of b and three rescaled sums, whose
cancelling terms the closed form in ``bvdouble.bvops`` never builds.
``n_op`` and ``nu_b_commutator`` are the graded commutators [b, m] and
[b, nu] written out term by term, as ``bvops.boundary`` evaluates them.
``musym`` and ``l2`` are the graded (anti)symmetrizations of ``mu`` and of
``brack``, which evaluate two operations and average them, and ``nu`` and
``nusym`` are sums of products ``mu`` of an ``m_op`` value with the third
argument.  ``bvdouble.bvops`` evaluates all six as closed forms, one per
nonzero degree pattern, and builds no element-level sum.
"""

from fractions import Fraction

from bvdouble.bvcomplex import BVElement, op_b
from bvdouble.bvops import m_op, mu, sign

_HALF = Fraction(1, 2)


def brack(x, y):
    """The odd bracket derived from the product and the operator b."""
    s = sign(x.degree)
    return s * (op_b(mu(x, y)) - mu(op_b(x), y) - s * mu(x, op_b(y)))


def n_op(x, y):
    """The graded commutator [b, m], a symmetric pairing."""
    return (
        op_b(m_op(x, y))
        + m_op(op_b(x), y)
        + sign(x.degree) * m_op(x, op_b(y))
    )


def nu(x, y, z):
    """The homotopy for the associativity of ``mu``, from ``m_op`` and ``mu``."""
    pattern = (x.degree, y.degree, z.degree)
    if not x.dim == y.dim == z.dim:
        raise ValueError(f"elements on T^{x.dim}, T^{y.dim} and T^{z.dim}")
    if pattern == (1, 1, 1):
        return mu(m_op(x, z), y) - mu(m_op(y, z), x)
    if pattern == (2, 1, 1):
        return -mu(m_op(y, z), x)
    if pattern == (1, 2, 1):
        return -mu(m_op(x, z), y)
    return BVElement.zero(x.degree + y.degree + z.degree - 1, x.dim)


def nusym(x, y, z):
    """The trilinear operation of the commutative structure, from ``m_op``
    and ``mu``."""
    pattern = (x.degree, y.degree, z.degree)
    if not x.dim == y.dim == z.dim:
        raise ValueError(f"elements on T^{x.dim}, T^{y.dim} and T^{z.dim}")
    if pattern == (1, 1, 1):
        return mu(m_op(x, z), y) - mu(m_op(y, z), x) * _HALF - mu(m_op(x, y), z) * _HALF
    if pattern == (1, 1, 2):
        return mu(m_op(x, y), z) * -_HALF
    if pattern == (2, 1, 1):
        return mu(m_op(y, z), x) * -_HALF
    if pattern == (1, 2, 1):
        return -mu(m_op(x, z), y)
    return BVElement.zero(x.degree + y.degree + z.degree - 1, x.dim)


def nu_b_commutator(x, y, z):
    """The graded commutator [b, nu] with b inserted in every slot."""
    return (
        op_b(nu(x, y, z))
        + nu(op_b(x), y, z)
        + sign(x.degree) * nu(x, op_b(y), z)
        + sign(x.degree + y.degree) * nu(x, y, op_b(z))
    )


def musym(x, y):
    """The graded-symmetrized product (mu(x, y) + (-1)^{|x||y|} mu(y, x))/2."""
    return _HALF * (mu(x, y) + sign(x.degree * y.degree) * mu(y, x))


def l2(x, y):
    """(brack(x, y) - s brack(y, x))/2 with s = (-1)^{(|x|-1)(|y|-1)}."""
    s = sign((x.degree - 1) * (y.degree - 1))
    return _HALF * (brack(x, y) - s * brack(y, x))
