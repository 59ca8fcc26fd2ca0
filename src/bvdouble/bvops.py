"""Bilinear and trilinear operations on the graded complex.

The product ``mu`` is the degree-0 bilinear operation whose restriction to
degree 0 x degree 1 is the module action of scalars on (section, scalar)
pairs and whose degree 1 x degree 1 part combines the Dorfman bracket with
the canonical pairing.  It is associative and commutative only up to
homotopy:

  * ``m``  (degree -1) repairs commutativity,
  * ``nu`` (degree -1, trilinear) repairs associativity,
  * ``brack`` is the odd bracket derived from mu and b, in closed form,
  * ``n_op = [b, m]`` is the symmetric pairing appearing in the bracket's
    homotopy-symmetry relation; it, ``nprime``, the deformed derived bracket
    and the suites' laws rest on ``boundary``, the one Koszul boundary [q, h].

``musym``/``nusym`` are the commutative (shuffle-vanishing) counterparts,
and ``l2``/``l3`` implement the antisymmetrized bracket with the trilinear
homotopy for its Jacobi identity.
"""

from __future__ import annotations

from fractions import Fraction

from .bvcomplex import BVElement, op_b
from .sections import _HALF, GenSection, _dorfman_terms, _section_from_terms, anchor, dorfman, pairing

__all__ = [
    "sign",
    "boundary",
    "mu",
    "m_op",
    "n_op",
    "nu",
    "brack",
    "nprime",
    "musym",
    "nusym",
    "l2",
    "l3",
]

_SIXTH = Fraction(1, 6)


def sign(exponent: int) -> int:
    """(-1)**exponent for Koszul bookkeeping."""
    return -1 if exponent % 2 else 1


def boundary(q, h, xs, odd):
    """[q, h](xs) = q h(xs) +- sum_i (-1)^{|x_1| + ... + |x_{i-1}|} h(.., q x_i, ..),
    with + for an odd homotopy h and - for an even one."""
    acc = q(h(*xs))
    shift = 0 if odd else 1  # odd exactly when the next term enters with a minus
    for i, x in enumerate(xs):
        term = h(*xs[:i], q(x), *xs[i + 1 :])
        acc = acc - term if shift % 2 else acc + term
        shift += x.degree
    return acc


def mu(x: BVElement, y: BVElement) -> BVElement:
    """The degree-0 product."""
    if x.dim != y.dim:
        raise ValueError(f"elements on T^{x.dim} and T^{y.dim}")
    d1, d2 = x.degree, y.degree
    dim = x.dim

    if d1 == 0:
        # Scalars act from the left on every slot of degrees 0..3.
        if d2 == 0 or d2 == 3:
            return BVElement(d2, dim, None, x.scalar * y.scalar)
        if d2 in (1, 2):
            return BVElement(d2, dim, y.section * x.scalar, y.scalar * x.scalar)
    if d2 == 0:
        if d1 == 3:
            return BVElement.deg3(x.scalar * y.scalar)
        if d1 == 1:
            # Right action of a scalar twists the scalar slot by the anchor.
            u = y.scalar
            return BVElement.deg1(
                x.section * u, x.scalar * u - anchor(x.section, u)
            )
        if d1 == 2:
            return BVElement(2, dim, x.section * y.scalar, x.scalar * y.scalar)
    if d1 == 1 and d2 == 1:
        # Closed forms when one section vanishes, as it does for m_op values.
        if x.section.is_zero():
            return BVElement.deg2(y.section * -x.scalar)
        if y.section.is_zero():
            return BVElement.deg2(x.section * y.scalar)
        return BVElement.deg2(_product_section(x, y), pairing(x.section, y.section) * _HALF)
    if (d1, d2) in ((1, 2), (2, 1)):
        # the degree-1 section is anchored on the other scalar
        one, two = (x, y) if d1 == 1 else (y, x)
        if one.section.is_zero():
            return BVElement.deg3(-(x.scalar * y.scalar))
        ut = (
            -(pairing(x.section, y.section) * _HALF)
            + anchor(one.section, two.scalar)
            - x.scalar * y.scalar
        )
        return BVElement.deg3(ut)
    return BVElement.zero(d1 + d2, dim)


def m_op(x: BVElement, y: BVElement) -> BVElement:
    """Homotopy for commutativity; nonzero only on two degree-1 sections."""
    if x.dim != y.dim:
        raise ValueError(f"elements on T^{x.dim} and T^{y.dim}")
    if x.degree == 1 and y.degree == 1:
        return BVElement.deg1(GenSection.zero(x.dim), pairing(x.section, y.section))
    return BVElement.zero(x.degree + y.degree - 1, x.dim)


def n_op(x: BVElement, y: BVElement) -> BVElement:
    """The graded commutator [b, m], a symmetric pairing."""
    return boundary(op_b, m_op, (x, y), True)


def nu(x: BVElement, y: BVElement, z: BVElement) -> BVElement:
    """Homotopy for associativity of mu.

    Nonzero only for (1,1,1) and for a degree-2 argument in the first or
    second slot paired with two degree-1 arguments; in the latter cases only
    the scalar slot of the degree-2 argument contributes.
    """
    if not x.dim == y.dim == z.dim:
        raise ValueError(f"elements on T^{x.dim}, T^{y.dim} and T^{z.dim}")
    pattern = (x.degree, y.degree, z.degree)
    if pattern == (1, 1, 1):
        return mu(m_op(x, z), y) - mu(m_op(y, z), x)
    if pattern == (2, 1, 1):
        return -mu(m_op(y, z), x)
    if pattern == (1, 2, 1):
        return -mu(m_op(x, z), y)
    return BVElement.zero(x.degree + y.degree + z.degree - 1, x.dim)


def brack(x: BVElement, y: BVElement) -> BVElement:
    """The odd bracket s (b mu(x, y) - mu(bx, y) - s mu(x, by)), s = (-1)^|x|.

    With sections A, B (At, Bt) and scalars v, w (vt, wt) in degree 1 (2), u
    (ut) in degree 0 (3), A.f the anchor and P the pairing of the sections,
    the table of ``mu`` gives b mu(x, y); mu(bx, y); mu(x, by) -> {x, y}:

      (1,1) s=-1: (vB - wA - [A,B], 0); (vB, vw); (wA, vw - A.w) -> ([A,B], A.w)
      (1,2) s=-1: (0, P/2 - A.wt + v wt); (vBt, v wt); (vBt - [A,Bt], -P/2) -> ([A,Bt], A.wt)
      (1,0) s=-1: vu - A.u; vu; 0 -> A.u
      (1,3) s=-1: 0; v ut; v ut - A.ut -> A.ut
      (2,1) s=+1: (0, P/2 - B.vt + vt w); (-[At,B] - wAt, -P/2); (wAt, vt w) -> ([At,B], P - B.vt)
      (2,2) s=+1: 0; P/2 - At.wt; P/2 - Bt.vt -> At.wt + Bt.vt - P
      (2,0) s=+1: (-uAt, 0); (-uAt, At.u); 0 -> (0, -At.u)
      (3,1) s=-1: 0; ut w - B.ut; ut w -> -B.ut

    A degree-1 x is the Lie derivative along A on every slot.  On (0,d) and
    (3,0) the two nonzero terms cancel; elsewhere all three are zero.
    """
    if x.dim != y.dim:
        raise ValueError(f"elements on T^{x.dim} and T^{y.dim}")
    d1, d2, a, b = x.degree, y.degree, x.section, y.section
    if d1 == 1 and 0 <= d2 <= 3:
        return BVElement(d2, x.dim, None if b is None else dorfman(a, b), anchor(a, y.scalar))
    if d1 == 2 and d2 == 1:
        return BVElement.deg2(dorfman(a, b), pairing(a, b) - anchor(b, x.scalar))
    if d1 == 2 and d2 == 2:
        return BVElement.deg3(anchor(a, y.scalar) + anchor(b, x.scalar) - pairing(a, b))
    if d1 == 2 and d2 == 0:
        return BVElement.deg1(GenSection.zero(x.dim), -anchor(a, y.scalar))
    if d1 == 3 and d2 == 1:
        return BVElement.deg3(-anchor(b, x.scalar))
    return BVElement.zero(d1 + d2 - 1, x.dim)


def _product_section(x: BVElement, y: BVElement, skew: bool = False) -> GenSection:
    """[A, B] + w A - v B for degree-1 x = (A, v), y = (B, w), each component
    summed in one pass; with ``skew``, the Courant bracket replaces [A, B]."""
    a, b = x.section, y.section
    terms = _dorfman_terms(a, b, skew)
    for (plus, minus), fa, fb in zip(terms, a.vec + a.form, b.vec + b.form):
        plus.append((y.scalar, fa))
        minus.append((x.scalar, fb))
    return _section_from_terms(x.dim, terms)


def musym(x: BVElement, y: BVElement) -> BVElement:
    """Graded-symmetrized product (mu(x, y) + (-1)^{|x||y|} mu(y, x))/2.

    On degree (1, 1) it is (([A, B] - [B, A])/2 + w A - v B, 0), the Courant
    bracket taken in one pass (``_dorfman_terms`` with ``skew``); the
    definition is kept in ``tests/bvops_oracle.py``.
    """
    if x.degree == y.degree == 1:
        return BVElement.deg2(_product_section(x, y, skew=True))
    return (mu(x, y) + sign(x.degree * y.degree) * mu(y, x)) * _HALF


def nusym(x: BVElement, y: BVElement, z: BVElement) -> BVElement:
    """Trilinear operation of the commutative (shuffle-vanishing) structure."""
    if not x.dim == y.dim == z.dim:
        raise ValueError(f"elements on T^{x.dim}, T^{y.dim} and T^{z.dim}")
    pattern = (x.degree, y.degree, z.degree)
    if pattern == (1, 1, 1):
        return (
            mu(m_op(x, z), y)
            - mu(m_op(y, z), x) * _HALF
            - mu(m_op(x, y), z) * _HALF
        )
    if pattern == (1, 1, 2):
        return mu(m_op(x, y), z) * -_HALF
    if pattern == (2, 1, 1):
        return mu(m_op(y, z), x) * -_HALF
    if pattern == (1, 2, 1):
        return -mu(m_op(x, z), y)
    return BVElement.zero(x.degree + y.degree + z.degree - 1, x.dim)


def nprime(x: BVElement, y: BVElement, z: BVElement) -> BVElement:
    """Homotopy for the mixed derivation rule of the bracket over the product.

    Combines the symmetric pairing m applied to the second argument and the
    bracket of the outer two with the commutator [b, nu] of b and the
    associativity homotopy.
    """
    s = sign((x.degree + 1) * (y.degree + 1))
    return s * m_op(y, brack(x, z)) + boundary(op_b, nu, (x, y, z), True)


def l2(x: BVElement, y: BVElement) -> BVElement:
    """Antisymmetrization (brack(x, y) - s brack(y, x))/2 of the odd bracket,
    s = (-1)^{(|x|-1)(|y|-1)} (degree shifted by one).

    On degree (1, 1) it is the Courant bracket ([A, B] - [B, A])/2 with the
    scalar (A.w - B.v)/2, taken in one pass; the definition is kept in
    ``tests/bvops_oracle.py``.
    """
    if x.degree == y.degree == 1:
        a, b = x.section, y.section
        section = _section_from_terms(x.dim, _dorfman_terms(a, b, skew=True))
        return BVElement.deg1(section, (anchor(a, y.scalar) - anchor(b, x.scalar)) * _HALF)
    s = sign((x.degree - 1) * (y.degree - 1))
    return (brack(x, y) - s * brack(y, x)) * _HALF


def l3(x: BVElement, y: BVElement, z: BVElement) -> BVElement:
    """Trilinear homotopy for the Jacobi identity of ``l2``.

    Nontrivial for three degree-1 arguments (value in degree 0, one sixth of
    the cyclic sum of n paired with the bracket of the other two) and for
    (degree 1, degree 1, degree 2) (value in degree 1); zero elsewhere.
    """
    if not x.dim == y.dim == z.dim:
        raise ValueError(f"elements on T^{x.dim}, T^{y.dim} and T^{z.dim}")
    pattern = (x.degree, y.degree, z.degree)
    if pattern == (1, 1, 1):
        return (n_op(x, l2(y, z)) + n_op(y, l2(z, x)) + n_op(z, l2(x, y))) * _SIXTH
    if pattern == (1, 1, 2):
        bz = op_b(z)
        return (m_op(x, l2(y, bz)) + m_op(y, l2(bz, x)) + m_op(bz, l2(x, y))) * -_SIXTH
    return BVElement.zero(x.degree + y.degree + z.degree - 3, x.dim)
