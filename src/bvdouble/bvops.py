"""Bilinear and trilinear operations on the graded complex.

The product ``mu`` is the degree-0 bilinear operation whose restriction to
degree 0 x degree 1 is the module action of scalars on (section, scalar)
pairs and whose degree 1 x degree 1 part combines the Dorfman bracket with
the canonical pairing.  It is associative and commutative only up to
homotopy:

  * ``m``  (degree -1) repairs commutativity,
  * ``nu`` (degree -1, trilinear) repairs associativity,
  * ``brack`` is the odd bracket derived from mu and b,
  * ``n_op = [b, m]`` is the symmetric pairing appearing in the bracket's
    homotopy-symmetry relation.

``musym``/``nusym`` are the commutative (shuffle-vanishing) counterparts,
and ``l2``/``l3`` implement the antisymmetrized bracket with the trilinear
homotopy for its Jacobi identity.

``brack``, ``musym``, ``l2``, ``nu``, ``nusym`` and ``n_op`` are closed forms,
one per nonzero degree pattern, built from the pairing, the anchor and the
(skew) Dorfman terms of ``sections``; each docstring derives its table from
the definition, and ``tests/bvops_oracle.py`` keeps the definitions.
``nprime``, the deformed derived bracket and the suites' laws rest on
``boundary``, the one Koszul boundary [q, h].
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


def _torus(x, *rest) -> int:
    """The torus dimension of every argument; ``ValueError`` if they differ."""
    dim = x.dim
    for y in rest:
        if y.dim != dim:
            raise ValueError(
                f"elements on {', '.join(f'T^{e.dim}' for e in (x, *rest[:-1]))}"
                f" and T^{rest[-1].dim}"
            )
    return dim


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
    dim = _torus(x, y)
    d1, d2 = x.degree, y.degree

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
    dim = _torus(x, y)
    if x.degree == 1 and y.degree == 1:
        return BVElement.deg1(GenSection.zero(dim), pairing(x.section, y.section))
    return BVElement.zero(x.degree + y.degree - 1, dim)


def n_op(x: BVElement, y: BVElement) -> BVElement:
    """The graded commutator [b, m](x, y) = b m(x, y) + m(bx, y) + (-1)^|x| m(x, by),
    a symmetric pairing.

    m is nonzero only on two degree-1 arguments, where m = (0, <A, B>), so
    (1,1) gives b(0, P) = P; (2,1) gives m((-At, 0), (B, w)) = (0, -<At, B>);
    (1,2) gives -m((A, v), (-Bt, 0)) = (0, <A, Bt>); elsewhere all three vanish.
    """
    dim = _torus(x, y)
    pattern = (x.degree, y.degree)
    if pattern == (1, 1):
        return BVElement.deg0(pairing(x.section, y.section))
    if pattern == (2, 1):
        return BVElement.deg1(GenSection.zero(dim), -pairing(x.section, y.section))
    if pattern == (1, 2):
        return BVElement.deg1(GenSection.zero(dim), pairing(x.section, y.section))
    return BVElement.zero(x.degree + y.degree - 2, dim)


def _scaled_sections(dim: int, plus, minus=()) -> GenSection:
    """sum f A over the (scalar f, section A) pairs ``plus`` minus the same
    sum over ``minus``, each component one sum of products."""
    return _section_from_terms(
        dim,
        [
            ([(f, a.parts()[c]) for f, a in plus], [(f, a.parts()[c]) for f, a in minus])
            for c in range(2 * dim)
        ],
    )


def nu(x: BVElement, y: BVElement, z: BVElement) -> BVElement:
    """Homotopy for associativity of mu: mu(m(x, z), y) - mu(m(y, z), x) on
    (1,1,1), -mu(m(y, z), x) on (2,1,1), -mu(m(x, z), y) on (1,2,1), else 0.

    Every value m(x, z) = (0, <x, z>) is section-free, and mu((0, p), y) is
    (-p A_y, 0) on a degree-1 y and -p vt_y on a degree-2 y, so these are
    (<y, z> A_x - <x, z> A_y, 0), <y, z> vt_x and <x, z> vt_y.
    """
    dim = _torus(x, y, z)
    a, b, c = x.section, y.section, z.section
    pattern = (x.degree, y.degree, z.degree)
    if pattern == (1, 1, 1):
        return BVElement.deg2(_scaled_sections(dim, [(pairing(b, c), a)], [(pairing(a, c), b)]))
    if pattern == (2, 1, 1):
        return BVElement.deg3(pairing(b, c) * x.scalar)
    if pattern == (1, 2, 1):
        return BVElement.deg3(pairing(a, c) * y.scalar)
    return BVElement.zero(x.degree + y.degree + z.degree - 1, dim)


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
    dim = _torus(x, y)
    d1, d2, a, b = x.degree, y.degree, x.section, y.section
    if d1 == 1 and 0 <= d2 <= 3:
        return BVElement(d2, dim, None if b is None else dorfman(a, b), anchor(a, y.scalar))
    if d1 == 2 and d2 == 1:
        return BVElement.deg2(dorfman(a, b), pairing(a, b) - anchor(b, x.scalar))
    if d1 == 2 and d2 == 2:
        return BVElement.deg3(anchor(a, y.scalar) + anchor(b, x.scalar) - pairing(a, b))
    if d1 == 2 and d2 == 0:
        return BVElement.deg1(GenSection.zero(dim), -anchor(a, y.scalar))
    if d1 == 3 and d2 == 1:
        return BVElement.deg3(-anchor(b, x.scalar))
    return BVElement.zero(d1 + d2 - 1, dim)


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

    On (1, 1) the halves of [A, B] and -[B, A] make the Courant bracket and
    the halves of P/2 cancel: (([A, B] - [B, A])/2 + w A - v B, 0), in one pass
    (``_dorfman_terms`` with ``skew``).  The left and right actions of a
    scalar u on (A, v) differ only by the anchor twist -A.u of the scalar
    slot, so (0,1) and (1,0) give (uA, uv - A.u/2).  On every other pattern
    the table of ``mu`` gives mu(y, x) = (-1)^{|x||y|} mu(x, y), so musym is mu.
    """
    dim = _torus(x, y)
    pattern = (x.degree, y.degree)
    if pattern == (1, 1):
        return BVElement.deg2(_product_section(x, y, skew=True))
    if pattern in ((0, 1), (1, 0)):
        one, u = (y, x.scalar) if pattern == (0, 1) else (x, y.scalar)
        return BVElement.deg1(one.section * u, one.scalar * u - anchor(one.section, u) * _HALF)
    return mu(x, y)


def nusym(x: BVElement, y: BVElement, z: BVElement) -> BVElement:
    """Trilinear operation of the commutative (shuffle-vanishing) structure,
    mu(m(x, z), y) - mu(m(y, z), x)/2 - mu(m(x, y), z)/2 on (1,1,1),
    -mu(m(x, y), z)/2 on (1,1,2), -mu(m(y, z), x)/2 on (2,1,1) and
    -mu(m(x, z), y) on (1,2,1).

    With mu((0, p), y) as in ``nu``, (1,1,1) gives
    (-<x, z> A_y + <y, z> A_x / 2 + <x, y> A_z / 2, 0), (1,1,2) <x, y> vt_z / 2,
    (2,1,1) <y, z> vt_x / 2 and (1,2,1) <x, z> vt_y.
    """
    dim = _torus(x, y, z)
    a, b, c = x.section, y.section, z.section
    pattern = (x.degree, y.degree, z.degree)
    if pattern == (1, 1, 1):
        plus = [(pairing(b, c) * _HALF, a), (pairing(a, b) * _HALF, c)]
        return BVElement.deg2(_scaled_sections(dim, plus, [(pairing(a, c), b)]))
    if pattern == (1, 1, 2):
        return BVElement.deg3(pairing(a, b) * z.scalar * _HALF)
    if pattern == (2, 1, 1):
        return BVElement.deg3(pairing(b, c) * x.scalar * _HALF)
    if pattern == (1, 2, 1):
        return BVElement.deg3(pairing(a, c) * y.scalar)
    return BVElement.zero(x.degree + y.degree + z.degree - 1, dim)


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

    With C(A, B) = ([A, B] - [B, A])/2 the Courant bracket, the table of
    ``brack`` gives (1,1) (C(A, B), (A.w - B.v)/2), (1,2) (C(A, Bt), A.wt - P/2)
    and (2,1) (C(At, B), P/2 - B.vt); (1,0) A.u/2 and (0,1) -A.u/2; (1,3) A.ut
    and (3,1) -B.ut.  There s = 1, so l2(x, y) = -l2(y, x), and the scalar
    with the degree-1 argument second is minus the swapped one.  On (2,0) and
    (0,2) s = -1 and one bracket is zero: (0, -At.u/2).  On (2,2) s = -1 and
    brack is symmetric, so l2 is brack.  Every other pattern is zero.
    """
    dim = _torus(x, y)
    d1, d2 = x.degree, y.degree
    if d1 == d2 == 2:
        return brack(x, y)
    if (d1, d2) in ((2, 0), (0, 2)):
        at, u = (x.section, y.scalar) if d1 == 2 else (y.section, x.scalar)
        return BVElement.deg1(GenSection.zero(dim), -(anchor(at, u) * _HALF))
    if d1 == d2 == 1:
        scalar = (anchor(x.section, y.scalar) - anchor(y.section, x.scalar)) * _HALF
    elif 1 in (d1, d2) and 0 <= d1 + d2 - 1 <= 3:
        a, other, s = (x.section, y, 1) if d1 == 1 else (y.section, x, -1)
        if other.degree == 0:
            return BVElement.deg0(anchor(a, other.scalar) * (s * _HALF))
        if other.degree == 3:
            return BVElement.deg3(anchor(a, other.scalar) * s)
        scalar = (anchor(a, other.scalar) - pairing(a, other.section) * _HALF) * s
    else:
        return BVElement.zero(d1 + d2 - 1, dim)
    section = _section_from_terms(dim, _dorfman_terms(x.section, y.section, skew=True))
    return BVElement(d1 + d2 - 1, dim, section, scalar)


def l3(x: BVElement, y: BVElement, z: BVElement) -> BVElement:
    """Trilinear homotopy for the Jacobi identity of ``l2``.

    Nontrivial for three degree-1 arguments (value in degree 0, one sixth of
    the cyclic sum of n paired with the bracket of the other two) and for
    (degree 1, degree 1, degree 2) (value in degree 1); zero elsewhere.
    """
    _torus(x, y, z)
    pattern = (x.degree, y.degree, z.degree)
    if pattern == (1, 1, 1):
        return (n_op(x, l2(y, z)) + n_op(y, l2(z, x)) + n_op(z, l2(x, y))) * _SIXTH
    if pattern == (1, 1, 2):
        bz = op_b(z)
        return (m_op(x, l2(y, bz)) + m_op(y, l2(bz, x)) + m_op(bz, l2(x, y))) * -_SIXTH
    return BVElement.zero(x.degree + y.degree + z.degree - 3, x.dim)
