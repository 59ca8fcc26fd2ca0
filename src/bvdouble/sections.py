"""Generalized sections (vector field + one-form) over the torus algebra.

A generalized section is a pair (X, xi) of a vector field and a one-form,
each stored as a tuple of exact Fourier scalars; its sums, constant
multiples, zero test and equality come from ``scalars.Linear``, and a scalar
field acts on it from the left.  This module provides the standard
Courant-algebroid package on such sections:

  * the Dorfman bracket  (A, B) -> (L_X Y,  L_X eta - i_Y d xi),
  * the canonical symmetric pairing  <A, B> = X.eta + Y.xi,
  * the anchor action  A.u = X^i d_i u,
  * the derivation  d u = (0, du)  and the divergence  div A = d_i X^i,

together with randomized section generators for identity checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain

from .scalars import FourierScalar, Linear, _random_scalars, sum_of_products

__all__ = [
    "GenSection",
    "dorfman",
    "pairing",
    "anchor",
    "d_scalar",
    "divergence",
    "lie_bracket_vec",
    "random_section",
    "coordinate_section",
]

# one half, for the sections and for every module above them
_HALF = Fraction(1, 2)


class GenSection(Linear):
    """A pair (vector components, one-form components) of exact scalars on
    T^dim, dim of each; its parts are the vector then the form components."""

    __slots__ = ("dim", "vec", "form")

    def __init__(self, vec, form):
        vec = tuple(vec)
        form = tuple(form)
        dim = len(vec)
        if not dim or len(form) != dim:
            raise ValueError(f"{dim} vector and {len(form)} form components")
        for s in vec + form:
            if s.dim != dim:
                raise ValueError(f"a section with {dim} + {dim} components needs them on T^{dim}")
        self.dim = dim
        self.vec = vec
        self.form = form

    @staticmethod
    @cache
    def zero(dim: int) -> "GenSection":
        z = FourierScalar.zero(dim)
        return GenSection((z,) * dim, (z,) * dim)

    @staticmethod
    def from_vec(vec) -> "GenSection":
        vec = tuple(vec)
        z = FourierScalar.zero(vec[0].dim)
        return GenSection(vec, (z,) * len(vec))

    def parts(self) -> tuple:
        return self.vec + self.form

    def _like(self, parts):
        return GenSection(parts[: self.dim], parts[self.dim :])

    def _shape(self):
        return self.dim, None

    def __mul__(self, scalar):
        """The module action of a scalar field, which goes on the left of each
        component; a constant goes on the right, as for every ``Linear``."""
        if isinstance(scalar, FourierScalar):
            return self._like(tuple(map(scalar.__mul__, self.parts())))
        return Linear.__mul__(self, scalar)

    __rmul__ = __mul__


def _jacobian(comps):
    """Every first derivative of every component, ``jac[c][k] = d_k comps[c]``:
    each component's kept ``FourierScalar.jacobian``."""
    return [f.jacobian() for f in comps]


def lie_bracket_vec(x, y):
    """Lie bracket of two vector fields, [X, Y]^j = X^i d_i Y^j - Y^i d_i X^j."""
    return dorfman(GenSection.from_vec(x), GenSection.from_vec(y)).vec


def _dorfman_terms(a: GenSection, b: GenSection, skew: bool = False):
    """The (plus, minus) product pairs of each component of the Dorfman bracket.

    Vector part ``L_X Y``; form part ``L_X eta - i_Y d xi``, i.e.
    ``X^i d_i eta_j + eta_i d_j X^i + Y^i d_j xi_i - Y^i d_i xi_j``.
    Components come vector first, then form.  With ``skew``, the pairs are
    those of the Courant bracket ([A, B] - [B, A])/2 = [A, B] - d<A, B>/2:
    the vector part is unchanged, the ``eta_i d_j X^i`` and ``Y^i d_j xi_i``
    pairs are halved, and the halved ``xi_i d_j Y^i`` and ``X^i d_j eta_i``
    pairs are subtracted (``tests/bvops_oracle.py`` keeps the average).
    """
    if a.dim != b.dim:
        raise ValueError(f"sections on T^{a.dim} and T^{b.dim}")
    x, xi, y, eta = a.vec, a.form, b.vec, b.form
    dx, dxi, dy, deta = _jacobian(x), _jacobian(xi), _jacobian(y), _jacobian(eta)
    r = range(len(x))
    vec = [([(x[i], dy[j][i]) for i in r], [(y[i], dx[j][i]) for i in r]) for j in r]
    form = [([(x[i], deta[j][i]) for i in r], [(y[i], dxi[j][i]) for i in r]) for j in r]
    eta_h, y_h, xi_h, x_h = eta, y, xi, x
    if skew:
        eta_h, y_h, xi_h, x_h = ([f * _HALF for f in c] for c in (eta, y, xi, x))
    for j, (plus, minus) in enumerate(form):
        plus += [(eta_h[i], dx[i][j]) for i in r] + [(y_h[i], dxi[i][j]) for i in r]
        if skew:
            minus += [(xi_h[i], dy[i][j]) for i in r] + [(x_h[i], deta[i][j]) for i in r]
    return vec + form


def _section_from_terms(dim: int, terms) -> GenSection:
    """The section whose components are the signed sums of products ``terms``."""
    comps = [sum_of_products(dim, plus, minus) for plus, minus in terms]
    half = len(comps) // 2
    return GenSection(comps[:half], comps[half:])


def dorfman(a: GenSection, b: GenSection) -> GenSection:
    """Dorfman bracket (A, B) -> (L_X Y, L_X eta_B - i_Y d xi_A)."""
    return _section_from_terms(a.dim, _dorfman_terms(a, b))


def pairing(a: GenSection, b: GenSection) -> FourierScalar:
    """Canonical symmetric pairing <A, B> = X_A . xi_B + X_B . xi_A."""
    if a.dim != b.dim:
        raise ValueError(f"sections on T^{a.dim} and T^{b.dim}")
    return sum_of_products(a.dim, chain(zip(a.vec, b.form), zip(b.vec, a.form)))


def anchor(a: GenSection, u: FourierScalar) -> FourierScalar:
    """Anchor action A.u = X^i d_i u (one-form part is inert)."""
    return sum_of_products(a.dim, zip(a.vec, u.jacobian()))


def d_scalar(u: FourierScalar) -> GenSection:
    """The derivation u -> (0, du)."""
    return GenSection((FourierScalar.zero(u.dim),) * u.dim, u.jacobian())


def divergence(a: GenSection) -> FourierScalar:
    """div A = d_i X^i (flat volume form; one-forms are divergence-free)."""
    return sum(
        (a.vec[i].derivative(i) for i in range(a.dim)), FourierScalar.zero(a.dim)
    )


def coordinate_section(dim: int, i: int) -> GenSection:
    """The constant coordinate vector field e_i as a generalized section."""
    one = FourierScalar.one(dim)
    z = FourierScalar.zero(dim)
    return GenSection(tuple(one if j == i else z for j in range(dim)), (z,) * dim)


def random_section(rng, dim: int, cutoff: int) -> GenSection:
    """A random sparse generalized section (every component 1-2 modes)."""
    return GenSection.zero(dim)._like(_random_scalars(rng, dim, cutoff, 2 * dim))
