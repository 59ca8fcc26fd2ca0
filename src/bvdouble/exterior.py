"""Exact exterior calculus on the torus for a constant metric.

Differential forms carry Fourier-sum components on strictly increasing index
tuples; forms and the four-slot elements below take their sums, scaling,
zero test and equality from ``scalars.Linear``.  The module provides wedge, the de Rham differential, a Hodge star
for any symmetric invertible rational metric whose determinant has a
rational square root, and the star pairing of two forms.  On top of these
it realizes the four-slot complex

    W0 = functions, W1 = one-forms, W2 = (D-1)-forms, W3 = top forms,

with differentials d, d*d, d, together with its graded-commutative product
and the trilinear homotopy for associativity acting on one-form triples.
"""

from __future__ import annotations

import itertools
from functools import cache

from .bvops import sign
from .scalars import FourierScalar, GaussRational, Linear, Metric, _gauss_jordan, _random_scalars

__all__ = [
    "DifferentialForm",
    "YMElement",
    "wedge",
    "dform",
    "hodge",
    "form_integral",
    "star_pairing",
    "ym_q",
    "ym_mu_sym",
    "ym_nu_sym",
    "random_form",
    "random_ym_element",
]


def _shuffle_sign(left: tuple, right: tuple):
    """The sorted merge of two increasing tuples and the sign of the shuffle
    that sorts ``left + right``, (-1)^#{(a, b) in left x right : a > b}; or
    (None, None) when they share an index."""
    inversions = 0
    for a in left:
        for b in right:
            if a == b:
                return None, None
            inversions += a > b
    return tuple(sorted(left + right)), sign(inversions)


@cache
def _indices(dim: int, degree: int) -> dict:
    """The increasing ``degree``-indices on T^dim, in order, each mapped to zero."""
    return dict.fromkeys(itertools.combinations(range(dim), degree), FourierScalar.zero(dim))


class DifferentialForm(Linear):
    """A p-form with FourierScalar components on increasing index tuples; its
    parts are the components on every such tuple, in order, zeros included."""

    __slots__ = ("dim", "degree", "comps")

    def __init__(self, dim: int, degree: int, comps=None):
        if not 0 <= degree <= dim:
            raise ValueError(f"form degree {degree} outside 0..{dim}")
        self.dim = dim
        self.degree = degree
        clean = {}
        if comps:
            indices = _indices(dim, degree)
            for idx, f in comps.items():
                idx = tuple(idx)
                if idx not in indices:
                    raise ValueError(f"{idx} is not an increasing {degree}-index on T^{dim}")
                if f.dim != dim:
                    raise ValueError(f"a component on T^{f.dim} in a form on T^{dim}")
                if not f.is_zero():
                    clean[idx] = f
        self.comps = clean

    @staticmethod
    def zero(dim: int, degree: int) -> "DifferentialForm":
        return DifferentialForm(dim, degree)

    def component(self, idx) -> FourierScalar:
        return self.comps.get(tuple(idx), FourierScalar.zero(self.dim))

    def one_form_components(self):
        if self.degree != 1:
            raise ValueError(f"expected a one-form, got degree {self.degree}")
        return self.parts()

    def parts(self) -> tuple:
        # an update keeps each key where it was, so the components fall in index order
        return tuple({**_indices(self.dim, self.degree), **self.comps}.values())

    def _like(self, parts):
        indices = _indices(self.dim, self.degree)
        return DifferentialForm(self.dim, self.degree, dict(zip(indices, parts)))

    def _shape(self):
        return self.dim, self.degree


def wedge(alpha: DifferentialForm, beta: DifferentialForm) -> DifferentialForm:
    """Exterior product; degree overflow gives the zero top-degree form."""
    if alpha.dim != beta.dim:
        raise ValueError(f"forms on T^{alpha.dim} and T^{beta.dim}")
    dim = alpha.dim
    degree = alpha.degree + beta.degree
    if degree > dim:
        return DifferentialForm.zero(dim, dim)
    comps = {}
    for i1, f1 in alpha.comps.items():
        for i2, f2 in beta.comps.items():
            idx, sgn = _shuffle_sign(i1, i2)
            if idx is None:
                continue
            term = f1 * f2 * sgn
            acc = comps.get(idx)
            comps[idx] = term if acc is None else acc + term
    return DifferentialForm(dim, degree, comps)


def dform(alpha: DifferentialForm) -> DifferentialForm:
    """De Rham differential."""
    dim = alpha.dim
    if alpha.degree == dim:
        return DifferentialForm.zero(dim, dim)
    comps = {}
    for idx, f in alpha.comps.items():
        for k in range(dim):
            new, sgn = _shuffle_sign((k,), idx)
            if new is None:
                continue
            term = f.derivative(k) * sgn
            acc = comps.get(new)
            comps[new] = term if acc is None else acc + term
    return DifferentialForm(dim, alpha.degree + 1, comps)


def hodge(alpha: DifferentialForm, metric: Metric) -> DifferentialForm:
    """Hodge star for the constant metric (lower-index determinant weight).

    Indices are raised with the upper metric; the result satisfies
    ** = sgn(det) * (-1)^{p(D-p)}.
    """
    dim, p = alpha.dim, alpha.degree
    root = metric.volume_root()
    if root is None:
        det = abs(1 / metric.det_upper)
        raise ValueError(f"|det eta| = {det} is not a perfect rational square")
    comps = {}
    for raised in _indices(dim, p):
        # alpha with all indices raised, component on the increasing tuple
        lifted = FourierScalar.zero(dim)
        for idx, f in alpha.comps.items():
            minor = [[metric.upper[l][i] for i in idx] for l in raised]
            det = _gauss_jordan(minor)[0]
            if det:
                lifted = lifted + f * det
        if lifted.is_zero():
            continue
        rest = tuple(i for i in range(dim) if i not in raised)
        _, sgn = _shuffle_sign(raised, rest)
        comps[rest] = lifted * (root * sgn)
    return DifferentialForm(dim, dim - p, comps)


def form_integral(alpha: DifferentialForm) -> GaussRational:
    """Normalised integral of a top form (coefficient of the volume basis)."""
    if alpha.degree != alpha.dim:
        raise ValueError(f"only top forms integrate, got degree {alpha.degree}")
    return alpha.component(tuple(range(alpha.dim))).integral()


def star_pairing(
    alpha: DifferentialForm, beta: DifferentialForm, metric: Metric
) -> GaussRational:
    """The star pairing, the integral of alpha ^ *beta; zero across degrees."""
    if alpha.degree != beta.degree:
        return GaussRational(0)
    return form_integral(wedge(alpha, hodge(beta, metric)))


# -- the four-slot complex -------------------------------------------------


class YMElement(Linear):
    """Element of the four-slot complex; degree fixes the form type.  Its parts
    are its form's."""

    __slots__ = ("degree", "dim", "form")

    _FORM_DEGREE = staticmethod(lambda degree, dim: (0, 1, dim - 1, dim)[degree])

    def __init__(self, degree: int, form: DifferentialForm):
        if not 0 <= degree <= 3:
            raise ValueError(f"slot degree {degree} outside 0..3")
        if form.degree != YMElement._FORM_DEGREE(degree, form.dim):
            raise ValueError(f"slot {degree} cannot hold a {form.degree}-form")
        self.degree = degree
        self.dim = form.dim
        self.form = form

    @staticmethod
    def zero(degree: int, dim: int) -> "YMElement":
        return YMElement(degree, DifferentialForm.zero(dim, YMElement._FORM_DEGREE(degree, dim)))

    def parts(self) -> tuple:
        return self.form.parts()

    def _like(self, parts):
        return YMElement(self.degree, self.form._like(parts))

    def _shape(self):
        return self.dim, self.degree


def ym_q(x: YMElement, metric: Metric) -> YMElement:
    """Differential of the four-slot complex: d, then d*d, then d."""
    dim = x.dim
    if x.degree == 0:
        return YMElement(1, dform(x.form))
    if x.degree == 1:
        return YMElement(2, dform(hodge(dform(x.form), metric)))
    if x.degree == 2:
        return YMElement(3, dform(x.form))
    return YMElement.zero(3, dim)


def ym_mu_sym(x: YMElement, y: YMElement, metric: Metric) -> YMElement:
    """The graded-commutative product of the four-slot complex."""
    if x.dim != y.dim:
        raise ValueError(f"elements on T^{x.dim} and T^{y.dim}")
    dim = x.dim
    d1, d2 = x.degree, y.degree
    if d1 + d2 > 3:
        return YMElement.zero(min(d1 + d2, 3), dim)
    if d1 == 0 or d2 == 0:
        scalar, other = (x, y) if d1 == 0 else (y, x)
        u = scalar.form.component(())
        return YMElement(other.degree, other.form * u)
    if d1 == 1 and d2 == 1:
        a, b = x.form, y.form
        value = (
            wedge(a, hodge(dform(b), metric))
            - wedge(b, hodge(dform(a), metric))
            + dform(hodge(wedge(a, b), metric))
        )
        return YMElement(2, value)
    # degrees {1, 2}, the one case left with d1 + d2 <= 3
    one = x.form if d1 == 1 else y.form
    big = y.form if d1 == 1 else x.form
    return YMElement(3, wedge(one, big))


def ym_nu_sym(x: YMElement, y: YMElement, z: YMElement, metric: Metric) -> YMElement:
    """Trilinear homotopy; nonzero only on three degree-1 arguments."""
    if not x.dim == y.dim == z.dim:
        raise ValueError(f"elements on T^{x.dim}, T^{y.dim} and T^{z.dim}")
    dim = x.dim
    if (x.degree, y.degree, z.degree) != (1, 1, 1):
        out = x.degree + y.degree + z.degree - 1
        return YMElement.zero(min(max(out, 0), 3), dim)
    a, b, c = x.form, y.form, z.form
    value = wedge(a, hodge(wedge(b, c), metric)) - wedge(
        c, hodge(wedge(a, b), metric)
    )
    return YMElement(2, value)


def random_form(rng, dim: int, cutoff: int, degree: int) -> DifferentialForm:
    idxs = _indices(dim, degree)
    comps = _random_scalars(rng, dim, cutoff, len(idxs))
    return DifferentialForm(dim, degree, dict(zip(idxs, comps)))


def random_ym_element(rng, dim: int, cutoff: int, degree: int) -> YMElement:
    return YMElement(
        degree, random_form(rng, dim, cutoff, YMElement._FORM_DEGREE(degree, dim))
    )
