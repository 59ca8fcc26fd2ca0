"""Flat-metric deformation of the graded complex and its gauge-theory face.

A constant symmetric matrix eta deforms the differential by the second-order
operator R = sum eta^{ij} mu(f_i, {f_j, .}) built from the coordinate vector
fields f_i.  The module provides:

  * R built from double brackets, and the deformed differential Q + R, which
    applies R through its closed-form Delta / d-hat / div-hat slot arrows
    (d-hat is ``Metric.gradient``); both take one graded element;
  * the product correction mu_bar in closed form ({f_j, .} is the slotwise
    derivative d_j), the deformed product, its bracket brack + s [b, mu_bar];
    R from brackets and the cell table of mu_bar, per axis, are suite oracles;
  * matrix-valued elements, the Maurer-Cartan residual of a degree-1 matrix
    element, its gauge variation, and the exact dictionary onto covariant
    Yang-Mills field equations for the pair (gauge field, adjoint scalars);
    the matrix-tensored sums are fused kernels that read per-entry jets
    (components, derivatives, pairings) and sum each output component in
    one pass, with musym_eta and nusym in closed form on degree 1;
  * the embedding of the four-slot Yang-Mills complex of differential forms.

The laws these operations obey (the deformed homotopy relations and the
transport by the embedding) are stated and checked in ``suites``.

Everything is exact; the Maurer-Cartan comparison is an exact residual under
the dictionary's constants 2 and 2, which nothing fits.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain, combinations, product
from operator import add, sub

from .bvcomplex import BVElement, op_b, op_q
from .bvops import boundary, brack, m_op, mu, sign
from .exterior import YMElement, hodge
from .scalars import (
    FourierScalar,
    GaussRational,
    Metric,
    SquareGrid,
    _random_scalars,
    laplacian,
    sum_of_products,
)
from .sections import _HALF, GenSection, _jacobian, coordinate_section, divergence

__all__ = [
    "flat_sections",
    "R_eta",
    "Q_eta",
    "mu_bar_eta",
    "mu_bar_eta_table",
    "mu_eta",
    "musym_eta",
    "bracket_laplacian",
    "deformed_bracket",
    "ym_embed",
    "MatrixFunction",
    "LieValuedBVElement",
    "mc_from_fields",
    "mc_residual",
    "gauge_variation",
    "dictionary_fields",
    "ym_field_residual",
    "mc_ym_residual",
    "DICTIONARY_CONSTANTS",
]

# the slot dictionary's constants: the residual's slot combinations are
# (2 e1, 2 e2) for the field residual families (e1, e2)
DICTIONARY_CONSTANTS = (2, 2)


# -- scalar helpers --------------------------------------------------------


def _div_hat(form, eta: Metric) -> FourierScalar:
    """Raised divergence of one-form components, eta^{ij} d_i B_j."""
    return divergence(GenSection.from_vec(eta.raise_index(form)))


# -- the deforming operator ------------------------------------------------


@lru_cache(maxsize=None)
def flat_sections(dim: int):
    """The coordinate vector fields as degree-1 elements (one per direction)."""
    return tuple(BVElement.deg1(coordinate_section(dim, i)) for i in range(dim))


def _axes(eta: Metric) -> tuple:
    """The pairs (f^j = eta^{ij} f_i, f_j); ``tests/deform_oracle.py`` keeps the pair sums."""
    f = flat_sections(eta.dim)
    return tuple(zip(eta.raise_index(f), f))


def R_eta(x: BVElement, eta: Metric) -> BVElement:
    """R = sum eta^{ij} mu(f_i, {f_j, .}), summed as sum_j mu(f^j, {f_j, .}) by ``_axes``."""
    terms = (mu(g, brack(e, x)) for g, e in _axes(eta))
    return sum(terms, BVElement.zero(x.degree + 1, x.dim))


def _r_eta_slotwise(x: BVElement, eta: Metric) -> BVElement:
    """Closed-form arrows of R on each slot: Delta, d-hat, and half div-hat."""
    if x.degree == 0:
        u = x.scalar
        return BVElement.deg1(GenSection.from_vec(eta.gradient(u)), -laplacian(u, eta))
    if x.degree == 1:
        a, v = x.section, x.scalar
        vec = tuple(laplacian(l, eta) + g for l, g in zip(a.vec, eta.gradient(v)))
        return BVElement.deg2(
            GenSection(vec, tuple(laplacian(c, eta) for c in a.form)),
            _div_hat(a.form, eta) * _HALF,
        )
    if x.degree == 2:
        at, vt = x.section, x.scalar
        return BVElement.deg3(-_HALF * _div_hat(at.form, eta) + laplacian(vt, eta))
    return BVElement.zero(x.degree + 1, x.dim)


def Q_eta(x: BVElement, eta: Metric) -> BVElement:
    """The deformed differential Q + R, with R in its closed slotwise form."""
    return op_q(x) + _r_eta_slotwise(x, eta)


def bracket_laplacian(x: BVElement, eta: Metric) -> BVElement:
    """Delta = sum eta^{ij} {f_i, {f_j, .}}, summed as sum_j {f^j, {f_j, .}} by ``_axes``."""
    terms = (brack(g, brack(e, x)) for g, e in _axes(eta))
    return sum(terms, BVElement.zero(x.degree, x.dim))


# -- deformed product ------------------------------------------------------


def mu_bar_eta(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """Product correction nu(f_i,{f_j,x},y) - mu(m(f_i,x),{f_j,y}), eta-traced.

    In closed form: {f_j, .} is the slotwise d_j, so with X_i = d-hat^i x and
    Y_i = d-hat^i y, d-hat^i = eta^{ij} d_j, the sum runs over i alone.
    m(f_i, a) = (0, a_i) for a section a with one-form part (a_i), and
    nu(f_i, X_i, y) is mu(m(f_i, y), X_i) + (<X_i, y> e_i, 0) on degrees
    (1, 1) and -mu(m(f_i, y), X_i) on degrees (2, 1), zero elsewhere; and
    mu((0, s), z) keeps s u on degree 0, -s At on degree 1 and -s vt on
    degree 2.  With alpha, beta the one-form parts of the sections A, B of
    x, y, only four degree patterns are nonzero:

        (1, 0): (0, -alpha_i d-hat^i u)           (1, 2): alpha_i d-hat^i vt
        (2, 1): beta_i d-hat^i vt
        (1, 1): (alpha_i d-hat^i B - beta_i d-hat^i A + <d-hat^j A, B> e_j, 0)

    for the scalar u of degree 0 and the scalar slot vt of degree 2.  Each
    component that a pattern reads takes one ``Metric.gradient`` symbol pass,
    each output component is one sum of products, and the other patterns
    build nothing.
    """
    dx, dy, dim = x.degree, y.degree, x.dim
    if (dx, dy) == (2, 1):
        return BVElement.deg3(sum_of_products(dim, zip(y.section.form, eta.gradient(x.scalar))))
    if dx != 1 or dy not in (0, 1, 2):
        return BVElement.zero(dx + dy, dim)
    a = x.section
    if dy == 0:
        return BVElement(1, dim, None, sum_of_products(dim, (), zip(a.form, eta.gradient(y.scalar))))
    if dy == 2:
        return BVElement.deg3(sum_of_products(dim, zip(a.form, eta.gradient(y.scalar))))
    b = y.section
    ux = [eta.gradient(c) for c in a.vec + a.form]
    uy = [eta.gradient(c) for c in b.vec + b.form]
    swapped = b.form + b.vec
    comps = [
        sum_of_products(
            dim,
            chain(zip(a.form, uy[c]), zip(swapped, (u[c] for u in ux)) if c < dim else ()),
            zip(b.form, ux[c]),
        )
        for c in range(2 * dim)
    ]
    return BVElement.deg2(GenSection(comps[:dim], comps[dim:]))


def mu_bar_eta_table(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """The product correction from its cell table (the oracle form).

    With cell(a, z) = -eta^{ij} mu(m(f_i, a), {f_j, z}), the nonzero cells are (A, u) =
    cell(A, u), (A, vt) = (vt, A) = cell(A, vt) and (A, B) = cell(A, B) - cell(B, A) -
    eta^{ij} mu(m({f_j, A}, B), f_i), for sections A, B of degree-1 arguments, a degree-0 u
    and the scalar slot vt of degree 2; each eta^{ij} sum runs per axis by ``_axes``.
    """
    axes, dim = _axes(eta), x.dim

    def cell(a, z):
        terms = (mu(m_op(g, a), brack(e, z)) for g, e in axes)
        return -sum(terms, BVElement.zero(a.degree + z.degree, dim))

    if (x.degree, y.degree) == (2, 1):  # the (vt, A) cell is cell(A, vt)
        x, y = y, x
    if x.degree != 1 or y.degree not in (0, 1, 2):
        return BVElement.zero(x.degree + y.degree, dim)
    a = BVElement.deg1(x.section)
    if y.degree == 0:
        return cell(a, y)
    if y.degree == 2:
        return cell(a, BVElement.deg2(GenSection.zero(dim), y.scalar))
    b = BVElement.deg1(y.section)
    terms = (mu(m_op(brack(e, a), b), g) for g, e in axes)
    return cell(a, b) - cell(b, a) - sum(terms, BVElement.zero(2, dim))


def mu_eta(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """The deformed product mu + mu_bar."""
    return mu(x, y) + mu_bar_eta(x, y, eta)


def musym_eta(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """Graded-symmetric deformed product."""
    half = GaussRational(_HALF)
    return (mu_eta(x, y, eta) + sign(x.degree * y.degree) * mu_eta(y, x, eta)) * half


# -- deformed bracket: destroyed structure witness -------------------------


def deformed_bracket(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """s [b, mu_eta] as brack + s [b, mu_bar], s = (-1)^|x|; deform_oracle has the mu_eta form."""
    mu_bar = partial(mu_bar_eta, eta=eta)
    return brack(x, y) + sign(x.degree) * boundary(op_b, mu_bar, (x, y), False)


# -- the four-slot complex inside the graded complex ----------------------


def ym_embed(x: YMElement, eta: Metric) -> BVElement:
    """Embed an element of the four-slot complex into the graded complex.

    A function u enters as deg0(u) and a one-form B as f1(B) =
    deg1((B*, B), -div-hat B), with (B*)^j = eta^{ij} B_i.  The (D-1)- and
    D-form slots enter through the inverse star: beta -> -g1(*^{-1} beta)
    with g1(B) = deg2((B*, B)), and omega -> deg3(*^{-1} omega).  On p-forms
    ** = det_sign * (-1)^{p(D-p)}, so *^{-1} is det_sign * (-1)^{D-1} * on
    (D-1)-forms and det_sign * on top forms.
    """
    if x.degree == 0:
        return BVElement.deg0(x.form.component(()))
    det_sign = 1 if eta.det_upper > 0 else -1
    if x.degree == 3:
        return det_sign * BVElement.deg3(hodge(x.form, eta).component(()))
    form = x.form if x.degree == 1 else hodge(x.form, eta)
    comps = form.one_form_components()
    section = GenSection(tuple(eta.raise_index(comps)), comps)
    if x.degree == 1:
        return BVElement.deg1(section, -_div_hat(comps, eta))
    return (-det_sign * sign(eta.dim - 1)) * BVElement.deg2(section)


# -- matrix-valued layer ---------------------------------------------------


class MatrixFunction(SquareGrid):
    """A square grid of scalars on one torus, with the convolution matrix product."""

    __slots__ = ()
    ENTRY = FourierScalar

    @staticmethod
    def random(rng, rank: int, dim: int, cutoff: int) -> "MatrixFunction":
        return MatrixFunction._like(_random_scalars(rng, dim, cutoff, rank * rank))

    def __mul__(self, other):
        if isinstance(other, MatrixFunction):
            cols = tuple(zip(*other.rows))
            return MatrixFunction(
                [
                    [sum_of_products(self.dim, zip(row, col)) for col in cols]
                    for row in self.rows
                ]
            )
        return super().__mul__(other)

    __rmul__ = __mul__

    def commutator(self, other) -> "MatrixFunction":
        """self * other - other * self, each entry summed in one pass.

        n(n-1)(2n-1) products at rank n, none of them cancelling (see
        ``_matrix_sum``); ``tests/deform_oracle.py`` keeps the definition.
        """
        return _matrix_sum((), (), [(self, other)])

    def derivative(self, j: int) -> "MatrixFunction":
        return self.apply(lambda a: a.derivative(j))


class LieValuedBVElement(SquareGrid):
    """A square grid of BVElements of one degree and torus (one per Lie slot)."""

    __slots__ = ("degree",)
    ENTRY = BVElement

    def __init__(self, rows):
        super().__init__(rows)
        degree = self.rows[0][0].degree
        for e in self.parts():
            if e.degree != degree and not e.is_zero():
                raise ValueError(f"a degree-{e.degree} entry in a degree-{degree} grid")
        self.degree = degree


# -- Maurer-Cartan theory --------------------------------------------------


def mc_from_fields(avec, bform, eta: Metric) -> LieValuedBVElement:
    """Degree-1 matrix element from vector/one-form component matrices.

    avec and bform are length-dim lists of MatrixFunction (A^j and B_j).  The
    scalar slot is fixed to -(div A + div-hat B)/2 entrywise, the gauge slice
    on which the Maurer-Cartan residual has no scalar component.
    """

    def entry(p, q):
        form = tuple(m.entry(p, q) for m in bform)
        a = GenSection(tuple(m.entry(p, q) for m in avec), form)
        return BVElement.deg1(a, -_HALF * (divergence(a) + _div_hat(form, eta)))

    n = avec[0].rank
    return LieValuedBVElement([[entry(p, q) for q in range(n)] for p in range(n)])


def _entries(x: LieValuedBVElement, degree: int):
    """The grid of x, with each (zero) entry of another degree read as the zero of ``degree``."""
    zero = BVElement.zero(degree, x.dim)
    return [[e if e.degree == degree else zero for e in row] for row in x.rows]


@lru_cache(maxsize=None)
def _one(dim: int) -> FourierScalar:
    """The constant 1 on T^dim: a linear term f enters a sum of products as (1, f)."""
    return FourierScalar.one(dim)


class _Jet:
    """The invariants of one degree-1 matrix entry x = (A, v), computed once.

    ``comps`` holds the 2D section components, vector part a^k first, then
    one-form part alpha_k; ``swapped`` holds the pairing partner of each
    (alpha then a), so <x, y> = sum_m x.comps[m] y.swapped[m], and
    ``half_swapped`` is it halved.  ``jac[m][k]`` = d_k comps[m],
    ``up[m][j]`` = eta^{jk} d_k comps[m], ``plus[k]`` = a^k + eta^{kj}
    alpha_j and ``scalar`` = v.
    """

    __slots__ = ("comps", "swapped", "half_swapped", "jac", "up", "plus", "scalar")

    def __init__(self, e: BVElement, eta: Metric):
        sec = e.section
        self.comps = sec.vec + sec.form
        self.swapped = sec.form + sec.vec
        self.half_swapped = tuple(c * _HALF for c in self.swapped)
        self.jac = _jacobian(self.comps)
        self.up = [eta.gradient(c) for c in self.comps]
        self.plus = [a + b for a, b in zip(sec.vec, eta.raise_index(sec.form))]
        self.scalar = e.scalar


def _musym_terms(x: _Jet, y: _Jet, c: int, plus: list, minus: list) -> None:
    """Append the signed product pairs of component c of musym_eta(x, y).

    On degree-1 entries x = (A, v), y = (B, w), with A = (a, alpha) and
    B = (b, beta), musym_eta(x, y) = (S, 0) with

        S_c = plus_x^k d_k y_c - plus_y^k d_k x_c + w x_c - v y_c
              + (1/2) sum_m (y.swapped[m] D_c x_m - x.swapped[m] D_c y_m),

    where D_c = d_j on the one-form component c = alpha_j and
    D_c = eta^{jk} d_k on the vector component c = a^j.

    Derivation.  musym_eta(x, y) = (mu_eta(x, y) - mu_eta(y, x)) / 2.  On
    degree (1, 1), mu(x, y) = ([A, B] + w A - v B, <A, B>/2), so the scalar
    slots cancel and mu contributes ([A, B] - [B, A])/2 + w A - v B.  That
    Dorfman half difference is a^k d_k b^j - b^k d_k a^j on vectors and
    a^k d_k beta_j - b^k d_k alpha_j plus the last term with D_c = d_j on
    forms.  mu_bar_eta(x, y) = (alpha_i d-hat^i B - beta_i d-hat^i A
    + <d-hat^j A, B> e_j, 0) with d-hat^i = eta^{ik} d_k, whose half
    difference adds alpha_i d-hat^i B - beta_i d-hat^i A and, on vectors,
    (<d-hat^j A, B> - <d-hat^j B, A>)/2: the last term with D_c = d-hat^j.
    Since alpha_i d-hat^i = (eta^{ki} alpha_i) d_k, the derivative terms
    join into plus_x^k d_k y_c - plus_y^k d_k x_c.
    """
    dim = len(x.plus)
    plus.extend(zip(x.plus, y.jac[c]))
    minus.extend(zip(y.plus, x.jac[c]))
    plus.append((y.scalar, x.comps[c]))
    minus.append((x.scalar, y.comps[c]))
    j = c % dim
    xd, yd = (x.up, y.up) if c < dim else (x.jac, y.jac)
    plus.extend((h, row[j]) for h, row in zip(y.half_swapped, xd))
    minus.extend((h, row[j]) for h, row in zip(x.half_swapped, yd))


def mc_residual(psi: LieValuedBVElement, eta: Metric) -> LieValuedBVElement:
    """Left side of the generalized field equation for a degree-1 element.

    Q^eta psi + sum_r musym_eta(psi_pr, psi_rq)
    + sum_{r,s} nusym(psi_pr, psi_rs, psi_sq), each section component of
    each entry summed as one signed sum of products over r (and s); the
    product terms have no scalar slot.  musym_eta is in closed form (see
    ``_musym_terms``).  For nusym on degree (1, 1, 1), write A_x for the
    section of x: every m value m(x, z) = (0, <x, z>) is section-free and
    mu((0, s), y) = (-s A_y, 0), so

        nusym(x, y, z) = mu(m(x, z), y) - mu(m(y, z), x)/2 - mu(m(x, y), z)/2
                       = (-<x, z> A_y + <y, z> A_x / 2 + <x, y> A_z / 2, 0).

    With G(e, f) = <psi_e, psi_f> the Gram matrix of entry pairings and
    P(p, q) = sum_r G(pr, rq), the nu sum is
    -sum_{r,s} G(pr, sq) A_rs + (1/2) sum_r (P(r, q) A_pr + P(p, r) A_rq).
    """
    if psi.degree != 1:
        raise ValueError("Maurer-Cartan element must have degree 1")
    n, dim = psi.rank, psi.dim
    entries = _entries(psi, 1)
    jets = [[_Jet(e, eta) for e in row] for row in entries]
    flat = [j for row in jets for j in row]
    gram = [[None] * (n * n) for _ in range(n * n)]
    for a, x in enumerate(flat):
        for b in range(a, n * n):
            gram[a][b] = gram[b][a] = sum_of_products(dim, zip(x.comps, flat[b].swapped))
    half_p = [
        [
            sum_of_products(
                dim,
                chain.from_iterable(
                    zip(jets[p][r].comps, jets[r][q].half_swapped) for r in range(n)
                ),
            )
            for q in range(n)
        ]
        for p in range(n)
    ]
    one = _one(dim)
    grid = []
    for p in range(n):
        row = []
        for q in range(n):
            qx = Q_eta(entries[p][q], eta)
            comps = []
            for c, qc in enumerate(qx.section.vec + qx.section.form):
                plus, minus = [(one, qc)], []
                for r in range(n):
                    if not p == q == r:  # musym_eta(x, x) = 0 on degree 1
                        _musym_terms(jets[p][r], jets[r][q], c, plus, minus)
                    plus.append((half_p[r][q], jets[p][r].comps[c]))
                    plus.append((half_p[p][r], jets[r][q].comps[c]))
                    g = gram[p * n + r]
                    minus.extend((g[s * n + q], jets[r][s].comps[c]) for s in range(n))
                comps.append(sum_of_products(dim, plus, minus))
            row.append(BVElement.deg2(GenSection(comps[:dim], comps[dim:]), qx.scalar))
        grid.append(row)
    return LieValuedBVElement(grid)


def gauge_variation(
    psi: LieValuedBVElement, u: MatrixFunction, eta: Metric
) -> LieValuedBVElement:
    """Infinitesimal gauge move Q u + mu(psi,u) - mu(u,psi) (matrix-tensored).

    The gauge parameter u is a matrix of degree-0 scalars.  For x = (A, v)
    of degree 1, mu_bar_eta(u, x) = 0 and musym_eta(x, u) = musym_eta(u, x)
    = (u A, u v - (1/2) plus_x^k d_k u), so entry (p, q) is Q^eta u_pq plus
    sum_r (u_rq A_pr - u_pr A_rq) on the section and sum_r (u_rq v_pr
    - u_pr v_rq - (1/2) plus_pr.d u_rq + (1/2) plus_rq.d u_pr) on the scalar
    slot, each summed in one pass.
    """
    if not isinstance(u, MatrixFunction):
        raise TypeError(f"gauge parameter must be a MatrixFunction, got {type(u).__name__}")
    if u.rank != psi.rank:
        raise ValueError(f"gauge parameter of rank {u.rank} for a rank-{psi.rank} field")
    n, dim = psi.rank, psi.dim
    jets = [[_Jet(e, eta) for e in row] for row in _entries(psi, 1)]
    us = u.rows
    half_grad = [[f.symbols((1,) * dim, tuple, 2) for f in row] for row in us]
    one = _one(dim)
    grid = []
    for p in range(n):
        row = []
        for q in range(n):
            qu = Q_eta(BVElement.deg0(us[p][q]), eta)
            rs = [r for r in range(n) if not p == q == r]  # u_pp x_pp - u_pp x_pp = 0
            comps = [
                sum_of_products(
                    dim,
                    [(one, qc)] + [(us[r][q], jets[p][r].comps[c]) for r in rs],
                    [(us[p][r], jets[r][q].comps[c]) for r in rs],
                )
                for c, qc in enumerate(qu.section.vec + qu.section.form)
            ]
            plus, minus = [(one, qu.scalar)], []
            for r in rs:
                x, y = jets[p][r], jets[r][q]
                plus.append((us[r][q], x.scalar))
                minus.append((us[p][r], y.scalar))
                minus.extend(zip(x.plus, half_grad[r][q]))
                plus.extend(zip(y.plus, half_grad[p][r]))
            scalar = sum_of_products(dim, plus, minus)
            row.append(BVElement.deg1(GenSection(comps[:dim], comps[dim:]), scalar))
        grid.append(row)
    return LieValuedBVElement(grid)


def _slot_split(x: LieValuedBVElement, eta: Metric):
    """Per direction k, the matrices of B_k + eta_{kj} A^j and B_k - eta_{kj} A^j.

    (A, B) is the section of each entry of x, zero when the entry has none.
    """
    zero = GenSection.zero(x.dim)
    secs = [zero if e.section is None else e.section for e in x.parts()]
    low = [eta.lower_index(sec.vec) for sec in secs]

    def side(op):
        entries = ([op(s.form[k], w[k]) for s, w in zip(secs, low)] for k in range(x.dim))
        return [MatrixFunction._like(e) for e in entries]

    return side(add), side(sub)


def dictionary_fields(psi: LieValuedBVElement, eta: Metric):
    """Slot dictionary to the gauge field and adjoint scalar components.

    Returns (calA, phi): length-dim lists of MatrixFunction with
    calA_k = (B_k + eta_{kj} A^j)/2 and phi_k = (B_k - eta_{kj} A^j)/2.
    """
    plus, minus = _slot_split(psi, eta)
    return [m * _HALF for m in plus], [m * _HALF for m in minus]


def _matrix_sum(added, subtracted, brackets, weights=None, y=None) -> MatrixFunction:
    """sum(added) - sum(subtracted) + the sum of [a, b] over ``brackets``.

    ``brackets`` is a nonempty list of matrix pairs; with ``weights``, entry
    (p, q) also subtracts sum_e weights[p][q][e] y_e over the entries e of
    the matrix y.  Each entry is one signed sum of products reduced once: a
    matrix in ``added`` or ``subtracted`` enters as its product with the
    constant 1.  Entries commute, so no commutator term that cancels is
    built.  Off the diagonal, the r = p and r = q terms of [a, b]_pq join
    into (a_pp - a_qq) b_pq - a_pq (b_pp - b_qq); each difference is formed
    once per pair p < q, and [a, b]_qp takes it with the other sign, by the
    other list.  On the diagonal, [a, b]_pp is the sum over r != p of t_pr =
    a_pr b_rp - a_rp b_pr = -t_rp, each t summed once (p < r) and entering
    by the constant 1.  One commutator thus makes n(n-1)(2n-1) products,
    where its definition (``tests/deform_oracle.py``) makes 2n^3, and
    n(n-1)/2 differences of diagonal entries per operand.
    """
    first = brackets[0][0]
    n, dim = first.rank, first.dim
    one = _one(dim)
    plus = [[[(one, m.rows[p][q]) for m in added] for q in range(n)] for p in range(n)]
    minus = [[[(one, m.rows[p][q]) for m in subtracted] for q in range(n)] for p in range(n)]
    if weights:
        for p, q in product(range(n), repeat=2):
            minus[p][q] += zip(weights[p][q], y.parts())
    for a, b in brackets:
        a, b = a.rows, b.rows
        for p, q in combinations(range(n), 2):
            t = sum_of_products(dim, [(a[p][q], b[q][p])], [(a[q][p], b[p][q])])
            plus[p][p].append((one, t))
            minus[q][q].append((one, t))
            da, db = a[p][p] - a[q][q], b[p][p] - b[q][q]
            rs = [r for r in range(n) if r != p and r != q]
            plus[p][q] += [(da, b[p][q])] + [(a[p][r], b[r][q]) for r in rs]
            minus[p][q] += [(a[p][q], db)] + [(b[p][r], a[r][q]) for r in rs]
            plus[q][p] += [(a[q][p], db)] + [(a[q][r], b[r][p]) for r in rs]
            minus[q][p] += [(da, b[q][p])] + [(b[q][r], a[r][p]) for r in rs]
    return MatrixFunction(
        [[sum_of_products(dim, plus[p][q], minus[p][q]) for q in range(n)] for p in range(n)]
    )


def _cubic_weights(calA, phi, a_up, phi_up) -> list:
    """The weights W_pq(r, t) = S(pr, tq) - d_tq C_pr - d_rp C_tq of the cubic
    terms per entry (p, q), flat over (r, t) (``ym_field_residual``): S(e, f) =
    B_j,e X^j_f + X^j_e B_j,f (B = A + phi, X^j = A^j - phi^j) is one sum of
    products per entry pair e <= f; C_pq = (1/2) sum_r S(pr, rq) and W merge."""
    b = [(a + f).parts() for a, f in zip(calA, phi)]
    x = [(a - f).parts() for a, f in zip(a_up, phi_up)]
    n, dim = calA[0].rank, calA[0].dim
    ns, m = range(n), n * n
    s = [[None] * m for _ in range(m)]
    for e in range(m):
        for f in range(e, m):
            pairs = [(u[e], v[f]) for u, v in zip(b, x)] + [(v[e], u[f]) for u, v in zip(b, x)]
            s[e][f] = s[f][e] = sum_of_products(dim, pairs)
    c = [[sum((s[p * n + r][r * n + q] for r in ns[1:]), s[p * n][q]) for q in ns] for p in ns]
    c = [[v * _HALF for v in row] for row in c]

    def weight(p, q, r, t):
        w = s[p * n + r][t * n + q]
        w = w - c[p][r] if t == q else w
        return w - c[t][q] if r == p else w

    return [[[weight(p, q, r, t) for r in ns for t in ns] for q in ns] for p in ns]


def ym_field_residual(calA, phi, eta: Metric):
    """Covariant field equations for the (gauge field, adjoint scalars) pair.

    Returns (e1, e2): per-direction matrix residuals of
    eta^{ij}[nabla_i,[nabla_j,nabla_k]] - eta^{ij}[[nabla_k,phi_i],phi_j] and
    eta^{ij}[nabla_i,[nabla_j,phi_k]] - eta^{ij}[phi_i,[phi_j,phi_k]].

    Derivation.  With Z^j = eta^{ij} Z_i, nabla_j = d_j + [A_j, .], F_jk =
    d_j A_k - d_k A_j + [A_j, A_k], div = d^j A_j, box = d^j d_j and D_Z(Y) =
    [Z^j, [Z_j, Y]], the Leibniz rule on d^j F_jk and d^j nabla_j phi_k
    gives, with D = D_A - D_phi collecting every cubic term,

        e1_k = box A_k - d_k div + [div, A_k] + [A^j, 2 d_j A_k - d_k A_j]
               + [phi^j, d_k phi_j] + D(A_k),
        e2_k = box phi_k + [div, phi_k] + [A^j, 2 d_j phi_k] + D(phi_k).

    Entries commute and eta is symmetric, so D_Z(Y)_pq = sum_rs (d_qs C_pr +
    d_pr C_sq - 2 G(pr, sq)) Y_rs with G(pr, sq) = Z^j_pr (Z_j)_sq and C_pq =
    sum_r G(pr, rq).  With B = A + phi and X = A - phi, S = 2 (G_A - G_phi) =
    B_j,pr X^j_sq + X^j_pr B_j,sq has no B.B or X.X part (under the slot
    dictionary it is the Gram matrix <psi_pr, psi_sq> of ``mc_residual``), and
    D(Y)_pq = -sum_rs W_pq(r, s) Y_rs (``_cubic_weights``).  Each result
    entry is one signed sum of products, n^2 of them cubic; no F, nabla phi
    or nested commutator is built, nor S at rank 1, where D = 0.
    """
    n, r = calA[0].rank, range(len(calA))
    a_up, phi_up = eta.raise_index(calA), eta.raise_index(phi)
    da = [[a.derivative(j) for a in calA] for j in r]
    dphi = [[p.derivative(j) for p in phi] for j in r]
    div = sum((a_up[j].derivative(j) for j in r[1:]), a_up[0].derivative(0))
    box = partial(laplacian, metric=eta)
    weights = _cubic_weights(calA, phi, a_up, phi_up) if n > 1 else None
    e1, e2 = [], []
    for k in r:
        comm = [(div, calA[k])] + [(a_up[j], da[j][k] * 2 - da[k][j]) for j in r]
        comm += [(phi_up[j], dphi[k][j]) for j in r]
        e1.append(_matrix_sum([calA[k].apply(box)], [div.derivative(k)], comm, weights, calA[k]))
        comm = [(div, phi[k])] + [(a_up[j], dphi[j][k] * 2) for j in r]
        e2.append(_matrix_sum([phi[k].apply(box)], (), comm, weights, phi[k]))
    return e1, e2


def mc_ym_residual(psi: LieValuedBVElement, eta: Metric):
    """The Maurer-Cartan residual of psi minus the covariant field equations.

    The degree-2 residual of psi is unpacked into the raised/lowered slot
    combinations xi_k +- eta_{kj} Xtilde^j, which the slot dictionary maps
    onto the two field residual families (e1, e2) of ``ym_field_residual``
    with the constants ``DICTIONARY_CONSTANTS`` = (2, 2).  Returns the exact
    residual (aslot_k - 2 e1_k, pslot_k - 2 e2_k per direction k, the matrix
    of the residual's scalar slots); every part vanishes on every field.  The
    two sides share no kernel: their cubic parts agree because 2 (G_A -
    G_phi) is the pairing Gram of the nusym terms of ``mc_residual``.  Each
    entry of slot - c e is one weighted merge, with no scaled copy of e.
    """
    res = mc_residual(psi, eta)
    e1, e2 = ym_field_residual(*dictionary_fields(psi, eta), eta)
    aslot, pslot = _slot_split(res, eta)
    c1, c2 = DICTIONARY_CONSTANTS
    return (
        tuple(a.__add__(e, partial(FourierScalar.__add__, sign=-c1)) for a, e in zip(aslot, e1)),
        tuple(p.__add__(e, partial(FourierScalar.__add__, sign=-c2)) for p, e in zip(pslot, e2)),
        MatrixFunction([[e.scalar for e in row] for row in res.rows]),
    )
