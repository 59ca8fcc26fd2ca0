"""Definitional forms of the deformation kernels, kept as test oracles.

``bvdouble.deform`` evaluates the product correction, the deformed
differential and the covariant field equations through closed forms: the
bracket with a coordinate section is the slotwise derivative, eta is
contracted before the homotopies are applied, each field strength and
covariant derivative is computed once, each entry of a matrix product or
commutator is summed in one coefficient dict, and the matrix-tensored
Maurer-Cartan kernels sum each output entry from per-entry jets.  The
functions below are the term-by-term definitions those forms replaced; the
tests compare the two exactly.  The embedding of the four-slot complex is
kept as the exterior suite once wrote it: per slot, through the one-form
embeddings f1 and g1.  The derived bracket of the deformed product is
kept as the sum it was before ``bvops.boundary`` became its body.
``mu_bar_eta_raised`` is the closed form of the product correction as it
was before eta moved onto its small operands: it raised whole element
gradients eta^{ij} d_j x, summed every slot of them against one operand's
one-form part (``_weighted_sum``) and kept the slots that mu((0, s), .)
reads (``_mu_scalar_slot``).  ``slotwise_derivative`` is the slotwise
d/dx^j that ``BVElement`` once carried as a method; only these oracles and
their tests read it.
"""

from fractions import Fraction
from functools import partial

from bvdouble.bvcomplex import BVElement, op_b, op_q
from bvdouble.bvops import brack, m_op, mu, nu, nusym, sign
from bvdouble.deform import (
    LieValuedBVElement,
    MatrixFunction,
    Q_eta,
    R_eta,
    flat_sections,
    mu_eta,
    musym_eta,
)
from bvdouble.exterior import DifferentialForm, YMElement, hodge
from bvdouble.scalars import FourierScalar, Metric, sum_of_products
from bvdouble.sections import GenSection, pairing

_HALF = Fraction(1, 2)


def q_eta(x: BVElement, eta: Metric) -> BVElement:
    """Q + R with R built from double brackets."""
    return op_q(x) + R_eta(x, eta)


def mu_bar_eta(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """sum eta^{ij} [nu(f_i, {f_j, x}, y) - mu(m(f_i, x), {f_j, y})]."""
    f = flat_sections(eta.dim)
    acc = BVElement.zero(x.degree + y.degree, x.dim)
    for i, j, w in eta.pairs():
        acc = acc + nu(f[i], brack(f[j], x), y) * w
        acc = acc - mu(m_op(f[i], x), brack(f[j], y)) * w
    return acc


def _weighted_sum(ss, zs) -> BVElement:
    """sum_i s_i z_i, the scalar field s_i multiplying every slot of z_i."""
    z0 = zs[0]
    dim = z0.dim

    def dot(parts):
        return sum_of_products(dim, zip(ss, parts))

    section = None
    if z0.section is not None:
        section = GenSection(
            tuple(dot(z.section.vec[k] for z in zs) for k in range(dim)),
            tuple(dot(z.section.form[k] for z in zs) for k in range(dim)),
        )
    return BVElement(z0.degree, dim, section, dot(z.scalar for z in zs))


def _mu_scalar_slot(w: BVElement) -> BVElement:
    """sum_i mu((0, s_i), z_i) from w = sum_i s_i z_i.

    A degree-1 element (0, s) has no section, so mu((0, s), z) keeps only
    s u on degree 0, -s At on degree 1 and -s vt on degree 2.
    """
    if w.degree == 0:
        return BVElement.deg1(GenSection.zero(w.dim), w.scalar)
    if w.degree == 1:
        return BVElement.deg2(-w.section)
    if w.degree == 2:
        return BVElement.deg3(-w.scalar)
    return BVElement.zero(w.degree + 1, w.dim)


def slotwise_derivative(x: BVElement, j: int) -> BVElement:
    """Slotwise d/dx^j, the Lie derivative along the constant field e_j."""
    section = None
    if x.section is not None:
        section = GenSection(
            tuple(a.derivative(j) for a in x.section.vec),
            tuple(a.derivative(j) for a in x.section.form),
        )
    return BVElement(x.degree, x.dim, section, x.scalar.derivative(j))


def _raised_gradient(x: BVElement, eta: Metric) -> list:
    """eta^{ij} d_j x over i, for a graded element x."""
    return eta.raise_index([slotwise_derivative(x, j) for j in range(eta.dim)])


def mu_bar_eta_raised(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """The closed form over X_i = eta^{ij} d_j x and Y_i = eta^{ij} d_j y."""
    dx, dy = x.degree, y.degree
    acc = BVElement.zero(dx + dy, x.dim)
    if dy == 1 and dx in (1, 2):
        xs = _raised_gradient(x, eta)
        part = _mu_scalar_slot(_weighted_sum(y.section.form, xs))
        if dx == 1:
            p = [pairing(xi.section, y.section) for xi in xs]
            acc = acc + part + BVElement.deg2(GenSection.from_vec(p))
        else:
            acc = acc - part
    if dx == 1:
        ys = _raised_gradient(y, eta)
        acc = acc - _mu_scalar_slot(_weighted_sum(x.section.form, ys))
    return acc


def deformed_bracket(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """Derived bracket of the deformed product (no longer a BV-LZ bracket)."""
    s = sign(x.degree)
    return (
        op_b(mu_eta(x, y, eta))
        - mu_eta(op_b(x), y, eta)
        - s * mu_eta(x, op_b(y), eta)
    ) * s


def matrix_product(a: MatrixFunction, b: MatrixFunction) -> MatrixFunction:
    """Entrywise sum of FourierScalar products."""
    n = a.rank
    zero = FourierScalar.zero(a.dim)
    return MatrixFunction(
        [
            [sum((a.rows[p][r] * b.rows[r][q] for r in range(n)), zero) for q in range(n)]
            for p in range(n)
        ]
    )


def commutator(a: MatrixFunction, b: MatrixFunction) -> MatrixFunction:
    return matrix_product(a, b) - matrix_product(b, a)


def _cov_deriv(calA, i: int, t: MatrixFunction) -> MatrixFunction:
    return t.derivative(i) + commutator(calA[i], t)


def ym_field_residual(calA, phi, eta: Metric):
    """The two field-equation families summed term by term over (i, j, k)."""
    dim = len(calA)
    rank = calA[0].rank
    fdim = calA[0].dim

    def curvature(j, k):
        return (
            calA[k].derivative(j)
            - calA[j].derivative(k)
            + commutator(calA[j], calA[k])
        )

    e1, e2 = [], []
    for k in range(dim):
        r1 = MatrixFunction.zero(rank, fdim)
        r2 = MatrixFunction.zero(rank, fdim)
        for i, j, w in eta.pairs():
            r1 = r1 + w * _cov_deriv(calA, i, curvature(j, k))
            r1 = r1 - w * commutator(_cov_deriv(calA, k, phi[i]), phi[j])
            r2 = r2 + w * _cov_deriv(calA, i, _cov_deriv(calA, j, phi[k]))
            r2 = r2 - w * commutator(phi[i], commutator(phi[j], phi[k]))
        e1.append(r1)
        e2.append(r2)
    return e1, e2


def dictionary_fields(psi, eta: Metric):
    """calA_k = (B_k + eta_{kj} A^j)/2 and phi_k = (B_k - eta_{kj} A^j)/2,
    lowered entry by entry and direction by direction."""
    dim, rank = psi.dim, psi.rank
    calA, phi = [], []
    for k in range(dim):
        arows, prows = [], []
        for p in range(rank):
            arow, prow = [], []
            for q in range(rank):
                e = psi.entry(p, q)
                sec = e.section if e.section is not None else GenSection.zero(dim)
                lowered = FourierScalar.zero(dim)
                for j in range(dim):
                    w = eta.lower[k][j]
                    if w:
                        lowered = lowered + sec.vec[j] * w
                b = sec.form[k]
                arow.append((b + lowered) * _HALF)
                prow.append((b - lowered) * _HALF)
            arows.append(arow)
            prows.append(prow)
        calA.append(MatrixFunction(arows))
        phi.append(MatrixFunction(prows))
    return calA, phi


# -- matrix-tensored Maurer-Cartan kernels ----------------------------------


def tensor_bilinear(op, x: LieValuedBVElement, y: LieValuedBVElement):
    """Matrix-tensored bilinear operation: (p,q) -> sum_r op(x[p][r], y[r][q])."""
    n = x.rank
    grid = []
    for p in range(n):
        row = []
        for q in range(n):
            acc = op(x.entry(p, 0), y.entry(0, q))
            for r in range(1, n):
                acc = acc + op(x.entry(p, r), y.entry(r, q))
            row.append(acc)
        grid.append(row)
    return LieValuedBVElement(grid)


def tensor_trilinear(op, x, y, z):
    """Matrix-tensored trilinear operation with a double internal sum."""
    n = x.rank
    grid = []
    for p in range(n):
        row = []
        for q in range(n):
            acc = None
            for r in range(n):
                for s in range(n):
                    term = op(x.entry(p, r), y.entry(r, s), z.entry(s, q))
                    acc = term if acc is None else acc + term
            row.append(acc)
        grid.append(row)
    return LieValuedBVElement(grid)


def mc_residual(psi: LieValuedBVElement, eta: Metric) -> LieValuedBVElement:
    """Q^eta psi + musym_eta(psi, psi) + nusym(psi, psi, psi), matrix-tensored."""
    qpart = psi.apply(partial(Q_eta, eta=eta))
    mupart = tensor_bilinear(lambda a, b: musym_eta(a, b, eta), psi, psi)
    nupart = tensor_trilinear(nusym, psi, psi, psi)
    return qpart + mupart + nupart


def gauge_variation(psi, umat, eta: Metric) -> LieValuedBVElement:
    """Q^eta u + musym_eta(psi, u) - musym_eta(u, psi), matrix-tensored, with u
    the grid of degree-0 elements of the matrix ``umat``."""
    me = lambda a, b: musym_eta(a, b, eta)
    u = LieValuedBVElement([[BVElement.deg0(f) for f in row] for row in umat.rows])
    qpart = u.apply(partial(Q_eta, eta=eta))
    return qpart + tensor_bilinear(me, psi, u) - tensor_bilinear(me, u, psi)


def ym_field_residual_raised(calA, phi, eta: Metric):
    """The field equations with eta contracted first and each F_jk, nabla_j phi_k
    built once, every matrix product summed term by term."""
    dim = len(calA)
    zero = MatrixFunction.zero(calA[0].rank, calA[0].dim)
    curv = [[zero] * dim for _ in range(dim)]
    for j in range(dim):
        for k in range(j + 1, dim):
            f = calA[k].derivative(j) - calA[j].derivative(k) + commutator(calA[j], calA[k])
            curv[j][k], curv[k][j] = f, -f
    nabla_phi = [[_cov_deriv(calA, j, p) for p in phi] for j in range(dim)]
    phi_up = eta.raise_index(phi)
    e1, e2 = [], []
    for k in range(dim):
        curv_up = eta.raise_index([row[k] for row in curv])
        nabla_up = eta.raise_index([row[k] for row in nabla_phi])
        r1 = r2 = zero
        for i in range(dim):
            r1 = r1 + _cov_deriv(calA, i, curv_up[i])
            r1 = r1 - commutator(nabla_phi[k][i], phi_up[i])
            r2 = r2 + _cov_deriv(calA, i, nabla_up[i])
            r2 = r2 - commutator(phi[i], commutator(phi_up[i], phi[k]))
        e1.append(r1)
        e2.append(r2)
    return e1, e2


def ym_embed_one_form(kind: str, form: DifferentialForm, eta: Metric) -> BVElement:
    """f1(B) = deg1((B*, B), -eta^{ij} d_j B_i) and g1(B) = deg2((B*, B)),
    with (B*)^j = eta^{ij} B_i."""
    dim = eta.dim
    comps = form.one_form_components()
    star = tuple(eta.raise_index(comps))
    if kind == "f1":
        div = FourierScalar.zero(dim)
        for i in range(dim):
            for j in range(dim):
                div = div + comps[i].derivative(j) * eta.upper[i][j]
        return BVElement.deg1(GenSection(star, comps), -div)
    return BVElement.deg2(GenSection(star, comps))


def ym_embed(x: YMElement, eta: Metric) -> BVElement:
    """Slotwise: u -> deg0(u), B -> f1(B), beta -> -g1(*^{-1} beta) and
    omega -> deg3(*^{-1} omega), with *^{-1} = det_sign * (-1)^{D-1} * on
    (D-1)-forms and det_sign * on top forms."""
    dim = eta.dim
    det_sign = 1 if 1 / eta.det_upper > 0 else -1
    if x.degree == 0:
        return BVElement.deg0(x.form.component(()))
    if x.degree == 1:
        return ym_embed_one_form("f1", x.form, eta)
    if x.degree == 2:
        g1 = ym_embed_one_form("g1", hodge(x.form, eta), eta)
        return (-det_sign * sign(dim - 1)) * g1
    return det_sign * BVElement.deg3(hodge(x.form, eta).component(()))
