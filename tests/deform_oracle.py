"""Definitional forms of the deformation kernels, kept as test oracles.

``bvdouble.deform`` evaluates the product correction, the deformed
differential and the covariant field equations through closed forms: the
bracket with a coordinate section is the slotwise derivative, eta is
contracted before the homotopies are applied, each field strength and
covariant derivative is computed once, and each entry of a matrix product or
commutator is summed in one coefficient dict.  The functions below are the
term-by-term definitions those forms replaced; the tests compare the two
exactly.
"""

from fractions import Fraction

from bvdouble.bvcomplex import BVElement, op_q
from bvdouble.bvops import brack, m_op, mu, nu
from bvdouble.deform import MatrixFunction, R_eta, flat_sections
from bvdouble.scalars import FourierScalar, Metric
from bvdouble.sections import GenSection

_HALF = Fraction(1, 2)


def q_eta(x: BVElement, eta: Metric) -> BVElement:
    """Q + R with R built from double brackets."""
    return op_q(x) + R_eta(x, eta)


def mu_bar_eta(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """sum eta^{ij} [nu(f_i, {f_j, x}, y) - mu(m(f_i, x), {f_j, y})]."""
    f = flat_sections(eta)
    acc = BVElement.zero(x.degree + y.degree, x.dim)
    for i, j, w in eta.pairs():
        acc = acc + nu(f[i], brack(f[j], x), y) * w
        acc = acc - mu(m_op(f[i], x), brack(f[j], y)) * w
    return acc


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
                    w = eta.down(k, j)
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
