"""Operations of ``bvdouble.bvops`` by their definitions, as byte-comparing
oracles.

``brack`` is s (b mu(x, y) - mu(bx, y) - s mu(x, by)) with s = (-1)^|x|:
three products, two applications of b and three rescaled sums, whose
cancelling terms the closed form in ``bvdouble.bvops`` never builds.
``n_op`` and ``nu_b_commutator`` are the graded commutators [b, m] and
[b, nu] written out term by term, as they were before ``bvops.boundary``
became their one body.
"""

from bvdouble.bvcomplex import op_b
from bvdouble.bvops import m_op, mu, nu, sign


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


def nu_b_commutator(x, y, z):
    """The graded commutator [b, nu] with b inserted in every slot."""
    return (
        op_b(nu(x, y, z))
        + nu(op_b(x), y, z)
        + sign(x.degree) * nu(x, op_b(y), z)
        + sign(x.degree + y.degree) * nu(x, y, op_b(z))
    )
