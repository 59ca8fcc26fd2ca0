"""The derived bracket by its definition, as a byte-comparing oracle.

``brack`` is s (b mu(x, y) - mu(bx, y) - s mu(x, by)) with s = (-1)^|x|:
three products, two applications of b and three rescaled sums, whose
cancelling terms the closed form in ``bvdouble.bvops`` never builds.
"""

from bvdouble.bvcomplex import op_b
from bvdouble.bvops import mu, sign


def brack(x, y):
    """The odd bracket derived from the product and the operator b."""
    s = sign(x.degree)
    return s * (op_b(mu(x, y)) - mu(op_b(x), y) - s * mu(x, op_b(y)))
