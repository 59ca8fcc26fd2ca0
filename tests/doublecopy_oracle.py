"""Definitional oracles for the fused doubled-torus and C-bracket kernels.

These are the plain loop bodies that ``bvdouble.doublecopy`` replaced with
per-entry jets and one ``sum_of_products`` per output entry: every term is
built as its own ``FourierScalar`` (on T^{2n} for the doubled torus, where
d_i is axis i and dt^i axis n + i) and added into a running sum; the
C-bracket antisymmetrizes the definitional half-bracket of
``sections_oracle``.  ``tests/test_doublecopy_oracle.py`` compares the
kernels with them by value and by canonical bytes.  ``div_omega_vector`` and
``lie_derivative_bivector`` have no kernel of their own: they are the loop
forms of the terms that ``bivector_mc_residual`` sums into its residuals.
``null_covector`` is the search on the Fraction quadratic form
eta^{ij} n_i n_j that the integer-form search replaced.  Not collected by
pytest.
"""

from fractions import Fraction
from itertools import product

from scalars_oracle import is_definite
from sections_oracle import c_half_bracket

from bvdouble.doublecopy import Bivector
from bvdouble.scalars import FourierScalar, Metric, sum_of_products


def _n(f):
    """The half-dimension of the doubled torus a scalar or bivector lives on."""
    return f.dim // 2


def _zero(n):
    return FourierScalar.zero(2 * n)


def _dt(f, i):
    """The derivative of a doubled scalar along the i-th second-sector coordinate."""
    return f.derivative(_n(f) + i)


def c_bracket(a, b, eta: Metric):
    fwd = c_half_bracket(a, b, eta)
    rev = c_half_bracket(b, a, eta)
    half = Fraction(1, 2)
    return tuple((p - q) * half for p, q in zip(fwd, rev))


def section_pair_residual(f, g):
    out = _zero(_n(f))
    for i in range(_n(f)):
        out = out + f.derivative(i) * _dt(g, i) + _dt(f, i) * g.derivative(i)
    return out


def delta_minus(f):
    out = _zero(_n(f))
    for i in range(_n(f)):
        out = out + _dt(f.derivative(i), i)
    return out * 2


def delta_minus_by_derivatives(f):
    """``delta_minus`` before its order-2 symbol: 2n derivative passes and n
    products with the constant 2 in one ``sum_of_products``."""
    n, d = _n(f), f.derivative
    two = FourierScalar.const(2 * n, 2)
    return sum_of_products(2 * n, ((d(i).derivative(n + i), two) for i in range(n)))


def double_bracket(g, h):
    n = _n(g)
    out = []
    for k in range(n):
        row = []
        for l in range(n):
            acc = _zero(n)
            for i in range(n):
                for j in range(n):
                    acc = acc + g.entry(i, j) * _dt(h.entry(k, l).derivative(i), j)
                    acc = acc + h.entry(i, j) * _dt(g.entry(k, l).derivative(i), j)
                    acc = acc - g.entry(k, j).derivative(i) * _dt(h.entry(i, l), j)
                    acc = acc - h.entry(k, j).derivative(i) * _dt(g.entry(i, l), j)
            row.append(acc)
        out.append(tuple(row))
    return Bivector(tuple(out))


def div_omega(g, phi):
    n = _n(g)
    vec = []
    for k in range(n):
        acc = _zero(n)
        for j in range(n):
            acc = acc + _dt(g.entry(k, j), j) - g.entry(k, j) * _dt(phi, j) * 2
        vec.append(acc)
    tvec = []
    for l in range(n):
        acc = _zero(n)
        for i in range(n):
            acc = acc + g.entry(i, l).derivative(i) - g.entry(i, l) * phi.derivative(i) * 2
        tvec.append(acc)
    return tuple(vec), tuple(tvec)


def div_omega_vector(vec, tvec, phi):
    n = _n(phi)
    acc = _zero(n)
    for i in range(n):
        acc = acc + vec[i].derivative(i) - vec[i] * phi.derivative(i) * 2
        acc = acc + _dt(tvec[i], i) - tvec[i] * _dt(phi, i) * 2
    return acc


def lie_derivative_bivector(vec, tvec, g):
    n = _n(g)
    out = []
    for k in range(n):
        row = []
        for l in range(n):
            acc = _zero(n)
            for i in range(n):
                acc = acc + vec[i] * g.entry(k, l).derivative(i)
                acc = acc + tvec[i] * _dt(g.entry(k, l), i)
                acc = acc - g.entry(i, l) * vec[k].derivative(i)
                acc = acc - g.entry(k, i) * _dt(tvec[l], i)
            row.append(acc)
        out.append(tuple(row))
    return Bivector(tuple(out))


def bivector_mc_residual(g, phi):
    vec, tvec = div_omega(g, phi)
    tensor = double_bracket(g, g) + lie_derivative_bivector(vec, tvec, g)
    scalar = div_omega_vector(vec, tvec, phi)
    return tensor, scalar


def _norm2(eta: Metric, n) -> Fraction:
    """The quadratic form eta^{ij} n_i n_j as the double sum over Fractions."""
    return sum(w * n[i] * n[j] for i, j, w in eta.pairs())


def null_covector(eta: Metric, search: int = 6):
    if is_definite(eta.upper):
        return None
    for s in range(1, search + 1):
        for n in product(range(-s, s + 1), repeat=eta.dim):
            if max(abs(v) for v in n) == s and _norm2(eta, n) == 0:
                return n
    return None
