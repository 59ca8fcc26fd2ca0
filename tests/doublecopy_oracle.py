"""Definitional oracles for the fused doubled-torus and C-bracket kernels.

These are the plain loop bodies that ``bvdouble.doublecopy`` replaced with
per-entry jets and one ``sum_of_products`` per output entry: every term is
built as its own ``DoubledScalar`` (or ``FourierScalar``) and added into a
running sum; the C-bracket antisymmetrizes the definitional half-bracket of
``sections_oracle``.  ``tests/test_doublecopy_oracle.py`` compares the
kernels with them by value and by canonical bytes.  Not collected by pytest.
"""

from fractions import Fraction

from sections_oracle import c_half_bracket

from bvdouble.doublecopy import Bivector, DoubledScalar
from bvdouble.scalars import Metric


def c_bracket(a, b, eta: Metric):
    fwd = c_half_bracket(a, b, eta)
    rev = c_half_bracket(b, a, eta)
    half = Fraction(1, 2)
    return tuple((p - q) * half for p, q in zip(fwd, rev))


def section_pair_residual(f, g):
    out = DoubledScalar.zero(f.halfdim)
    for i in range(f.halfdim):
        out = out + f.dx(i) * g.dt(i) + f.dt(i) * g.dx(i)
    return out


def delta_minus(f):
    out = DoubledScalar.zero(f.halfdim)
    for i in range(f.halfdim):
        out = out + f.dx(i).dt(i)
    return out * 2


def double_bracket(g, h):
    n = g.halfdim
    out = []
    for k in range(n):
        row = []
        for l in range(n):
            acc = DoubledScalar.zero(n)
            for i in range(n):
                for j in range(n):
                    acc = acc + g.entry(i, j) * h.entry(k, l).dx(i).dt(j)
                    acc = acc + h.entry(i, j) * g.entry(k, l).dx(i).dt(j)
                    acc = acc - g.entry(k, j).dx(i) * h.entry(i, l).dt(j)
                    acc = acc - h.entry(k, j).dx(i) * g.entry(i, l).dt(j)
            row.append(acc)
        out.append(tuple(row))
    return Bivector(tuple(out))


def div_omega(g, phi):
    n = g.halfdim
    vec = []
    for k in range(n):
        acc = DoubledScalar.zero(n)
        for j in range(n):
            acc = acc + g.entry(k, j).dt(j) - g.entry(k, j) * phi.dt(j) * 2
        vec.append(acc)
    tvec = []
    for l in range(n):
        acc = DoubledScalar.zero(n)
        for i in range(n):
            acc = acc + g.entry(i, l).dx(i) - g.entry(i, l) * phi.dx(i) * 2
        tvec.append(acc)
    return tuple(vec), tuple(tvec)


def div_omega_vector(vec, tvec, phi):
    n = phi.halfdim
    acc = DoubledScalar.zero(n)
    for i in range(n):
        acc = acc + vec[i].dx(i) - vec[i] * phi.dx(i) * 2
        acc = acc + tvec[i].dt(i) - tvec[i] * phi.dt(i) * 2
    return acc


def lie_derivative_bivector(vec, tvec, g):
    n = g.halfdim
    out = []
    for k in range(n):
        row = []
        for l in range(n):
            acc = DoubledScalar.zero(n)
            for i in range(n):
                acc = acc + vec[i] * g.entry(k, l).dx(i)
                acc = acc + tvec[i] * g.entry(k, l).dt(i)
                acc = acc - g.entry(i, l) * vec[k].dx(i)
                acc = acc - g.entry(k, i) * tvec[l].dt(i)
            row.append(acc)
        out.append(tuple(row))
    return Bivector(tuple(out))


def bivector_mc_residual(g, phi):
    vec, tvec = div_omega(g, phi)
    tensor = double_bracket(g, g) + lie_derivative_bivector(vec, tvec, g)
    scalar = div_omega_vector(vec, tvec, phi)
    return tensor, scalar
