"""Flat-metric deformation of the graded complex and its gauge-theory face.

A constant symmetric matrix eta deforms the differential by the second-order
operator R = sum eta^{ij} mu(f_i, {f_j, .}) built from the coordinate vector
fields f_i.  The module provides:

  * R and the deformed differential Q + R, with a slotwise oracle for the
    Delta / d-hat / div-hat arrow diagram they induce;
  * the product correction mu_bar (defining composition and the closed slot
    table), the deformed product, and the full list of deformed homotopy
    residuals (derivation, commutativity with m, associativity with nu,
    pentagon, shuffle);
  * matrix-valued elements, the Maurer-Cartan residual of a degree-1 matrix
    element, its gauge variation, and the exact dictionary onto covariant
    Yang-Mills field equations for the pair (gauge field, adjoint scalars);
  * the embeddings of the three differential-form subcomplexes.

Everything is exact; calibration constants for the Maurer-Cartan comparison
are rational numbers fitted once per run and then verified globally.
"""

from __future__ import annotations

from fractions import Fraction

from .bvcomplex import BVElement, op_b, op_q, random_element
from .bvops import brack, m_op, mu, musym, nu, nusym, sign
from .exterior import DifferentialForm
from .scalars import (
    FourierScalar,
    GaussRational,
    Metric,
    laplacian,
    random_coefficient,
    random_scalar,
)
from .sections import GenSection, coordinate_section, divergence

__all__ = [
    "flat_sections",
    "R_eta",
    "Q_eta",
    "structure_check",
    "mu_bar_eta",
    "mu_bar_eta_table",
    "mu_eta",
    "musym_eta",
    "deformed_ainf_residuals",
    "bracket_laplacian",
    "deformed_bracket",
    "deformed_bracket_witness",
    "ym_embed",
    "MatrixCoefficient",
    "MatrixFunction",
    "LieValuedBVElement",
    "tensor_bilinear",
    "tensor_trilinear",
    "lie_q_eta",
    "mc_from_fields",
    "mc_residual",
    "gauge_variation",
    "dictionary_fields",
    "ym_field_residual",
    "mc_vs_ym_compare",
]

_HALF = Fraction(1, 2)


# -- scalar helpers --------------------------------------------------------


def _d_hat(u: FourierScalar, eta: Metric):
    """Raised gradient, (d-hat u)^j = eta^{ij} d_i u."""
    dim = u.dim
    out = []
    for j in range(dim):
        s = FourierScalar.zero(dim)
        for i in range(dim):
            w = eta.up(i, j)
            if w:
                s = s + u.derivative(i) * w
        out.append(s)
    return tuple(out)


def _div_hat(form, eta: Metric) -> FourierScalar:
    """Raised divergence of one-form components, eta^{ij} d_i B_j."""
    dim = len(form)
    s = FourierScalar.zero(dim)
    for i in range(dim):
        for j in range(dim):
            w = eta.up(i, j)
            if w:
                s = s + form[j].derivative(i) * w
    return s


def _lap_tuple(comps, eta: Metric):
    return tuple(laplacian(c, eta) for c in comps)


# -- the deforming operator ------------------------------------------------


def flat_sections(eta: Metric):
    """The coordinate vector fields as degree-1 elements (one per direction)."""
    return [BVElement.deg1(coordinate_section(eta.dim, i)) for i in range(eta.dim)]


def _eta_pairs(eta: Metric):
    for i in range(eta.dim):
        for j in range(eta.dim):
            w = eta.up(i, j)
            if w:
                yield i, j, w


def R_eta(x, eta: Metric):
    """The deforming operator sum eta^{ij} mu(f_i, {f_j, x}); raises degree."""
    if isinstance(x, LieValuedBVElement):
        return x.apply(lambda e: R_eta(e, eta))
    f = flat_sections(eta)
    acc = BVElement.zero(x.degree + 1, x.dim)
    for i, j, w in _eta_pairs(eta):
        acc = acc + mu(f[i], brack(f[j], x)) * w
    return acc


def _r_eta_slotwise(x: BVElement, eta: Metric) -> BVElement:
    """Closed-form arrows of R on each slot: Delta, d-hat, and half div-hat."""
    dim = x.dim
    if x.degree == 0:
        u = x.scalar
        return BVElement.deg1(
            GenSection(_d_hat(u, eta), (FourierScalar.zero(dim),) * dim),
            -laplacian(u, eta),
        )
    if x.degree == 1:
        a, v = x.section, x.scalar
        dv = _d_hat(v, eta)
        vec = tuple(l + g for l, g in zip(_lap_tuple(a.vec, eta), dv))
        return BVElement.deg2(
            GenSection(vec, _lap_tuple(a.form, eta)),
            _div_hat(a.form, eta) * _HALF,
        )
    if x.degree == 2:
        at, vt = x.section, x.scalar
        return BVElement.deg3(-_HALF * _div_hat(at.form, eta) + laplacian(vt, eta))
    return BVElement.zero(x.degree + 1, dim)


def Q_eta(x, eta: Metric):
    """The deformed differential Q + R."""
    if isinstance(x, LieValuedBVElement):
        return x.apply(lambda e: Q_eta(e, eta))
    return op_q(x) + R_eta(x, eta)


def structure_check(eta: Metric, samples: int = 6, rng=None, cutoff: int = 2):
    """Residuals of generic R against its slotwise arrow diagram."""
    import random as _random

    rng = rng or _random.Random(0)
    out = []
    for _ in range(samples):
        for degree in range(4):
            x = random_element(rng, eta.dim, cutoff, degree)
            out.append(R_eta(x, eta) - _r_eta_slotwise(x, eta))
    return out


def bracket_laplacian(x: BVElement, eta: Metric) -> BVElement:
    """Delta as the double bracket sum eta^{ij} {f_i, {f_j, x}}."""
    f = flat_sections(eta)
    acc = BVElement.zero(x.degree, x.dim)
    for i, j, w in _eta_pairs(eta):
        acc = acc + brack(f[i], brack(f[j], x)) * w
    return acc


# -- deformed product ------------------------------------------------------


def mu_bar_eta(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """Product correction nu(f_i,{f_j,x},y) - mu(m(f_i,x),{f_j,y}), eta-traced."""
    f = flat_sections(eta)
    acc = BVElement.zero(x.degree + y.degree, x.dim)
    for i, j, w in _eta_pairs(eta):
        acc = acc + nu(f[i], brack(f[j], x), y) * w
        acc = acc - mu(m_op(f[i], x), brack(f[j], y)) * w
    return acc


def _slot_parts(x: BVElement):
    """Split into (label, slot-pure element) pairs; labels follow the table."""
    dim = x.dim
    if x.degree == 0:
        return [("u", x)]
    if x.degree == 1:
        a = BVElement.deg1(x.section)
        v = BVElement.deg1(GenSection.zero(dim), x.scalar)
        return [("A", a), ("v", v)]
    if x.degree == 2:
        at = BVElement.deg2(x.section)
        vt = BVElement.deg2(GenSection.zero(dim), x.scalar)
        return [("At", at), ("vt", vt)]
    return [("ut", x)]


def mu_bar_eta_table(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """The explicit cell table for the product correction (oracle form)."""
    f = flat_sections(eta)
    dim = x.dim
    acc = BVElement.zero(x.degree + y.degree, dim)

    def cell_mm(a_elt, other):
        # common cell shape: -eta^{ij} mu(m(f_i, a_elt), {f_j, other})
        s = BVElement.zero(a_elt.degree + other.degree, dim)
        for i, j, w in _eta_pairs(eta):
            s = s - mu(m_op(f[i], a_elt), brack(f[j], other)) * w
        return s

    for lab1, p1 in _slot_parts(x):
        for lab2, p2 in _slot_parts(y):
            if p1.is_zero() or p2.is_zero():
                continue
            if lab1 == "A" and lab2 == "u":
                acc = acc + cell_mm(p1, p2)
            elif lab1 == "A" and lab2 == "A":
                for i, j, w in _eta_pairs(eta):
                    acc = acc - mu(m_op(f[i], p1), brack(f[j], p2)) * w
                    acc = acc - mu(m_op(brack(f[j], p1), p2), f[i]) * w
                    acc = acc + mu(m_op(f[i], p2), brack(f[j], p1)) * w
            elif lab1 == "vt" and lab2 == "A":
                acc = acc + cell_mm(p2, p1)
            elif lab1 == "A" and lab2 == "vt":
                acc = acc + cell_mm(p1, p2)
    return acc


def mu_eta(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """The deformed product mu + mu_bar."""
    return mu(x, y) + mu_bar_eta(x, y, eta)


def musym_eta(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """Graded-symmetric deformed product."""
    half = GaussRational(_HALF)
    return (mu_eta(x, y, eta) + sign(x.degree * y.degree) * mu_eta(y, x, eta)) * half


# -- deformed homotopy residuals -------------------------------------------


def _ainf_identity_pool(eta: Metric):
    """Named residual callables for the deformed structure.

    Each entry maps a tuple of random degree-homogeneous elements to a
    residual that must vanish exactly.
    """

    def qe(v):
        return Q_eta(v, eta)

    def me(a, b):
        return mu_eta(a, b, eta)

    def mbar(a, b):
        return mu_bar_eta(a, b, eta)

    def d(v):
        return v.degree

    return {
        "q-eta-squared": (1, lambda x: qe(qe(x))),
        "r-eta-squared": (1, lambda x: R_eta(R_eta(x, eta), eta)),
        "q-r-anticommute": (
            1,
            lambda x: op_q(R_eta(x, eta)) + R_eta(op_q(x), eta),
        ),
        "r-slotwise-table": (1, lambda x: R_eta(x, eta) - _r_eta_slotwise(x, eta)),
        "mu-bar-table": (2, lambda x, y: mbar(x, y) - mu_bar_eta_table(x, y, eta)),
        "q-eta-derivation": (
            2,
            lambda x, y: qe(me(x, y)) - me(qe(x), y) - sign(d(x)) * me(x, qe(y)),
        ),
        "homotopy-commutativity": (
            2,
            lambda x, y: me(x, y)
            - sign(d(x) * d(y)) * me(y, x)
            - qe(m_op(x, y))
            - m_op(qe(x), y)
            - sign(d(x)) * m_op(x, qe(y)),
        ),
        "mu-bar-antisymmetry": (
            2,
            lambda x, y: mbar(x, y)
            - sign(d(x) * d(y)) * mbar(y, x)
            - R_eta(m_op(x, y), eta)
            - m_op(R_eta(x, eta), y)
            - sign(d(x)) * m_op(x, R_eta(y, eta)),
        ),
        "r-derivation-of-mu-bar": (
            2,
            lambda x, y: R_eta(mbar(x, y), eta)
            - mbar(R_eta(x, eta), y)
            - sign(d(x)) * mbar(x, R_eta(y, eta)),
        ),
        "q-mu-bar-plus-r-mu": (
            2,
            lambda x, y: R_eta(mu(x, y), eta)
            - mu(R_eta(x, eta), y)
            - sign(d(x)) * mu(x, R_eta(y, eta))
            + op_q(mbar(x, y))
            - mbar(op_q(x), y)
            - sign(d(x)) * mbar(x, op_q(y)),
        ),
        "homotopy-associativity": (
            3,
            lambda x, y, z: me(me(x, y), z)
            - me(x, me(y, z))
            - qe(nu(x, y, z))
            - nu(qe(x), y, z)
            - sign(d(x)) * nu(x, qe(y), z)
            - sign(d(x) + d(y)) * nu(x, y, qe(z)),
        ),
        "c-inf-shuffle": (
            3,
            lambda x, y, z: nusym(x, y, z)
            - sign(d(x) * d(y)) * nusym(y, x, z)
            + sign(d(x) * (d(y) + d(z))) * nusym(y, z, x),
        ),
        "q-eta-derivation-sym": (
            2,
            lambda x, y: qe(musym_eta(x, y, eta))
            - musym_eta(qe(x), y, eta)
            - sign(d(x)) * musym_eta(x, qe(y), eta),
        ),
        "pentagon": (
            4,
            lambda a1, a2, a3, a4: sign(d(a1)) * me(a1, nu(a2, a3, a4))
            + me(nu(a1, a2, a3), a4)
            - nu(me(a1, a2), a3, a4)
            + nu(a1, me(a2, a3), a4)
            - nu(a1, a2, me(a3, a4)),
        ),
    }


def deformed_ainf_residuals(samples: int, eta: Metric, rng=None, cutoff: int = 2):
    """Evaluate every deformed homotopy residual on random elements.

    Returns a list of rows {"id", "samples", "passed"}; "passed" means every
    sampled residual vanished exactly.
    """
    import random as _random

    rng = rng or _random.Random(0)
    rows = []
    for name, (arity, fn) in _ainf_identity_pool(eta).items():
        ok = True
        for _ in range(samples):
            args = [
                random_element(rng, eta.dim, cutoff, rng.randint(0, 3))
                for _ in range(arity)
            ]
            if not fn(*args).is_zero():
                ok = False
        rows.append({"id": f"deform-{name}", "samples": samples, "passed": ok})
    return rows


# -- deformed bracket: destroyed structure witness -------------------------


def deformed_bracket(x: BVElement, y: BVElement, eta: Metric) -> BVElement:
    """Derived bracket of the deformed product (no longer a BV-LZ bracket)."""
    s = sign(x.degree)
    return (
        op_b(mu_eta(x, y, eta))
        - mu_eta(op_b(x), y, eta)
        - s * mu_eta(x, op_b(y), eta)
    ) * s


def deformed_bracket_witness(eta: Metric, rng=None, cutoff: int = 2):
    """A pair of residuals: [Q+R, b] + Delta = 0, and a nonzero derivation defect.

    Returns (commutator_residuals, derivation_defect) where the first list
    must vanish exactly and the second element must be nonzero, witnessing
    that the deformed differential is no longer compatible with b.
    """
    import random as _random

    rng = rng or _random.Random(0)
    comm = []
    for degree in range(4):
        x = random_element(rng, eta.dim, cutoff, degree)
        comm.append(
            Q_eta(op_b(x), eta) + op_b(Q_eta(x, eta)) + bracket_laplacian(x, eta)
        )
    # derivation defect of Q^eta over the deformed bracket on a fixed pair
    x = random_element(rng, eta.dim, cutoff, 1)
    y = random_element(rng, eta.dim, cutoff, 1)
    defect = (
        Q_eta(deformed_bracket(x, y, eta), eta)
        - deformed_bracket(Q_eta(x, eta), y, eta)
        - sign(x.degree - 1) * deformed_bracket(x, Q_eta(y, eta), eta)
    )
    return comm, defect


# -- differential-form subcomplex embeddings -------------------------------


def _one_form_components(arg: DifferentialForm):
    assert arg.degree == 1, "expected a one-form"
    return arg.one_form_components()


def ym_embed(kind: str, arg, eta: Metric) -> BVElement:
    """Embed a form-complex slot into the graded complex.

    kind f1|g1|f2|g2 takes a one-form; f3|g3 take a scalar function.
    """
    dim = eta.dim
    if kind in ("f1", "g1", "f2", "g2"):
        if not (isinstance(arg, DifferentialForm) and arg.degree == 1):
            raise ValueError(f"{kind} expects a one-form")
        comps = _one_form_components(arg)
        # raised vector (B*)^j = eta^{ij} B_i
        star = []
        for j in range(dim):
            s = FourierScalar.zero(dim)
            for i in range(dim):
                w = eta.up(i, j)
                if w:
                    s = s + comps[i] * w
            star.append(s)
        star = tuple(star)
        if kind == "f1":
            return BVElement.deg1(GenSection(star, comps), -_div_hat(comps, eta))
        if kind == "g1":
            return BVElement.deg2(GenSection(star, comps))
        if kind == "f2":
            return BVElement.deg1(GenSection(tuple(-s for s in star), comps))
        return BVElement.deg2(GenSection(tuple(-s for s in star), comps))
    if kind == "f3":
        if not isinstance(arg, FourierScalar):
            raise ValueError("f3 expects a scalar function")
        return BVElement.deg1(GenSection.zero(dim), arg)
    if kind == "g3":
        if not isinstance(arg, FourierScalar):
            raise ValueError("g3 expects a scalar function")
        dv = tuple(arg.derivative(j) for j in range(dim))
        return BVElement.deg2(GenSection(_d_hat(arg, eta), dv), arg)
    raise ValueError(f"unknown embedding kind {kind!r}")


# -- matrix-valued layer ---------------------------------------------------


class MatrixCoefficient:
    """A square matrix of Gaussian rationals (the associative tensor factor)."""

    __slots__ = ("rank", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(GaussRational.coerce(x) for x in row) for row in rows)
        n = len(rows)
        assert all(len(r) == n for r in rows)
        self.rank = n
        self.rows = rows

    @staticmethod
    def zero(rank: int) -> "MatrixCoefficient":
        return MatrixCoefficient([[0] * rank for _ in range(rank)])

    @staticmethod
    def identity(rank: int) -> "MatrixCoefficient":
        return MatrixCoefficient(
            [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
        )

    @staticmethod
    def random(rng, rank: int) -> "MatrixCoefficient":
        return MatrixCoefficient(
            [[random_coefficient(rng) for _ in range(rank)] for _ in range(rank)]
        )

    def __add__(self, other):
        assert isinstance(other, MatrixCoefficient) and other.rank == self.rank
        return MatrixCoefficient(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MatrixCoefficient([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, MatrixCoefficient):
            n = self.rank
            return MatrixCoefficient(
                [
                    [
                        sum(
                            (self.rows[p][r] * other.rows[r][q] for r in range(n)),
                            GaussRational(0),
                        )
                        for q in range(n)
                    ]
                    for p in range(n)
                ]
            )
        return MatrixCoefficient([[a * other for a in row] for row in self.rows])

    __rmul__ = __mul__

    def commutator(self, other) -> "MatrixCoefficient":
        return self * other - other * self

    def is_zero(self) -> bool:
        return all(not a for row in self.rows for a in row)

    def __eq__(self, other):
        if not isinstance(other, MatrixCoefficient):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"MatrixCoefficient({self.rows!r})"


class MatrixFunction:
    """A square matrix of torus scalars with convolution matrix product."""

    __slots__ = ("rank", "dim", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        assert n and all(len(r) == n for r in rows)
        dim = rows[0][0].dim
        assert all(e.dim == dim for row in rows for e in row)
        self.rank = n
        self.dim = dim
        self.rows = rows

    @staticmethod
    def zero(rank: int, dim: int) -> "MatrixFunction":
        z = FourierScalar.zero(dim)
        return MatrixFunction([[z] * rank for _ in range(rank)])

    @staticmethod
    def random(rng, rank: int, dim: int, cutoff: int) -> "MatrixFunction":
        return MatrixFunction(
            [
                [random_scalar(rng, dim, cutoff) for _ in range(rank)]
                for _ in range(rank)
            ]
        )

    def entry(self, p: int, q: int) -> FourierScalar:
        return self.rows[p][q]

    def __add__(self, other):
        assert isinstance(other, MatrixFunction) and other.rank == self.rank
        return MatrixFunction(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MatrixFunction([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, MatrixFunction):
            n = self.rank
            z = FourierScalar.zero(self.dim)
            return MatrixFunction(
                [
                    [
                        sum(
                            (self.rows[p][r] * other.rows[r][q] for r in range(n)),
                            z,
                        )
                        for q in range(n)
                    ]
                    for p in range(n)
                ]
            )
        return MatrixFunction([[a * other for a in row] for row in self.rows])

    __rmul__ = __mul__

    def commutator(self, other) -> "MatrixFunction":
        return self * other - other * self

    def derivative(self, j: int) -> "MatrixFunction":
        return MatrixFunction([[a.derivative(j) for a in row] for row in self.rows])

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

    def __eq__(self, other):
        if not isinstance(other, MatrixFunction):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"MatrixFunction({self.rows!r})"


class LieValuedBVElement:
    """A square matrix of degree-homogeneous BVElements (one per Lie slot)."""

    __slots__ = ("rank", "degree", "dim", "grid")

    def __init__(self, grid):
        grid = tuple(tuple(row) for row in grid)
        n = len(grid)
        assert n and all(len(r) == n for r in grid)
        degree = grid[0][0].degree
        dim = grid[0][0].dim
        for row in grid:
            for e in row:
                assert e.dim == dim
                assert e.degree == degree or e.is_zero()
        self.rank = n
        self.degree = degree
        self.dim = dim
        self.grid = grid

    @staticmethod
    def zero(degree: int, dim: int, rank: int) -> "LieValuedBVElement":
        z = BVElement.zero(degree, dim)
        return LieValuedBVElement([[z] * rank for _ in range(rank)])

    def entry(self, p: int, q: int) -> BVElement:
        return self.grid[p][q]

    def apply(self, fn) -> "LieValuedBVElement":
        return LieValuedBVElement([[fn(e) for e in row] for row in self.grid])

    def __add__(self, other):
        assert isinstance(other, LieValuedBVElement) and other.rank == self.rank
        return LieValuedBVElement(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.grid, other.grid)
            ]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.apply(lambda e: -e)

    def __mul__(self, const):
        return self.apply(lambda e: e * const)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.grid for e in row)

    def __repr__(self):
        return f"LieValuedBVElement(rank={self.rank}, degree={self.degree})"


def tensor_bilinear(op, x: LieValuedBVElement, y: LieValuedBVElement):
    """Matrix-tensored bilinear operation: (p,q) -> sum_r op(x[p][r], y[r][q])."""
    assert x.rank == y.rank
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
    assert x.rank == y.rank == z.rank
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


def lie_q_eta(x: LieValuedBVElement, eta: Metric) -> LieValuedBVElement:
    """Entrywise deformed differential on matrix-valued elements."""
    return x.apply(lambda e: Q_eta(e, eta))


# -- Maurer-Cartan theory --------------------------------------------------


def mc_from_fields(avec, bform, eta: Metric) -> LieValuedBVElement:
    """Degree-1 matrix element from vector/one-form component matrices.

    avec and bform are length-dim lists of MatrixFunction (A^j and B_j).  The
    scalar slot is fixed to -(div A + div-hat B)/2 entrywise, the gauge slice
    on which the Maurer-Cartan residual has no scalar component.
    """
    dim = eta.dim
    rank = avec[0].rank
    grid = []
    for p in range(rank):
        row = []
        for q in range(rank):
            vec = tuple(avec[j].entry(p, q) for j in range(dim))
            form = tuple(bform[j].entry(p, q) for j in range(dim))
            a = GenSection(vec, form)
            v = -_HALF * (divergence(a) + _div_hat(form, eta))
            row.append(BVElement.deg1(a, v))
        grid.append(row)
    return LieValuedBVElement(grid)


def mc_residual(psi: LieValuedBVElement, eta: Metric) -> LieValuedBVElement:
    """Left side of the generalized field equation for a degree-1 element."""
    if psi.degree != 1:
        raise ValueError("Maurer-Cartan element must have degree 1")
    qpart = lie_q_eta(psi, eta)
    mupart = tensor_bilinear(lambda a, b: musym_eta(a, b, eta), psi, psi)
    nupart = tensor_trilinear(nusym, psi, psi, psi)
    return qpart + mupart + nupart


def gauge_variation(
    psi: LieValuedBVElement, u: LieValuedBVElement, eta: Metric
) -> LieValuedBVElement:
    """Infinitesimal gauge move Q u + mu(psi,u) - mu(u,psi) (matrix-tensored)."""
    if u.degree != 0:
        raise ValueError("gauge parameter must have degree 0")
    me = lambda a, b: musym_eta(a, b, eta)
    return (
        lie_q_eta(u, eta)
        + tensor_bilinear(me, psi, u)
        - tensor_bilinear(me, u, psi)
    )


def dictionary_fields(psi: LieValuedBVElement, eta: Metric):
    """Slot dictionary to the gauge field and adjoint scalar components.

    Returns (calA, phi): length-dim lists of MatrixFunction with
    calA_k = (B_k + eta_{kj} A^j)/2 and phi_k = (B_k - eta_{kj} A^j)/2.
    """
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


def _cov_deriv(calA, i: int, t: MatrixFunction) -> MatrixFunction:
    """[nabla_i, T] = d_i T + [calA_i, T]."""
    return t.derivative(i) + calA[i].commutator(t)


def ym_field_residual(calA, phi, eta: Metric):
    """Covariant field equations for the (gauge field, adjoint scalars) pair.

    Returns (e1, e2): per-direction matrix residuals of
    eta^{ij}[nabla_i,[nabla_j,nabla_k]] - eta^{ij}[[nabla_k,phi_i],phi_j] and
    eta^{ij}[nabla_i,[nabla_j,phi_k]] - eta^{ij}[phi_i,[phi_j,phi_k]].
    """
    dim = len(calA)
    rank = calA[0].rank
    fdim = calA[0].dim

    def curvature(j, k):
        return (
            calA[k].derivative(j)
            - calA[j].derivative(k)
            + calA[j].commutator(calA[k])
        )

    e1, e2 = [], []
    for k in range(dim):
        r1 = MatrixFunction.zero(rank, fdim)
        r2 = MatrixFunction.zero(rank, fdim)
        for i, j, w in _eta_pairs(eta):
            r1 = r1 + w * _cov_deriv(calA, i, curvature(j, k))
            r1 = r1 - w * _cov_deriv(calA, k, phi[i]).commutator(phi[j])
            r2 = r2 + w * _cov_deriv(calA, i, _cov_deriv(calA, j, phi[k]))
            r2 = r2 - w * phi[i].commutator(phi[j].commutator(phi[k]))
        e1.append(r1)
        e2.append(r2)
    return e1, e2


def _fit_constant(lhs, rhs):
    """Fit lhs == c * rhs over matched matrix-function lists; None if failed."""
    c = None
    for l, r in zip(lhs, rhs):
        for p in range(l.rank):
            for q in range(l.rank):
                f = r.entry(p, q)
                if f.is_zero():
                    continue
                mode, coeff = next(iter(f.coeffs.items()))
                target = l.entry(p, q).coeffs.get(mode)
                if target is None:
                    return None
                c = target / coeff
                break
            if c is not None:
                break
        if c is not None:
            break
    return c


def mc_vs_ym_compare(psi: LieValuedBVElement, eta: Metric, calibration=None):
    """Match the Maurer-Cartan residual against the covariant field equations.

    The degree-2 residual of psi is unpacked into the raised/lowered slot
    combinations xi_k +- eta_{kj} Xtilde^j and compared with the two field
    residual families under per-family constants.  Constants are taken from
    ``calibration`` when given, otherwise fitted on this sample; the report
    carries them under "calibration" as exact rationals.
    """
    dim, rank = psi.dim, psi.rank
    res = mc_residual(psi, eta)
    calA, phi = dictionary_fields(psi, eta)
    e1, e2 = ym_field_residual(calA, phi, eta)

    # unpack residual slots into per-direction matrix functions
    aslot, pslot = [], []
    vtilde_zero = True
    for k in range(dim):
        arows, prows = [], []
        for p in range(rank):
            arow, prow = [], []
            for q in range(rank):
                e = res.entry(p, q)
                if not e.scalar.is_zero():
                    vtilde_zero = False
                sec = e.section if e.section is not None else GenSection.zero(dim)
                lowered = FourierScalar.zero(dim)
                for j in range(dim):
                    w = eta.down(k, j)
                    if w:
                        lowered = lowered + sec.vec[j] * w
                xi = sec.form[k]
                arow.append(xi + lowered)
                prow.append(xi - lowered)
            arows.append(arow)
            prows.append(prow)
        aslot.append(MatrixFunction(arows))
        pslot.append(MatrixFunction(prows))

    if calibration is None:
        c1 = _fit_constant(aslot, e1)
        c2 = _fit_constant(pslot, e2)
    else:
        c1, c2 = calibration
    match = c1 is not None and c2 is not None
    if match:
        for k in range(dim):
            if not (aslot[k] - c1 * e1[k]).is_zero():
                match = False
            if not (pslot[k] - c2 * e2[k]).is_zero():
                match = False
    return {
        "calibration": (c1, c2),
        "match": match,
        "vtilde_zero": vtilde_zero,
    }
