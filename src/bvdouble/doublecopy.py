"""Double-copy structures: the C-bracket and the doubled-torus bivector system.

The C-bracket of vector fields on T^D is Jacobi only on constrained fields,
such as the family along one eta-null covector that ``null_family_field``
draws.  A doubled scalar is a plain ``FourierScalar`` on T^{2D}, with d_i
along the first D axes and dt^i along the last D; only the report splits its
modes into "k" and "ktilde", through the ``serialize.Doubled`` tag.  On T^{2D}
live the cross-sector wave operator and strong-constraint residual, and the
bivectors g^{kl}, one leg per sector, with the double bracket [[g, h]], the
divergence div_Omega against e^{-2 phi} vol and the Maurer-Cartan residuals
[[g, g]] + L_{div_Omega(g)} g and div_Omega(div_Omega(g)), which sum the Lie
derivative and divergence terms of div_Omega(g) in place.  Each refuses
inputs that are not on one doubled torus with ``ValueError``.
"""

from __future__ import annotations

from itertools import chain, product
from operator import mul

from .scalars import (
    FourierScalar,
    Metric,
    SquareGrid,
    _random_scalars,
    laplacian,
    randbelow,
    random_coefficient,
    sum_of_products,
)
from .sections import _HALF, _jacobian

__all__ = [
    "c_half_bracket",
    "c_bracket",
    "c_jacobiator",
    "wave_constraint",
    "pair_constraint",
    "null_covector",
    "null_family_field",
    "random_vector_field",
    "delta_minus",
    "section_pair_residual",
    "Bivector",
    "double_bracket",
    "div_omega",
    "bivector_mc_residual",
    "random_doubled_scalar",
    "random_bivector",
]


# -- the C-bracket on vector fields ----------------------------------------
#
# Vector fields are tuples of FourierScalar holding the contravariant
# components A^j; all index raising/lowering uses the constant metric eta.


def c_half_bracket(a, b, eta: Metric):
    """The one-sided expression F(A,B)^j = A^i d_i B^j - d_i A^j B^i
    + eta^{rj} eta_{kl} d_r A^k B^l (not antisymmetric on its own)."""
    return _c_form(a, b, eta, 1, 0)


def c_bracket(a, b, eta: Metric):
    """The C-bracket (F(A,B) - F(B,A)) / 2 in closed form.  F(A,B) and -F(B,A)
    share the transport part A^i d_i B^j - B^i d_i A^j, which the halving keeps
    whole; their eta-corrections differ, so that

        [A,B]^j = A^i d_i B^j - B^i d_i A^j + 1/2 eta^{rj} (d_r A^k B_k - d_r B^k A_k).
    """
    return _c_form(a, b, eta, _HALF, _HALF)


def _c_form(a, b, eta: Metric, p, q):
    """A^i d_i B^j - B^i d_i A^j + eta^{rj} (p d_r A^k B_k - q d_r B^k A_k): one
    sum of products per component plus the raised correction, itself one sum."""
    a, b = tuple(a), tuple(b)
    n = len(a)
    if not len(b) == n == eta.dim:
        raise ValueError(f"fields of {n} and {len(b)} components on a {eta.dim}-dim metric")
    dim, r = a[0].dim, range(n)
    da, db = _jacobian(a), _jacobian(b)
    a_low, b_low = ([x * w for x in eta.lower_index(f)] for f, w in ((a, q), (b, p)))
    graded = [
        sum_of_products(dim, [(da[k][s], b_low[k]) for k in r], [(db[k][s], a_low[k]) for k in r])
        for s in r
    ]
    up = eta.raise_index(graded)
    return tuple(
        sum_of_products(dim, [(a[i], db[j][i]) for i in r], [(b[i], da[j][i]) for i in r]) + up[j]
        for j in r
    )


def c_jacobiator(a, b, c, eta: Metric):
    """Cyclic Jacobiator [[A,B],C] + [[B,C],A] + [[C,A],B] of the C-bracket.

    Nonzero for generic fields.  On fields whose modes run along a single
    eta-null covector n (so the wave and pair constraints hold) the
    Jacobiator collapses to a gradient along the raised covector n^sharp;
    it vanishes identically when every field's oscillating part is also
    polarized along n^sharp.
    """
    j1 = c_bracket(c_bracket(a, b, eta), c, eta)
    j2 = c_bracket(c_bracket(b, c, eta), a, eta)
    j3 = c_bracket(c_bracket(c, a, eta), b, eta)
    return tuple(p + q + r for p, q, r in zip(j1, j2, j3))


def wave_constraint(a, eta: Metric):
    """Componentwise eta-wave residuals eta^{ij} d_i d_j A^k."""
    return tuple(laplacian(comp, eta) for comp in a)


def pair_constraint(a, b, eta: Metric):
    """Gradient-product residuals eta^{ij} d_i A^k d_j B^l for all k, l."""
    a = tuple(a)
    dim, b_up = a[0].dim, [eta.gradient(c) for c in b]
    return tuple(tuple(sum_of_products(dim, zip(da, up)) for up in b_up) for da in _jacobian(a))


def null_covector(eta: Metric, search: int = 6):
    """A small nonzero integer covector n with eta^{ij} n_i n_j = 0, or None.

    Definite metrics admit none and return None at once; otherwise the
    search runs in order of increasing max-norm up to the bound, on the
    integer form ``Metric.quadratic``.
    """
    if eta.is_definite():
        return None
    for s in range(1, search + 1):
        for n in product(range(-s, s + 1), repeat=eta.dim):
            if max(map(abs, n)) == s and not eta.quadratic(n):
                return n
    return None


def null_family_field(rng, eta: Metric, direction, cutoff: int, aligned: bool = True):
    """A random vector field with all modes along the given null covector n.

    The oscillating part is a sum of harmonics e^{i m (n.x)}, 1 <= |m| <=
    cutoff, plus a random constant vector, so the wave constraint holds for
    the field and the pair constraint holds for any two members of the
    family sharing n.  With aligned=True the oscillating part is polarized
    along the raised covector n^sharp = eta^{.r} n_r; that subfamily is
    closed under the C-bracket and strictly Jacobi.  With aligned=False the
    polarization is a random constant vector, which keeps the constraints
    but leaves the Jacobiator a gradient along n^sharp.  When direction is
    None (definite metric), constant fields are produced.
    """
    n = eta.dim
    const = [random_coefficient(rng) for _ in range(n)]
    if direction is None:
        return tuple(FourierScalar.const(n, c) for c in const)
    sharp = eta.raise_index(direction)
    nonzero = [s for s in range(-cutoff, cutoff + 1) if s]
    profiles = []
    for _ in range(1 + randbelow(rng.getrandbits, 2)):
        m = nonzero[randbelow(rng.getrandbits, len(nonzero))]
        mode = tuple(m * d for d in direction)
        if aligned:
            pol = sharp
        else:
            pol = tuple(random_coefficient(rng) for _ in range(n))
        profiles.append((mode, random_coefficient(rng), pol))
    out = []
    for k in range(n):
        coeffs = {(0,) * n: const[k]}
        for mode, c, pol in profiles:
            if not pol[k]:
                continue
            prev = coeffs.get(mode)
            term = c * pol[k]
            coeffs[mode] = term if prev is None else prev + term
        out.append(FourierScalar(n, coeffs))
    return tuple(out)


def random_vector_field(rng, dim: int, cutoff: int):
    """A random unconstrained vector field (sparse Fourier components)."""
    return tuple(_random_scalars(rng, dim, cutoff, dim))


# -- doubled scalars -------------------------------------------------------


def _halfdim(*xs) -> int:
    """n, for scalars and bivectors ``xs`` that all live on one T^{2n}."""
    dim = xs[0].dim
    if dim % 2 or any(x.dim != dim for x in xs):
        raise ValueError(f"not on one doubled torus: dimensions {[x.dim for x in xs]}")
    return dim // 2


class _Jet:
    """A scalar f on T^{2n} with its d_i f, dt^i f and (if mixed) d_i dt^j f,
    from one pass over f: the symbols i k_i, i kt_i and -k_i kt_j."""

    __slots__ = ("f", "x", "t", "xt")

    def __init__(self, f: FourierScalar, n: int, mixed: bool = False):
        self.f = f
        mix = (lambda k: k + tuple(a * b for a in k[:n] for b in k[n:])) if mixed else tuple
        d = f.symbols((1,) * (2 * n) + (2,) * (n * n if mixed else 0), mix)
        self.x, self.t = d[:n], d[n : 2 * n]
        self.xt = [d[j : j + n] for j in range(2 * n, len(d), n)] if mixed else None


def delta_minus(f: FourierScalar) -> FourierScalar:
    """The cross-sector wave operator 2 sum_i d_i dt^i; modewise -2 k.kt, the
    symbol of order 2 with P(k, kt) = 2 k.kt."""
    n = _halfdim(f)
    (out,) = f.symbols((2,), lambda k: (2 * sum(map(mul, k[:n], k[n:])),))
    return out


def section_pair_residual(f: FourierScalar, g: FourierScalar) -> FourierScalar:
    """The strong-constraint residual sum_i (d_i f dt^i g + dt^i f d_i g)."""
    n = _halfdim(f, g)
    fj, gj = _Jet(f, n), _Jet(g, n)
    return sum_of_products(2 * n, chain(zip(fj.x, gj.t), zip(fj.t, gj.x)))


# -- bivectors on the doubled torus ----------------------------------------


class Bivector(SquareGrid):
    """A D x D grid g^{kl} of scalars on T^{2D}, one leg per sector."""

    __slots__ = ()
    ENTRY = FourierScalar

    def __init__(self, rows):
        super().__init__(rows)
        if self.dim != 2 * self.rank:
            raise ValueError(f"a rank-{self.rank} bivector needs entries on T^{2 * self.rank}")


# Each kernel takes the jet of each input entry once and writes each output
# entry as one ``sum_of_products``; the ``_*_terms`` helpers return its
# (plus, minus) product pairs from grids or lists of ``_Jet``.


def _jets(g: Bivector, mixed: bool = False, scale: int = 1):
    return [[_Jet(s * scale, g.rank, mixed) for s in row] for row in g.rows]


def _bracket_terms(both):
    """The pairs of each entry of [[g, h]], row-major, from the mixed jets of
    the grid pairs (a, b) in ``both``: (g, h) and (h, g), or, for [[g, g]],
    the one pair (g, 2g), so that each product of [[g, g]] is listed once."""
    r = range(len(both[0][0]))
    return [
        (
            [(a[i][j].f, b[k][l].xt[i][j]) for a, b in both for i in r for j in r],
            [(a[k][j].x[i], b[i][l].t[j]) for a, b in both for i in r for j in r],
        )
        for k in r
        for l in r
    ]


def _lie_terms(v, vt, g):
    """The pairs of each entry of L_w g, row-major, for w = (v, vt)."""
    r = range(len(g))
    return [
        (
            [(v[i].f, g[k][l].x[i]) for i in r] + [(vt[i].f, g[k][l].t[i]) for i in r],
            [(g[i][l].f, v[k].x[i]) for i in r] + [(g[k][i].f, vt[l].t[i]) for i in r],
        )
        for k in r
        for l in r
    ]


def _div_terms(fs, dfs, dphi):
    """The pairs of sum (df - 2 f dphi) over matching entries of the three lists."""
    one = FourierScalar.one(fs[0].dim)
    return [(d, one) for d in dfs], [(f, d * 2) for f, d in zip(fs, dphi)]


def _omega_terms(g, phi: _Jet):
    """The pairs of each component of div_Omega g, v then vt."""
    r = range(len(g))
    v = [_div_terms([g[k][j].f for j in r], [g[k][j].t[j] for j in r], phi.t) for k in r]
    return v + [_div_terms([g[i][l].f for i in r], [g[i][l].x[i] for i in r], phi.x) for l in r]


def _vector_terms(v, vt, phi: _Jet):
    """The pairs of the weighted divergence of the split vector field (v, vt)."""
    dfs = [s.x[i] for i, s in enumerate(v)] + [s.t[i] for i, s in enumerate(vt)]
    return _div_terms([s.f for s in v + vt], dfs, phi.x + phi.t)


def _bivector(n: int, terms) -> Bivector:
    """The bivector whose row-major entries are the signed sums of ``terms``."""
    entries = [sum_of_products(2 * n, *t) for t in terms]
    return Bivector([entries[k * n : (k + 1) * n] for k in range(n)])


def double_bracket(g: Bivector, h: Bivector) -> Bivector:
    """[[g,h]]^{kl} = sum_{ij} ( g^{ij} d_i dt_j h^{kl} + h^{ij} d_i dt_j g^{kl}
    - d_i g^{kj} dt_j h^{il} - d_i h^{kj} dt_j g^{il} );  symmetric in g, h."""
    n = _halfdim(g, h)
    gj = _jets(g, True)
    both = ((gj, _jets(g, True, 2)),) if h is g else ((gj, hj := _jets(h, True)), (hj, gj))
    return _bivector(n, _bracket_terms(both))


def div_omega(g: Bivector, phi: FourierScalar):
    """Volume-weighted divergence of a bivector, one vector per sector:

        v^k  = sum_j ( dt_j g^{kj} - 2 g^{kj} dt_j phi ),
        vt^l = sum_i ( d_i g^{il} - 2 g^{il} d_i phi ),

    the divergence against the weighted volume e^{-2 phi} vol."""
    n = _halfdim(g, phi)
    comps = [sum_of_products(2 * n, *t) for t in _omega_terms(_jets(g), _Jet(phi, n))]
    return tuple(comps[:n]), tuple(comps[n:])


def bivector_mc_residual(g: Bivector, phi: FourierScalar):
    """The two Maurer-Cartan residuals of a bivector with volume shift phi:

        [[g, g]] + L_{div_Omega(g)} g      (a bivector)
        div_Omega(div_Omega(g))            (a scalar)

    Both vanish for constant g with phi = 0; for divergence-free g the first
    reduces to [[g, g]] alone.  Each entry of the first is one sum over its
    bracket and Lie pairs; the jets of g and of div_Omega(g) are taken once."""
    n = _halfdim(g, phi)
    gj, pj = _jets(g, True), _Jet(phi, n)
    div = [_Jet(sum_of_products(2 * n, *t), n) for t in _omega_terms(gj, pj)]
    v, vt = div[:n], div[n:]
    pairs = zip(_bracket_terms(((gj, _jets(g, True, 2)),)), _lie_terms(v, vt, gj))
    tensor = _bivector(n, [(bp + lp, bm + lm) for (bp, bm), (lp, lm) in pairs])
    return tensor, sum_of_products(2 * n, *_vector_terms(v, vt, pj))


# -- randomised inputs -----------------------------------------------------


def random_doubled_scalar(rng, halfdim: int, cutoff: int, sector: str = "both"):
    """A sparse random scalar on T^{2 halfdim}; sector limits modes to "x",
    "xt" or "both".  Every axis is drawn; the axes outside the sector read 0."""
    kept = {"x": range(halfdim), "xt": range(halfdim, 2 * halfdim), "both": range(2 * halfdim)}
    if sector not in kept:
        raise ValueError(f"unknown sector {sector!r}")
    return _random_scalars(rng, 2 * halfdim, cutoff, 1, kept=kept[sector])[0]


def random_bivector(rng, halfdim: int, cutoff: int) -> Bivector:
    """A random bivector with sparse entries on T^{2 halfdim}, row by row."""
    return Bivector._like(_random_scalars(rng, 2 * halfdim, cutoff, halfdim * halfdim))
