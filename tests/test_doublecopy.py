"""C-bracket kinematics and the doubled-torus bivector sector."""

import random
import subprocess
import sys
from fractions import Fraction

import doublecopy_oracle as oracle
import pytest

from bvdouble.doublecopy import (
    Bivector,
    bivector_mc_residual,
    c_bracket,
    c_half_bracket,
    c_jacobiator,
    delta_minus,
    div_omega,
    double_bracket,
    null_covector,
    null_family_field,
    pair_constraint,
    random_bivector,
    random_doubled_scalar,
    random_vector_field,
    section_pair_residual,
    wave_constraint,
)
from bvdouble.scalars import FourierScalar, GaussRational, Metric, random_scalar

DIM = 3
LORENTZ = Metric.diagonal([1, 1, -1])
I = GaussRational(0, 1)


@pytest.fixture
def rng():
    return random.Random(55511)


def _harm(mode, coeff=1):
    return FourierScalar.harmonic(DIM, mode, coeff)


def _coeffs(f):
    return dict(f.coeffs)


# -- the C-bracket on vector fields ----------------------------------------


def test_bracket_value_on_crafted_fields():
    a = (_harm((1, 0, 0)), _harm((0, 1, 0), 2), _harm((0, 0, 0)))
    b = (_harm((0, 0, 1)), _harm((0, 0, 0), I), _harm((0, 1, 0)))
    out = c_bracket(a, b, LORENTZ)
    half = GaussRational(Fraction(1, 2))
    assert _coeffs(out[0]) == {(0, 0, 1): I, (1, 0, 1): I * half * -1}
    assert _coeffs(out[1]) == {(0, 1, 0): GaussRational(1) + I * half}
    assert _coeffs(out[2]) == {(0, 2, 0): I * 2, (1, 0, 1): I * half}


def test_bracket_antisymmetry_and_self_annihilation(rng):
    for _ in range(6):
        a = random_vector_field(rng, DIM, 2)
        b = random_vector_field(rng, DIM, 2)
        fwd = c_bracket(a, b, LORENTZ)
        rev = c_bracket(b, a, LORENTZ)
        assert all((p + q).is_zero() for p, q in zip(fwd, rev))
        assert all(c.is_zero() for c in c_bracket(a, a, LORENTZ))


def test_constant_fields_transport_without_correction(rng):
    const = tuple(
        FourierScalar.const(DIM, GaussRational(rng.randint(-3, 3)))
        for _ in range(DIM)
    )
    b = random_vector_field(rng, DIM, 2)
    out = c_half_bracket(const, b, LORENTZ)
    for j in range(DIM):
        expect = sum(
            (const[i] * b[j].derivative(i) for i in range(DIM)),
            FourierScalar.zero(DIM),
        )
        assert (out[j] - expect).is_zero()


def test_bracket_reduces_to_lie_on_metric_orthogonal_profiles(rng):
    # slot-disjoint fields never meet through the diagonal metric pairing
    f = _harm((1, 0, 0), 2) + _harm((0, 0, 1), I)
    g = _harm((0, 1, 0)) + _harm((1, 1, 0), 3)
    zero = FourierScalar.zero(DIM)
    a = (f, zero, zero)
    b = (zero, g, zero)
    out = c_bracket(a, b, LORENTZ)
    lie = tuple(
        sum(
            (a[i] * b[j].derivative(i) - b[i] * a[j].derivative(i) for i in range(DIM)),
            zero,
        )
        for j in range(DIM)
    )
    assert all((p - q).is_zero() for p, q in zip(out, lie))


def test_jacobiator_value_on_crafted_triple():
    wa = tuple(_harm(m) for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    wb = tuple(_harm(m, I) for m in [(0, 0, 1), (1, 0, 0), (0, 1, 0)])
    wc = tuple(_harm(m) for m in [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    jac = c_jacobiator(wa, wb, wc, LORENTZ)
    q = lambda n, d=4: GaussRational(0, Fraction(n, d))
    assert _coeffs(jac[0]) == {
        (0, 2, 2): q(-4),
        (1, 1, 2): q(3),
        (1, 2, 1): q(-3),
        (2, 0, 2): q(2),
        (2, 1, 1): q(2),
        (2, 2, 0): q(-4),
    }
    assert _coeffs(jac[1]) == {
        (0, 2, 2): q(4),
        (1, 1, 2): q(-3),
        (1, 2, 1): q(-2),
        (2, 0, 2): q(-4),
        (2, 1, 1): q(5),
        (2, 2, 0): q(-2),
    }
    assert _coeffs(jac[2]) == {
        (0, 2, 2): q(-2),
        (1, 1, 2): q(2),
        (1, 2, 1): q(1),
        (2, 0, 2): q(-4),
        (2, 1, 1): q(-3),
    }


# -- null families and constraints -----------------------------------------


def test_null_covector_search():
    n = null_covector(LORENTZ)
    assert n is not None and any(n)
    assert sum(LORENTZ.upper[i][j] * n[i] * n[j] for i in range(DIM) for j in range(DIM)) == 0
    assert null_covector(Metric.diagonal([1, 1, 1])) is None


def test_null_covector_on_named_metrics():
    q = Fraction(1, 4)
    dense = Metric([[5 * q, 3 * q, 0], [3 * q, 5 * q, 0], [0, 0, -1]])
    assert null_covector(LORENTZ) == (-1, 0, -1)
    assert null_covector(dense) == (-1, 1, -1)


@pytest.mark.parametrize("sign", [1, -1])
def test_definite_metrics_have_no_null_covector_without_a_search(sign):
    # a D=6 search over max-norm <= 6 would visit 13^6 vectors; the exact
    # definiteness test answers at once
    tridiagonal = [
        [sign * (2 if i == j else 1 if abs(i - j) == 1 else 0) for j in range(6)]
        for i in range(6)
    ]
    assert null_covector(Metric(tridiagonal), search=10**6) is None
    assert null_covector(Metric.diagonal([sign * Fraction(k, 3) for k in range(1, 7)])) is None


def test_aligned_family_is_constrained_and_jacobi(rng):
    n = null_covector(LORENTZ)
    fields = [null_family_field(rng, LORENTZ, n, 2, aligned=True) for _ in range(3)]
    for a in fields:
        assert all(c.is_zero() for c in wave_constraint(a, LORENTZ))
    for a in fields:
        for b in fields:
            assert all(
                c.is_zero() for row in pair_constraint(a, b, LORENTZ) for c in row
            )
    jac = c_jacobiator(*fields, LORENTZ)
    assert all(c.is_zero() for c in jac)


def test_unaligned_family_jacobiator_points_along_the_raised_null(rng):
    n = null_covector(LORENTZ)
    nsharp = tuple(
        sum(LORENTZ.upper[j][r] * n[r] for r in range(DIM)) for j in range(DIM)
    )
    seen_nonzero = False
    for _ in range(8):
        fields = [
            null_family_field(rng, LORENTZ, n, 2, aligned=False) for _ in range(3)
        ]
        jac = c_jacobiator(*fields, LORENTZ)
        if any(not c.is_zero() for c in jac):
            seen_nonzero = True
        for j in range(DIM):
            for k in range(j + 1, DIM):
                cross = jac[j] * nsharp[k] - jac[k] * nsharp[j]
                assert cross.is_zero()
    assert seen_nonzero


# -- doubled scalars -------------------------------------------------------
#
# A doubled scalar is a FourierScalar on T^{2n}: mode (k, kt) is k + kt.


def _doubled(k, kt, coeff=1):
    return FourierScalar.harmonic(2 * len(k), tuple(k) + tuple(kt), coeff)


def test_cross_sector_wave_operator_eigenvalue():
    f = _doubled((1, 2), (3, -1), GaussRational(1))
    out = delta_minus(f)
    # eigenvalue -2 k.kt = -2 (1*3 + 2*(-1)) = -2
    assert out == _doubled((1, 2), (3, -1), GaussRational(-2))


def test_single_sector_functions_are_wave_closed(rng):
    fx = random_doubled_scalar(rng, 2, 2, sector="x")
    ft = random_doubled_scalar(rng, 2, 2, sector="xt")
    assert delta_minus(fx).is_zero()
    assert delta_minus(ft).is_zero()
    with pytest.raises(ValueError):
        random_doubled_scalar(rng, 2, 2, sector="t")


def test_strong_constraint_same_and_cross_sector(rng):
    fx = _doubled((1, 0), (0, 0))
    gx = _doubled((0, 1), (0, 0), I)
    assert delta_minus(fx).is_zero() and delta_minus(gx).is_zero()
    assert section_pair_residual(fx, gx).is_zero()
    ft = _doubled((0, 0), (1, 0))
    assert delta_minus(ft).is_zero()
    assert not section_pair_residual(fx, ft).is_zero()


# -- bivectors -------------------------------------------------------------


def test_bivector_inputs_are_validated_without_assert(rng):
    # only pytest.raises below, so the test means the same under python -O
    f2, f3 = random_doubled_scalar(rng, 2, 1), random_doubled_scalar(rng, 3, 1)
    for rows, error in [
        ([], ValueError),
        ([[f2, f2]], ValueError),
        ([[f2, f2], [f2]], ValueError),
        ([[f2, GaussRational(1)], [f2, f2]], TypeError),
        ([[f2, FourierScalar.zero(2)], [f2, f2]], ValueError),
        ([[f3, f3], [f3, f3]], ValueError),
    ]:
        with pytest.raises(error):
            Bivector(rows)
    two, three = random_bivector(rng, 2, 1), random_bivector(rng, 3, 1)
    with pytest.raises(ValueError):
        two + three
    with pytest.raises(ValueError):
        two - three
    with pytest.raises(TypeError):
        two + f2
    with pytest.raises(ValueError):
        double_bracket(two, three)


def test_doubled_kernels_refuse_an_odd_torus(rng):
    odd = random_scalar(rng, 3, 1)
    for call in (
        lambda: delta_minus(odd),
        lambda: section_pair_residual(odd, odd),
        lambda: div_omega(random_bivector(rng, 1, 1), FourierScalar.zero(3)),
    ):
        with pytest.raises(ValueError, match="doubled torus"):
            call()


def test_doubled_kernels_refuse_mismatched_tori(rng):
    f2, f3 = random_doubled_scalar(rng, 2, 1), random_doubled_scalar(rng, 3, 1)
    two, three = random_bivector(rng, 2, 1), random_bivector(rng, 3, 1)
    for call in (
        lambda: section_pair_residual(f2, f3),
        lambda: section_pair_residual(f3, f2),
        lambda: double_bracket(two, three),
        lambda: div_omega(two, f3),
        lambda: div_omega(three, f2),
        lambda: bivector_mc_residual(two, f3),
        lambda: bivector_mc_residual(three, FourierScalar.zero(5)),
    ):
        with pytest.raises(ValueError, match="doubled torus"):
            call()


def test_operand_checks_survive_optimize(subprocess_env):
    # under ``python -O`` a stripped check would let both calls run on
    code = (
        "from bvdouble.bvcomplex import BVElement\n"
        "from bvdouble.bvops import mu\n"
        "from bvdouble.doublecopy import Bivector, delta_minus\n"
        "from bvdouble.scalars import FourierScalar\n"
        "for call in (\n"
        "    lambda: mu(BVElement.zero(0, 2), BVElement.zero(0, 3)),\n"
        "    lambda: Bivector([[FourierScalar.zero(3)]]),\n"
        "    lambda: delta_minus(FourierScalar.zero(3)),\n"
        "):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\nrefused\nrefused\n"


def test_double_bracket_symmetry_and_bilinearity(rng):
    g = random_bivector(rng, 2, 1)
    h = random_bivector(rng, 2, 1)
    k = random_bivector(rng, 2, 1)
    assert double_bracket(g, h) == double_bracket(h, g)
    lhs = double_bracket(g + h, k)
    rhs = double_bracket(g, k) + double_bracket(h, k)
    assert (lhs - rhs).is_zero()
    assert (double_bracket(g * 3, k) - double_bracket(g, k) * 3).is_zero()


def test_constant_bivector_is_flat(rng):
    g = random_bivector(rng, 2, 0)
    tensor, scalar = bivector_mc_residual(g, FourierScalar.zero(4))
    assert tensor.is_zero() and scalar.is_zero()


def test_mc_residual_value_on_diagonal_profile():
    h = 3
    gammas = [GaussRational(1), GaussRational(2), GaussRational(Fraction(1, 2))]
    z = FourierScalar.zero(2 * h)
    rows = [[z] * h for _ in range(h)]
    for a, gm in enumerate(gammas):
        rows[a][a] = _doubled((1, 0, 0), (0, 1, 0), gm)
    g = Bivector(rows)
    tensor, scalar = bivector_mc_residual(g, z)
    assert scalar.is_zero()
    expected = _doubled((2, 0, 0), (0, 2, 0), GaussRational(8))
    for p in range(h):
        for q in range(h):
            e = tensor.entry(p, q)
            if (p, q) == (1, 0):
                assert e == expected
            else:
                assert e.is_zero()


def test_divergence_free_profile_reduces_to_the_self_bracket(rng):
    h = 2
    seed = random_doubled_scalar(rng, h, 2, sector="x")
    zero = FourierScalar.zero(2 * h)
    rows = [[zero] * h for _ in range(h)]
    for col in range(h):
        rows[0][col] = seed.derivative(1)
        rows[1][col] = -seed.derivative(0)
    g = Bivector(tuple(tuple(r) for r in rows))
    phi = zero
    vec, tvec = div_omega(g, phi)
    assert all(v.is_zero() for v in vec) and all(v.is_zero() for v in tvec)
    tensor, scalar = bivector_mc_residual(g, phi)
    assert (tensor - double_bracket(g, g)).is_zero()
    assert scalar.is_zero()


def test_generic_profile_has_a_nonzero_residual(rng):
    seen = False
    for _ in range(4):
        g = random_bivector(rng, 2, 1)
        phi = random_doubled_scalar(rng, 2, 1)
        tensor, scalar = bivector_mc_residual(g, phi)
        if not tensor.is_zero() or not scalar.is_zero():
            seen = True
    assert seen


# -- the weighted divergences against their closed forms -------------------
#
# On single harmonics g^{ab} = c_ab e^{i m_ab} and phi = p e^{i q}, with
# m = (k, kt) and q = (q, qt), each derivative is a factor i k and each
# product shifts the mode by q:
#
#   v^a  = sum_j ( i kt_j(m_aj) c_aj e^{i m_aj} - 2 i p qt_j c_aj e^{i (m_aj + q)} ),
#   vt^b = sum_i ( i k_i(m_ib) c_ib e^{i m_ib} - 2 i p q_i c_ib e^{i (m_ib + q)} ),
#
# and the divergence of a split vector (a_i e^{i m_i}, b_i e^{i mt_i}) is the
# same sum over the x-sector components plus the one over the x~-sector ones.


def _nonzero_mode(rng, n):
    return tuple(rng.choice((-2, -1, 1, 2)) for _ in range(2 * n))


def _gauss(rng):
    return GaussRational(rng.randint(1, 3), rng.choice((-2, -1, 1, 2)))


def _modewise(n, terms):
    """The doubled scalar sum of c e^{i mode} over the (mode, c) terms."""
    coeffs = {}
    for mode, c in terms:
        coeffs[mode] = coeffs.get(mode, GaussRational(0)) + c
    return FourierScalar(2 * n, coeffs)


def _divergence_terms(harmonics, axes, phi_mode, p):
    """The closed-form (mode, coefficient) terms of sum (d f - 2 f d phi) over
    the (mode, coeff) harmonics f, each differentiated along its axis."""
    out = []
    for (mode, c), axis in zip(harmonics, axes):
        shifted = tuple(x + y for x, y in zip(mode, phi_mode))
        out.append((mode, I * mode[axis] * c))
        out.append((shifted, I * (-2 * phi_mode[axis]) * p * c))
    return out


def _harmonic(n, mode, c):
    return FourierScalar.harmonic(2 * n, mode, c)


def _dilaton(rng, n):
    q, p = _nonzero_mode(rng, n), _gauss(rng)
    return q, p, _harmonic(n, q, p)


@pytest.mark.parametrize("n", (2, 3))
def test_div_omega_is_its_closed_form_on_single_harmonics(n):
    rng = random.Random(f"div-omega:{n}")
    q, p, phi = _dilaton(rng, n)
    cells = [[(_nonzero_mode(rng, n), _gauss(rng)) for _ in range(n)] for _ in range(n)]
    g = Bivector([[_harmonic(n, *c) for c in row] for row in cells])
    r = range(n)
    vec = [_divergence_terms(cells[a], [n + j for j in r], q, p) for a in r]
    tvec = [_divergence_terms([cells[i][b] for i in r], list(r), q, p) for b in r]
    expected = tuple(_modewise(n, t) for t in vec), tuple(_modewise(n, t) for t in tvec)
    assert div_omega(g, phi) == expected
    assert not any(v.is_zero() for v in expected[0] + expected[1])


@pytest.mark.parametrize("n", (2, 3))
def test_div_omega_vector_is_its_closed_form_on_single_harmonics(n):
    # pins the loop oracle that checks the scalar residual of bivector_mc_residual
    rng = random.Random(f"div-omega-vector:{n}")
    q, p, phi = _dilaton(rng, n)
    xs = [(_nonzero_mode(rng, n), _gauss(rng)) for _ in range(n)]
    ts = [(_nonzero_mode(rng, n), _gauss(rng)) for _ in range(n)]
    vec = [_harmonic(n, *c) for c in xs]
    tvec = [_harmonic(n, *c) for c in ts]
    x_part = _divergence_terms(xs, range(n), q, p)
    t_part = _divergence_terms(ts, range(n, 2 * n), q, p)
    assert oracle.div_omega_vector(vec, tvec, phi) == _modewise(n, x_part + t_part)
    # both sectors contribute, so a sign between them shows
    assert not _modewise(n, x_part).is_zero() and not _modewise(n, t_part).is_zero()
