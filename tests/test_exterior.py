"""Exterior calculus with exact coefficients and the four-slot complex."""

import hashlib
import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from bvdouble import exterior
from bvdouble.exterior import (
    DifferentialForm,
    YMElement,
    dform,
    form_integral,
    hodge,
    random_form,
    random_ym_element,
    wedge,
    ym_mu_sym,
    ym_nu_sym,
    ym_q,
)
from bvdouble.scalars import FourierScalar, GaussRational, Metric
from bvdouble.serialize import canonical_dumps, to_jsonable
from bvdouble.suites import SuiteConfig, run_suite

DIM = 3
LORENTZ = Metric.diagonal([1, 1, -1])
EUCLID = Metric.diagonal([1, 1, 1])


@pytest.fixture
def rng():
    return random.Random(24680)


def _harm(mode, coeff=1):
    return FourierScalar.harmonic(DIM, mode, coeff)


def _basis_one_form(slot, value):
    return DifferentialForm(DIM, 1, {(slot,): value})


# -- wedge and d -----------------------------------------------------------


@pytest.mark.parametrize("p,q", [(0, 1), (1, 1), (1, 2), (2, 1), (0, 3)])
def test_wedge_graded_commutativity(rng, p, q):
    for _ in range(5):
        a = random_form(rng, DIM, 2, p)
        b = random_form(rng, DIM, 2, q)
        sgn = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == sgn * wedge(b, a)


def test_wedge_associativity(rng):
    for _ in range(5):
        a = random_form(rng, DIM, 1, 1)
        b = random_form(rng, DIM, 1, 1)
        c = random_form(rng, DIM, 1, 1)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_d_squared_vanishes(rng, p):
    for _ in range(5):
        a = random_form(rng, DIM, 2, p)
        first = dform(a)
        assert dform(first).is_zero()


@pytest.mark.parametrize("p,q", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0)])
def test_d_is_a_graded_derivation_of_wedge(rng, p, q):
    for _ in range(5):
        a = random_form(rng, DIM, 2, p)
        b = random_form(rng, DIM, 2, q)
        sgn = -1 if p % 2 else 1
        lhs = dform(wedge(a, b))
        rhs = wedge(dform(a), b) + sgn * wedge(a, dform(b))
        assert lhs == rhs


def _increasing_tuples(dim):
    return [c for p in range(dim + 1) for c in itertools.combinations(range(dim), p)]


def _sorting_parity(seq):
    """(-1)^k for the k transpositions of a selection sort of ``seq``."""
    seq, swaps = list(seq), 0
    for i in range(len(seq)):
        j = seq.index(min(seq[i:]), i)
        if j != i:
            seq[i], seq[j] = seq[j], seq[i]
            swaps += 1
    return (-1) ** swaps


def test_shuffle_sign_is_the_parity_of_the_sorting_permutation():
    pairs = [
        (left, right)
        for dim in range(1, 6)
        for left in _increasing_tuples(dim)
        for right in _increasing_tuples(dim)
    ]
    assert len(pairs) == 1364
    for left, right in pairs:
        merged, sgn = exterior._shuffle_sign(left, right)
        if set(left) & set(right):
            assert (merged, sgn) == (None, None)
        else:
            assert merged == tuple(sorted(left + right))
            assert sgn == _sorting_parity(left + right)


def test_d_of_function_collects_partials():
    f = _harm((1, 2, 0))
    df = dform(DifferentialForm(DIM, 0, {(): f}))
    assert df.component((0,)) == _harm((1, 2, 0), GaussRational(0, 1))
    assert df.component((1,)) == _harm((1, 2, 0), GaussRational(0, 2))
    assert df.component((2,)).is_zero()


# -- Hodge star ------------------------------------------------------------


def test_star_on_basis_forms_signature_two_one():
    one = FourierScalar.one(DIM)
    vol = DifferentialForm(DIM, 3, {(0, 1, 2): one})
    assert hodge(DifferentialForm(DIM, 0, {(): one}), LORENTZ) == vol
    # spacelike direction keeps its sign, timelike flips it
    assert hodge(_basis_one_form(0, one), LORENTZ) == DifferentialForm(
        DIM, 2, {(1, 2): one}
    )
    assert hodge(_basis_one_form(2, one), LORENTZ) == DifferentialForm(
        DIM, 2, {(0, 1): -one}
    )


@pytest.mark.parametrize("metric,det_sign", [(EUCLID, 1), (LORENTZ, -1)])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_star_squared_sign_law(rng, metric, det_sign, p):
    for _ in range(4):
        a = random_form(rng, DIM, 2, p)
        sgn = -1 if (p * (DIM - p)) % 2 else 1
        assert hodge(hodge(a, metric), metric) == (det_sign * sgn) * a


def test_star_uses_the_metric_volume_weight():
    stretched = Metric.diagonal([1, 4])
    one = FourierScalar.one(2)
    out = hodge(DifferentialForm(2, 0, {(): one}), stretched)
    assert out == DifferentialForm(2, 2, {(0, 1): one * Fraction(1, 2)})


def test_star_rejects_non_square_volume():
    with pytest.raises(ValueError, match="square"):
        hodge(
            DifferentialForm(2, 0, {(): FourierScalar.one(2)}),
            Metric.diagonal([1, 2]),
        )


def test_integral_reads_the_constant_volume_mode(rng):
    top = random_form(rng, DIM, 2, DIM)
    assert form_integral(top) == top.component((0, 1, 2)).integral()
    shifted = DifferentialForm(DIM, 3, {(0, 1, 2): _harm((1, 0, 0))})
    assert not form_integral(shifted)


def test_pairing_symmetry_on_equal_degrees(rng):
    for p in range(DIM + 1):
        a = random_form(rng, DIM, 2, p)
        b = random_form(rng, DIM, 2, p)
        lhs = form_integral(wedge(a, hodge(b, LORENTZ)))
        rhs = form_integral(wedge(b, hodge(a, LORENTZ)))
        assert lhs == rhs


# -- the four-slot complex -------------------------------------------------


@pytest.mark.parametrize("degree,form_degree", [(0, 0), (1, 1), (2, 2), (3, 3)])
def test_slot_degrees(degree, form_degree):
    x = YMElement.zero(degree, DIM)
    assert x.form.degree == form_degree
    with pytest.raises(ValueError):
        YMElement(degree, DifferentialForm.zero(DIM, (form_degree + 1) % (DIM + 1)))


def test_malformed_forms_raise(rng):
    one, two = random_form(rng, DIM, 1, 1), random_form(rng, DIM, 1, 2)
    flat = DifferentialForm.zero(2, 1)
    for make in (
        lambda: DifferentialForm(DIM, DIM + 1),
        lambda: DifferentialForm(DIM, 2, {(1, 0): _harm((1, 0, 0))}),
        lambda: DifferentialForm(DIM, 1, {(DIM,): _harm((1, 0, 0))}),
        lambda: DifferentialForm(DIM, 1, {(0,): FourierScalar.harmonic(2, (1, 0))}),
        lambda: two.one_form_components(),
        lambda: one + flat,
        lambda: wedge(one, flat),
        lambda: form_integral(two),
        lambda: YMElement(4, DifferentialForm.zero(DIM, DIM)),
        lambda: ym_mu_sym(YMElement(1, one), YMElement(1, flat), LORENTZ),
        lambda: ym_nu_sym(*[YMElement(1, one)] * 2, YMElement(1, flat), LORENTZ),
    ):
        with pytest.raises(ValueError):
            make()
    with pytest.raises(TypeError, match="degree"):
        one + two


def test_slot_and_sector_checks_survive_optimize(subprocess_env):
    # with the checks stripped, both would be accepted without a word
    code = (
        "import random\n"
        "from bvdouble.doublecopy import random_doubled_scalar\n"
        "from bvdouble.exterior import DifferentialForm, YMElement\n"
        "for make in (\n"
        "    lambda: YMElement(1, DifferentialForm.zero(3, 2)),\n"
        "    lambda: random_doubled_scalar(random.Random(1), 2, 2, sector='t'),\n"
        "):\n"
        "    try:\n"
        "        make()\n"
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
    assert proc.stdout == "refused\nrefused\n"


def test_degree_mismatch_add_raises(rng):
    x = random_ym_element(rng, DIM, 1, 1)
    y = random_ym_element(rng, DIM, 1, 2)
    with pytest.raises(TypeError, match="degree"):
        x + y
    assert (x + YMElement.zero(2, DIM)) == x


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_differential_squares_to_zero(rng, degree):
    for _ in range(4):
        x = random_ym_element(rng, DIM, 2, degree)
        assert ym_q(ym_q(x, LORENTZ), LORENTZ).is_zero()


def test_second_slot_differential_is_the_wave_operator():
    # on a transverse harmonic one-form, d*d computes the signed Laplacian
    x = YMElement(1, _basis_one_form(1, _harm((1, 0, 0))))
    out = ym_q(x, LORENTZ)
    assert out.degree == 2
    assert out.form.component((0, 2)) == _harm((1, 0, 0), GaussRational(-1))
    assert out.form.component((0, 1)).is_zero()
    assert out.form.component((1, 2)).is_zero()


def test_product_of_one_forms_lands_in_the_dual_slot(rng):
    x = random_ym_element(rng, DIM, 1, 1)
    y = random_ym_element(rng, DIM, 1, 1)
    out = ym_mu_sym(x, y, LORENTZ)
    assert out.degree == 2 and out.form.degree == DIM - 1
    # odd times odd: the graded-commutative product antisymmetrizes here
    assert (out + ym_mu_sym(y, x, LORENTZ)).is_zero()


def test_trilinear_homotopy_supported_on_one_forms(rng):
    ones = [random_ym_element(rng, DIM, 1, 1) for _ in range(3)]
    assert not ym_nu_sym(*ones, LORENTZ).is_zero() or all(
        o.form.is_zero() for o in ones
    )
    mixed = [random_ym_element(rng, DIM, 1, d) for d in (0, 1, 2)]
    assert ym_nu_sym(*mixed, LORENTZ).is_zero()


def test_residual_battery_is_clean():
    cfg = SuiteConfig(metric=LORENTZ, mode_cutoff=1, samples=6, seed=5)
    rows = run_suite("exterior", cfg)["identities"]
    assert [r["passed"] for r in rows] == [True] * len(rows)
    assert {r["samples"] for r in rows} == {6}
    ids = [r["id"] for r in rows]
    assert ids == [
        "exterior-d-squared",
        "exterior-star-square",
        "exterior-pairing-symmetry",
        "ym-q-squared",
        "ym-mu-commutativity",
        "ym-q-derivation",
        "ym-homotopy-associativity",
        "ym-shuffle",
        "ym-transport-q",
        "ym-transport-mu",
        "ym-transport-nu",
    ]


@pytest.mark.parametrize(
    "diagonal", [[1, -1], [1, 1], [1, 1, 1, -1], [1, 1, -1, -1]], ids=str
)
def test_residual_battery_is_clean_in_even_dimensions(diagonal):
    # ** on (D-1)-forms is det_sign * (-1)^(D-1); at even D that sign is the
    # one the transport rows need from the (D-1)-form slot's embedding
    cfg = SuiteConfig(
        dim=len(diagonal), metric=Metric.diagonal(diagonal), mode_cutoff=1, samples=4, seed=9
    )
    rows = run_suite("exterior", cfg)["identities"]
    assert [r["id"] for r in rows if not r["passed"]] == []


PAIRING_FAILURES_SHA256 = "d62dc0d4da32e03835bdb4c5678c7e8ec01cd67a2fa151b793fcf5ebda04bd7f"


def test_pairing_row_stores_the_drawn_arguments(monkeypatch):
    # every integral is offset by a call count, so each sample's residual is
    # -1 and the row stores its args; at seed 1 the three stored pairs all
    # have unequal form degrees, so y was re-rolled on the row's stream
    # before the next pair was drawn, and the row keeps the drawn y
    calls = itertools.count()
    integral = exterior.form_integral
    monkeypatch.setattr(exterior, "form_integral", lambda a: integral(a) + next(calls))
    cfg = SuiteConfig(metric=LORENTZ, mode_cutoff=1, samples=4, seed=1)
    rows = run_suite("exterior", cfg)["identities"]
    (row,) = [r for r in rows if r["id"] == "exterior-pairing-symmetry"]
    assert row["failures_truncated"]
    degrees = [[arg["degree"] for arg in f["args"]] for f in to_jsonable(row["failures"])]
    assert degrees == [[0, 2], [3, 1], [2, 0]]
    text = canonical_dumps(row["failures"]).encode("utf-8")
    assert len(text) == 7727
    assert hashlib.sha256(text).hexdigest() == PAIRING_FAILURES_SHA256
