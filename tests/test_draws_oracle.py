"""Stream lock: ``randbelow`` draws what ``Random.choice``/``randint`` drew.

Every seeded report depends on the exact sequence of ints each sampler takes
from its generator.  Each package sampler is compared with its
``choice``/``randint`` form in ``draws_oracle``: equal values, equal
canonical bytes and equal ``getstate()`` after every single draw.  The
samplers that draw several scalars in one loop are compared scalar by scalar
with as many consecutive ``draws_oracle.random_scalar`` draws, in storage
order too.
"""

import itertools
import random

import draws_oracle as oracle
import pytest

from bvdouble import suites
from bvdouble.bvcomplex import random_element
from bvdouble.deform import MatrixFunction
from bvdouble.doublecopy import (
    null_covector,
    null_family_field,
    random_bivector,
    random_doubled_scalar,
    random_vector_field,
)
from bvdouble.exterior import random_form
from bvdouble.scalars import FourierScalar, Metric, randbelow, random_coefficient, random_scalar
from bvdouble.sections import random_section
from bvdouble.serialize import canonical_dumps

SEEDS = range(120)


def pair(seed):
    return random.Random(seed), random.Random(seed)


def same(got, want, rng, old):
    assert got == want
    assert canonical_dumps(got) == canonical_dumps(want)
    assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("n", [*range(1, 70), 2**20 + 1, 2**31 - 1, 2**64 + 3])
def test_randbelow_is_the_generators_randbelow(n):
    for seed in range(40):
        rng, old = pair(seed)
        for _ in range(5):
            assert randbelow(rng.getrandbits, n) == old._randbelow(n)
            assert rng.getstate() == old.getstate()


def test_randbelow_of_one_still_takes_a_bit():
    rng, old = pair(3)
    assert randbelow(rng.getrandbits, 1) == 0
    old.getrandbits(1)
    assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("n", [0, -1, -5])
def test_randbelow_refuses_an_empty_range(n):
    with pytest.raises(ValueError, match="no int"):
        randbelow(random.Random(1).getrandbits, n)


def test_coefficients_keep_the_choice_stream():
    for seed in SEEDS:
        rng, old = pair(seed)
        for _ in range(8):
            same(random_coefficient(rng), oracle.random_coefficient(old), rng, old)


@pytest.mark.parametrize("dim", range(1, 5))
@pytest.mark.parametrize("cutoff", (0, 1, 2, 5, 2**20, 2**31 - 1))
@pytest.mark.parametrize("max_modes", (1, 2, 3))
def test_scalars_keep_the_choice_stream(dim, cutoff, max_modes):
    for seed in SEEDS:
        rng, old = pair(f"{seed}:{dim}:{cutoff}:{max_modes}")
        for _ in range(3):
            got = random_scalar(rng, dim, cutoff, max_modes)
            want = oracle.random_scalar(old, dim, cutoff, max_modes)
            same(got, want, rng, old)
            assert list(got.coeffs) == list(want.coeffs)


@pytest.mark.parametrize(
    ("seed", "kept"), [(34, {(-1,): 1}), (35, {(1,): 1}), (136, {(-1,): complex(1, -2)})]
)
def test_a_cancelled_mode_is_dropped_and_the_others_kept(seed, kept):
    # three draws at D = 1, cutoff 1: two land on mode 0 and cancel, the
    # third lands on another mode and stays
    rng, old = pair(seed)
    got = random_scalar(rng, 1, 1, 3)
    same(got, oracle.random_scalar(old, 1, 1, 3), rng, old)
    assert {m: complex(c.re, c.im) for m, c in got.coeffs.items()} == kept


@pytest.mark.parametrize("max_modes", (0, -1))
def test_scalars_refuse_an_empty_mode_count(max_modes):
    # an inline ``randbelow`` loop on an empty range would spin for ever:
    # ``getrandbits(0)`` is always 0; the refusal draws nothing
    rng, old = pair(5)
    with pytest.raises(ValueError, match="no int"):
        random_scalar(rng, 3, 2, max_modes)
    assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("cutoff", (-1, -2, 2**31))
def test_scalars_refuse_a_cutoff_outside_the_packed_range(cutoff):
    rng, old = pair(5)
    with pytest.raises(ValueError, match="outside the packed range"):
        random_scalar(rng, 3, cutoff)
    assert rng.getstate() == old.getstate()


def _zero_or(comps, dim):
    return [FourierScalar.zero(dim) if f is None else f for f in comps]


# sampler -> (draw, the scalars it holds in draw order, its scalar count),
# each taking (rng, dim, size) with ``size`` the degree, rank or half-dimension
_MULTI = {
    "section": (
        lambda rng, dim, _: random_section(rng, dim, 2),
        lambda a: a.vec + a.form,
        lambda dim, _: 2 * dim,
    ),
    "element": (
        lambda rng, dim, p: random_element(rng, dim, 2, p),
        lambda x: (x.section.vec + x.section.form if x.section else ()) + (x.scalar,),
        lambda dim, p: 2 * dim + 1 if p in (1, 2) else 1,
    ),
    "matrix": (
        lambda rng, dim, r: MatrixFunction.random(rng, r, dim, 2),
        lambda m: [f for row in m.rows for f in row],
        lambda _, r: r * r,
    ),
    "form": (
        lambda rng, dim, p: random_form(rng, dim, 2, p),
        lambda w: _zero_or(
            (w.comps.get(i) for i in itertools.combinations(range(w.dim), w.degree)), w.dim
        ),
        lambda dim, p: len(list(itertools.combinations(range(dim), p))),
    ),
    "vector": (
        lambda rng, dim, _: random_vector_field(rng, dim, 2),
        tuple,
        lambda dim, _: dim,
    ),
    "bivector": (
        lambda rng, n, _: random_bivector(rng, n, 2),
        lambda g: [e for row in g.rows for e in row],
        lambda n, _: n * n,
    ),
    "doubled": (
        lambda rng, n, _: random_doubled_scalar(rng, n, 2),
        lambda f: (f,),
        lambda _, __: 1,
    ),
}
# the oracle draws a doubled sampler's scalars on T^{2n}
_DOUBLED = ("bivector", "doubled")
_SIZES = {"element": range(4), "matrix": range(1, 4), "form": range(5)}


def _multi_cases():
    for name in _MULTI:
        for dim in range(1, 5):
            for size in _SIZES.get(name, (None,)):
                if name != "form" or size <= dim:
                    yield name, dim, size


@pytest.mark.parametrize(("name", "dim", "size"), list(_multi_cases()))
def test_multi_scalar_samplers_keep_the_scalar_stream(name, dim, size):
    draw, held, count = _MULTI[name]
    torus = 2 * dim if name in _DOUBLED else dim
    for seed in range(30):
        rng, old = pair(f"{name}:{dim}:{size}:{seed}")
        for _ in range(2):
            got = list(held(draw(rng, dim, size)))
            want = [oracle.random_scalar(old, torus, 2) for _ in range(count(dim, size))]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g == w
                assert list(g.coeffs) == list(w.coeffs)
                assert canonical_dumps(g) == canonical_dumps(w)
            assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("halfdim", range(1, 5))
@pytest.mark.parametrize("cutoff", (1, 2, 5))
@pytest.mark.parametrize("sector", ("both", "x", "xt"))
def test_doubled_scalars_keep_the_randint_stream(halfdim, cutoff, sector):
    for seed in range(40):
        rng, old = pair(seed)
        for _ in range(3):
            got = random_doubled_scalar(rng, halfdim, cutoff, sector)
            want = oracle.random_doubled_scalar(old, halfdim, cutoff, sector)
            same(got, want, rng, old)
            assert list(got.coeffs) == list(want.coeffs)


@pytest.mark.parametrize("entries", ([1, 1, -1], [1, -1, 1, -1], [1, 1, 1]))
@pytest.mark.parametrize("cutoff", (1, 2, 5))
@pytest.mark.parametrize("aligned", (True, False))
def test_null_families_keep_the_choice_stream(entries, cutoff, aligned):
    eta = Metric.diagonal(entries)
    direction = null_covector(eta)
    for seed in range(40):
        rng, old = pair(seed)
        for _ in range(3):
            got = null_family_field(rng, eta, direction, cutoff, aligned)
            want = oracle.null_family_field(old, eta, direction, cutoff, aligned)
            same(got, want, rng, old)


def test_any_degree_keeps_the_randint_stream():
    cfg = suites.SuiteConfig(dim=3)
    draw = suites._any_degree(random_element)
    for seed in SEEDS:
        rng, old = pair(seed)
        for _ in range(3):
            got = draw(rng, cfg)
            want = oracle.any_degree(random_element, old, cfg.dim, cfg.mode_cutoff)
            assert got.degree == want.degree
            same(got, want, rng, old)


def test_same_sector_sampler_keeps_the_choice_stream():
    cfg = suites.SuiteConfig(dim=2, samples=40)
    rows, _ = suites._doublecopy_identities(cfg)
    (row,) = [suites.Identity(*r) for r in rows if r[0] == "same-sector-constrained"]
    rng, old = pair(7)
    drawn = 0
    for (f, g), _ in suites._samples(row, rng, cfg):
        want = oracle.same_sector_pair(old, cfg.dim, cfg.mode_cutoff)
        same((f, g), want, rng, old)
        drawn += 1
    assert drawn == cfg.samples
