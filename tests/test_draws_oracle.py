"""Stream lock: ``randbelow`` draws what ``Random.choice``/``randint`` drew.

Every seeded report depends on the exact sequence of ints each sampler takes
from its generator.  Each package sampler is compared with its
``choice``/``randint`` form in ``draws_oracle``: equal values, equal
canonical bytes and equal ``getstate()`` after every single draw.
"""

import random

import draws_oracle as oracle
import pytest

from bvdouble import suites
from bvdouble.bvcomplex import random_element
from bvdouble.doublecopy import null_covector, null_family_field, random_doubled_scalar
from bvdouble.scalars import Metric, randbelow, random_coefficient, random_scalar
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
@pytest.mark.parametrize("cutoff", (0, 1, 2, 5, 2**20))
@pytest.mark.parametrize("max_modes", (1, 2, 3))
def test_scalars_keep_the_choice_stream(dim, cutoff, max_modes):
    for seed in SEEDS:
        rng, old = pair(f"{seed}:{dim}:{cutoff}:{max_modes}")
        for _ in range(3):
            got = random_scalar(rng, dim, cutoff, max_modes)
            want = oracle.random_scalar(old, dim, cutoff, max_modes)
            same(got, want, rng, old)
            assert list(got.coeffs) == list(want.coeffs)


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
            assert list(got.fun.coeffs) == list(want.fun.coeffs)


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
