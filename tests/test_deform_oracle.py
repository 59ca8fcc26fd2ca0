"""The closed forms in ``bvdouble.deform`` against their definitional oracles.

Every comparison is exact and also byte-level: the canonical encodings must
agree, degree tags of zero elements included, because reports and failure
witnesses are written from these values.  Each law is checked on the
diagonal Lorentzian metric and on an off-diagonal metric.
"""

import random
from fractions import Fraction

import deform_oracle as oracle
import pytest

from bvdouble.bvcomplex import BVElement, random_element
from bvdouble.bvops import brack
from bvdouble.deform import (
    LieValuedBVElement,
    MatrixFunction,
    Q_eta,
    _slot_split,
    dictionary_fields,
    flat_sections,
    mc_from_fields,
    mu_bar_eta,
    ym_field_residual,
)
from bvdouble.scalars import Metric
from bvdouble.serialize import canonical_dumps

DIM = 3
LORENTZ = Metric.diagonal([1, 1, -1])
DENSE = Metric(
    [
        [Fraction(5, 4), Fraction(3, 4), 0],
        [Fraction(3, 4), Fraction(5, 4), 0],
        [0, 0, -1],
    ]
)
METRICS = {"lorentz": LORENTZ, "dense": DENSE}
# degrees -1 and 4 hold only zero elements; their degree tags must agree too
DEGREES = range(-1, 5)
PAIRS = [(d1, d2) for d1 in DEGREES for d2 in DEGREES]


def same(a, b):
    assert a == b
    assert canonical_dumps(a) == canonical_dumps(b)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_coordinate_bracket_is_the_slotwise_derivative(name):
    f = flat_sections(METRICS[name])
    rng = random.Random(f"slotwise:{name}")
    for degree in DEGREES:
        for _ in range(3):
            x = random_element(rng, DIM, 2, degree)
            for j in range(DIM):
                same(brack(f[j], x), x.derivative(j))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_q_eta_matches_the_bracket_built_deformation(name):
    eta = METRICS[name]
    rng = random.Random(f"q-eta:{name}")
    for degree in DEGREES:
        for _ in range(3):
            x = random_element(rng, DIM, 2, degree)
            same(Q_eta(x, eta), oracle.q_eta(x, eta))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_mu_bar_eta_matches_the_bracket_loop(name):
    eta = METRICS[name]
    rng = random.Random(f"mu-bar:{name}")
    for d1, d2 in PAIRS:
        for _ in range(2):
            x = random_element(rng, DIM, 2, d1)
            y = random_element(rng, DIM, 2, d2)
            same(mu_bar_eta(x, y, eta), oracle.mu_bar_eta(x, y, eta))


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("name", sorted(METRICS))
def test_ym_field_residual_matches_the_triple_loop(name, rank):
    eta = METRICS[name]
    rng = random.Random(f"ym:{name}:{rank}")
    for _ in range(2):
        avec = [MatrixFunction.random(rng, rank, DIM, 1) for _ in range(DIM)]
        bform = [MatrixFunction.random(rng, rank, DIM, 1) for _ in range(DIM)]
        cal_a, phi = dictionary_fields(mc_from_fields(avec, bform, eta), eta)
        e1, e2 = ym_field_residual(cal_a, phi, eta)
        o1, o2 = oracle.ym_field_residual(cal_a, phi, eta)
        same(e1, o1)
        same(e2, o2)
        assert not all(r.is_zero() for r in e1 + e2)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_matrix_product_and_commutator_match_the_entrywise_sums(rank):
    rng = random.Random(f"matmul:{rank}")
    for _ in range(3):
        a = MatrixFunction.random(rng, rank, DIM, 2)
        b = MatrixFunction.random(rng, rank, DIM, 2)
        same(a * b, oracle.matrix_product(a, b))
        same(a.commutator(b), oracle.commutator(a, b))
        same(a.commutator(a), MatrixFunction.zero(rank, DIM))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_slot_split_matches_the_entrywise_lowering(name):
    eta = METRICS[name]
    rng = random.Random(f"slots:{name}")
    for rank in (1, 2):
        avec = [MatrixFunction.random(rng, rank, DIM, 2) for _ in range(DIM)]
        bform = [MatrixFunction.random(rng, rank, DIM, 2) for _ in range(DIM)]
        psi = mc_from_fields(avec, bform, eta)
        cal_a, phi = dictionary_fields(psi, eta)
        o_a, o_phi = oracle.dictionary_fields(psi, eta)
        same(cal_a, o_a)
        same(phi, o_phi)
        # degree-2 entries, and a zero of another degree, which has no section
        grid = [
            [random_element(rng, DIM, 2, 2) for _ in range(rank)] for _ in range(rank)
        ]
        grid[-1][-1] = BVElement.zero(3, DIM)
        x = LieValuedBVElement(grid)
        plus, minus = _slot_split(x, eta)
        o_plus, o_minus = oracle.dictionary_fields(x, eta)
        same(plus, [m * 2 for m in o_plus])
        same(minus, [m * 2 for m in o_minus])
