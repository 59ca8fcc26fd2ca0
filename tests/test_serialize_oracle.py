"""The one-pass canonical writer against ``json.dumps`` over the oracle's
JSON tree, byte for byte."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from serialize_oracle import (
    ORACLE_ENCODERS,
    oracle_dumps,
    oracle_fraction,
    oracle_gauss,
    oracle_jsonable,
)

from bvdouble.bvcomplex import BVElement, random_element
from bvdouble.deform import LieValuedBVElement, MatrixFunction
from bvdouble.doublecopy import random_bivector, random_doubled_scalar
from bvdouble.exterior import random_form, random_ym_element
from bvdouble.scalars import FourierScalar, GaussRational, Metric, random_scalar
from bvdouble.sections import random_section
from bvdouble.serialize import _ENCODERS, Doubled, canonical_dumps, encode_fraction, to_jsonable

DIM = 3

# quote, backslash, control, non-ASCII, line-separator and astral characters
TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀"])
TEXT = st.text(st.characters() | TRICKY, max_size=6)
# int and str keys that collide after str(), and bools that stringify as words
KEYS = st.integers(-3, 3) | st.sampled_from(["-1", "0", "1", "True", "None"]) | st.booleans() | TEXT
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(2**100), 2**100)
    | TEXT
    | st.fractions(max_denominator=10**6)
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=24,
)


@given(VALUES)
def test_nested_values_match_json_dumps(value):
    assert canonical_dumps(value) == oracle_dumps(value)


@pytest.mark.parametrize(
    "value",
    [[], {}, (), [[]], [{}], {"a": {}}, {"a": []}, [[], [{}], {"b": ()}], ((),)],
    ids=repr,
)
def test_empty_and_nested_empty_containers(value):
    assert canonical_dumps(value) == oracle_dumps(value)


def test_colliding_keys_keep_the_later_value():
    value = {1: "int", "1": "str", 2: "int", True: "bool", "True": "word"}
    assert canonical_dumps(value) == oracle_dumps(value)
    assert '"1": "str"' in canonical_dumps(value)
    assert '"True": "word"' in canonical_dumps(value)


def test_large_ints_and_literals():
    value = [2**64, -(2**64) - 1, 0, -1, True, False, None]
    assert canonical_dumps(value) == oracle_dumps(value)
    assert canonical_dumps(value).split() == [
        "[", f"{2**64},", f"{-(2**64) - 1},", "0,", "-1,", "true,", "false,", "null", "]"
    ]


@pytest.mark.parametrize("value", [0.5, [1, 0.5], {"x": 0.5}, {"x": [{"y": (0.5,)}]}], ids=repr)
def test_floats_raise_at_any_depth(value):
    with pytest.raises(TypeError, match="float"):
        canonical_dumps(value)
    with pytest.raises(TypeError, match="float"):
        to_jsonable(value)


def test_unknown_types_raise():
    with pytest.raises(TypeError, match="no canonical encoding"):
        canonical_dumps({"x": [object()]})


def _samples():
    rng = random.Random(2024)
    dense = Metric(
        [[Fraction(5, 4), Fraction(3, 4), 0], [Fraction(3, 4), Fraction(5, 4), 0], [0, 0, -1]]
    )
    x1 = random_element(rng, DIM, 2, 1)
    return {
        "gauss": [
            GaussRational(0),
            GaussRational(Fraction(-3, 4), Fraction(5, 6)),
            GaussRational(0, -7),
            GaussRational(Fraction(-1, 2)),
            GaussRational(Fraction(2, 3), Fraction(-2, 3)),
        ],
        "fraction": [Fraction(-7, 3), Fraction(4), Fraction(0)],
        "fourier": [FourierScalar.zero(DIM), random_scalar(rng, DIM, 2)],
        "doubled": [
            Doubled(2, FourierScalar.zero(4)),
            Doubled(2, random_doubled_scalar(rng, 2, 2)),
        ],
        "section": [random_section(rng, DIM, 2)],
        "element": [random_element(rng, DIM, 2, d) for d in range(4)]
        + [BVElement.zero(2, DIM)],
        "form": [random_form(rng, DIM, 1, d) for d in range(DIM + 1)],
        "ym": [random_ym_element(rng, DIM, 1, d) for d in range(4)],
        "matrix": [MatrixFunction.random(rng, 2, DIM, 1)],
        "lie": [LieValuedBVElement([[x1, BVElement.zero(0, DIM)], [x1, -x1]])],
        "bivector": [random_bivector(rng, 2, 1)],
        "metric": [Metric.diagonal([1, 1, -1]), dense],
    }


SAMPLES = _samples()


def test_samples_cover_every_encoder():
    kinds = {type(x) for group in SAMPLES.values() for x in group}
    assert kinds == set(_ENCODERS) | {Fraction}
    assert kinds == set(ORACLE_ENCODERS) | {Fraction}


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_algebra_objects_match_json_dumps(kind):
    group = SAMPLES[kind]
    for x in group:
        assert canonical_dumps(x) == oracle_dumps(x)
    nested = {"group": group, "first": (group[0], {kind: group[-1]})}
    assert canonical_dumps(nested) == oracle_dumps(nested)
    assert to_jsonable(nested) == oracle_jsonable(nested)


# Scalars with zero, negative and mixed modes and denominators 1 to 6, nested
# up to four levels deep in lists, tuples and dicts.
RATIOS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6))
GAUSS = st.builds(GaussRational, RATIOS, RATIOS)


def _scalar_terms(dim):
    return st.dictionaries(st.tuples(*[st.integers(-3, 3)] * dim), GAUSS, max_size=4)


FOURIER = st.integers(1, 3).flatmap(
    lambda dim: _scalar_terms(dim).map(lambda terms: FourierScalar(dim, terms))
)
DOUBLED = st.integers(1, 2).flatmap(
    lambda h: _scalar_terms(2 * h).map(lambda terms: Doubled(h, FourierScalar(2 * h, terms)))
)
SCALARS = FOURIER | DOUBLED


def _nested(depth):
    inner = SCALARS if depth == 0 else _nested(depth - 1)
    return (
        inner
        | st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=3)
    )


@given(st.integers(0, 4).flatmap(lambda depth: SCALARS if depth == 0 else _nested(depth - 1)))
def test_nested_scalars_match_the_oracle(value):
    assert canonical_dumps(value) == oracle_dumps(value)
    assert to_jsonable(value) == oracle_jsonable(value)


def test_scalar_terms_cover_zero_negative_and_reduced_parts():
    f = FourierScalar(2, {(0, 0): GaussRational(0), (-2, 1): GaussRational(Fraction(-3, 6), 4)})
    g = Doubled(1, FourierScalar(2, {(-1, 3): GaussRational(Fraction(5, 4), Fraction(-1, 3))}))
    zero = FourierScalar.zero(2)
    for value in (f, g, zero, Doubled(1, zero), [[{"x": (f, g)}]]):
        assert canonical_dumps(value) == oracle_dumps(value)
    assert to_jsonable(g) == [{"k": [-1], "ktilde": [3], "value": {"re": "5/4", "im": "-1/3"}}]


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@given(fractions, fractions)
def test_gauss_parts_encode_as_fractions(re, im):
    g = GaussRational(re, im)
    assert to_jsonable(g) == oracle_gauss(g)
    assert encode_fraction(re) == oracle_fraction(re)


def test_gauss_parts_with_a_shared_denominator():
    # (3 + 4i)/6: the real part reduces to 1/2, the imaginary part to 2/3
    g = GaussRational(Fraction(1, 2), Fraction(2, 3))
    assert to_jsonable(g) == oracle_gauss(g) == {"re": "1/2", "im": "2/3"}
    g = GaussRational(Fraction(-5, 6), Fraction(5, 2))
    assert to_jsonable(g) == {"re": "-5/6", "im": "5/2"}
