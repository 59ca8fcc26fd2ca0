"""The one-pass canonical writer against ``json.dumps``, byte for byte."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from serialize_oracle import oracle_dumps, oracle_fraction, oracle_gauss

from bvdouble.bvcomplex import BVElement, random_element
from bvdouble.deform import LieValuedBVElement, MatrixFunction
from bvdouble.doublecopy import DoubledScalar, random_bivector, random_doubled_scalar
from bvdouble.exterior import random_form, random_ym_element
from bvdouble.scalars import FourierScalar, GaussRational, Metric, random_scalar
from bvdouble.sections import random_section
from bvdouble.serialize import _ENCODERS, canonical_dumps, encode_fraction, to_jsonable

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
            DoubledScalar(2, FourierScalar.zero(4)),
            random_doubled_scalar(rng, 2, 2),
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


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_algebra_objects_match_json_dumps(kind):
    group = SAMPLES[kind]
    for x in group:
        assert canonical_dumps(x) == oracle_dumps(x)
    nested = {"group": group, "first": (group[0], {kind: group[-1]})}
    assert canonical_dumps(nested) == oracle_dumps(nested)


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
