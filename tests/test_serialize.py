"""Canonical JSON encoding for reports."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bvdouble.bvcomplex import random_element
from bvdouble.scalars import FourierScalar, GaussRational, Metric
from bvdouble.sections import random_section
from bvdouble.serialize import (
    Doubled,
    canonical_dumps,
    encode_fraction,
    parse_fraction,
    tag_doubled,
    to_jsonable,
)

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(fractions)
def test_fraction_roundtrip(q):
    assert parse_fraction(encode_fraction(q)) == q


def test_fraction_encoding_shape():
    assert encode_fraction(Fraction(3, 4)) == "3/4"
    assert encode_fraction(Fraction(-3, 4)) == "-3/4"
    assert encode_fraction(Fraction(5)) == "5"
    assert encode_fraction(Fraction(0)) == "0"


@pytest.mark.parametrize("bad", [1.5, True, False, None, [1]])
def test_parse_rejects_inexact_and_foreign(bad):
    with pytest.raises(ValueError):
        parse_fraction(bad)


def test_parse_accepts_ints_and_strings():
    assert parse_fraction(7) == Fraction(7)
    assert parse_fraction("-2/6") == Fraction(-1, 3)


def test_floats_never_serialize():
    with pytest.raises(TypeError):
        to_jsonable(0.5)
    with pytest.raises(TypeError):
        to_jsonable({"x": [1, 2.0]})


def test_gauss_and_scalar_encoding():
    g = GaussRational(Fraction(1, 2), -2)
    assert to_jsonable(g) == {"re": "1/2", "im": "-2"}
    f = FourierScalar(2, {(1, 0): GaussRational(0, 1), (-1, 0): GaussRational(3)})
    assert to_jsonable(f) == [
        {"mode": [-1, 0], "value": {"re": "3", "im": "0"}},
        {"mode": [1, 0], "value": {"re": "0", "im": "1"}},
    ]


def test_doubled_scalar_splits_the_mode():
    f = Doubled(2, FourierScalar.harmonic(4, (1, 0, 0, -2), GaussRational(5)))
    assert to_jsonable(f) == [
        {"k": [1, 0], "ktilde": [0, -2], "value": {"re": "5", "im": "0"}}
    ]


def test_tag_doubled_tags_the_scalars_inside_containers_only():
    f = FourierScalar.harmonic(2, (1, -1), GaussRational(2))
    tagged = tag_doubled({"a": [f, (f, 3)], "b": "text", "c": GaussRational(1)}, 1)
    inner = tagged["a"][1]
    assert type(inner) is tuple and inner[1] == 3
    assert tagged["b"] == "text" and tagged["c"] == GaussRational(1)
    for tag in (tagged["a"][0], inner[0]):
        assert type(tag) is Doubled and tag.halfdim == 1 and tag.scalar is f
    split = [{"k": [1], "ktilde": [-1], "value": {"re": "2", "im": "0"}}]
    assert to_jsonable(tagged)["a"] == [split, [split, 3]]


def test_graded_element_encoding_keeps_slots():
    rng = random.Random(9)
    x = random_element(rng, 2, 1, 1)
    out = to_jsonable(x)
    assert out["degree"] == 1
    assert set(out) == {"degree", "scalar", "section"}
    assert set(out["section"]) == {"vec", "form"}
    u = random_element(rng, 2, 1, 0)
    assert set(to_jsonable(u)) == {"degree", "scalar"}


def test_metric_encodes_the_given_rows():
    m = Metric([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert to_jsonable(m) == [["2", "1"], ["1", "1"]]


def test_unknown_types_are_rejected():
    class Strange:
        pass

    with pytest.raises(TypeError):
        to_jsonable(Strange())


def test_a_borrowed_class_name_is_not_an_encoding():
    # dispatch is on the class itself, not on its name
    class FourierScalar:
        coeffs = {(0,): GaussRational(1)}

    with pytest.raises(TypeError):
        to_jsonable(FourierScalar())


def test_canonical_dumps_is_insensitive_to_key_order():
    rng = random.Random(4)
    payload_a = {"b": to_jsonable(random_section(rng, 2, 1)), "a": 1}
    rng = random.Random(4)
    payload_b = {"a": 1, "b": to_jsonable(random_section(rng, 2, 1))}
    assert canonical_dumps(payload_a) == canonical_dumps(payload_b)
    assert canonical_dumps(payload_a).endswith("\n")


def test_canonical_dumps_is_deterministic_across_runs():
    def build(seed):
        rng = random.Random(seed)
        return canonical_dumps(
            {
                "element": random_element(rng, 3, 2, 2),
                "metric": Metric.diagonal([1, 1, -1]),
            }
        )

    assert build(12) == build(12)
    assert build(12) != build(13)
