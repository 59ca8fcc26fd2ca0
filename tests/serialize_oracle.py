"""Definitional forms of the canonical encodings, kept as test oracles.

``bvdouble.serialize.canonical_dumps`` writes indent-2 JSON text in one pass,
and ``_encode_gauss`` writes each part of a Gaussian rational from its
canonical ints.  The functions below are the forms they replaced: the
standard library's ``json.dumps`` over the ``to_jsonable`` tree, and each
part encoded through its own ``Fraction``.
"""

import json

from bvdouble.serialize import to_jsonable


def oracle_dumps(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def oracle_fraction(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def oracle_gauss(g) -> dict:
    return {"re": oracle_fraction(g.re), "im": oracle_fraction(g.im)}
