"""Definitional forms of the canonical encodings, kept as test oracles.

``bvdouble.serialize.canonical_dumps`` writes indent-2 JSON text in one pass,
writes each scalar's terms straight from their coefficients, and encodes
each part of a Gaussian rational from its canonical ints.  The functions
below are the forms they replaced: a recursive type switch that builds the
whole JSON tree, each term a ``{"mode", "value"}`` dict and each part
through its own ``Fraction``, and the standard library's ``json.dumps`` over
that tree.  They import no encoder from ``bvdouble.serialize``, so the
writer is never checked against its own text; only the report tag
``Doubled`` comes from there, and the oracle splits its modes itself.
"""

import json
from fractions import Fraction

from bvdouble.bvcomplex import BVElement
from bvdouble.deform import LieValuedBVElement, MatrixFunction
from bvdouble.doublecopy import Bivector
from bvdouble.exterior import DifferentialForm, YMElement
from bvdouble.scalars import FourierScalar, GaussRational, Metric
from bvdouble.sections import GenSection
from bvdouble.serialize import Doubled


def oracle_dumps(obj) -> str:
    return json.dumps(oracle_jsonable(obj), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def oracle_fraction(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def oracle_gauss(g) -> dict:
    return {"re": oracle_fraction(g.re), "im": oracle_fraction(g.im)}


def _encode_scalar(f):
    return [
        {"mode": list(mode), "value": oracle_gauss(coeff)}
        for mode, coeff in sorted(f.coeffs.items())
    ]


def _encode_doubled(h, f):
    """A scalar on T^{2h}, each mode split into its two sectors."""
    return [
        {"k": list(mode[:h]), "ktilde": list(mode[h:]), "value": oracle_gauss(coeff)}
        for mode, coeff in sorted(f.coeffs.items())
    ]


def _encode_element(x):
    out = {"degree": x.degree, "scalar": _encode_scalar(x.scalar)}
    if x.section is not None:
        out["section"] = oracle_jsonable(x.section)
    return out


ORACLE_ENCODERS = {
    GaussRational: oracle_gauss,
    FourierScalar: _encode_scalar,
    Doubled: lambda d: _encode_doubled(d.halfdim, d.scalar),
    GenSection: lambda a: {
        "vec": [_encode_scalar(c) for c in a.vec],
        "form": [_encode_scalar(c) for c in a.form],
    },
    BVElement: _encode_element,
    DifferentialForm: lambda a: {
        "degree": a.degree,
        "components": [
            {"index": list(idx), "value": _encode_scalar(comp)}
            for idx, comp in sorted(a.comps.items())
        ],
    },
    YMElement: lambda x: {"degree": x.degree, "form": oracle_jsonable(x.form)},
    MatrixFunction: lambda m: {"rows": [[_encode_scalar(x) for x in row] for row in m.rows]},
    LieValuedBVElement: lambda x: {
        "degree": x.degree,
        "grid": [[oracle_jsonable(e) for e in row] for row in x.rows],
    },
    Bivector: lambda b: {"entries": [[_encode_doubled(b.rank, e) for e in row] for row in b.rows]},
    Metric: lambda m: [[oracle_fraction(x) for x in row] for row in m.upper],
}


def oracle_jsonable(obj):
    """The whole JSON tree of ``obj``, built by one recursive type switch."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return oracle_fraction(obj)
    if isinstance(obj, float):
        raise TypeError("refusing to serialize a float in an exact report")
    if isinstance(obj, dict):
        return {str(k): oracle_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_jsonable(x) for x in obj]
    encoder = ORACLE_ENCODERS.get(type(obj))
    if encoder is None:
        raise TypeError(f"no canonical encoding for {type(obj)!r}")
    return encoder(obj)
