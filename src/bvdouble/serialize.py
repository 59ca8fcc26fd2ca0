"""Canonical JSON encoding for reports and failure witnesses.

:func:`canonical_dumps` writes the text of
``json.dumps(to_jsonable(obj), sort_keys=True, indent=2, ensure_ascii=True)``
plus one newline, so equal data structures serialize to byte-identical text.
It writes that text in one recursive pass instead of calling ``json.dumps``:
with ``indent`` set, the standard library skips its C encoder and runs a
pure-Python generator chain, which cost more than the rest of a report's
rendering.  ``_ENCODERS`` is one shallow table that the writer recurses
over: each entry encodes one level of an object and leaves its scalars and
nested objects as objects.  Scalars have one term writer, which writes each
term's whole text from its mode and coefficient ints, and
:func:`to_jsonable` parses the canonical text, so the writer is the one
encoder.  Strings and keys go through the C string encoder.  Numbers never
pass through floats:

* ``Fraction`` -> ``"p/q"`` (or ``"p"`` when the denominator is 1),
* ``GaussRational`` -> ``{"re": "p/q", "im": "p/q"}``,
* ``FourierScalar`` -> sorted list of ``{"mode": [...], "value": ...}``,
* ``Doubled(n, f)``, a report-only tag on a scalar f on T^{2n} that bivectors
  and :func:`tag_doubled` put on, -> the same with each mode split into
  ``"k"`` and ``"ktilde"``, one per coordinate sector.

Structured algebra elements (sections, graded elements, forms, matrices,
bivectors) are encoded slot by slot with self-describing keys, which keeps
failure witnesses in reports legible without any out-of-band schema.  The
encoders are keyed by the classes themselves, so an object of any other
class is refused even when its class has the same name.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .bvcomplex import BVElement
from .deform import LieValuedBVElement, MatrixFunction
from .doublecopy import Bivector
from .exterior import DifferentialForm, YMElement
from .scalars import FourierScalar, GaussRational, Metric
from .sections import GenSection

__all__ = ["encode_fraction", "parse_fraction", "to_jsonable", "canonical_dumps", "tag_doubled"]


def _ratio_text(n: int, d: int) -> str:
    """``"p/q"``, or ``"p"`` when the reduced denominator is 1, for n/d with d > 0."""
    if d != 1:
        g = gcd(n, d)
        n, d = n // g, d // g
        if d != 1:
            return f"{n}/{d}"
    return str(n)


def encode_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return _ratio_text(value.numerator, value.denominator)


def parse_fraction(text) -> Fraction:
    """Exact rational from an int or a "p/q" string; floats are rejected."""
    if isinstance(text, (int, str)) and not isinstance(text, bool):
        return Fraction(text)
    raise ValueError(f"expected an exact rational, got {text!r}")


def _ints(values, nl) -> str:
    inner = nl + "  "
    return f"[{inner}{f',{inner}'.join(map(str, values))}{nl}]" if values else "[]"


class Doubled:
    """A report-only tag: write ``scalar``, on T^{2 halfdim}, with each mode
    split into "k" and "ktilde"."""

    __slots__ = ("halfdim", "scalar")

    def __init__(self, halfdim: int, scalar: FourierScalar):
        self.halfdim, self.scalar = halfdim, scalar


def tag_doubled(obj, halfdim: int):
    """``obj`` with each scalar in its dicts, lists and tuples tagged
    ``Doubled(halfdim, ...)``; bivectors tag their own entries."""
    if type(obj) is FourierScalar:
        return Doubled(halfdim, obj)
    if isinstance(obj, dict):
        return {k: tag_doubled(v, halfdim) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(tag_doubled(x, halfdim) for x in obj)
    return obj


def _terms_text(f, nl="\n") -> str:
    """The text of a scalar's (or ``Doubled`` tag's) terms, sorted by mode, at
    the indent of ``nl``: one f-string per term, from its coefficient's ints."""
    i1, i2, i3 = nl + "  ", nl + "    ", nl + "      "
    h = f.halfdim if type(f) is Doubled else None
    out = []
    for mode, g in sorted((f if h is None else f.scalar).coeffs.items()):
        if h is None:
            head = f'"mode": {_ints(mode, i2)}'
        else:
            head = f'"k": {_ints(mode[:h], i2)},{i2}"ktilde": {_ints(mode[h:], i2)}'
        out.append(
            f'{{{i2}{head},{i2}"value": {{{i3}"im": "{_ratio_text(g._b, g._d)}",'
            f'{i3}"re": "{_ratio_text(g._a, g._d)}"{i2}}}{i1}}}'
        )
    return f"[{i1}{f',{i1}'.join(out)}{nl}]" if out else "[]"


def to_jsonable(obj):
    """The JSON primitives of an algebra object: its canonical text, parsed."""
    return json.loads(canonical_dumps(obj))


def _encode_element(x):
    out = {"degree": x.degree, "scalar": x.scalar}
    if x.section is not None:
        out["section"] = x.section
    return out


_ENCODERS = {
    Fraction: encode_fraction,
    GaussRational: lambda g: {"re": _ratio_text(g._a, g._d), "im": _ratio_text(g._b, g._d)},
    FourierScalar: _terms_text,
    Doubled: _terms_text,
    GenSection: lambda a: {"vec": a.vec, "form": a.form},
    BVElement: _encode_element,
    DifferentialForm: lambda a: {
        "degree": a.degree,
        "components": [
            {"index": list(idx), "value": comp} for idx, comp in sorted(a.comps.items())
        ],
    },
    YMElement: lambda x: {"degree": x.degree, "form": x.form},
    MatrixFunction: lambda m: {"rows": m.rows},
    LieValuedBVElement: lambda x: {"degree": x.degree, "grid": x.rows},
    Bivector: lambda b: {"entries": tag_doubled(b.rows, b.rank)},
    Metric: lambda m: m.upper,
}


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, one newline."""
    parts = []
    _write(obj, parts.append, "\n")
    parts.append("\n")
    return "".join(parts)


def _write(obj, emit, nl):
    """Emit the text of ``obj``; ``nl`` is a newline plus the current indent.

    Other values are written one ``_ENCODERS`` level at a time (scalars by
    the term writer), dict keys are stringified and then sorted (a later key
    that stringifies alike wins), and str and int items of containers are
    written without a nested call.
    """
    if isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
            t = type(value)
            if t is str:
                emit(f"{sep}{_quote(key)}: {_quote(value)}")
            elif t is int:
                emit(f"{sep}{_quote(key)}: {int.__repr__(value)}")
            else:
                emit(f"{sep}{_quote(key)}: ")
                _write(value, emit, inner)
            sep = comma
        emit(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for value in obj:
            t = type(value)
            if t is str:
                emit(sep + _quote(value))
            elif t is int:
                emit(sep + int.__repr__(value))
            else:
                emit(sep)
                _write(value, emit, inner)
            sep = comma
        emit(nl + "]")
    elif isinstance(obj, str):
        emit(_quote(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    else:
        encode = _ENCODERS.get(type(obj))
        if encode is None:
            if isinstance(obj, float):
                raise TypeError("refusing to serialize a float in an exact report")
            raise TypeError(f"no canonical encoding for {type(obj)!r}")
        if encode is _terms_text:
            emit(_terms_text(obj, nl))
        else:
            _write(encode(obj), emit, nl)
