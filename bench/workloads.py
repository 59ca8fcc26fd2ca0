"""Workload table and layer map of the time-to-verdict benchmark.

A workload is a list of ``bvdouble verify`` suites run at one configuration
(``configs/<workload>.json``).  ``ROWS`` pins how many report rows each suite
must produce, so a suite that raises or drops rows counts its missing rows as
failed.

``TRACED`` names every function the traced run wraps, by layer.  ``LAYERS``
records, for each layer, the end-to-end metric it should move, the workloads
on which it should move it, and the workloads that must not call it at all
(checked in every traced run as exact zero call counts).  ``HOME`` lists, per
traced function, the workloads on which it must be called at least once.
"""

from __future__ import annotations

import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    # Homotopy-algebra tower scalars -> sections -> bvcomplex -> bvops; brack
    # and dorfman dominate.  Calls nothing in deform or doublecopy.
    "tower": ("courant", "bvcomplex", "bvlz", "cinf", "cyclic", "linf"),
    # The deform layer: ym_field_residual and mc_residual dominate ym, and
    # mu_bar_eta / R_eta dominate deform.  Calls nothing in doublecopy.
    "gauge": ("deform", "ym", "exterior"),
    # Dense rational metric (off-diagonal 3/4, |det| = 1): deform and the
    # C-bracket on denominators of 4, the only doublecopy user, and the
    # write-heavy workload (stored witnesses dominate the report bytes).
    "dense": ("deform", "cbracket", "doublecopy"),
}

ROWS = {
    "courant": 9,
    "bvcomplex": 13,
    "bvlz": 12,
    "cinf": 5,
    "cyclic": 3,
    "linf": 3,
    "deform": 16,
    "ym": 3,
    "exterior": 11,
    "cbracket": 9,
    "doublecopy": 10,
}

SUITES = tuple(dict.fromkeys(s for suites in WORKLOADS.values() for s in suites))


def config_path(workload: str) -> str:
    return os.path.join(BENCH_DIR, "configs", f"{workload}.json")


def expected_rows(workload: str) -> int:
    return sum(ROWS[s] for s in WORKLOADS[workload])


# (layer, metric name, module, attribute path).  Scalar entry points are
# aggregated (count plus self time) instead of stored as one span per call;
# a 5-sample ym makes about 676k FourierScalar products.
TRACED = (
    ("scalars", "fourier_mul", "scalars", "FourierScalar.__mul__"),
    ("scalars", "fourier_add", "scalars", "FourierScalar.__add__"),
    ("scalars", "fourier_derivative", "scalars", "FourierScalar.derivative"),
    ("sections", "dorfman", "sections", "dorfman"),
    ("sections", "pairing", "sections", "pairing"),
    ("bvcomplex", "op_q", "bvcomplex", "op_q"),
    ("bvops", "mu", "bvops", "mu"),
    ("bvops", "brack", "bvops", "brack"),
    ("bvops", "nu", "bvops", "nu"),
    ("deform", "R_eta", "deform", "R_eta"),
    ("deform", "Q_eta", "deform", "Q_eta"),
    ("deform", "mu_bar_eta", "deform", "mu_bar_eta"),
    ("deform", "matrix_mul", "deform", "MatrixFunction.__mul__"),
    ("deform", "mc_residual", "deform", "mc_residual"),
    ("deform", "ym_field_residual", "deform", "ym_field_residual"),
    ("exterior", "wedge", "exterior", "wedge"),
    ("exterior", "hodge", "exterior", "hodge"),
    ("exterior", "ym_q", "exterior", "ym_q"),
    ("doublecopy", "c_bracket", "doublecopy", "c_bracket"),
    ("doublecopy", "double_bracket", "doublecopy", "double_bracket"),
    ("doublecopy", "null_covector", "doublecopy", "null_covector"),
    ("serialize", "to_jsonable", "serialize", "to_jsonable"),
    ("serialize", "canonical_dumps", "serialize", "canonical_dumps"),
    ("cli", "main", "cli", "main"),
)

AGGREGATED = {
    "scalars.fourier_mul",
    "scalars.fourier_add",
    "scalars.fourier_derivative",
    "serialize.to_jsonable",
}

ALL = tuple(WORKLOADS)

# layer -> (end-to-end metric it should move, workloads it moves it on,
#           workloads that must make zero calls into it)
LAYERS = {
    "scalars": ("verdict_s", ALL, ()),
    "sections": ("verdict_s", ("tower",), ()),
    "bvcomplex": ("verdict_s", ("tower",), ()),
    "bvops": ("verdict_s", ("tower", "gauge"), ()),
    "deform": ("verdict_s", ("gauge", "dense"), ("tower",)),
    "exterior": ("verdict_s", ("gauge",), ()),
    "doublecopy": ("verdict_s", ("dense",), ("tower", "gauge")),
    "serialize": ("verdict_s", ("dense",), ()),
    "suites": ("verdict_s", ALL, ()),
    "cli": ("verdict_s", ALL, ()),
}

# Workloads on which each traced function must be called at least once.
HOME = {f"{layer}.{name}": LAYERS[layer][1] for layer, name, _, _ in TRACED}
HOME.update(
    {
        "serialize.to_jsonable": ALL,
        "serialize.canonical_dumps": ALL,
        "deform.matrix_mul": ("gauge",),
        "deform.mc_residual": ("gauge",),
        "deform.ym_field_residual": ("gauge",),
    }
)
