"""Acceptance gate: every verification target, one pass/fail line each.

Each test runs the relevant suite(s) at the pinned configuration with exact
(zero-tolerance) arithmetic, prints a single summary line, and asserts the
outcome.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they happen.
"""

import subprocess
import sys

from bvdouble.scalars import Metric
from bvdouble.suites import SuiteConfig, run_suite


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number:02d} [{status}] {label}{suffix}")
    assert ok, f"criterion {number:02d} failed: {label}"


def _rows(report):
    return {r["id"]: r for r in report["identities"]}


def _all_pass(report, required=()):
    rows = _rows(report)
    missing = [ident for ident in required if ident not in rows]
    return report["passed"] and not missing


def test_criterion_01_courant_axioms():
    cfg = SuiteConfig(dim=3, mode_cutoff=2, samples=25)
    report = run_suite("courant", cfg)
    ok = _all_pass(
        report,
        required=(
            "courant-module-leibniz",
            "courant-invariance",
            "courant-symmetric-part",
            "courant-leibniz-jacobi",
            "courant-exact-left-action",
            "courant-isotropic-gradients",
            "divergence-kills-gradients",
            "divergence-module-rule",
            "divergence-of-bracket",
        ),
    )
    _report(1, "Courant axioms and divergence rules on the 3-torus", ok,
            f"{len(report['identities'])} identities x 25 samples")


def test_criterion_02_graded_complex():
    report = run_suite("bvcomplex", SuiteConfig())
    ok = _all_pass(
        report,
        required=(
            "complex-q-squared",
            "complex-b-squared",
            "complex-c-squared",
            "complex-qb-anticommute",
            "complex-bc-unit",
            "half-projection-idempotent",
            "half-splitting",
            "half-orthogonality",
        ),
    )
    _report(2, "differential/generator relations and the orthogonal splitting", ok)


def test_criterion_03_homotopy_bv_relations():
    report = run_suite("bvlz", SuiteConfig())
    ok = _all_pass(
        report,
        required=(
            "q-derivation-of-product",
            "homotopy-commutativity",
            "homotopy-associativity",
            "q-derivation-of-bracket",
            "bracket-leibniz-over-product",
            "b-derivation-of-bracket",
            "homotopy-antisymmetry",
            "bracket-jacobi",
            "mixed-derivation-homotopy",
            "bracket-matches-dorfman",
        ),
    )
    _report(3, "bracket/product homotopy relations; bracket restricts to Dorfman", ok)


def test_criterion_04_commutative_homotopy_structure():
    cinf = run_suite("cinf", SuiteConfig())
    cyclic = run_suite("cyclic", SuiteConfig())
    ok = _all_pass(
        cinf,
        required=(
            "sym-product-commutativity",
            "sym-product-q-derivation",
            "sym-homotopy-associativity",
            "trilinear-shuffle",
            "pentagon-compatibility",
        ),
    ) and _all_pass(
        cyclic,
        required=("cyclic-two-point", "cyclic-three-point", "cyclic-four-point"),
    )
    _report(4, "symmetrized homotopy algebra with cyclic pairing forms", ok)


def test_criterion_05_shifted_bracket_structure():
    report = run_suite("linf", SuiteConfig())
    ok = _all_pass(
        report,
        required=(
            "antisymmetrized-bracket",
            "jacobiator-is-exact",
            "trilinear-b-derivation",
        ),
    )
    _report(5, "antisymmetrized bracket: Jacobiator exactness and compatibility", ok)


def test_criterion_06_metric_deformation():
    cfg = SuiteConfig(dim=3, metric=Metric.diagonal([1, 1, -1]))
    report = run_suite("deform", cfg)
    ok = _all_pass(
        report,
        required=(
            "deform-q-eta-squared",
            "deform-r-eta-squared",
            "deform-r-slotwise-table",
            "deform-mu-bar-table",
            "deform-homotopy-associativity",
            "deform-bracket-laplacian",
            "deform-derivation-defect-witness",
        ),
    )
    _report(6, "flat-metric deformation keeps the homotopy relations exactly", ok)


def test_criterion_07_gauge_theory_match():
    report = run_suite("ym", SuiteConfig(samples=10))
    rows = _rows(report)
    ok = (
        _all_pass(
            report,
            required=(
                "mc-calibration-rank-one",
                "mc-matches-field-equations",
                "gauge-transport",
            ),
        )
        and report["calibration"]
        == {"field_strength": "2", "scalar_potential": "2"}
        and rows["mc-matches-field-equations"]["samples"] == 10
    )
    _report(7, "Maurer-Cartan residual equals the covariant field equations", ok,
            "rank-1 calibration, 10 rank-2 samples")


def test_criterion_08_form_complex_transport():
    report = run_suite("exterior", SuiteConfig(samples=10))
    ok = _all_pass(
        report,
        required=(
            "ym-q-squared",
            "ym-mu-commutativity",
            "ym-homotopy-associativity",
            "ym-shuffle",
            "ym-transport-q",
            "ym-transport-mu",
            "ym-transport-nu",
        ),
    )
    _report(8, "four-slot form complex matches the deformed structure slotwise", ok,
            "10 samples")


def test_criterion_09_double_copy_sector():
    cbracket = run_suite("cbracket", SuiteConfig())
    doubled = run_suite("doublecopy", SuiteConfig())
    crows = _rows(cbracket)
    ok = (
        _all_pass(
            cbracket,
            required=(
                "cbracket-constrained-jacobi",
                "cbracket-jacobiator-null-directed",
                "cbracket-jacobiator-witness",
                "cbracket-pair-constraint-witness",
            ),
        )
        and crows["cbracket-jacobiator-witness"]["witness"] is not None
        and _all_pass(
            doubled,
            required=(
                "doubled-laplacian-eigenvalue",
                "same-sector-constrained",
                "cross-sector-violation-witness",
                "double-bracket-symmetry",
                "constant-bivector-flat",
                "divergence-free-reduction",
            ),
        )
    )
    _report(9, "constrained C-bracket Jacobi with stored counterexample; "
               "doubled bivector residuals", ok)


def test_criterion_10_byte_identical_reruns(subprocess_env):
    args = [
        sys.executable,
        "-m",
        "bvdouble.cli",
        "verify",
        "--suite",
        "bvcomplex",
        "--samples",
        "5",
        "--seed",
        "2024",
    ]
    first = subprocess.run(args, capture_output=True, env=subprocess_env)
    second = subprocess.run(args, capture_output=True, env=subprocess_env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout
        and first.stdout == second.stdout
    )
    _report(10, "verification runs are byte-identical under a fixed seed", ok,
            f"{len(first.stdout)} bytes compared")
