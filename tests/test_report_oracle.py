"""Whole reports against the serialize oracle, byte for byte.

Report rows hold the algebra values they checked (drawn arguments, failing
residuals, witnesses), and ``canonical_dumps`` encodes them only when the
report is written.  These runs store many such values: the dense benchmark
configuration's witness rows, a ym run whose rows all fail, and a failing
exterior pairing row.
"""

import itertools
import json
import pathlib

import pytest
from serialize_oracle import oracle_dumps

from bvdouble import exterior, suites
from bvdouble.deform import MatrixFunction
from bvdouble.scalars import FourierScalar, Metric
from bvdouble.serialize import canonical_dumps
from bvdouble.suites import SuiteConfig, run_suite

DENSE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "configs" / "dense.json"


def _matches_the_oracle(report):
    assert canonical_dumps(report) == oracle_dumps(report)


@pytest.mark.parametrize("seed", [101, 2718])
@pytest.mark.parametrize("suite", ["deform", "cbracket", "doublecopy"])
def test_dense_bench_reports_match_the_oracle(suite, seed):
    cfg = SuiteConfig.from_dict(json.loads(DENSE.read_text(encoding="utf-8")))
    report = run_suite(suite, cfg.with_overrides(seed=seed))
    assert any(row.get("witness") for row in report["identities"])
    _matches_the_oracle(report)


def test_failing_ym_report_matches_the_oracle(monkeypatch):
    real_residual = suites.mc_ym_residual

    def shifted_residual(psi, eta):
        aslot, pslot, scalars = real_residual(psi, eta)
        one = FourierScalar.one(psi.dim)
        return aslot, pslot, scalars + MatrixFunction([[one] * psi.rank] * psi.rank)

    monkeypatch.setattr(suites, "mc_ym_residual", shifted_residual)
    monkeypatch.setattr(suites, "gauge_variation", lambda psi, u, eta: psi)
    cfg = SuiteConfig(
        dim=2, metric=Metric.diagonal([1, -1]), mode_cutoff=1, matrix_rank=1, samples=5, seed=3
    )
    report = run_suite("ym", cfg)
    assert not any(row["passed"] for row in report["identities"])
    _matches_the_oracle(report)


def test_failing_pairing_row_matches_the_oracle(monkeypatch):
    calls = itertools.count()
    integral = exterior.form_integral
    monkeypatch.setattr(exterior, "form_integral", lambda a: integral(a) + next(calls))
    cfg = SuiteConfig(metric=Metric.diagonal([1, 1, -1]), mode_cutoff=1, samples=4, seed=1)
    report = run_suite("exterior", cfg)
    (row,) = [r for r in report["identities"] if r["id"] == "exterior-pairing-symmetry"]
    assert row["failures_truncated"]
    _matches_the_oracle(report)


def _keys(value):
    """Every dict key in a parsed JSON value."""
    if isinstance(value, dict):
        return set(value) | {k for v in value.values() for k in _keys(v)}
    if isinstance(value, list):
        return {k for v in value for k in _keys(v)}
    return set()


def _failing_doublecopy_rows(monkeypatch, name, shifted):
    """The failing rows of a small doublecopy run with ``suites.<name>``
    replaced by ``shifted(real, *args)``, checked against the oracle."""
    real = getattr(suites, name)
    monkeypatch.setattr(suites, name, lambda *args: shifted(real, *args))
    cfg = SuiteConfig(metric=Metric.diagonal([1, 1, -1]), mode_cutoff=1, samples=2, seed=5)
    report = run_suite("doublecopy", cfg)
    _matches_the_oracle(report)
    rows = json.loads(canonical_dumps(report))["identities"]
    assert "mode" not in _keys(rows)
    return {row["id"]: row for row in rows if not row["passed"]}


def test_failing_doubled_scalar_rows_split_their_modes(monkeypatch):
    # adding f to the pair residual breaks its symmetry and the same-sector law
    failing = _failing_doublecopy_rows(
        monkeypatch, "section_pair_residual", lambda real, f, g: real(f, g) + f
    )
    assert {"pair-constraint-symmetry", "same-sector-constrained"} <= set(failing)
    for failure in failing["pair-constraint-symmetry"]["failures"]:
        for arg in failure["args"]:
            assert all(set(term) == {"k", "ktilde", "value"} for term in arg)
            assert all(len(term["k"]) == len(term["ktilde"]) == 3 for term in arg)
        assert {"k", "ktilde"} <= _keys(failure["residual"])


def test_failing_bivector_rows_split_their_modes_inside_tuples(monkeypatch):
    # adding h to [[g, h]] breaks symmetry and bilinearity; the bilinearity
    # residual is a tuple of two bivectors
    failing = _failing_doublecopy_rows(
        monkeypatch, "double_bracket", lambda real, g, h: real(g, h) + h
    )
    assert {"double-bracket-symmetry", "double-bracket-bilinearity"} <= set(failing)
    for failure in failing["double-bracket-bilinearity"]["failures"]:
        additive, scaling = failure["residual"]
        for grid in (additive, scaling, *failure["args"]):
            entries = [term for row in grid["entries"] for term in sum(row, [])]
            assert entries and all(set(t) == {"k", "ktilde", "value"} for t in entries)
