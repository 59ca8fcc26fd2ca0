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
