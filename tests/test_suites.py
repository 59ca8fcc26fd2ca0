"""Suite runner: configuration validation, report shape, determinism."""

import json
import random

import pytest

from bvdouble import suites
from bvdouble.cli import main
from bvdouble.deform import MatrixFunction
from bvdouble.doublecopy import null_covector
from bvdouble.scalars import FourierScalar, GaussRational, Metric
from bvdouble.serialize import canonical_dumps, to_jsonable
from bvdouble.suites import SUITE_NAMES, ConfigError, Identity, SuiteConfig, run_suite


def test_default_configuration():
    cfg = SuiteConfig()
    assert (cfg.dim, cfg.mode_cutoff, cfg.matrix_rank) == (3, 2, 2)
    assert (cfg.samples, cfg.seed) == (25, 42)
    assert cfg.metric.upper[0][0] == 1 and cfg.metric.upper[2][2] == -1


def test_from_dict_happy_paths():
    cfg = SuiteConfig.from_dict(
        {"dimension": 2, "metric": ["1/2", 3], "samples": 4, "seed": 0}
    )
    assert cfg.dim == 2 and cfg.samples == 4 and cfg.seed == 0
    assert cfg.metric.upper[0][0] * 2 == 1 and cfg.metric.upper[1][1] == 3
    rows = SuiteConfig.from_dict({"dimension": 2, "metric": [[2, 1], [1, 1]]})
    assert rows.metric.lower[0][0] == 1  # exact inverse of the given rows


def test_echo_roundtrips_through_from_dict():
    cfg = SuiteConfig(dim=2, metric=Metric.diagonal([1, -1]), samples=3, seed=9)
    again = SuiteConfig.from_dict(cfg.echo())
    assert again.echo() == cfg.echo()


@pytest.mark.parametrize(
    "data",
    [
        {"dim": 3},                                  # wrong key name
        {"dimension": 0},
        {"dimension": "3"},
        {"samples": 0},
        {"mode_cutoff": -1},
        {"matrix_rank": 0},
        {"seed": "abc"},
        {"metric": "flat"},
        {"metric": []},
        {"metric": [0]},                             # singular
        {"metric": [[1, 2], [3, 4], [5, 6]]},        # not square
        {"dimension": 2, "metric": [1, 1, 1]},       # size mismatch
        {"metric": [[1, 2], [0, 1]]},                # not symmetric
        {"metric": [0.5]},                           # float entry
        "not a dict",
    ],
)
def test_bad_configurations_are_rejected(data):
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict(data)


def test_overrides_replace_only_what_they_name():
    cfg = SuiteConfig(dim=2, metric=Metric.diagonal([1, -1]), samples=5, seed=1)
    bumped = cfg.with_overrides(seed=77)
    assert bumped.seed == 77 and bumped.samples == 5 and bumped.dim == 2
    resampled = cfg.with_overrides(samples=2)
    assert resampled.samples == 2 and resampled.seed == 1


def test_suite_names_are_stable():
    assert SUITE_NAMES == (
        "courant",
        "bvcomplex",
        "bvlz",
        "cinf",
        "cyclic",
        "linf",
        "deform",
        "ym",
        "exterior",
        "cbracket",
        "doublecopy",
    )


def test_unknown_suite_is_rejected():
    with pytest.raises(ConfigError, match="unknown suite"):
        run_suite("nonsense", SuiteConfig())


def test_identity_rejects_an_unknown_expectation():
    # a ValueError, not an assert, so ``python -O`` keeps the check
    with pytest.raises(ValueError, match="expect"):
        Identity("x", "statement", draws=None, res=None, expect="zeros")


# the rows that draw through a generator of their own instead of recipes
BESPOKE_ROWS = {
    "mc-calibration-rank-one",
    "cross-sector-violation-witness",
    "same-sector-constrained",
    "exterior-pairing-symmetry",
}


def test_rows_report_their_declared_draws():
    # a recipe row evaluates its residual once per recipe on every sample
    cfg = SuiteConfig(
        dim=2, metric=Metric.diagonal([1, -1]), mode_cutoff=1, matrix_rank=1, samples=2, seed=5
    )
    bespoke = set()
    for name, build in suites._SUITES.items():
        rows, _ = build(cfg)
        reported = {row["id"]: row["samples"] for row in run_suite(name, cfg)["identities"]}
        assert list(reported) == [row[0] for row in rows]
        for ident, _, draws, res, *_ in rows:
            assert callable(res), ident
            if callable(draws):
                bespoke.add(ident)
            else:
                assert reported[ident] == cfg.samples * len(draws), ident
    assert bespoke == BESPOKE_ROWS


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def test_every_row_value_is_an_exact_residual():
    # every leaf of every value is an algebra value that ``_vanishes`` tests
    # exactly: never a bool or a dict standing in for a residual
    cfg = SuiteConfig(
        dim=2, metric=Metric.diagonal([1, -1]), mode_cutoff=1, matrix_rank=1, samples=1, seed=5
    )
    for name, build in suites._SUITES.items():
        rows, _ = build(cfg)
        for identity in (Identity(*row) for row in rows):
            rng = random.Random(f"{cfg.seed}:{name}:{identity.ident}")
            for _, value in suites._samples(identity, rng, cfg):
                for leaf in _leaves(value):
                    assert not isinstance(leaf, (bool, dict)), identity.ident
                    assert hasattr(leaf, "is_zero") or isinstance(leaf, GaussRational)


@pytest.mark.parametrize("value", [False, True, {"match": False}, 0, None])
def test_vanishes_refuses_anything_but_a_residual(value):
    with pytest.raises(TypeError, match="residual"):
        suites._vanishes(value)
    with pytest.raises(TypeError, match="residual"):
        suites._vanishes((FourierScalar.zero(2), value))


def test_exterior_requires_a_square_volume():
    cfg = SuiteConfig(dim=2, metric=Metric.diagonal([1, 2]), samples=1)
    with pytest.raises(ConfigError, match="square"):
        run_suite("exterior", cfg)
    # the same metric is fine for suites that never build a volume root
    assert run_suite("cbracket", cfg.with_overrides(samples=2))["passed"]


def test_report_shape_and_success():
    cfg = SuiteConfig(dim=2, metric=Metric.diagonal([1, -1]), mode_cutoff=1, samples=2, seed=7)
    report = run_suite("bvcomplex", cfg)
    assert set(report) == {"suite", "config", "identities", "passed"}
    assert report["suite"] == "bvcomplex" and report["passed"] is True
    assert report["config"]["dimension"] == 2
    for row in report["identities"]:
        assert {"id", "statement", "samples", "failures", "passed"} <= set(row)
        assert row["passed"] is True and row["failures"] == []
        assert row["samples"] >= 1


def test_witness_rows_store_their_evidence():
    cfg = SuiteConfig(dim=2, metric=Metric.diagonal([1, -1]), mode_cutoff=1, samples=3, seed=3)
    report = run_suite("cbracket", cfg)
    rows = {r["id"]: r for r in report["identities"]}
    witness_row = rows["cbracket-jacobiator-witness"]
    assert witness_row["passed"] and witness_row["witness"] is not None
    assert set(witness_row["witness"]) == {"args", "value"}


CONSTANT_ONLY_ROWS = {
    "cbracket-constrained-sector",
    "cbracket-constrained-jacobi",
    "cbracket-jacobiator-null-directed",
}


@pytest.mark.parametrize("entries", ([1, 1, -3, -3], [1, 2, 1]))
def test_rows_without_a_null_direction_are_marked_vacuous(entries):
    # no rational null covector: the null-family draws are constant fields
    metric = Metric.diagonal(entries)
    assert null_covector(metric) is None
    cfg = SuiteConfig(dim=len(entries), metric=metric, mode_cutoff=1, samples=2, seed=5)
    report = run_suite("cbracket", cfg)
    marked = {row["id"]: row["vacuous"] for row in report["identities"] if "vacuous" in row}
    assert marked == dict.fromkeys(CONSTANT_ONLY_ROWS, True)
    assert report["passed"]
    assert canonical_dumps(run_suite("cbracket", cfg)) == canonical_dumps(report)


def test_rows_with_a_null_direction_carry_no_vacuous_key():
    cfg = SuiteConfig(samples=2, seed=5)
    assert null_covector(cfg.metric) is not None
    rows = run_suite("cbracket", cfg)["identities"]
    assert CONSTANT_ONLY_ROWS <= {row["id"] for row in rows}
    assert not any("vacuous" in row for row in rows)


def test_deform_laws_run_on_the_closed_form_r(monkeypatch):
    # the bracket-built R is the oracle of one row: one call per sample
    calls = []

    def counted(x, eta):
        calls.append(x.degree)
        return real(x, eta)

    real = suites.R_eta
    monkeypatch.setattr(suites, "R_eta", counted)
    cfg = SuiteConfig(dim=2, metric=Metric.diagonal([1, -1]), mode_cutoff=1, samples=3, seed=5)
    assert run_suite("deform", cfg)["passed"]
    assert len(calls) == cfg.samples


def test_ym_report_carries_the_calibration():
    cfg = SuiteConfig(mode_cutoff=1, samples=2, seed=11)
    report = run_suite("ym", cfg)
    assert report["passed"]
    assert report["calibration"] == {"field_strength": "2", "scalar_potential": "2"}


def test_ym_failures_are_capped_and_marked(monkeypatch, tmp_path, capsys):
    real_residual = suites.mc_ym_residual

    def shifted_residual(psi, eta):
        # the exact residual plus 1 in every scalar slot: nonzero on every field
        aslot, pslot, scalars = real_residual(psi, eta)
        one = FourierScalar.one(psi.dim)
        return aslot, pslot, scalars + MatrixFunction([[one] * psi.rank] * psi.rank)

    monkeypatch.setattr(suites, "mc_ym_residual", shifted_residual)
    # the unchanged fields stand in for their own gauge variation
    monkeypatch.setattr(suites, "gauge_variation", lambda psi, u, eta: psi)
    cfg = SuiteConfig(
        dim=2, metric=Metric.diagonal([1, -1]), mode_cutoff=1, matrix_rank=1,
        samples=5, seed=3,
    )
    report = run_suite("ym", cfg)
    rows = {r["id"]: r for r in report["identities"]}
    assert report["passed"] is False
    assert not any(r["passed"] for r in rows.values())
    calibration = rows["mc-calibration-rank-one"]
    assert calibration["samples"] == 1 and len(calibration["failures"]) == 1
    assert "failures_truncated" not in calibration
    for ident in ("mc-matches-field-equations", "gauge-transport"):
        row = rows[ident]
        assert row["samples"] == 5 and len(row["failures"]) == 3
        assert row["failures_truncated"] is True
        assert all(set(f) == {"args", "residual"} for f in row["failures"])
    # a failing ym row stores its residual: per-direction matrices of each
    # slot family and the matrix of scalar slots, not a comparison verdict
    for ident in ("mc-calibration-rank-one", "mc-matches-field-equations"):
        for failure in to_jsonable(rows[ident]["failures"]):
            aslot, pslot, scalars = failure["residual"]
            assert len(aslot) == len(pslot) == cfg.dim
            assert all(set(m) == {"rows"} for m in aslot + pslot + [scalars])

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.echo()), encoding="utf-8")
    code = main(["verify", "--suite", "ym", "--config", str(path)])
    out, _ = capsys.readouterr()
    assert code == 1 and json.loads(out)["passed"] is False


def test_reports_are_deterministic_per_seed():
    cfg = SuiteConfig(dim=2, metric=Metric.diagonal([1, -1]), mode_cutoff=1, samples=2, seed=5)
    first = canonical_dumps(run_suite("doublecopy", cfg))
    second = canonical_dumps(run_suite("doublecopy", cfg))
    assert first == second
    reseeded = run_suite("doublecopy", cfg.with_overrides(seed=6))
    assert canonical_dumps(reseeded) != first
    # the reseeded run draws genuinely different inputs, not just a new echo
    pick = lambda rep: next(
        r["witness"] for r in rep["identities"] if r["id"] == "generic-residual-witness"
    )
    assert pick(reseeded) != pick(run_suite("doublecopy", cfg))
