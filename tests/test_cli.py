"""Command-line verification runner."""

import json
import subprocess
import sys

import pytest

from bvdouble import cli
from bvdouble.cli import main
from bvdouble.suites import ConfigError, SuiteConfig

FAST = {"dimension": 2, "metric": [1, -1], "mode_cutoff": 1, "samples": 2, "seed": 7}


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(FAST), encoding="utf-8")
    return str(path)


def test_passing_suite_exits_zero_and_prints_json(fast_config, capsys):
    code = main(["verify", "--suite", "bvcomplex", "--config", fast_config])
    out, err = capsys.readouterr()
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "bvcomplex" and report["passed"] is True
    # progress lines stay on stderr so stdout parses as a single document
    assert "running suite bvcomplex" in err
    assert out.lstrip().startswith("{")


def test_out_file_matches_stdout(fast_config, tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--suite",
            "cbracket",
            "--config",
            fast_config,
            "--out",
            str(dest),
        ]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    assert dest.read_text(encoding="utf-8") == out


def test_reruns_are_byte_identical(fast_config, capsys):
    main(["verify", "--suite", "doublecopy", "--config", fast_config])
    first, _ = capsys.readouterr()
    main(["verify", "--suite", "doublecopy", "--config", fast_config])
    second, _ = capsys.readouterr()
    assert first == second


def test_seed_and_sample_overrides_reach_the_report(fast_config, capsys):
    code = main(
        [
            "verify",
            "--suite",
            "bvcomplex",
            "--config",
            fast_config,
            "--seed",
            "99",
            "--samples",
            "1",
        ]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    report = json.loads(out)
    assert report["config"]["seed"] == 99
    assert report["config"]["samples"] == 1


def test_missing_config_file_exits_two(capsys):
    code = main(["verify", "--suite", "bvcomplex", "--config", "/no/such/file.json"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "error:" in err


def test_malformed_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["verify", "--suite", "bvcomplex", "--config", str(bad)])
    _, err = capsys.readouterr()
    assert code == 2
    assert "not valid JSON" in err


def test_rejected_configuration_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 0}), encoding="utf-8")
    code = main(["verify", "--suite", "bvcomplex", "--config", str(bad)])
    _, err = capsys.readouterr()
    assert code == 2
    assert "positive integer" in err


def test_zero_samples_override_exits_two(capsys):
    code = main(["verify", "--suite", "bvcomplex", "--samples", "0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "error: samples must be a positive integer, got 0" in err


@pytest.mark.parametrize("key", ["dimension", "mode_cutoff", "matrix_rank", "samples", "seed"])
@pytest.mark.parametrize("flag", [True, False])
def test_boolean_is_not_an_integer(tmp_path, capsys, key, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: flag}), encoding="utf-8")
    code = main(["verify", "--suite", "bvcomplex", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"error: {key}" in err
    field = "dim" if key == "dimension" else key
    with pytest.raises(ConfigError):
        SuiteConfig(**{field: flag})


def test_asymmetric_metric_exits_two_under_optimize(tmp_path, subprocess_env):
    # validation must not be an assert, which ``python -O`` strips
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": [[1, 2, 0], [0, 1, 0], [0, 0, -1]]}))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bvdouble.cli", "verify", "--suite", "courant",
         "--config", str(cfg)],
        capture_output=True,
        text=True,
        env=subprocess_env,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "metric must be symmetric" in proc.stderr
    assert proc.stdout == ""


def test_package_runs_as_a_module(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "bvdouble", "verify", "--suite", "exterior",
         "--samples", "1"],
        capture_output=True,
        text=True,
        env=subprocess_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_exterior_gate_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimension": 2, "metric": [1, 2], "samples": 1}))
    code = main(["verify", "--suite", "exterior", "--config", str(cfg)])
    _, err = capsys.readouterr()
    assert code == 2
    assert "square" in err


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_the_cached_parser_survives_a_usage_error(fast_config, capsys):
    # one parser serves every main call of a process: a usage error between
    # two good calls leaves their reports as fresh parsers give them
    good = ["verify", "--suite", "courant", "--config", fast_config, "--seed", "3"]
    other = ["verify", "--suite", "bvcomplex", "--config", fast_config]
    runs = []
    for fresh in (True, False):
        outs = []
        for argv in (good, ["verify", "--suite", "courant", "--samples", "x"], other, good):
            if fresh:
                cli._build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            outs.append((code, out, "usage:" in err))
        runs.append(outs)
    assert runs[0] == runs[1]
    assert [code for code, _, _ in runs[1]] == [0, 2, 0, 0]
    assert [usage for _, _, usage in runs[1]] == [False, True, False, False]
    assert runs[1][0][1] == runs[1][3][1] != runs[1][2][1]
    assert cli._build_parser() is cli._build_parser()


def test_all_aggregates_every_suite(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode_cutoff": 1, "samples": 1, "seed": 5}))
    code = main(["verify", "--suite", "all", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "all" and report["passed"] is True
    names = [r["suite"] for r in report["suites"]]
    assert len(names) == 11 and names[0] == "courant"
    assert err.count("ok") == 11


@pytest.mark.parametrize("suite", ["exterior", "all"])
def test_one_dimensional_torus_is_a_config_error(tmp_path, capsys, suite):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimension": 1, "metric": [1]}))
    code = main(["verify", "--suite", suite, "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "dimension must be at least 2" in err
    with pytest.raises(ConfigError):
        SuiteConfig(dim=1)


def test_mode_cutoff_above_the_packed_bound_exits_two(tmp_path, capsys):
    # scalars pack mode components into 32-bit digits; the cap keeps headroom
    assert SuiteConfig(mode_cutoff=2**20).mode_cutoff == 2**20
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode_cutoff": 2**20 + 1}), encoding="utf-8")
    code = main(["verify", "--suite", "courant", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "mode_cutoff must be at most 2**20" in err
    with pytest.raises(ConfigError):
        SuiteConfig(mode_cutoff=2**40)


@pytest.mark.parametrize("where", ["directory", "missing"])
def test_unwritable_out_path_exits_two_before_any_suite(tmp_path, capsys, where):
    dest = tmp_path if where == "directory" else tmp_path / "no" / "such" / "r.json"
    code = main(["verify", "--suite", "cinf", "--samples", "1", "--out", str(dest)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write report")
    assert "running suite" not in err and "Traceback" not in err


def test_all_refuses_a_metric_before_the_first_suite(tmp_path, capsys):
    # exterior is the ninth suite; its gate must not wait for courant..ym
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": [2, 1, -1], "samples": 1}))
    code = main(["verify", "--suite", "all", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "error: the exterior suite needs |det metric| to be a rational square" in err
    assert "running suite" not in err
