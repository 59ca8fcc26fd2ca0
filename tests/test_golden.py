"""Byte-identity locks on the canonical report.

The sha256 of ``bvdouble verify --suite all --samples 1 --seed 101`` at the
default configuration, and of the ``deform`` and ``ym`` suites at seed 101
on the off-diagonal metric [[5/4,3/4,0],[3/4,5/4,0],[0,0,-1]] with rank-2
matrices, which exercises the non-diagonal index contractions of the
deformation.  A change that is meant to leave behaviour alone (a refactor or
a speedup) must leave these hashes as they are; only a change whose purpose
is new report content may update them, and says why.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from bvdouble.cli import main

GOLDEN_SHA256 = "209e8012034ac6f7eebcaab07cd2ec46bffb05b7790c413494b1caa33061dd3a"

OFF_DIAGONAL_CONFIG = {
    "dimension": 3,
    "metric": [["5/4", "3/4", 0], ["3/4", "5/4", 0], [0, 0, -1]],
    "mode_cutoff": 2,
    "matrix_rank": 2,
    "samples": 1,
}
OFF_DIAGONAL_SHA256 = {
    "deform": "f61599cf16f2d9b267a1787151e5bce409d0b0d9efd486289f36716d0a0d23c4",
    "ym": "a3124b2a2a4bdd709a5ec0a319ace3c9bff6d9ba8ca9c1ba7c0497469d5c3b89",
}


def _sha256(capsys, argv):
    code = main(argv)
    out, _ = capsys.readouterr()
    assert code == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


GOLDEN_ARGV = ["verify", "--suite", "all", "--samples", "1", "--seed", "101"]


def test_verify_all_report_is_byte_identical(capsys):
    assert _sha256(capsys, GOLDEN_ARGV) == GOLDEN_SHA256


def test_verify_all_report_is_byte_identical_under_optimize(subprocess_env):
    # ``python -O`` strips asserts; no check the report depends on may be one
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bvdouble", *GOLDEN_ARGV],
        capture_output=True,
        env=subprocess_env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("suite", sorted(OFF_DIAGONAL_SHA256))
def test_off_diagonal_deform_report_is_byte_identical(suite, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(OFF_DIAGONAL_CONFIG))
    argv = ["verify", "--suite", suite, "--seed", "101", "--config", str(cfg)]
    assert _sha256(capsys, argv) == OFF_DIAGONAL_SHA256[suite]
