"""Byte-identity locks on the canonical report.

The sha256 of ``bvdouble verify --suite all --samples 1 --seed 101`` at the
default configuration, and of the ``deform``, ``ym``, ``cbracket``,
``doublecopy`` and ``exterior`` suites at seed 101 on the off-diagonal metric
[[5/4,3/4,0],[3/4,5/4,0],[0,0,-1]] with rank-2 matrices, which exercises the
non-diagonal index contractions of the deformation, the C-bracket, the
Hodge star and the embedding of the four-slot complex; the
``doublecopy`` report (357,539 bytes of stored witnesses) is the largest
text the canonical writer produces.  ``verify --suite ym`` is pinned at rank 3 on the default
Lorentzian metric (mode cutoff 2, one sample, seed 101), where every
matrix-tensored sum has three terms.  The same ``--suite all`` run is also
pinned at D=4 (Lorentzian) and at D=2 (``[1, -1]``), so the mode arithmetic
is locked at axis counts other than the default 3 and the 6-axis doubled
torus.  ``verify --suite exterior`` is pinned at D=6 on I + J/2, a metric
with no zero entry, so every minor of the Hodge star is dense.  The same
five suites as on the off-diagonal metric are pinned on
the diagonal [3, 1/3, -1], whose denominator 3 makes products meet over
coprime denominators.  The default run and the rank-3 run are also pinned under
``python -O``.  ``verify --suite all`` at the default configuration (25
samples, rank 2) is pinned too: it is the only pinned run that draws 25
rank-2 gauge fields, and the only one that reaches the nonzero cells of
``deform.mu_bar_eta_table`` (``tests/reach.py``).  A change that is meant to leave behaviour alone (a refactor
or a speedup) must leave these hashes as they are; only a change whose
purpose is new report content may update them, and says why.
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
    "cbracket": "b9edaf050456b563f4839589041fba9be6111ed63d2e5cbc7949e26c59452446",
    "deform": "f61599cf16f2d9b267a1787151e5bce409d0b0d9efd486289f36716d0a0d23c4",
    "doublecopy": "74f7e834f238c4541e6eb3f7a3a1191cd5647222b4b478cce914fda6b55c2671",
    "exterior": "a943ce9ca713ca60225aebeae40f4db4a4aaa113c3914b10060618b9fcb68b75",
    "ym": "a3124b2a2a4bdd709a5ec0a319ace3c9bff6d9ba8ca9c1ba7c0497469d5c3b89",
}

RANK_THREE_CONFIG = {
    "dimension": 3,
    "metric": [1, 1, -1],
    "mode_cutoff": 2,
    "matrix_rank": 3,
    "samples": 1,
}
RANK_THREE_SHA256 = "33812518c270e399086cf333749c23c0376830b018dcb58d8c281489ac767264"

# a metric entry of denominator 3 beside integer ones: products meet over
# coprime denominators, the one branch of the scalar product's denominator
# arithmetic that the power-of-two metrics above never reach
DENOMINATOR_THREE_CONFIG = {"dimension": 3, "metric": [3, "1/3", -1], "samples": 1}
DENOMINATOR_THREE_SHA256 = {
    "cbracket": "c584db226eeb0da714ad24b5be350bffc33cb1d346173217535974625b85a394",
    "deform": "fe1881874828a5771588928d4d38af8aa60f9c9640839db4671467008b909ef0",
    "doublecopy": "af9e8e8e0ddb2c3fd7c64f0f41909c0b66098f750e2fa172ab2e5b7435e355a7",
    "exterior": "877672f26ac8e73ea04795b8ded4707a96668b5a4a5056f2f369348bd383c222",
    "ym": "df0d25128c50f06c5ff7109aab3ad279e0d9569ccff991a9c48ff83852803e2f",
}

# every entry of eta^{ij} = I + J/2 at D=6 is nonzero, so each minor that the
# Hodge star takes is a full p x p elimination (|det eta_{ij}| = 1/4)
DENSE_SIX_CONFIG = {
    "dimension": 6,
    "metric": [
        ["3/2", "1/2", "1/2", "1/2", "1/2", "1/2"],
        ["1/2", "3/2", "1/2", "1/2", "1/2", "1/2"],
        ["1/2", "1/2", "3/2", "1/2", "1/2", "1/2"],
        ["1/2", "1/2", "1/2", "3/2", "1/2", "1/2"],
        ["1/2", "1/2", "1/2", "1/2", "3/2", "1/2"],
        ["1/2", "1/2", "1/2", "1/2", "1/2", "3/2"],
    ],
    "mode_cutoff": 1,
    "samples": 1,
}
DENSE_SIX_EXTERIOR_SHA256 = "81a0b5402d4a8fcf1f51a1022c1d30635ad3a8d137924391dac32c91f6f3d7a3"


OTHER_AXIS_COUNTS = {
    "D4": (
        {"dimension": 4, "metric": [1, 1, 1, -1]},
        "bf256b64dc36ce5fa1eb3f1c59fa6dd9ef8a16de29f8dda47eb84a760bebc23d",
    ),
    "D2": (
        {"dimension": 2, "metric": [1, -1]},
        "8faa9b0d8dbaddadc37efe9e86e4809b3e5e0cdb11bc93798ebbdede74c3cfcd",
    ),
}


def _sha256(capsys, argv):
    code = main(argv)
    out, _ = capsys.readouterr()
    assert code == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


GOLDEN_ARGV = ["verify", "--suite", "all", "--samples", "1", "--seed", "101"]

DEFAULT_ARGV = ["verify", "--suite", "all"]
DEFAULT_SHA256 = "d32b696cb909e6656ae151b1557fd86b2cd6be0b6c48e013827fb0ba683cc7e0"


def test_verify_all_report_is_byte_identical(capsys):
    assert _sha256(capsys, GOLDEN_ARGV) == GOLDEN_SHA256


def test_default_report_is_byte_identical(capsys):
    assert _sha256(capsys, DEFAULT_ARGV) == DEFAULT_SHA256


def test_verify_all_report_is_byte_identical_under_optimize(subprocess_env, tmp_path):
    # ``python -O`` strips asserts; no check the report depends on may be one
    cfg = tmp_path / "rank3.json"
    cfg.write_text(json.dumps(RANK_THREE_CONFIG))
    rank_three = ["verify", "--suite", "ym", "--seed", "101", "--config", str(cfg)]
    for argv, digest in [(GOLDEN_ARGV, GOLDEN_SHA256), (rank_three, RANK_THREE_SHA256)]:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "bvdouble", *argv],
            capture_output=True,
            env=subprocess_env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("suite", sorted(OFF_DIAGONAL_SHA256))
def test_off_diagonal_deform_report_is_byte_identical(suite, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(OFF_DIAGONAL_CONFIG))
    argv = ["verify", "--suite", suite, "--seed", "101", "--config", str(cfg)]
    assert _sha256(capsys, argv) == OFF_DIAGONAL_SHA256[suite]


@pytest.mark.parametrize("suite", sorted(DENOMINATOR_THREE_SHA256))
def test_denominator_three_report_is_byte_identical(suite, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(DENOMINATOR_THREE_CONFIG))
    argv = ["verify", "--suite", suite, "--seed", "101", "--config", str(cfg)]
    assert _sha256(capsys, argv) == DENOMINATOR_THREE_SHA256[suite]


def test_dense_six_exterior_report_is_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(DENSE_SIX_CONFIG))
    argv = ["verify", "--suite", "exterior", "--seed", "101", "--config", str(cfg)]
    assert _sha256(capsys, argv) == DENSE_SIX_EXTERIOR_SHA256


def test_rank_three_ym_report_is_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(RANK_THREE_CONFIG))
    argv = ["verify", "--suite", "ym", "--seed", "101", "--config", str(cfg)]
    assert _sha256(capsys, argv) == RANK_THREE_SHA256


@pytest.mark.parametrize("name", sorted(OTHER_AXIS_COUNTS))
def test_other_axis_counts_report_is_byte_identical(name, tmp_path, capsys):
    config, digest = OTHER_AXIS_COUNTS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert _sha256(capsys, [*GOLDEN_ARGV, "--config", str(cfg)]) == digest
