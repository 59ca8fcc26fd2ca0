"""Byte-identity lock on the canonical report.

The sha256 of ``bvdouble verify --suite all --samples 1 --seed 101`` at the
default configuration.  A change that is meant to leave behaviour alone
(a refactor or a speedup) must leave this hash as it is; only a change whose
purpose is new report content may update it, and says why.
"""

import hashlib

from bvdouble.cli import main

GOLDEN_SHA256 = "209e8012034ac6f7eebcaab07cd2ec46bffb05b7790c413494b1caa33061dd3a"


def test_verify_all_report_is_byte_identical(capsys):
    code = main(["verify", "--suite", "all", "--samples", "1", "--seed", "101"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SHA256
