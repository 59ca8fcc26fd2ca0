"""Command-line runner for the identity suites.

Usage::

    bvdouble verify --suite <name> [--config cfg.json] [--seed N]
                    [--samples N] [--out report.json]

The report is canonical JSON (sorted keys, exact "p/q" rationals) written
to stdout and, when requested, to ``--out``; reruns with identical inputs
produce byte-identical output.  Progress and wall-clock timing go to stderr
only, so they never perturb the report.

Exit status: 0 when every identity passed, 1 when at least one identity
failed, 2 for configuration or usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time

from .serialize import canonical_dumps
from .suites import SUITE_NAMES, ConfigError, SuiteConfig, check_suite, run_suite

__all__ = ["main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    parser = argparse.ArgumentParser(
        prog="bvdouble",
        description="Exact identity checker for the graded BV algebra over a torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify",
        help="run one identity suite (or all of them) and emit a JSON report",
    )
    verify.add_argument(
        "--suite",
        required=True,
        choices=(*SUITE_NAMES, "all"),
        help="which suite to run; 'all' runs every suite in order",
    )
    verify.add_argument(
        "--config",
        metavar="PATH",
        help="JSON configuration (dimension, metric, mode_cutoff, matrix_rank, samples, seed)",
    )
    verify.add_argument("--seed", type=int, help="override the master seed")
    verify.add_argument(
        "--samples", type=int, help="override the per-identity sample count"
    )
    verify.add_argument(
        "--out", metavar="PATH", help="also write the report to this file"
    )
    return parser


def _load_config(args) -> SuiteConfig:
    if args.config is None:
        cfg = SuiteConfig()
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config!r} is not valid JSON: {exc}") from exc
        cfg = SuiteConfig.from_dict(data)
    return cfg.with_overrides(seed=args.seed, samples=args.samples)


def _verify(args) -> int:
    cfg = _load_config(args)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    for name in names:
        check_suite(name, cfg)
    # the report file is opened before any suite runs, so a bad path exits 2 at once
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext()
    except OSError as exc:
        raise ConfigError(f"cannot write report {args.out!r}: {exc.strerror}") from exc
    with out as handle:
        reports = []
        for name in names:
            print(f"running suite {name} ...", file=sys.stderr, flush=True)
            started = time.monotonic()
            report = run_suite(name, cfg)
            elapsed = time.monotonic() - started
            status = "ok" if report["passed"] else "FAILED"
            print(f"suite {name}: {status} ({elapsed:.2f}s)", file=sys.stderr, flush=True)
            reports.append(report)
        if args.suite == "all":
            payload = {
                "suite": "all",
                "config": cfg.echo(),
                "suites": reports,
                "passed": all(r["passed"] for r in reports),
            }
        else:
            payload = reports[0]
        text = canonical_dumps(payload)
        sys.stdout.write(text)
        if handle is not None:
            handle.write(text)
    return 0 if payload["passed"] else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
