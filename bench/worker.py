"""One child process of the benchmark; prints one JSON line on stdout.

    python3 bench/worker.py setup  --workload W --seed S
    python3 bench/worker.py pass   --workload W --seed S [--trace]
    python3 bench/worker.py micro  --workload W

``setup`` imports bvdouble and validates the workload config, then exits.
``pass`` calls ``bvdouble.cli.main(["verify", "--suite", S, ...])`` once per
suite of the workload, times the calls (with short runs of the host-speed
reference kernel of ``hostspeed.py`` between them, untimed), and checks
every report: exit code
0, canonical JSON, the pinned row count, every row passed, every row that
asserts a nonzero value carries a witness.  With ``--trace`` the calls run
under the span tracer and the per-layer counts are added to the output.
``micro`` runs the layer microbenchmarks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import hostspeed
import workloads

sys.path.insert(0, workloads.SRC)

OUT_DIR = os.path.join(workloads.BENCH_DIR, "out")
CHUNK_REPS = 4


def _check_report(suite: str, code, text: str):
    """Returns (rows failed, problems, checks) for one suite's report."""
    expected = workloads.ROWS[suite]
    if code is None:
        return expected, [], 0  # the suite raised; already reported
    problems = []
    if code != 0:
        problems.append(f"{suite}: exit status {code}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return expected, problems + [f"{suite}: report is not JSON ({exc})"], 0
    if not isinstance(report, dict):
        return expected, problems + [f"{suite}: report is not a JSON object"], 0
    canonical = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    if canonical != text:
        problems.append(f"{suite}: report is not canonical JSON")
    rows = report.get("identities", [])
    if report.get("suite") != suite or len(rows) != expected:
        problems.append(f"{suite}: {len(rows)} rows, expected {expected}")
    failed = max(expected - len(rows), 0)
    for row in rows:
        if row.get("passed") is not True:
            failed += 1
            problems.append(f"{suite}/{row.get('id')}: passed is not true")
        elif "witness" in row and not row["witness"]:
            failed += 1
            problems.append(f"{suite}/{row.get('id')}: nonzero row without witness")
    checks = sum(row.get("samples", 0) for row in rows)
    return failed, problems, checks


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    from bvdouble import cli

    tracer = None
    problems = []
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        targets = [(f"{layer}.{name}", mod, path) for layer, name, mod, path in workloads.TRACED]
        problems += tracer.install("bvdouble", targets, workloads.AGGREGATED)

    suites = workloads.WORKLOADS[workload]
    config = workloads.config_path(workload)
    codes, texts = [], []
    clock = time.perf_counter
    # Short reference runs between the suites track the host speed during
    # the pass; they are excluded from the verdict time.  Each suite's time
    # weighs the mean of the references on either side of it.
    references = [hostspeed.reference_s(CHUNK_REPS)]
    verdict_s = weighted = 0.0
    for suite in suites:
        out = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                codes.append(
                    cli.main(["verify", "--suite", suite, "--config", config, "--seed", str(seed)])
                )
        except Exception as exc:  # a raising suite fails its rows; keep timing the rest
            codes.append(None)
            problems.append(f"{suite}: raised {exc!r}")
        elapsed = clock() - start
        texts.append(out.getvalue())
        references.append(hostspeed.reference_s(CHUNK_REPS))
        verdict_s += elapsed
        weighted += elapsed * (references[-2] + references[-1]) / 2
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference = weighted / verdict_s

    if tracer is not None:
        tracer.uninstall()
    failed, checks = 0, 0
    for suite, code, text in zip(suites, codes, texts):
        f, p, c = _check_report(suite, code, text)
        failed += f
        problems += p
        checks += c
    blob = "".join(texts).encode()
    result = {
        "verdict_s": verdict_s,
        "rows": workloads.expected_rows(workload),
        "failed_rows": failed,
        "checks": checks,
        "report_bytes": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
        "peak_rss_kb": peak_rss_kb,
        "reference_s": reference,
        "problems": problems,
    }
    if tracer is not None:
        result["trace"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "mul_pairs": tracer.mul_pairs,
            "mul_modes": tracer.mul_modes,
            "coeff_max_bits": tracer.coeff_max_bits,
            "suite_wall_s": tracer.span_totals("suites."),
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(
            os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json"),
            {"workload": workload, "seed": seed, "verdict_s": verdict_s},
        )
    return result


def run_setup(workload: str, seed: int) -> dict:
    from bvdouble import cli  # noqa: F401  (the import is what is timed)
    from bvdouble.suites import SuiteConfig

    with open(workloads.config_path(workload), encoding="utf-8") as handle:
        SuiteConfig.from_dict(json.load(handle)).with_overrides(seed=seed)
    return {}


def run_micro(workload: str) -> dict:
    import micro

    before = hostspeed.reference_s()
    values, problems = micro.run(workload)
    reference = (before + hostspeed.reference_s()) / 2
    return {"values": values, "problems": problems, "reference_s": reference}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "micro"))
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = run_setup(args.workload, args.seed)
    elif args.mode == "pass":
        result = run_pass(args.workload, args.seed, args.trace)
    else:
        result = run_micro(args.workload)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
