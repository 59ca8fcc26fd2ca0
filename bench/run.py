"""Time-to-verdict benchmark for ``bvdouble verify``.

    python3 bench/run.py --workload tower --seed 42 --seconds 40 --trace 0

Run from the repository root (the sources must be under ``src/``).  Load
model: a closed loop with one caller and no threads; every pass is a fresh
child process (``bench/worker.py``) that calls
``bvdouble.cli.main(["verify", "--suite", S, ...])`` once per suite of the
workload, so parsing, config validation, the suites and canonical
serialization are all timed.  Pass 0 runs at ``--seed``; later passes run at
seeds derived from it, so one run averages over inputs as well as over host
noise, and a closing pass repeats ``--seed`` to prove the canonical reports
are byte-identical.  The sha256 of the reports at ``--seed`` is printed so a
refactor can show byte-identity against its parent.

Every timing is scaled to nominal host speed by the reference kernel of
``hostspeed.py``, timed in the same process around the measured interval.

``--trace 0`` reports the end-to-end metrics:

* ``verdict_s``: summed time of a pass's ``main`` calls, each up to its
  report's last byte, as the trimmed mean over passes (lowest and highest
  fifth dropped);
* ``checks_per_s``: sampled residual evaluations (the rows' ``samples``)
  per second of ``verdict_s``;
* ``setup_s``: median over several fresh interpreters of the time to import
  bvdouble and validate the workload config;
* ``peak_rss_mb``: median peak RSS of the pass processes.

``--trace 1`` runs the layer microbenchmarks, then alternates untraced and
traced passes at ``--seed`` and reports per-layer call counts and self
times, checking that counts repeat exactly and that the layer map in
``workloads.py`` holds.

The last stdout line is one JSON object with ``correct``, ``attempted``
(report rows evaluated), ``failed`` and ``metrics``; the row failure ratio
``failed / attempted`` goes to stderr with every metric and its unit.  Any
failed check makes the exit status 1; a checkout without the sources exits
2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed
import micro
import workloads

WORKER = os.path.join(workloads.BENCH_DIR, "worker.py")
SETUP_RUNS = 9
MIN_PASSES = 4
MIN_TRACED = 2
HARD_LIMIT_S = 170  # every child is killed before the run reaches this


class ChildFailed(Exception):
    pass


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, mode: str, seed=None, trace=False) -> dict:
        cmd = [sys.executable, WORKER, mode, "--workload", self.workload]
        if seed is not None:
            cmd += ["--seed", str(seed)]
        if trace:
            cmd.append("--trace")
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=timeout, cwd=workloads.ROOT
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child timed out after {timeout:.0f} s") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            tail = proc.stderr.strip().splitlines()[-3:]
            raise ChildFailed(f"{mode} child exited {proc.returncode}: {' | '.join(tail)}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run_pass(self, seed: int, trace=False):
        """One verify pass; returns its result, or None if the child failed."""
        self.attempted += workloads.expected_rows(self.workload)
        try:
            result = self.child("pass", seed, trace)
        except ChildFailed as exc:
            self.failed += workloads.expected_rows(self.workload)
            self.problems.append(f"seed {seed}: {exc}")
            return None
        self.failed += result["failed_rows"]
        if result["problems"]:
            if not result["failed_rows"]:
                self.failed += 1
            self.problems += [f"seed {seed}: {p}" for p in result["problems"]]
        tag = " traced" if trace else ""
        result["scaled_s"] = hostspeed.scaled(result["verdict_s"], result["reference_s"])
        log(
            f"{self.workload} seed {seed}{tag}: {result['verdict_s']:.4f} s wall,"
            f" reference {result['reference_s']:.4f} s, {result['scaled_s']:.4f} s scaled,"
            f" sha256 {result['sha256']}"
        )
        return result

    def violation(self, message: str):
        self.failed += 1
        self.problems.append(message)

    def same_reports(self, results):
        digests = {r["sha256"] for r in results}
        if len(digests) > 1:
            self.violation(f"seed {self.seed}: reports differ between reruns: {sorted(digests)}")


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass k: the workload seed for k = 0, else a 31-bit hash of both."""
    if k == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def trimmed_mean(values) -> float:
    """Mean of the values left after dropping the lowest and highest fifth."""
    values = sorted(values)
    cut = len(values) // 5
    kept = values[cut : len(values) - cut]
    return sum(kept) / len(kept)


def verdict(passes) -> float:
    """Pass time at nominal host speed, as the trimmed mean over passes."""
    return trimmed_mean(r["scaled_s"] for r in passes)


def log(message: str):
    print(message, file=sys.stderr, flush=True)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_setup(run: Run) -> float:
    """Median setup time, scaled by the median of the interleaved references."""
    run.child("setup", run.seed)  # untimed: fills the bytecode cache
    walls, references = [], [hostspeed.reference_s()]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        run.child("setup", run.seed)
        walls.append(time.perf_counter() - start)
        references.append(hostspeed.reference_s())
    return hostspeed.scaled(statistics.median(walls), statistics.median(references))


def plain_run(run: Run) -> dict:
    metrics = {"setup_s": metric(measure_setup(run), "s")}
    passes, walls = [], []
    for k in itertools.count():
        start = time.monotonic()
        result = run.run_pass(pass_seed(run.seed, k))
        walls.append(time.monotonic() - start)
        if k == 0:
            first = result
        if result is not None:
            passes.append(result)
        # Stop when one more pass plus the closing repeat would overrun.
        if k + 1 >= MIN_PASSES and run.elapsed() + 2 * statistics.median(walls) > run.seconds:
            break
    repeat = run.run_pass(run.seed)
    if repeat is not None and first is not None:
        passes.append(repeat)
        run.same_reports([first, repeat])
        print(f"sha256 {run.workload} seed {run.seed}: {repeat['sha256']}")

    if passes:
        metrics["verdict_s"] = metric(verdict(passes), "s")
        metrics["checks_per_s"] = metric(
            trimmed_mean(r["checks"] / r["scaled_s"] for r in passes), "1/s"
        )
        metrics["peak_rss_mb"] = metric(
            statistics.median(r["peak_rss_kb"] for r in passes) / 1024, "MB"
        )
        log(f"{run.workload}: {len(passes)} passes")
        log(f"wall verdict_s {statistics.median(r['verdict_s'] for r in passes):.4f} s (unscaled)")
    return metrics


def traced_run(run: Run) -> dict:
    metrics = {}
    try:
        micro_result = run.child("micro")
    except ChildFailed as exc:
        run.violation(f"microbenchmarks: {exc}")
    else:
        for problem in micro_result["problems"]:
            run.violation(problem)
        reference = micro_result["reference_s"]
        for name in micro.NAMES:
            unit = name.rsplit("_", 1)[1]
            metrics[name] = metric(hostspeed.scaled(micro_result["values"][name], reference), unit)

    untraced, traced = [], []
    while True:
        start = time.monotonic()
        for trace, into in ((False, untraced), (True, traced)):
            result = run.run_pass(run.seed, trace)
            if result is not None:
                into.append(result)
        pair_s = time.monotonic() - start
        if len(traced) >= MIN_TRACED and run.elapsed() + pair_s > run.seconds:
            break
        if run.elapsed() > HARD_LIMIT_S / 2:
            break  # children keep failing; stop retrying
    if len(traced) < MIN_TRACED or not untraced:
        run.violation(f"only {len(traced)} traced passes completed")
        return metrics
    run.same_reports(untraced + traced)
    print(f"sha256 {run.workload} seed {run.seed}: {traced[0]['sha256']}")

    traces = [r["trace"] for r in traced]
    calls = traces[0]["calls"]
    for other in traces[1:]:
        if other["calls"] != calls:
            run.violation("per-layer call counts differ between traced passes")
    check_layer_map(run, calls)

    for layer, name, _, _ in workloads.TRACED:
        key = f"{layer}.{name}"
        metrics[f"{key}.calls"] = metric(calls.get(key, 0), "count")
        metrics[f"{key}.self_s"] = metric(
            median_scaled(traced, lambda t: t["self_s"].get(key, 0.0)), "s"
        )
    first = traces[0]
    metrics["scalars.fourier_mul.kept_ratio"] = metric(
        first["mul_modes"] / first["mul_pairs"] if first["mul_pairs"] else 0.0, "ratio"
    )
    metrics["scalars.coeff_max_bits"] = metric(first["coeff_max_bits"], "bits")
    metrics["serialize.report_bytes"] = metric(traced[0]["report_bytes"], "B")
    for suite in workloads.SUITES:
        key = f"suites.{suite}"
        metrics[f"{key}.wall_s"] = metric(
            median_scaled(traced, lambda t: t["suite_wall_s"].get(key, 0.0)), "s"
        )
    metrics["suites.rows"] = metric(traced[0]["rows"], "count")
    metrics["suites.checks"] = metric(traced[0]["checks"], "count")
    metrics["suites.driver_self_s"] = metric(
        median_scaled(
            traced, lambda t: sum(v for k, v in t["self_s"].items() if k.startswith("suites."))
        ),
        "s",
    )
    metrics["trace.overhead_ratio"] = metric(
        verdict(traced) / verdict(untraced),
        "ratio",
    )
    log(f"{run.workload}: {len(untraced)} untraced and {len(traced)} traced passes")
    return metrics


def median_scaled(traced, pick) -> float:
    """Median over traced passes of one span time, at nominal host speed."""
    return statistics.median(hostspeed.scaled(pick(r["trace"]), r["reference_s"]) for r in traced)


def check_layer_map(run: Run, calls: dict):
    """Home workloads call each traced function; bypassing ones never do."""
    for key, homes in workloads.HOME.items():
        if run.workload in homes and not calls.get(key):
            run.violation(f"{key} was never called on its home workload {run.workload}")
    for layer, (_, _, bypass) in workloads.LAYERS.items():
        if run.workload in bypass:
            hit = {k: n for k, n in calls.items() if k.startswith(layer + ".") and n}
            if hit:
                run.violation(f"{run.workload} must not call {layer}: {hit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time-to-verdict benchmark for bvdouble verify.")
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(workloads.SRC, "bvdouble", "cli.py")):
        log(f"error: no bvdouble sources under {workloads.SRC}; run from a repository checkout")
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics = traced_run(run) if args.trace else plain_run(run)
    except ChildFailed as exc:
        run.violation(str(exc))
        metrics = {}
    for problem in run.problems:
        log(f"FAILED: {problem}")
    log(f"row_fail_ratio {run.failed / max(run.attempted, 1):.4f} ({run.failed}/{run.attempted})")
    for name, m in sorted(metrics.items()):
        log(f"{name} = {m['value']} {m['unit']}")
    correct = not run.problems and run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
