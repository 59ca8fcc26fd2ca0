"""Layer microbenchmarks on fixed seeded inputs drawn from a workload config.

Each microbenchmark builds its inputs from the workload's dimension, metric,
mode cutoff and matrix rank with a fixed seed (independent of the workload
seed), computes its result once and compares the sha256 of the result's
canonical JSON with the digest stored in ``micro_digests.json``, so a fast
but wrong kernel fails instead of scoring.  The time per operation is the
median over batches of at least ``BATCH_S`` seconds each; a kernel slower
than that is timed over ``SLOW_BATCHES`` single calls.

Run ``python3 bench/micro.py`` from the repository root to print the digest
table for every workload (to regenerate ``micro_digests.json`` after a
deliberate change of a result).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import sys
import time

import workloads

BATCHES = 5
SLOW_BATCHES = 3
BATCH_S = 0.02
DIGESTS = os.path.join(workloads.BENCH_DIR, "micro_digests.json")


NAMES = (
    "scalars.micro.gauss_mul_ns",
    "scalars.micro.gauss_add_ns",
    "scalars.micro.fourier_mul_us",
    "scalars.micro.fourier_derivative_us",
    "sections.micro.dorfman_us",
    "bvops.micro.mu_us",
    "bvops.micro.brack_us",
    "deform.micro.R_eta_us",
    "deform.micro.mu_bar_eta_us",
    "deform.micro.mc_residual_ms",
    "deform.micro.ym_field_residual_ms",
    "doublecopy.micro.c_bracket_us",
    "doublecopy.micro.double_bracket_us",
)
_FACTORS = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def _builders():
    from bvdouble import bvops, deform, doublecopy, sections
    from bvdouble.bvcomplex import random_element
    from bvdouble.scalars import random_coefficient, random_scalar

    def weights(eta):
        return [w for row in eta.upper for w in row if w]

    def gauss_pairs(cfg, rng):
        ws = weights(cfg.metric)
        return [
            (random_coefficient(rng) * ws[i % len(ws)], random_coefficient(rng) * ws[-1 - i % len(ws)])
            for i in range(64)
        ]

    def scalar_list(cfg, rng, count):
        ws = weights(cfg.metric)
        return [
            random_scalar(rng, cfg.dim, cfg.mode_cutoff, max_modes=3) * ws[i % len(ws)]
            for i in range(count)
        ]

    def degree_pairs(cfg, rng):
        return [
            (
                random_element(rng, cfg.dim, cfg.mode_cutoff, d1),
                random_element(rng, cfg.dim, cfg.mode_cutoff, d2),
            )
            for d1 in range(4)
            for d2 in range(4)
        ]

    def gauge_field(cfg, rng):
        # The ym suite's rank and cutoff 1, with one mode per entry to keep a
        # call near a second on the dense metric.
        def entries():
            return deform.MatrixFunction(
                [
                    [random_scalar(rng, cfg.dim, 1, max_modes=1) for _ in range(cfg.matrix_rank)]
                    for _ in range(cfg.matrix_rank)
                ]
            )

        avec = [entries() for _ in range(cfg.dim)]
        bform = [entries() for _ in range(cfg.dim)]
        return deform.mc_from_fields(avec, bform, cfg.metric)

    def gauss_mul(cfg, rng):
        pairs = gauss_pairs(cfg, rng)
        return (lambda: [a * b for a, b in pairs]), len(pairs)

    def gauss_add(cfg, rng):
        pairs = gauss_pairs(cfg, rng)
        return (lambda: [a + b for a, b in pairs]), len(pairs)

    def fourier_mul(cfg, rng):
        fs = scalar_list(cfg, rng, 16)
        pairs = list(zip(fs[::2], fs[1::2]))
        return (lambda: [f * g for f, g in pairs]), len(pairs)

    def fourier_derivative(cfg, rng):
        fs = scalar_list(cfg, rng, 8)
        dims = range(cfg.dim)
        return (lambda: [f.derivative(j) for f in fs for j in dims]), len(fs) * cfg.dim

    def dorfman(cfg, rng):
        pairs = [
            (
                sections.random_section(rng, cfg.dim, cfg.mode_cutoff),
                sections.random_section(rng, cfg.dim, cfg.mode_cutoff),
            )
            for _ in range(8)
        ]
        return (lambda: [sections.dorfman(a, b) for a, b in pairs]), len(pairs)

    def binary(op):
        def build(cfg, rng):
            pairs = degree_pairs(cfg, rng)
            return (lambda: [op(x, y) for x, y in pairs]), len(pairs)

        return build

    def r_eta(cfg, rng):
        xs = [random_element(rng, cfg.dim, cfg.mode_cutoff, d) for d in range(4)]
        eta = cfg.metric
        return (lambda: [deform.R_eta(x, eta) for x in xs]), len(xs)

    def mu_bar_eta(cfg, rng):
        pairs = degree_pairs(cfg, rng)[::4]
        eta = cfg.metric
        return (lambda: [deform.mu_bar_eta(x, y, eta) for x, y in pairs]), len(pairs)

    def mc_residual(cfg, rng):
        psi = gauge_field(cfg, rng)
        eta = cfg.metric
        return (lambda: deform.mc_residual(psi, eta)), 1

    def ym_field_residual(cfg, rng):
        psi = gauge_field(cfg, rng)
        eta = cfg.metric
        cal_a, phi = deform.dictionary_fields(psi, eta)
        return (lambda: deform.ym_field_residual(cal_a, phi, eta)), 1

    def c_bracket(cfg, rng):
        pairs = [
            (
                doublecopy.random_vector_field(rng, cfg.dim, cfg.mode_cutoff),
                doublecopy.random_vector_field(rng, cfg.dim, cfg.mode_cutoff),
            )
            for _ in range(8)
        ]
        eta = cfg.metric
        return (lambda: [doublecopy.c_bracket(a, b, eta) for a, b in pairs]), len(pairs)

    def double_bracket(cfg, rng):
        pairs = [
            (
                doublecopy.random_bivector(rng, cfg.dim, cfg.mode_cutoff),
                doublecopy.random_bivector(rng, cfg.dim, cfg.mode_cutoff),
            )
            for _ in range(2)
        ]
        return (lambda: [doublecopy.double_bracket(g, h) for g, h in pairs]), len(pairs)

    builders = (
        gauss_mul,
        gauss_add,
        fourier_mul,
        fourier_derivative,
        dorfman,
        binary(bvops.mu),
        binary(bvops.brack),
        r_eta,
        mu_bar_eta,
        mc_residual,
        ym_field_residual,
        c_bracket,
        double_bracket,
    )
    return zip(NAMES, builders)




def _timed(fn, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return time.perf_counter() - start


def _load_config(workload: str):
    from bvdouble.suites import SuiteConfig

    with open(workloads.config_path(workload), encoding="utf-8") as handle:
        return SuiteConfig.from_dict(json.load(handle))


def _digest(result) -> str:
    from bvdouble.serialize import canonical_dumps

    return hashlib.sha256(canonical_dumps(result).encode()).hexdigest()


def digests(workload: str) -> dict:
    cfg = _load_config(workload)
    out = {}
    for metric, build in _builders():
        fn, _ = build(cfg, random.Random(f"micro:{metric}"))
        out[metric] = _digest(fn())
    return out


def run(workload: str):
    """Returns ({metric: time per operation}, [problems])."""
    with open(DIGESTS, encoding="utf-8") as handle:
        stored = json.load(handle)[workload]
    cfg = _load_config(workload)
    values, problems = {}, []
    clock = time.perf_counter
    for metric, build in _builders():
        fn, ops = build(cfg, random.Random(f"micro:{metric}"))
        start = clock()
        result = fn()
        first = clock() - start
        if _digest(result) != stored.get(metric):
            problems.append(f"{metric}: result digest differs from the stored one")
        if first >= BATCH_S:  # slow kernels: the checked call is one sample
            reps, times = 1, [first] + [_timed(fn, 1) for _ in range(SLOW_BATCHES - 1)]
        else:
            reps = 1
            while _timed(fn, reps) < BATCH_S:
                reps *= 2
            times = [_timed(fn, reps) for _ in range(BATCHES)]
        factor = _FACTORS[metric.rsplit("_", 1)[1]]
        values[metric] = statistics.median(times) / (reps * ops) * factor
    return values, problems


if __name__ == "__main__":
    sys.path.insert(0, workloads.SRC)
    table = {w: digests(w) for w in workloads.WORKLOADS}
    sys.stdout.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
