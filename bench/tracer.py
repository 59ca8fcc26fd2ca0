"""Span tracer for the traced benchmark run.

The tracer wraps named bvdouble functions from outside the program: every
module and class namespace of the package that binds the original function
object gets the wrapper, so ``from .bvops import mu`` copies bound at import
time and ``__rmul__ = __mul__`` class aliases are traced too.  Each call
opens a frame on one stack; a frame's self time is its duration minus the
time its traced children cover.  Aggregated names keep only a call count and
a self-time total; the others are also stored as one span each
``(id, parent_id, name, start, end)``, kept in memory until ``write_spans``.
"""

from __future__ import annotations

import gc
import itertools
import json
import sys
import time

_FAILED = object()


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.calls = {}
        self.self_s = {}
        self.mul_pairs = 0
        self.mul_modes = 0
        self.coeff_max_bits = 0
        self._ids = itertools.count(1)
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, store, label=None, observe=None):
        stack, spans, calls, self_s, ids = (
            self.stack,
            self.spans,
            self.calls,
            self.self_s,
            self._ids,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            stack.append(frame)
            result = _FAILED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                key = label(args) if label else name
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + (end - start - frame[1])
                if store:
                    spans.append((frame[0], stack[-1][0] if stack else 0, key, start, end))
                if observe is not None and result is not _FAILED:
                    observe(args, result)
                # The parent counts the bookkeeping above as covered, so it
                # lands in nobody's self time (only in the overhead ratio).
                if stack:
                    stack[-1][1] += clock() - start

        return traced

    def _observe_mul(self, args, result):
        if result is NotImplemented:
            return
        left, right = args[0], args[1]
        if type(right) is type(left):
            self.mul_pairs += len(left.coeffs) * len(right.coeffs)
            self.mul_modes += len(result.coeffs)
        bits = self.coeff_max_bits
        for c in result.coeffs.values():
            for q in (c.re, c.im):
                b = max(q.numerator.bit_length(), q.denominator.bit_length())
                if b > bits:
                    bits = b
        self.coeff_max_bits = bits

    def install(self, package: str, targets, aggregated) -> list:
        """Wrap every binding of each target; returns binding problems found.

        ``targets`` holds ``(metric, module, attribute path)`` triples.  The
        suite driver ``suites.run_suite`` is wrapped as ``suites.<suite>``.
        """
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        namespaces = list(modules)
        for module in modules:
            for value in vars(module).values():
                if (
                    isinstance(value, type)
                    and value.__module__.startswith(package)
                    and value not in namespaces
                ):
                    namespaces.append(value)

        originals = []
        problems = []
        for metric, module, path in [*targets, ("suites.run_suite", "suites", "run_suite")]:
            owner = sys.modules[f"{package}.{module}"]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(
                metric,
                original,
                store=metric not in aggregated,
                label=_suite_label if metric == "suites.run_suite" else None,
                observe=self._observe_mul if metric == "scalars.fourier_mul" else None,
            )
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._undo.append((ns, key, original))
            originals.append((metric, original))

        # Any dict still holding an original is a binding the scan missed.
        for metric, original in originals:
            for ref in gc.get_referrers(original):
                if isinstance(ref, dict):
                    keys = [k for k, v in ref.items() if v is original]
                    problems.append(f"{metric} still bound unwrapped as {keys}")
        return problems

    def uninstall(self):
        for ns, key, original in reversed(self._undo):
            setattr(ns, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def span_totals(self, prefix: str) -> dict:
        """Summed duration of the stored spans per name starting with prefix."""
        totals = {}
        for _, _, name, start, end in self.spans:
            if name.startswith(prefix):
                totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def write_spans(self, path: str, meta: dict):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **meta,
                    "fields": ["id", "parent", "name", "start", "end"],
                    "spans": self.spans,
                    "aggregated": {
                        k: {"calls": self.calls[k], "self_s": self.self_s[k]}
                        for k in sorted(self.calls)
                    },
                },
                handle,
            )


def _suite_label(args):
    return f"suites.{args[0]}"
