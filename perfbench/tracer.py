"""Per-layer spans for rf-lab, recorded from outside the package.

A ``Tracer`` wraps the public functions listed in ``TARGETS`` in every
``rf_lab`` module namespace that bound them (``cli`` and ``hardness`` import
names from ``features`` and ``trainer`` by name, so patching only the
defining module would miss those calls).  Each call becomes one span
``(name, start, end, parent)`` kept in memory; counters are bumped at the same
boundary.  Spans are only meaningful when everything runs in one process,
so the traced pass uses ``--jobs 1``.

A span's self time is its duration minus the time covered by its child
spans.  Calls are nested and single-threaded, so children never overlap and
the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _count_calls(key):
    return lambda args, result: {key: 1}


def _count_kernel_steps(args, result):
    # run_steps(W, U, W0, X, y, eta, ..., start, count) in both backends
    return {"trainer.kernel_steps": int(args[-1])}


def _count_feature_matrix(args, result):
    return {"features.feature_matrix_calls": 1, "features.feature_matrix_bytes": int(result.nbytes)}


def _count_psi_points(args, result):
    return {"hardness.psi_eval_points": int(np.size(args[1]))}


def _count_written_bytes(args, result):
    return {"cli.bytes_written": Path(args[0]).stat().st_size}


# (defining module, function, self-time metric, counter or None)
TARGETS = [
    ("rf_lab.cli", "write_csv", "cli.write_s", None),
    ("rf_lab.cli", "_sha256", "cli.write_s", _count_written_bytes),
    ("rf_lab._sgd_numpy", "run_steps", "trainer.kernel_s", _count_kernel_steps),
    ("rf_lab._sgd_cy", "run_steps", "trainer.kernel_s", _count_kernel_steps),
    ("rf_lab.trainer", "forward", "trainer.validation_s", _count_calls("trainer.forward_calls")),
    ("rf_lab.trainer", "sgd_train", "trainer.sgd_train_self_s", None),
    ("rf_lab.features", "feature_matrix", "features.feature_matrix_s", _count_feature_matrix),
    ("rf_lab.features", "least_squares_fit", "features.lstsq_s", None),
    ("rf_lab.features", "concentration_experiment", "features.concentration_self_s", None),
    ("rf_lab.hardness", "psi_eval", "hardness.psi_eval_s", _count_psi_points),
    ("rf_lab.hardness", "train_single_neuron", "hardness.neuron_gd_s", None),
    ("rf_lab.hardness", "correlation_decay", "hardness.correlation_self_s", None),
    ("rf_lab.hardness", "neuron_inapprox_sweep", "hardness.sweep_self_s", None),
    ("rf_lab.hardness", "linear_residual", "hardness.linear_residual_s", None),
    ("rf_lab.poly_repr", "construct_g", "poly_repr.construct_g_s", _count_calls("poly_repr.construct_g_calls")),
    ("rf_lab.poly_repr", "eval_g", "poly_repr.eval_g_s", None),
    ("rf_lab.poly_repr", "integral_feature_expectation", "poly_repr.quadrature_s", None),
    ("rf_lab.numerics", "gauss_legendre_rule", "numerics.quad_rule_s", _count_calls("numerics.quad_rule_calls")),
    ("rf_lab.numerics", "gauss_hermite_rule", "numerics.quad_rule_s", _count_calls("numerics.quad_rule_calls")),
    ("rf_lab.numerics", "gaussian_expectation_1d", "numerics.gaussian_expectation_s", None),
    ("rf_lab.legendre", "build_monomial_table", "legendre.table_s", _count_calls("legendre.table_calls")),
    ("rf_lab.legendre", "legendre_eval", "legendre.eval_s", None),
    ("rf_lab.legendre", "multi_legendre_eval", "legendre.eval_s", None),
]

# Counts that are exact functions of (workload, seed): they must repeat
# bit-for-bit between two traced runs.
EXACT_COUNTS = (
    "cli.bytes_written",
    "trainer.kernel_steps",
    "trainer.forward_calls",
    "features.feature_matrix_calls",
    "features.feature_matrix_bytes",
    "hardness.psi_eval_points",
    "poly_repr.construct_g_calls",
    "numerics.quad_rule_calls",
    "legendre.table_calls",
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class Tracer:
    """In-memory span and counter store; not thread-safe (one traced process)."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent)

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts.update(counter(args, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every TARGETS function in every rf_lab namespace; undo on exit."""
        patched = []
        try:
            for module_name, attr, metric, counter in TARGETS:
                try:
                    original = getattr(importlib.import_module(module_name), attr)
                except ImportError:  # the compiled kernel is optional
                    continue
                wrapper = self.wrap(metric, original, counter)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "rf_lab" and getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Sum of self seconds per span name; call when no span is open."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for s, children in zip(self.spans, covered):
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - children
        return totals

    def root_seconds(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: [name, start, end, parent index],
        times in seconds from the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start - origin, s.end - origin, s.parent]) + "\n")
