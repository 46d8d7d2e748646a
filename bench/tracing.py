"""Span tracing of tailquant's layers, recorded from outside the package.

`Tracer.install` replaces public functions and methods of each module with
wrappers that record a span (name, start, end, parent) per call.  The
benchmark opens one root span per request; the spans of a request share it.
Spans are kept in memory until their request ends, then folded into per-name
totals outside the timed region, because one `estimate` request on 1e5
observations records 1e5 spans.

A span's self time is its duration minus the part of it that its child spans
cover.  Calls run on one thread, so spans nest and the self times of one
request sum to the duration of its root span; `fold` checks that.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, function) pairs wrapped wherever a tailquant module binds them.
FUNCTIONS = (
    ("cli", "main"),
    ("special_functions", "regularized_incomplete_beta"),
    ("bootstrap", "bootstrap_weights"),
    ("bootstrap", "bootstrap_variance"),
    ("estimators", "sort_ascending"),
    ("distributions", "normal_draw"),
    ("bayes", "posterior"),
    ("experiment", "run_trial"),
)

# (module, class, method) triples; a constructor is traced through __init__
# and its span is named after the class.
METHODS = (
    ("estimators", "Sample", "__init__"),
    ("estimators", "SortedSample", "__init__"),
    ("distributions", "LogExponential", "sample"),
    ("distributions", "RngStream", "generator"),
)

ROOT = "request"


def _size(sample) -> int:
    """Observations in a sample object or a bare array."""
    return int(np.size(getattr(sample, "values", sample)))


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Spans are listed in order of start, so a parent comes before its
    children; ``parents[i]`` is the index of span i's parent, or -1.  A child
    interval is clipped to its parent before it counts as covered.
    """
    covered = [0.0] * len(starts)
    cursor = list(starts)  # per parent: end of the covered prefix so far
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo = max(starts[i], cursor[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        cursor[p] = max(cursor[p], ends[i])
    return [e - s - c for s, e, c in zip(starts, ends, covered)]


class Tracer:
    """Records nested spans per request and folds them into per-name totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._stack: list[int] = []
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counters: dict[str, float] = {}
        self.weight_keys: set[tuple[int, int]] = set()
        self.requests = 0
        self.max_self_sum_error = 0.0
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self._starts)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(0.0)
        self._stack.append(idx)
        self._starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self._ends[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def request(self):
        """Root span of one request; call `fold` once it has ended."""
        if self._starts:
            raise RuntimeError("the previous request has not been folded")
        idx = self.open(ROOT)
        try:
            yield
        finally:
            self.close(idx)

    def fold(self) -> None:
        """Add the spans of the request that just ended to the totals."""
        selfs = self_times(self._starts, self._ends, self._parents)
        for name, s, e, own in zip(self._names, self._starts, self._ends, selfs):
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += e - s
            entry[2] += own
        wall = self._ends[0] - self._starts[0]
        self.max_self_sum_error = max(self.max_self_sum_error, abs(sum(selfs) - wall) / wall)
        self.requests += 1
        for spans in (self._names, self._starts, self._ends, self._parents):
            spans.clear()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_weights(self, weights) -> None:
        w = getattr(weights, "w", weights)
        key = (getattr(weights, "n", _size(w)), getattr(weights, "r", None))
        if key not in self.weight_keys:
            self.weight_keys.add(key)
            self.count("weights_computed", key[0])
            self.count("weights_nonzero", int(np.count_nonzero(w)))

    def install(self, package: str = "tailquant") -> None:
        """Wrap the traced functions and methods of an imported package.

        A target the package no longer has is skipped; its metrics read 0.
        """
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        }
        hooks = {
            "bootstrap.bootstrap_weights": self._on_weights,
            "estimators.sort_ascending": lambda s: self.count("sorted_values", _size(s)),
            "distributions.LogExponential.sample": lambda s: self.count("values_drawn", _size(s)),
        }
        for mod_name, attr in FUNCTIONS:
            original = getattr(modules.get(mod_name), attr, None)
            if original is None:
                continue
            name = f"{mod_name}.{attr}"
            wrapper = self.wrap(name, original, hooks.get(name))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for mod_name, cls_name, method in METHODS:
            cls = getattr(modules.get(mod_name), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                continue
            name = f"{mod_name}.{cls_name}" + ("" if method == "__init__" else f".{method}")
            setattr(cls, method, self.wrap(name, original, hooks.get(name)))
            self._undo.append((cls, method, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, each as (value, unit)."""

        def calls(name):
            return self.totals.get(name, [0, 0.0, 0.0])[0]

        def seconds(name):
            return self.totals.get(name, [0, 0.0, 0.0])[1]

        def self_seconds(name):
            return self.totals.get(name, [0, 0.0, 0.0])[2]

        ibeta = "special_functions.regularized_incomplete_beta"
        weights = "bootstrap.bootstrap_weights"
        computed = self.counters.get("weights_computed", 0)
        return {
            f"{ibeta}.calls": (calls(ibeta), "count"),
            f"{ibeta}.s": (seconds(ibeta), "s"),
            f"{ibeta}.us_per_call": (1e6 * seconds(ibeta) / max(calls(ibeta), 1), "us"),
            f"{weights}.s": (seconds(weights), "s"),
            "bootstrap.weights_computed": (computed, "count"),
            "bootstrap.weights_keys_per_call": (len(self.weight_keys) / max(calls(weights), 1), "ratio"),
            "bootstrap.nonzero_weight_share": (
                self.counters.get("weights_nonzero", 0) / max(computed, 1), "share"),
            "bootstrap.bootstrap_variance.self_s": (self_seconds("bootstrap.bootstrap_variance"), "s"),
            "estimators.Sample.s": (seconds("estimators.Sample"), "s"),
            "estimators.SortedSample.s": (seconds("estimators.SortedSample"), "s"),
            "estimators.sort_ascending.self_s": (self_seconds("estimators.sort_ascending"), "s"),
            "estimators.sorted_values": (self.counters.get("sorted_values", 0), "count"),
            "distributions.LogExponential.sample.s": (seconds("distributions.LogExponential.sample"), "s"),
            "distributions.values_drawn": (self.counters.get("values_drawn", 0), "count"),
            "distributions.RngStream.generator.calls": (calls("distributions.RngStream.generator"), "count"),
            "distributions.RngStream.generator.s": (seconds("distributions.RngStream.generator"), "s"),
            "distributions.normal_draw.s": (seconds("distributions.normal_draw"), "s"),
            "bayes.posterior.calls": (calls("bayes.posterior"), "count"),
            "bayes.posterior.s": (seconds("bayes.posterior"), "s"),
            "experiment.run_trial.calls": (calls("experiment.run_trial"), "count"),
            "experiment.run_trial.self_s": (self_seconds("experiment.run_trial"), "s"),
            "cli.main.self_s": (self_seconds("cli.main"), "s"),
        }
