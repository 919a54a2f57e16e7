"""Wrappers installed on ``dckm`` module attributes, from outside the package.

A :class:`Probe` replaces selected functions in every ``dckm`` module
namespace that binds them (``from .x import f`` makes a second binding), so
calls made by the package itself go through the wrapper. Two modes:

* checking only (``spans=False``): a few coarse functions (``fit``, the Lloyd
  baselines, ``balance_only_weights``) get a hook that inspects their result;
  the cost is a few microseconds per fit, so passes stay untraced for timing;
* tracing (``spans=True``): every function in :data:`TRACED` records a span
  (name, start, end, parent) in memory, and the hooks also count work.

Nothing under ``src/`` is modified; :meth:`Probe.remove` restores the
original attributes.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("core", "decorrelation", "solver", "baselines", "metrics", "data", "cli")

# Relative tolerance on objective increases between sweeps, the same one the
# acceptance test C02 applies to the monotone objective trace.
MONOTONE_RTOL = 1e-8


def _check_history(probe, where, history):
    hist = np.asarray(history, dtype=np.float64)
    if hist.size == 0 or not np.all(np.isfinite(hist)):
        probe.problems.append(f"{where}: objective history empty or not finite")
    elif np.any(np.diff(hist) > MONOTONE_RTOL * np.maximum(1.0, np.abs(hist[:-1]))):
        probe.problems.append(f"{where}: objective history increases")


def _check_labels(probe, where, labels, n, k):
    labels = np.asarray(labels)
    if labels.shape != (n,) or labels.min() < 0 or labels.max() >= k:
        probe.problems.append(f"{where}: labels outside [0, {k}) or wrong length")


def _check_weights(probe, where, w, n):
    w = np.asarray(w)
    if w.shape != (n,) or not np.all(np.isfinite(w)) or np.any(w < 0):
        probe.problems.append(f"{where}: weights not finite and non-negative")


def _fit_hook(probe, args, result):
    X, params = args[0], args[1]
    n = np.shape(X)[0]
    _check_history(probe, "solver.fit", result.objective_history)
    _check_labels(probe, "solver.fit", result.labels, n, params.n_clusters)
    _check_weights(probe, "solver.fit", result.weights.w, n)
    probe.counts["solver.fits"] += 1
    probe.counts["solver.sweeps"] += result.iterations
    probe.counts["solver.converged"] += bool(result.converged)


def _lloyd_hook(probe, args, result):
    n = np.shape(args[0])[0]
    _check_labels(probe, "baselines.lloyd", result.labels, n, result.centroids.shape[1])


def _balance_only_hook(probe, args, result):
    weights, history = result
    _check_weights(probe, "baselines.balance_only_weights", weights.w, np.shape(args[0])[0])
    _check_history(probe, "baselines.balance_only_weights", history)
    probe.counts["baselines.balance_only_weights.steps"] += len(history) - 1


def _update_weights_hook(probe, args, result):
    probe.counts["solver.stalled"] += bool(result[1])


def _gram_hook(probe, args, result):
    # One weighted Gram X^T (X * w) per call: n*d multiplies for X * w and
    # 2*n*d^2 for the product; bytes read X twice, write and read the n x d
    # temporary, and write the d x d result. Computed from shapes, so cache
    # behaviour is ignored.
    n, d = np.shape(args[0])
    probe.counts["decorrelation.gram_flops"] += 2 * n * d * d + n * d
    probe.counts["decorrelation.gram_bytes"] += 8 * (4 * n * d + d * d)


# (module, attribute, hook). Span names are "<module>.<attribute>", so the
# module name is the layer.
TRACED = (
    ("core", "validate_data", None),
    ("decorrelation", "balance_loss", _gram_hook),
    ("decorrelation", "balance_gradient", _gram_hook),
    ("solver", "fit_restarts", None),
    ("solver", "fit", _fit_hook),
    ("solver", "update_weights", _update_weights_hook),
    ("solver", "update_assignments", None),
    ("solver", "_centroids_with_recovery", None),
    ("baselines", "kmeans", _lloyd_hook),
    ("baselines", "weighted_kmeans", _lloyd_hook),
    ("baselines", "balance_only_weights", _balance_only_hook),
    ("metrics", "nmi", None),
    ("metrics", "ari", None),
    ("metrics", "correlation_amount", None),
    ("data", "generate_biased", None),
    ("data", "save_dataset", None),
    ("data", "load_csv", None),
    ("cli", "main", None),
    ("cli", "run_method", None),
)

CHECKED = tuple(t for t in TRACED if t[2] in (_fit_hook, _lloyd_hook, _balance_only_hook))


class Probe:
    """Installs wrappers on ``dckm`` functions and collects what they see."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.names: list[str] = []
        self.spans: list = []  # (name id, start ns, end ns, parent span index or -1)
        self.counts: Counter = Counter()
        self.problems: list[str] = []
        self._stack = [-1]
        self._restore: list = []

    # -- installation -----------------------------------------------------

    def install(self):
        import dckm.solver

        for module, attr, hook in TRACED if self.spans_on else CHECKED:
            self._replace(f"dckm.{module}", attr, hook)
        if self.spans_on:
            # Only the joint solver's line search counts as solver.ls_evals;
            # the binding baselines imports stays untouched.
            original = dckm.solver._backtrack
            counts = self.counts

            def backtrack(fun, *rest):
                def trial(x):
                    counts["solver.ls_evals"] += 1
                    return fun(x)

                return original(trial, *rest)

            self._restore.append((dckm.solver, "_backtrack", original))
            dckm.solver._backtrack = self._wrap("solver._backtrack", backtrack, None)
        return self

    def remove(self):
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def _replace(self, module_name, attr, hook):
        original = getattr(sys.modules[module_name], attr)
        layer = module_name.rsplit(".", 1)[1]
        wrapper = self._wrap(f"{layer}.{attr}", original, hook)
        for name, module in list(sys.modules.items()):
            if name != "dckm" and not name.startswith("dckm."):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, binding, original))
                    setattr(module, binding, wrapper)

    def _wrap(self, name, fn, hook):
        probe = self
        if not self.spans_on:

            def checked(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(probe, args, result)
                return result

            return checked

        self.names.append(name)
        nid = len(self.names) - 1
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)
            if hook is not None:
                hook(probe, args, result)
            return result

        return traced

    # -- summaries --------------------------------------------------------

    def span_stats(self):
        """Per span name: calls, inclusive seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans do not overlap within one thread, so this is the part
        of the interval its children do not cover.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for index, (nid, start, end, _) in enumerate(self.spans):
            entry = stats[self.names[nid]]
            entry[0] += 1
            entry[1] += (end - start) * 1e-9
            entry[2] += (end - start - child_ns[index]) * 1e-9
        return stats

    def child_calls(self, child, parent):
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        names, spans = self.names, self.spans
        return sum(
            1
            for nid, _, _, p in spans
            if names[nid] == child and p >= 0 and names[spans[p][0]] == parent
        )

    def layer_metrics(self):
        """Per-layer metrics of one traced pass: counts exact, times in seconds."""
        stats = self.span_stats()
        counts = self.counts

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def seconds(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        steps = calls("solver._backtrack")
        sweeps = counts["solver.sweeps"]
        fits = counts["solver.fits"]
        out = {
            "solver.update_weights.s": seconds("solver.update_weights"),
            "solver.update_assignments.s": seconds("solver.update_assignments"),
            "solver.centroids.s": seconds("solver._centroids_with_recovery"),
            "solver.fit.s": seconds("solver.fit"),
            "solver.steps": steps,
            "solver.ls_evals": counts["solver.ls_evals"],
            "solver.grad_evals": self.child_calls(
                "decorrelation.balance_gradient", "solver.update_weights"
            ),
            "solver.ls_evals_per_step": counts["solver.ls_evals"] / steps if steps else 0.0,
            "solver.stalled": counts["solver.stalled"],
            "solver.reseeds": self.child_calls(
                "solver.update_assignments", "solver._centroids_with_recovery"
            ),
            "solver.fits": fits,
            "solver.sweeps": sweeps,
            "solver.sweep_ms": 1e3 * seconds("solver.fit") / sweeps if sweeps else 0.0,
            "solver.converged_frac": counts["solver.converged"] / fits if fits else 0.0,
            "decorrelation.gram_flops": counts["decorrelation.gram_flops"],
            "decorrelation.gram_bytes": counts["decorrelation.gram_bytes"],
            "baselines.kmeans.s": seconds("baselines.kmeans"),
            "baselines.weighted_kmeans.s": seconds("baselines.weighted_kmeans"),
            "baselines.balance_only_weights.s": seconds("baselines.balance_only_weights"),
            "baselines.balance_only_weights.steps": counts["baselines.balance_only_weights.steps"],
            "metrics.nmi.s": seconds("metrics.nmi"),
            "metrics.ari.s": seconds("metrics.ari"),
            "metrics.correlation_amount.s": seconds("metrics.correlation_amount"),
            "cli.run_method.s": seconds("cli.run_method"),
            "cli.main.s": seconds("cli.main"),
            "data.generate_biased.s": seconds("data.generate_biased"),
            "data.save_dataset.s": seconds("data.save_dataset"),
            "data.load_csv.s": seconds("data.load_csv"),
            "core.validate_data.calls": calls("core.validate_data"),
            "core.validate_data.s": seconds("core.validate_data"),
        }
        for fn in ("balance_loss", "balance_gradient"):
            name = f"decorrelation.{fn}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = seconds(name)
            out[f"{name}.us_per_call"] = 1e6 * seconds(name) / calls(name) if calls(name) else 0.0
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                entry[2] for name, entry in stats.items() if name.split(".", 1)[0] == layer
            )
        out["trace.spans"] = len(self.spans)
        return out

    def dump_spans(self):
        """Spans as plain data: names table plus [name id, start, end, parent]."""
        return {"names": self.names, "spans": [list(s) for s in self.spans]}
