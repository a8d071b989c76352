"""Spans around the calls into each dashssl layer, recorded from outside.

The tracer swaps module functions and class methods for timing wrappers
while it is installed and puts the originals back when it is removed, so
the program itself carries no tracing code.  Calls made inside the
program go through the same module attributes and are caught too.

Each span adds to its function's totals: calls, rows (the leading
dimension of the input), inclusive time, and self time (inclusive time
minus the time of the traced spans it contains).
"""

import functools
import os
import time


def _arg_len(i):
    return lambda args, result: len(args[i])


def _arg_int(i):
    return lambda args, result: int(args[i])


def _bundle_rows(bundle):
    return len(bundle.labeled) + len(bundle.unlabeled) + len(bundle.test)


ALL = ("calls", "rows", "self_s", "us_per_call")

# (layer, attribute path in the layer's module, quantities reported, rows).
TARGETS = [
    ("cli", "main", ("calls", "self_s", "us_per_call"), None),
    ("data", "make_two_moons", ALL, _arg_int(0)),
    ("data", "make_blobs", ALL, _arg_int(0)),
    ("data", "split_ssl", ALL, _arg_len(0)),
    ("data", "save_bundle", ALL, lambda a, r: _bundle_rows(a[0])),
    ("data", "load_bundle", ALL, lambda a, r: _bundle_rows(r)),
    ("data", "DatasetBundle.validate", ("self_s",), lambda a, r: _bundle_rows(a[0])),
    ("augment", "weak_augment_batch", ALL, _arg_len(0)),
    ("augment", "strong_augment_batch", ALL, _arg_len(0)),
    ("models", "forward_batch", ALL, _arg_len(1)),
    ("models", "batch_losses", ALL, _arg_len(1)),
    ("models", "loss_and_grad", ALL, _arg_len(1)),
    ("models", "mean_loss", ALL, _arg_len(1)),
    ("models", "error_rate", ALL, _arg_len(1)),
    ("dash", "dash_train", ("self_s",), None),
    ("dash", "truncated_gradient", ALL, _arg_len(1)),
    ("dash", "select", ALL, _arg_len(0)),
    ("dash", "write_metrics_csv", ("self_s", "bytes"), None),
    ("dash", "save_checkpoint", ("self_s", "bytes"), None),
    ("theory", "sample_mixture", ALL, _arg_int(4)),
    ("theory", "run_selection_stage", ALL,
     lambda a, r: r.samples_warmup + r.samples_selection),
    ("theory", "PLProblem.example_losses", ALL, _arg_len(2)),
    ("theory", "PLProblem.example_grads", ALL, _arg_len(2)),
    ("theory", "PLProblem.project", ALL, lambda a, r: 1),
]

UNITS = {"calls": "count", "rows": "count", "self_s": "s", "us_per_call": "us",
         "bytes": "B"}

# Metrics the traced run adds next to the span totals.
EXTRA = [("dash.selected_ratio", "ratio"), ("theory.selected_ratio", "ratio"),
         ("trace.overhead_pct", "%")]


def metric_names():
    """[(name, unit)] of every per-layer metric, in report order."""
    out = [(f"{layer}.{path}.{q}", UNITS[q])
           for layer, path, quantities, _ in TARGETS for q in quantities]
    return out + EXTRA


class _Totals:
    __slots__ = ("calls", "rows", "inclusive", "self_s", "bytes")

    def __init__(self):
        self.calls = self.rows = self.bytes = 0
        self.inclusive = self.self_s = 0.0


class Tracer:
    """Installable span recorder over the modules of one dashssl import."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> imported module
        self.totals = {f"{layer}.{path}": _Totals() for layer, path, _, _ in TARGETS}
        self._stack = []
        self._saved = []

    def _wrap(self, key, fn, rows, writes_file):
        totals = self.totals[key]
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                totals.calls += 1
                totals.inclusive += span
                totals.self_s += span - children[0]
            if rows is not None:
                totals.rows += rows(args, result)
            if writes_file:
                totals.bytes += os.path.getsize(args[1])
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        for layer, path, quantities, rows in TARGETS:
            owner = self.modules[layer]
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(f"{layer}.{path}", original, rows,
                                            "bytes" in quantities))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """{name: value} for every span quantity in TARGETS."""
        out = {}
        for layer, path, quantities, _ in TARGETS:
            t = self.totals[f"{layer}.{path}"]
            values = {"calls": t.calls, "rows": t.rows, "self_s": t.self_s,
                      "us_per_call": 1e6 * t.inclusive / t.calls if t.calls else 0.0,
                      "bytes": t.bytes}
            for q in quantities:
                out[f"{layer}.{path}.{q}"] = values[q]
        return out
