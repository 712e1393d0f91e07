"""Stage clocks, spans and the outside-in wrappers of the traced run.

Untraced runs time each public layer call with ``StageClock``.  Traced runs
use ``Tracer``, which records a span for the same calls and, while
``instrument`` is active, for the package bindings in ``BINDINGS`` and for
the five coefficient callables of the problem spec.  The wrappers are
installed from outside the package and removed afterwards; no package
source changes.

A span is (name, start, end, parent, workload, run).  A layer is the part of
a span name before the first dot.  A layer's self time is the duration of
its spans minus the part covered by their direct child spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import time
from collections import defaultdict

import numpy as np

HAMILTON_METRICS = ("hamilton.calls", "hamilton.control_evals", "hamilton.s", "hamilton.self_s")

# package bindings the traced run wraps: (module, attribute, span name, metrics
# that cannot be measured when the binding is gone)
BINDINGS = (
    ("ctrlstop.pde", "sup_hamiltonian_batch", "hamilton.sup_hamiltonian_batch", HAMILTON_METRICS),
    ("ctrlstop.mc", "sup_hamiltonian_batch", "hamilton.sup_hamiltonian_batch", HAMILTON_METRICS),
    ("ctrlstop.mc", "dominating_generator_batch", "hamilton.dominating_generator_batch", HAMILTON_METRICS),
    ("ctrlstop.strategy", "simulate_controlled", "paths.controlled", ("paths.controlled_s",)),
    ("ctrlstop.strategy", "girsanov_log_batch", "paths.girsanov", ("paths.girsanov_s",)),
)

# coefficient callable -> position of the state array X among its arguments
COEFFICIENTS = {"sigma": 1, "f": 1, "gamma": 1, "g": 0, "h": 1}


class StageClock:
    """Wall time per stage name for the current run; the untraced clock.

    ``busy`` sums the outermost stages: the pipeline's layer calls, without
    the benchmark's own checks between them.
    """

    def __init__(self):
        self.seconds = defaultdict(float)
        self.busy = 0.0

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] += elapsed
            self.busy += elapsed


class Tracer(StageClock):
    """Stage clock that also keeps spans and call counters in memory.

    ``start_run`` begins a new run id and clears the per-run stage seconds
    and counters; spans of all runs stay until ``dump``.
    """

    def __init__(self, workload: str):
        super().__init__()
        self.workload = workload
        self.run = -1
        self.spans = []    # [name, start, end, parent index or -1, workload, run]
        self.counts = defaultdict(int)
        self._open = []

    def start_run(self, run: int):
        self.run = run
        self.seconds = defaultdict(float)
        self.busy = 0.0
        self.counts = defaultdict(int)

    @contextlib.contextmanager
    def __call__(self, name: str):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        span = [name, time.perf_counter(), None, parent, self.workload, self.run]
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            self.seconds[name] += span[2] - span[1]
            if parent < 0:
                self.busy += span[2] - span[1]

    def wrap(self, fn, name: str, count):
        """``fn`` inside a span named ``name``; ``count(args)`` updates counters."""

        def traced(*args, **kwargs):
            count(args)
            with self(name):
                return fn(*args, **kwargs)

        return traced

    def layer_times(self, run: int) -> tuple[dict, dict]:
        """(inclusive seconds, self seconds) per layer over one run's spans."""
        covered = defaultdict(float)
        for name, start, end, parent, _, r in self.spans:
            if r == run and parent >= 0:
                covered[parent] += end - start
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _, _, r) in enumerate(self.spans):
            if r == run:
                layer = name.split(".", 1)[0]
                inclusive[layer] += end - start
                own[layer] += end - start - covered[i]
        return inclusive, own

    def dump(self, path):
        """Write every span as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "workload", "run")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _hamilton_counter(tracer: Tracer, name: str):
    controls = name.endswith("sup_hamiltonian_batch")

    def count(args):
        tracer.counts["hamilton.calls"] += 1
        if controls:
            spec, X = args[0], args[2]
            tracer.counts["hamilton.control_evals"] += np.atleast_2d(X).shape[0] * spec.controls.k

    return count


def _coefficient_counter(tracer: Tracer, position: int):
    def count(args):
        tracer.counts["model.coeff_calls"] += 1
        tracer.counts["model.coeff_rows"] += np.atleast_2d(args[position]).shape[0]

    return count


def _no_count(args):
    pass


@contextlib.contextmanager
def instrument(tracer: Tracer, spec):
    """Install the wrappers; yields (traced spec, metric names left unmeasured).

    A binding that no longer exists is skipped, and the metrics it feeds are
    reported as absent instead of failing the run.
    """
    installed = []
    absent = set()
    try:
        for module_name, attr, name, metrics in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                absent.update(metrics)
                continue
            counter = _hamilton_counter(tracer, name) if name.startswith("hamilton.") else _no_count
            setattr(module, attr, tracer.wrap(original, name, counter))
            installed.append((module, attr, original))
        coeffs = spec.coefficients
        wrapped = {
            attr: tracer.wrap(getattr(coeffs, attr), f"model.{attr}", _coefficient_counter(tracer, pos))
            for attr, pos in COEFFICIENTS.items()
        }
        yield dataclasses.replace(spec, coefficients=dataclasses.replace(coeffs, **wrapped)), absent
    finally:
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)
