"""Reference forms the tests replay against the package's one-pass loops."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from ctrlstop.paths import _log_density_step, _step


def girsanov_log_terms(spec, batch) -> np.ndarray:
    """Per-step log-density terms [n, N] of a batch with recorded controls.

    Step i is ``_log_density_step`` on the batch's own states, controls and
    increments, so the per-row Neumaier sum of the terms is
    ``girsanov_log_batch``'s log M_T bit for bit.
    """
    times = batch.grid.nodes
    n, N, _ = batch.increments.shape
    terms = np.empty((N, n))
    for i in range(N):
        t = float(times[i])
        X = _step(batch.states, i)
        terms[i] = _log_density_step(
            spec, t, X, spec.sigma(t, X), _step(batch.controls, i), _step(batch.increments, i), batch.grid.dt
        )
    return terms.T


def benchmark_spec(name: str):
    """The problem of benchmark workload ``name``, as ``perfbench/workloads.py`` builds it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = module  # its dataclasses resolve their annotations there
    module_spec.loader.exec_module(module)
    return module.build_spec(name)
