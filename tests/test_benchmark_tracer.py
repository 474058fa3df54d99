"""The benchmark's tracer wraps library attributes by name; a refactor that
renames or drops one of them breaks ``perfbench/run.py --trace 1``."""

import importlib

import numpy as np
import pytest

from mvml import SolverConfig, fit
from mvml.data import StackGeometry

from conftest import make_dataset

tracing = pytest.importorskip("perfbench.tracing")


def test_tracer_targets_exist_and_come_back_unwrapped():
    names = [(module, attr) for module, attr, _, _ in tracing.TARGETS]
    names.append(("mvml.solver", "SpdFactor"))
    targets = [(importlib.import_module(module), attr) for module, attr in names]
    originals = [getattr(module, attr) for module, attr in targets]
    with tracing.installed(tracing.Recorder(), tracing.OP):
        for (module, attr), original in zip(targets, originals):
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    for (module, attr), original in zip(targets, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_each_sweep_calls_the_traced_kernels():
    """``--trace 1`` divides by these kernels' seconds, so every sweep must call them."""
    ds = make_dataset(np.random.default_rng(5), n=30, c=4, dims=(3, 5), with_missing=True,
                      ensure_positive_per_row=True)
    active = len(StackGeometry(ds).active_index)
    sweeps = 3
    rec = tracing.Recorder()
    with tracing.installed(rec, tracing.OP):
        fit(ds, SolverConfig(lam=0.5, max_iters=sweeps, rel_tol=0.0))
    calls = {}
    for name, *_ in rec.spans:
        calls[name] = calls.get(name, 0) + 1
    assert calls["linalg.trace_norm_subgradient"] == sweeps
    assert calls["linalg.nuclear_norm"] == sweeps * (active + 1)
    assert calls["linalg.svt"] == sweeps * active
