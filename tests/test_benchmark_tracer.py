"""The benchmark's tracer wraps library attributes by name; a refactor that
renames or drops one of them breaks ``perfbench/run.py --trace 1``."""

import importlib

import pytest

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
