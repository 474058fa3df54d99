"""Scoped BLAS thread count and the solver's use of it.

Where no bundled OpenBLAS is found, ``_controls()`` is empty and every
count list below is empty too.
"""

import threading

import numpy as np
import pytest

from mvml import SolverConfig, fit
from mvml import solver as solver_mod
from mvml.blas import _controls, single_threaded

from conftest import make_dataset


def _counts():
    return [getter() for getter, _ in _controls()]


def test_block_runs_on_one_thread_and_counts_come_back():
    before = _counts()
    with single_threaded():
        assert _counts() == [1] * len(before)
    assert _counts() == before


def test_counts_come_back_after_an_error():
    before = _counts()
    with pytest.raises(RuntimeError):
        with single_threaded():
            raise RuntimeError("boom")
    assert _counts() == before


def test_nested_blocks_restore_on_the_outermost_exit():
    before = _counts()
    with single_threaded():
        with single_threaded():
            pass
        assert _counts() == [1] * len(before)
    assert _counts() == before


def test_overlapping_blocks_in_two_threads_restore_the_counts():
    # A opens, B opens, A closes, B closes: the counts found before A come back
    before = _counts()
    a_open, b_open, a_closed = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def first():
        with single_threaded():
            a_open.set()
            b_open.wait(10)
        a_closed.set()

    def second():
        a_open.wait(10)
        with single_threaded():
            b_open.set()
            a_closed.wait(10)
            seen["after A closed"] = _counts()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert seen["after A closed"] == [1] * len(before)
    assert _counts() == before


def test_fit_sweeps_on_one_thread(monkeypatch):
    seen = []
    loss = solver_mod._masked_loss_from_preds

    def recording_loss(geometry, stack):
        seen.append(_counts())
        return loss(geometry, stack)

    monkeypatch.setattr(solver_mod, "_masked_loss_from_preds", recording_loss)
    before = _counts()
    ds = make_dataset(np.random.default_rng(3), n=30, c=3, dims=(4, 5))
    _, trace = fit(ds, SolverConfig(lam=0.5, max_iters=3, rel_tol=0.0))
    assert len(seen) == trace.iterations == 3
    assert all(counts == [1] * len(before) for counts in seen)
    assert _counts() == before
