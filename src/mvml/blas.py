"""Scoped thread count of the OpenBLAS builds bundled with numpy and scipy.

On the many small products of a solver sweep, the worker pools of the
two builds cost more in wake-ups and spinning than a second core saves.
Where the bundled libraries are not found, nothing changes.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy


@functools.cache
def _controls():
    """(getter, setter) of each bundled OpenBLAS: numpy's 64-bit-int build, scipy's 32-bit one."""
    controls = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if getter and setter:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    controls.append((getter, setter))
                    break
    return tuple(controls)


_lock = threading.Lock()
_depth = 0  # blocks open in any thread
_saved = ()  # counts found when the outermost block opened


@contextmanager
def single_threaded():
    """Run the block with every bundled OpenBLAS pool at one thread.

    The counts are process-wide: the first block to open (in any
    thread) saves them and the last to close restores them, so
    overlapping blocks in several threads leave them as found. BLAS
    calls of other threads run on one thread while any block is open.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = tuple(getter() for getter, _ in _controls())
            for _, setter in _controls():
                setter(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, setter), count in zip(_controls(), _saved):
                    setter(count)
