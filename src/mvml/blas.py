"""Scoped thread count of the OpenBLAS build bundled with numpy.

On the many small products of a solver sweep, the worker pool costs
more in wake-ups and spinning than a second core saves. The other
cores go to the split stacked ``eigh`` of ``linalg`` instead, whose
worker threads call LAPACK at this count too. After a multi-threaded
call, the library keeps one of its pool threads spinning for about
0.13 s of CPU, so a fit that starts within that time shares a core
with it. Where the bundled library is not found, nothing changes.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy


@functools.cache
def _controls():
    """(getter, setter) of numpy's bundled OpenBLAS, or none where it is not found."""
    controls = []
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        # the symbols carry the part of the file name between lib and openblas
        prefix = path.name[len("lib") : path.name.index("openblas")]
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
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
    """Run the block with numpy's bundled OpenBLAS pool at one thread.

    The count is process-wide: the first block to open (in any thread)
    saves it and the last to close restores it, so overlapping blocks
    in several threads leave it as found. BLAS calls of other threads
    run on one thread while any block is open.
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
