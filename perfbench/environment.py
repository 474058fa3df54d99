"""The environment block every benchmark result carries."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy
import scipy

# Variables that set the BLAS thread count; recorded as found, never set here.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def _openblas_threads(package):
    """Thread count of the OpenBLAS bundled in ``<package>.libs``, or None."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in _THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _proc_field(path, key):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return None


def describe():
    """Library versions, BLAS identity and threads, CPU and memory."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kb = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas_threads": {
            "numpy": _openblas_threads(numpy),
            "scipy": _openblas_threads(scipy),
        },
        "thread_variables": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total_mib": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
    }
