"""One-thread OpenBLAS scope for the estimation kernels.

A fit works on designs of at most a few thousand rows by a few dozen
columns. On matrices that size OpenBLAS threads cost more than they save,
and several pool workers each running a full thread team oversubscribe the
cores. `one_blas_thread` runs a block (or, as a decorator, a function) on
one thread of the OpenBLAS bundled with numpy and restores the previous
count on exit. The count is process-wide, so a nested scope restores the
value its enclosing scope set.

It does nothing when the user chose a count through ``OPENBLAS_NUM_THREADS``
or ``OMP_NUM_THREADS``, or when numpy's bundled OpenBLAS or its symbols
cannot be found (other BLAS builds are not controlled).
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def get_num_threads() -> int | None:
    """Current thread count of numpy's OpenBLAS, or None if it was not found."""
    api = _openblas()
    return None if api is None else api[0]()


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the previous count."""
    user_set = any(os.environ.get(name) for name in _ENV_VARS)
    previous = None if user_set else get_num_threads()
    if previous in (None, 1):
        yield
        return
    set_threads = _openblas()[1]
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)
