"""The thread count of the OpenBLAS bundled with NumPy, read and set through
one handle to the library.

OPENBLAS_NUM_THREADS sets the count at import; every GEMM then splits over
that many threads. Where NumPy runs on another BLAS, the count cannot be
asked or set: threads() reads 0 and shared_by() leaves the BLAS as it is.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np


@functools.cache
def _openblas():
    """(get, set) of the bundled OpenBLAS's thread count, or None."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def threads() -> int:
    """BLAS threads in effect, or 0 where OpenBLAS cannot be asked."""
    lib = _openblas()
    return int(lib[0]()) if lib else 0


# The thread count is one setting of the process: shared_by bodies that
# overlap or nest, in any threads, set it once and put it back once, under
# _lock; the ones inside make no BLAS call.
# Each step keeps _inside nonzero while the count is lowered, so a child
# forked at any point can put the count back (see _reset_in_child).
_lock = threading.Lock()
_inside = 0     # shared_by bodies running now that lowered the count
_outside = 0    # the count in effect before the first of them began


@contextlib.contextmanager
def shared_by(callers: int):
    """Split the BLAS between `callers` threads that issue GEMMs at once,
    one BLAS thread each, where the count in effect outside every shared_by
    body equals `callers`: yields True and sets the count back when the last
    overlapping body returns or raises. That split was measured only at 2
    threads on 2 vCPUs; at any other count (or where OpenBLAS cannot be
    asked) yields False and leaves the BLAS as it is, so the caller runs on
    one thread with the count its user chose."""
    global _inside, _outside
    lib = _openblas()
    with _lock:
        n = _outside if _inside else threads()
        split = n == callers
        if split:
            _outside, _inside = n, _inside + 1
            if _inside == 1:
                lib[1](1)
    if not split:
        yield False
        return
    try:
        yield True
    finally:
        with _lock:
            if _inside == 1:
                lib[1](_outside)
            _inside -= 1


def _reset_in_child() -> None:
    """A forked child runs none of the parent's other threads: it takes a
    fresh lock, which one of them may have held, and puts back the count
    their shared_by bodies had lowered."""
    global _lock, _inside
    _lock = threading.Lock()
    if _inside:
        _openblas()[1](_outside)
        _inside = 0


os.register_at_fork(after_in_child=_reset_in_child)
