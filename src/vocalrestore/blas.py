"""The thread count of the OpenBLAS bundled with NumPy, read and set through
one handle to the library, and the one worker thread that shares it.

OPENBLAS_NUM_THREADS sets the count at import; every GEMM then splits over
that many threads. Where it is 2, halves() hands out the worker and gives
each of two threads one BLAS thread; generator.band_sequence_block runs
its two halves that way. Where NumPy runs on another BLAS, the count
cannot be asked or set: threads() reads 0 and halves() yields no worker.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from concurrent import futures

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


# The thread count is one setting of the process: halves bodies that
# overlap or nest, in any threads, lower it from 2 to 1 once and put 2 back
# once, under _lock; the ones inside make no BLAS call. They all share one
# worker, whose one thread starts on the first submit, not at import.
# Each step keeps _inside nonzero while the count is lowered, so a child
# forked at any point can put the count back (see _reset).
_inside = 0     # halves bodies running now; the count was 2 before the first began


def _reset() -> None:
    """Give the process its own lock and worker: at import, and in a forked
    child, which runs none of the parent's other threads. The child would
    otherwise wait for ever on a lock one of them held, or on the parent's
    executor, whose thread it does not have; it also puts back the count
    their halves bodies had lowered."""
    global _lock, _worker, _inside
    _lock = threading.Lock()
    _worker = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="vocalrestore-half")
    if _inside:
        _openblas()[1](2)
        _inside = 0


_reset()
os.register_at_fork(after_in_child=_reset)


@contextlib.contextmanager
def halves():
    """Split the work between the caller's thread and the one worker, with
    one BLAS thread each, where the count in effect outside every halves
    body is 2: yields the worker and sets the count back when the last
    overlapping body returns or raises. That split was measured only at 2
    threads on 2 vCPUs; at any other count (or where OpenBLAS cannot be
    asked) yields None and leaves the BLAS as it is, so the caller runs on
    one thread with the count its user chose."""
    global _inside
    with _lock:
        split = _inside > 0 or threads() == 2
        if split:
            _inside += 1
            if _inside == 1:
                _openblas()[1](1)
    if not split:
        yield None
        return
    try:
        yield _worker
    finally:
        with _lock:
            if _inside == 1:
                _openblas()[1](2)
            _inside -= 1
