"""Process-wide settings that a run and every CLI command apply: the
malloc heap policy and one BLAS thread.

Importing this module loads nothing beyond the standard library, so the
score-file commands can apply both without importing the signal stack.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

# glibc mallopt parameters (malloc.h), and the values a run or a CLI
# command sets: the largest mmap threshold glibc accepts on 64-bit, and a
# trim threshold above any heap a process here reaches
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_MMAP_THRESHOLD = 32 << 20
_KEEP_TRIM_THRESHOLD = 1 << 30


def keep_freed_heap():
    """Make this process's malloc keep the memory it frees.

    Extraction allocates and frees multi-MB FFT and filter temporaries per
    block, and scoring its chunk temporaries per chunk; by default glibc
    returns those to the system (mmap above its dynamic threshold, heap
    trim below), so the next block or chunk faults them back in.  Both
    thresholds are set explicitly, so the policy does not depend on the
    dynamic threshold the process has reached.  Pool workers forked
    afterwards inherit it.  mallopt has no getter, so the caller's policy
    cannot be given back.  Where there is no mallopt this does nothing, and
    it never raises."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _KEEP_MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _KEEP_TRIM_THRESHOLD)
    except (AttributeError, OSError, TypeError):   # no mallopt to call
        pass


# (get, set) thread-count functions of the OpenBLAS builds that numpy and
# scipy ship; each library keeps a thread pool of its own
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"))


def _blas_threads() -> tuple:
    """(get, set) of every OpenBLAS this process has loaded, looked up
    through /proc/self/maps; empty where there is none to find.  numpy
    loads its own on import, scipy.linalg (and what imports it) another."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return ()
    found = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get = getattr(handle, get_name, None)
            set_ = getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                found.append((get, set_))
                break
    return tuple(found)


@contextmanager
def one_blas_thread():
    """Run the body with every OpenBLAS loaded on entry at one thread, then
    give each its caller's count back.  A multi-threaded GEMM rounds
    differently from a single-threaded one, so this keeps model and score
    bytes from depending on OPENBLAS_NUM_THREADS; where no thread count can
    be set, this does nothing.  A library first loaded inside the body is
    not pinned, so import what the body runs before entering."""
    blas = _blas_threads()
    before = [get() for get, _ in blas]
    for _, set_ in blas:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(blas, before):
            set_(count)
