"""Cap BLAS threading inside thread pools that already split the cores.

A broadcast fan-out runs one GEMV per pool thread; if each of those also
spawns a full-width OpenBLAS team, ``width x cores`` threads fight over
``cores`` CPUs and tail latency explodes (*When More Cores Hurts*).
:func:`limit_threads` is used as a ``ThreadPoolExecutor`` initializer so
every pool thread gets ``cores // width`` BLAS threads.

It calls ``openblas_set_num_threads_local`` from numpy's bundled OpenBLAS
through ctypes.  numpy's wheels use the pthreads build, where that call
sets the one process-wide count, so the cap is kept process-wide: it only
ever goes down (a narrow pool never undoes a wide pool's cap), and
:func:`uncapped` lifts it for a block of GIL-bound work such as per-shard
index builds.  On OpenMP builds the call is thread-local and this policy
is best effort.  Without the library or the symbols (another BLAS, an
older OpenBLAS) both helpers do nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np

__all__ = ["limit_threads", "uncapped"]

_lock = threading.Lock()
_cap: int | None = None  # lowest count limit_threads has asked for
_uncapped = 0  # open uncapped() blocks


@functools.lru_cache(maxsize=1)
def _openblas():
    """``(thread setter, start-up thread count)`` of numpy's OpenBLAS, or
    None when unavailable.  Call it under ``_lock``: it reads the count by
    setting it, since the getter's name varies between builds."""
    root = os.path.dirname(np.__file__)
    # Linux/Windows wheels bundle it in numpy.libs, macOS wheels in .dylibs.
    paths = glob.glob(root + ".libs/*openblas*") + glob.glob(root + "/.dylibs/*openblas*")
    for path in sorted(paths):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        startup = setter(1)  # returns the previous count
        setter(startup)
        return setter, max(1, startup)
    return None


def _cores() -> int:
    """CPUs this process may run on (honours affinity and cpusets)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS/Windows
        return os.cpu_count() or 1


def limit_threads(pool_width: int) -> None:
    """Pool-thread initializer: lower BLAS to cores ÷ ``pool_width``
    threads, at least one.  Never raises the count above an earlier cap or
    OpenBLAS's start-up count.  No-op without OpenBLAS."""
    global _cap
    with _lock:
        lib = _openblas()
        if lib is None:
            return
        setter, startup = lib
        _cap = min(_cap or startup, max(1, _cores() // max(1, pool_width)))
        if not _uncapped:
            setter(_cap)


@contextlib.contextmanager
def uncapped():
    """Run the block with OpenBLAS's start-up thread count, then restore
    the cap.  For GIL-bound work fanned out on a capped pool: its threads
    mostly take turns, so the one in BLAS should use every core."""
    global _uncapped
    with _lock:
        lib = _openblas()
        if lib is not None:
            _uncapped += 1
            lib[0](lib[1])
    try:
        yield
    finally:
        if lib is not None:
            with _lock:
                _uncapped -= 1
                if not _uncapped and _cap is not None:
                    lib[0](_cap)
