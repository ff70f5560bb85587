"""Process set-up shared by the benchmark entry points.

Call ``pin()`` before numpy is imported: OpenBLAS reads its thread count
from the environment once, when it loads.
"""

from __future__ import annotations

import ctypes
import os
import sys

#: BLAS threads for every benchmark process: two, or ``nproc`` if fewer.
#: On a shared two-core host two threads gave steadier dense-algebra times
#: than one.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

#: Fixed glibc mmap threshold (bytes).  Without it glibc raises the
#: threshold as large blocks are freed, and peak resident memory then
#: depends on the order of allocations rather than on what is live.
MMAP_THRESHOLD = 128 * 1024
_M_MMAP_THRESHOLD = -3

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _mallopt():
    return getattr(ctypes.CDLL(None), "mallopt", None)


def mmap_threshold() -> int | None:
    """The pinned mmap threshold, or None where the C library has no mallopt."""
    return MMAP_THRESHOLD if _mallopt() else None


def pin() -> None:
    """Pin the BLAS thread count and the malloc mmap threshold, and put the
    checkout's ``src`` on the path."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    mallopt = _mallopt()
    if mallopt:
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
