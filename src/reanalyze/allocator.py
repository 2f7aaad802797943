"""Fixed glibc malloc thresholds, so that a run's peak memory is repeatable.

By default glibc raises its mmap threshold to the size of every mapped block
the process frees (up to 32 MB) and its trim threshold to twice that.  After
the first multi-megabyte array is freed, arrays below that size come from the
main heap, and up to 64 MB of freed heap stays resident.  How much of it
stays depends on the order of earlier frees, which the address layout and the
string hash seed perturb: on a 30x30 bilinear ladder one Newton-Raphson round
under all backends peaks anywhere between 130 and 158 MB on identical input.
Fixing both thresholds at glibc's initial 128 kB keeps every larger array in
its own mapping, returned to the system when it is freed; the same round then
peaks at 121-122 MB every time.

pin_malloc_thresholds() runs once when the package is imported.  It leaves
the allocator alone off glibc and when the environment sets
MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_ or any GLIBC_TUNABLES.
"""

from __future__ import annotations

import ctypes
import os

M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's malloc.h
M_MMAP_THRESHOLD = -3
THRESHOLD_BYTES = 128 * 1024

_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def pin_malloc_thresholds(environ=os.environ) -> bool:
    """Fix glibc's mmap and trim thresholds at THRESHOLD_BYTES.

    Returns True when both were set, False when the allocator was left alone.
    """
    if any(name in environ for name in _ENV):
        return False
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):  # no confstr, no such name, no libc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, THRESHOLD_BYTES)
                and mallopt(M_TRIM_THRESHOLD, THRESHOLD_BYTES))
