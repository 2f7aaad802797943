"""Fixed malloc thresholds: a freed multi-megabyte array leaves nothing resident."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from reanalyze.allocator import pin_malloc_thresholds

SRC = Path(__file__).resolve().parents[1] / "src"

# an 8 MB array freed first raises glibc's default mmap threshold above the
# 4 MB one that follows, so by default the 4 MB array comes from the main
# heap and stays resident after it is freed
PROBE = """
import os
import numpy as np
import reanalyze

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

a = np.ones(1 << 20)
del a
before = resident()
b = np.ones(1 << 19)
del b
print(resident() - before)
"""


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def test_environment_setting_is_kept():
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
        assert pin_malloc_thresholds({name: "0"}) is False


@pytest.mark.skipif(not (_glibc() and Path("/proc/self/statm").exists()),
                    reason="glibc on Linux only")
def test_freed_array_leaves_nothing_resident():
    env = {k: v for k, v in os.environ.items()
           if k not in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True)
    assert int(out.stdout) < 1 << 20, f"{int(out.stdout)} bytes stayed resident"
