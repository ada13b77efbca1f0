"""The compiled passes of _kernel.c, built once and loaded with ctypes.

`sim` (`ks_stretch`, `ks_cfl`), `diagnostics` (`ks_slice`) and `profile`
(`ks_ansatz`) take their passes from the one library `_library` loads: one
source, one set of compiler flags, one object in the cache.  Each module
falls back to its NumPy path where `_library` gives None.  A stepper, a
factor table and a diagnostics context each hand the passes their per-grid
entries as one uintp array (`_kernel.c`'s enums), built once, so a call
converts a few arguments; `ks_ansatz` takes its arrays' addresses per call.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

# No -march=native or -ffast-math, and no fused multiply-adds: each would break
# bit-equality with the NumPy paths.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_SOURCE = Path(__file__).with_name("_kernel.c")


def _build(cache: Path):
    """The passes of _kernel.c, built into `cache` under the hash of its source
    and flags unless they are there, and loaded with ctypes; None where there
    is no compiler or the build or the load fails.  The object is renamed into
    place once written, so no process loads one half written."""
    try:
        key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()
        target = cache / f"kernel-{key[:16]}.so"
        if not target.exists():
            compiler = shutil.which("cc") or shutil.which("gcc")
            if compiler is None:
                return None
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:       # on a timeout the compiler is killed and waited for
                subprocess.run([compiler, *_CFLAGS, "-o", tmp, str(_SOURCE)], check=True,
                               timeout=120, stdin=subprocess.DEVNULL,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                os.replace(tmp, target)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(target))
    except (OSError, subprocess.SubprocessError):
        return None
    lib.ks_stretch.restype = lib.ks_factor.restype = lib.ks_slice.restype = ctypes.c_long
    lib.ks_cfl.restype = lib.ks_ansatz.restype = None
    lib.ks_stretch.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_double] * 7 + [ctypes.c_void_p] * 2
    lib.ks_factor.argtypes = [ctypes.c_long] + [ctypes.c_void_p] * 5
    lib.ks_slice.argtypes = [ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p]
    lib.ks_cfl.argtypes = [ctypes.c_void_p] * 2
    lib.ks_ansatz.argtypes = ([ctypes.c_long] + [ctypes.c_void_p] * 2 + [ctypes.c_long] * 2
                              + [ctypes.c_void_p] * 7)
    return lib


def _address(a: np.ndarray) -> int:
    """The address of a writable C-contiguous array's data; cheaper than
    a.ctypes.data, which builds an object at every call."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


@functools.cache
def _library():
    """The compiled passes, once per process, from the user's cache directory."""
    try:
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    except RuntimeError:        # no home directory
        return None
    return _build(cache / "ksblowup")
