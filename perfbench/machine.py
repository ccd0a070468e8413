"""Machine description recorded with every result, and the BLAS thread pin.

The thread pin works through the environment of the benchmark processes,
so it has to be set before numpy is imported there.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pinned_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    env.pop("RS_PRECISION_BITS", None)  # reports are compared at the default precision
    return env


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else ():
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        size = _read(str(index / "size")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _mem_total_mb() -> float:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) / 1024
    return 0.0


def blas_runtime() -> dict:
    """The BLAS library numpy loaded and the thread count it reports."""
    libs = sorted(
        {
            line.split()[-1]
            for line in _read("/proc/self/maps").splitlines()
            if ".so" in line and "blas" in line.rsplit("/", 1)[-1].lower()
        }
    )
    info = {"libraries": [Path(p).name for p in libs], "threads": None, "config": None}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is None:
                    continue
                get.restype = ctypes.c_int
                get.argtypes = []
                info["threads"] = get()
                if cfg is not None:
                    cfg.restype = ctypes.c_char_p
                    cfg.argtypes = []
                    info["config"] = cfg().decode()
                return info
    return info


def describe() -> dict:
    """Call after numpy, scipy and mpmath are imported."""
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": usable_cpus(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_total_mb": round(_mem_total_mb(), 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": blas_runtime(),
    }
