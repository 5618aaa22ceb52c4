"""The environment a result was taken in, read with the stdlib alone (no
threadpoolctl or psutil), plus the numpy and scipy versions."""

import ctypes
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Getter names exported by the OpenBLAS builds numpy ships with or links to.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_threads():
    """One BLAS/OpenMP thread. The libraries read these variables once, when
    numpy is first imported, which is why this module imports numpy lazily."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _blas_info():
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _blas_threads_in_effect():
    """Ask the OpenBLAS mapped into this process how many threads it uses."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for getter in _OPENBLAS_GETTERS:
            fn = getattr(lib, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root):
    """HEAD of ``root`` read from .git directly; None outside a git checkout."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def capture(root):
    """Versions, BLAS, CPU, commit and the load average at start."""
    import numpy as np
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(root),
        "load1_start": os.getloadavg()[0],
    }


def finish(env):
    """Add the load average at the end and flag a busy machine.

    A run keeps one CPU busy, and the 1-minute average still holds the
    previous run when runs follow each other, so one unit of load is ours.
    The machine is busy when the rest exceeds half of the other CPUs.
    """
    env["load1_end"] = os.getloadavg()[0]
    other = max(env["load1_start"], env["load1_end"]) - 1.0
    env["busy"] = other > (env["nproc"] - 1) / 2.0
    return env
