"""Where a result came from: code version, libraries, BLAS and its threads.

The BLAS thread count is read, never set, so that a change to the
program's thread policy shows in the benchmark.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

import dcpreg

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Thread-count getters of the OpenBLAS builds NumPy wheels bundle.
OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``root/.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def openblas_threads() -> int | None:
    """Threads the OpenBLAS that NumPy loaded will use, via ctypes."""
    pkg = Path(np.__file__).parent
    for lib_dir in (pkg.parent / "numpy.libs", pkg / ".libs"):
        for path in sorted(lib_dir.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for symbol in OPENBLAS_GETTERS:
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    return int(getter())
    return None


def blas_library() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def collect(root: Path, workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(root),
        "dcpreg_version": dcpreg.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_library(),
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "openblas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{platform.machine()} {platform.processor()}".strip(),
    }
