"""Host record: BLAS threads, library versions and the float32 GEMM peak.

``pin_blas_threads`` must run before numpy is first imported; the rest
imports numpy lazily so that the pinning can come first.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import time

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Cap every BLAS thread variable at the usable CPU count; returns the cap."""
    n = usable_cpus()
    for var in _THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, n))
        except ValueError:
            wanted = n
        os.environ[var] = str(max(1, min(wanted, n)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _openblas_libraries():
    """(package, path) of the OpenBLAS builds bundled with numpy and scipy wheels."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        found += [(pkg.__name__, p) for p in sorted(glob.glob(os.path.join(libs, "*openblas*")))]
    return found


def _openblas_query(path):
    """(thread count, config string) from one OpenBLAS library, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.restype = ctypes.c_int
            threads.argtypes = []
            config.restype = ctypes.c_char_p
            config.argtypes = []
            return threads(), config().decode("ascii", "replace").strip()
    return None


def sgemm_gflops(n: int = 1024, rounds: int = 8) -> float:
    """Best float32 n x n matmul rate over ``rounds`` timed calls, GFLOP/s."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((n, n), dtype=np.float32)
    b = rng.random((n, n), dtype=np.float32)
    out = np.empty((n, n), np.float32)
    np.matmul(a, b, out=out)  # wakes the BLAS threads
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 2.0 * n ** 3 / best / 1e9


def host_record() -> dict:
    import numpy
    import scipy

    blas = []
    for pkg, path in _openblas_libraries():
        info = _openblas_query(path)
        if info is not None:
            blas.append({"package": pkg, "library": os.path.basename(path),
                         "threads": info[0], "config": info[1]})
    env_threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "blas_threads": blas[0]["threads"] if blas else env_threads,
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "sgemm_gflops": sgemm_gflops(),
    }
