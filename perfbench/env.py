"""Environment record stored with every result.

BLAS threading variables are recorded, never set: setting them would
change the program being measured.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def blas_libraries() -> list:
    """Every OpenBLAS library mapped into this process, with its thread count."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            entry["error"] = str(exc)
            found.append(entry)
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    entry["threads"] = int(threads())
                    entry["config"] = config().decode("ascii", "replace").strip()
                    break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, identifying the code under test."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas["blas"].get("name"),
        "blas_version": blas["blas"].get("version"),
        "lapack": blas["lapack"].get("name"),
        "blas_runtime": blas_libraries(),
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src" / "paraunit"),
        "machine": platform.machine(),
        "seed": seed,
    }
