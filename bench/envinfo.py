"""The environment block recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_BLAS_THREAD_FUNCS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` prints it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def process_threads() -> int | None:
    """OS threads of this process right now (Linux only)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _blas_config() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_FUNCS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: Path) -> str | None:
    """HEAD commit of the checkout at ``root``, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, load_1m: float) -> dict:
    threads = process_threads()
    cpus = nproc()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {**_blas_config(), "threads": _blas_threads()},
        "nproc": cpus,
        "cpu_model": _cpu_model(),
        "git_commit": git_commit(root),
        "load_1m_at_start": load_1m,
        "process_threads": threads,
        "threads_within_nproc": threads is None or threads <= cpus,
    }
