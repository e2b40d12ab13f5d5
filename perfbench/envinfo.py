"""Environment recorded beside every result: CPUs, versions, BLAS, commit."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from importlib import metadata
from pathlib import Path


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, to name the code measured
    when the checkout carries no commit."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def blas_libraries() -> list[dict]:
    """OpenBLAS builds mapped into this process, with their thread counts.

    Call after numpy (and scipy, if the program imports it) is loaded;
    each wheel ships its own OpenBLAS, so there may be several.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in os.path.basename(line.split()[-1]).lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return []
    found = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            found.append(entry)
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None:
                    continue
                threads.restype = ctypes.c_int
                threads.argtypes = []
                entry["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    entry["config"] = config().decode(errors="replace")
                break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def environment(root: Path) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": blas_libraries() if "numpy" in sys.modules else [],
        "blas_env": {key: os.environ[key] for key in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if key in os.environ},
        "commit": _commit(root),
        "source_sha256": source_digest(root),
    }
