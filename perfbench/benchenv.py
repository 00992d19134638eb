"""Process environment shared by the benchmark's entry points.

Importing this module pins the BLAS thread count; it must be imported before
numpy.  The count is fixed rather than left to OpenBLAS, which uses every
core: it changes the timings of qct's BLAS-heavy calls, and one thread keeps
runs on a shared machine steadier.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"


class MissingProgram(RuntimeError):
    """The checkout does not hold the qct sources the benchmark measures."""


def import_qct():
    """Import qct from this checkout's ``src``, never from anywhere else."""
    package = SRC / "qct"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no qct package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qct

    if Path(qct.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"imported qct from {qct.__file__}, not from {package}")
    return qct


def _commit() -> str | None:
    """HEAD of the checkout, or None where the checkout is not its own git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qct").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def describe() -> dict:
    """Versions, threads and source identity recorded with every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }
