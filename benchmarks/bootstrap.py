"""Process set-up shared by the benchmark commands.

Import this module before numpy: it pins the BLAS thread count through the
environment, which OpenBLAS reads only when it is loaded, and it puts the
checkout's own ``src`` first on the import path so that the benchmark
always measures the code next to it, never an installed copy.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread: a second one spins on the other core after each
# BLAS call and slows the pure-Python work beside it (README.md).
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, str(SRC))


class MissingProgram(RuntimeError):
    """The checkout holds no decolab sources to benchmark."""


def require_decolab() -> None:
    """Fail unless `decolab` can be and was imported from this checkout's src."""
    if not (SRC / "decolab" / "__init__.py").is_file():
        raise MissingProgram(f"no decolab sources under {SRC}")
    import decolab

    if Path(decolab.__file__).resolve().parent != (SRC / "decolab").resolve():
        raise MissingProgram(f"decolab imported from {decolab.__file__}, not from {SRC}")


def machine_info() -> dict:
    """nproc, thread settings and library versions, recorded with each result."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
