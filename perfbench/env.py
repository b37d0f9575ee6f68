"""Thread pinning and program loading shared by the benchmark scripts.

Import this module, and call `pin_threads`, before anything imports numpy:
OpenBLAS and OpenMP read their pool sizes once, when the library loads.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads(n=1):
    for var in THREAD_VARS:
        os.environ[var] = str(n)


def thread_settings():
    """The pool sizes in force, as the environment states them."""
    return {var: os.environ.get(var, "default") for var in THREAD_VARS[:3]}


def load_cavitrap():
    """Import cavitrap from this checkout's src/; exit non-zero if it is absent."""
    src = ROOT / "src"
    if not (src / "cavitrap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cavitrap sources under {src}")
    sys.path.insert(0, str(src))
    import cavitrap

    if Path(cavitrap.__file__).resolve().parent != src / "cavitrap":
        sys.exit(f"perfbench: imported cavitrap from {cavitrap.__file__}, not {src}")
    return cavitrap
