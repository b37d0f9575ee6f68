"""One line naming what computed bytes depend on besides the code: Python,
numpy and scipy with the BLAS each was built against, and the machine.

data_digest.txt and tests/acceptance_scorecard.json each record it, so a
difference met in another environment can be told from a code change.
"""

import platform

import numpy
import scipy


def _blas(package):
    """The BLAS a package was built against, as its show_config names it."""
    blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def environment():
    return (f"python {platform.python_version()}, numpy {numpy.__version__} "
            f"({_blas(numpy)}), scipy {scipy.__version__} ({_blas(scipy)}), "
            f"{platform.system()} {platform.machine()}")
