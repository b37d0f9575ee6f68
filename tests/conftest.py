import math
import multiprocessing
import os

import pytest

# the search makes many small BLAS calls, which extra BLAS threads only slow
# down; set before numpy loads, and an explicit environment still wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import cavitrap as cv  # noqa: E402

OMEGA_R = 2.0 * math.pi * 0.5e6


@pytest.fixture(autouse=True)
def no_worker_left():
    """No test leaves a worker process behind: restarts and barrier walks
    run in forked workers, under the CLI and acceptance tests too."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def species():
    return cv.yb171()


@pytest.fixture(scope="session")
def bare_trap_21():
    """0.5 MHz radial DC trap, 21 um / 1064 nm lattice at zero depth."""
    optical = cv.OpticalTrapConfig(1064e-9, 21e-6, 0.0, cv.NODE_SIN2)
    return cv.make_trap(OMEGA_R, optical)


@pytest.fixture(scope="session")
def bare_trap_100():
    optical = cv.OpticalTrapConfig(1064e-9, 100e-6, 0.0, cv.NODE_SIN2)
    return cv.make_trap(OMEGA_R, optical)


@pytest.fixture(scope="session")
def eq10_21(bare_trap_21, species):
    """Stable and metastable N=10 crystals in the 21 um trap."""
    return cv.find_equilibria(10, bare_trap_21, species, n_restarts=25, seed=0)


@pytest.fixture(scope="session")
def eq10_100(bare_trap_100, species):
    return cv.find_equilibria(10, bare_trap_100, species, n_restarts=25, seed=0)
