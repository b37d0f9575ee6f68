import math
import multiprocessing
import threading

import pytest

# cavitrap sets its one-thread BLAS default before it imports numpy, so it
# comes before any module that loads numpy
import cavitrap as cv
import numpy as np

OMEGA_R = 2.0 * math.pi * 0.5e6

_APPROX = pytest.approx


def _approx_able_to_fail(expected, rel=None, abs=None, nan_ok=False):
    """pytest.approx that fails when an expected value lies below its default
    absolute tolerance, 1e-12, and no abs= is given: such a check passes any
    actual value of SI size (a mass, an energy in J). State abs= or compare
    scaled values."""
    if abs is None:
        values = np.abs(np.asarray(expected, dtype=float)).ravel()
        if values.size and values.min() < 1e-12:
            pytest.fail(f"pytest.approx({expected!r}) without abs= passes "
                        "anything within 1e-12 of it", pytrace=False)
    return _APPROX(expected, rel=rel, abs=abs, nan_ok=nan_ok)


@pytest.fixture(autouse=True)
def approx_able_to_fail(monkeypatch):
    monkeypatch.setattr(pytest, "approx", _approx_able_to_fail)


@pytest.fixture(autouse=True)
def no_worker_left():
    """No test leaves a worker process or a thread behind: restarts and
    barrier walks run in forked workers, under the CLI and acceptance tests
    too. A thread left running would keep later restarts from forking."""
    threads = threading.active_count()
    yield
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


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
