import math
import multiprocessing
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import cavitrap as cv
from cavitrap import equilibrium

OMEGA_R = 2.0 * math.pi * 0.5e6


def test_two_ion_spacing_closed_form(bare_trap_21, species):
    """d^3 = 2 e^2 / (4 pi eps0 m omega_r^2) for an isotropic radial trap."""
    eqs = cv.find_equilibria(2, bare_trap_21, species, n_restarts=8, seed=3)
    d = np.linalg.norm(eqs[0].xy[0] - eqs[0].xy[1])
    expected = (
        2 * cv.CONST.coulomb_coefficient / (species.mass * OMEGA_R**2)
    ) ** (1 / 3)
    assert d == pytest.approx(expected, rel=1e-6)


def test_single_ion_at_origin(bare_trap_21, species):
    eqs = cv.find_equilibria(1, bare_trap_21, species, n_restarts=4, seed=0)
    assert len(eqs) == 1
    assert np.abs(eqs[0].xy).max() < 1e-12


def test_result_contract(eq10_21, bare_trap_21, species):
    ell = cv.characteristic_length(species, bare_trap_21.omega_r)
    fchar = cv.CONST.coulomb_coefficient / ell**2
    stable = [e for e in eq10_21 if e.stability == cv.STABLE]
    assert len(stable) == 1 and eq10_21[0] is stable[0]
    energies = [e.energy for e in eq10_21]
    assert energies == sorted(energies)
    for eq in eq10_21:
        assert eq.n_ions == 10
        assert np.all(eq.positions[2::3] == 0.0)  # planar by construction
        assert eq.grad_norm < 1e-8 * fchar
        assert sum(eq.ring_configuration) == 10
        # in-plane curvature nonnegative apart from the rotation zero mode
        eigs = np.linalg.eigvalsh(
            cv.planar_hessian(eq.xy_flat, bare_trap_21, species)
        )
        assert eigs.min() > -1e-6 * species.mass * bare_trap_21.omega_r**2
        assert (eigs > 1e-6 * species.mass * bare_trap_21.omega_r**2).sum() >= 19


def test_n10_ring_structure(eq10_21):
    assert eq10_21[0].ring_configuration == (2, 8)
    assert len(eq10_21) >= 2
    assert eq10_21[1].ring_configuration == (3, 7)


def test_n30_rings_match_radial_histogram_oracle(bare_trap_100, species):
    eq = cv.find_equilibria(30, bare_trap_100, species,
                            n_restarts=40, seed=0)[0]
    assert eq.ring_configuration == (5, 10, 15)
    # independent clustering: split sorted radii at gaps wider than half
    # the minimum ion spacing (in-ring radial spread is far below that)
    r = np.sort(np.linalg.norm(eq.xy, axis=1))
    splits = np.nonzero(np.diff(r) > 0.5 * eq.d_min)[0]
    counts = np.diff(np.concatenate([[0], splits + 1, [len(r)]]))
    assert tuple(int(c) for c in counts) == eq.ring_configuration
    assert not eq.ring_ambiguous


def test_determinism(bare_trap_21, species):
    a = cv.find_equilibria(6, bare_trap_21, species, n_restarts=10, seed=11)
    b = cv.find_equilibria(6, bare_trap_21, species, n_restarts=10, seed=11)
    assert len(a) == len(b)
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.positions, eb.positions)


@pytest.mark.parametrize("n, n_restarts, n_minima", [
    (19, 50, 2),  # soft shell rotation gave 19 "minima"
    (20, 50, 2),  # 22, 21 of them copies of one (1,7,12) crystal
    (60, 12, 5),  # 6: two exact copies the coarse angle grid missed
])
def test_one_entry_per_crystal(n, n_restarts, n_minima, bare_trap_100, species,
                               monkeypatch):
    outcomes = []

    def counted(*args):
        item = restart(*args)
        outcomes.append(item[0])
        return item

    restart = equilibrium._one_restart
    monkeypatch.setattr(equilibrium, "_one_restart", counted)
    monkeypatch.setattr(equilibrium, "_cpu_count", lambda: 1)  # appends stay in-process
    eqs = cv.find_equilibria(n, bare_trap_100, species, n_restarts=n_restarts, seed=0)
    assert len(eqs) == n_minima
    converged, unconverged, saddle = (outcomes.count(end) for end in (
        equilibrium.CONVERGED, equilibrium.UNCONVERGED, equilibrium.SADDLE))
    assert sum(eq.n_found_duplicates for eq in eqs) == converged
    assert converged + unconverged + saddle == n_restarts
    energies = [eq.energy for eq in eqs]
    for a, b in zip(energies, energies[1:]):
        assert b - a > equilibrium.ENERGY_MATCH_RTOL * max(abs(a), abs(b))


def test_relax_rejects_collinear_saddle(bare_trap_21, species):
    """Three ions started on a line stay on it: the chain's zigzag mode is unstable."""
    ell = cv.characteristic_length(species, bare_trap_21.omega_r)
    x0 = np.array([-1.3, 0.0, 0.1, 0.0, 1.0, 0.0]) * ell
    outcome, x, _, gnorm = equilibrium._relax(x0, bare_trap_21, species)
    assert outcome == equilibrium.SADDLE
    assert gnorm < equilibrium.GRAD_TOL_REL * cv.CONST.coulomb_coefficient / ell**2
    end = (5.0 / 4.0) ** (1.0 / 3.0) * ell
    assert np.allclose(np.sort(x[0::2]), [-end, 0.0, end], rtol=0.0, atol=1e-9 * ell)
    assert np.abs(x[1::2]).max() < 1e-12 * ell
    curv = np.linalg.eigvalsh(cv.planar_hessian(x, bare_trap_21, species))
    # axial 1, 3, 29/5; transverse 1 - (axial - 1) / 2 = 1, 0 (rotation), -7/5
    assert curv / (species.mass * bare_trap_21.omega_r**2) == pytest.approx(
        [-1.4, 0.0, 1.0, 1.0, 3.0, 5.8], abs=1e-6)


def test_relax_keeps_minimum(eq10_21, bare_trap_21, species):
    eq = eq10_21[0]
    outcome, x, e, _ = equilibrium._relax(eq.xy_flat, bare_trap_21, species)
    assert outcome == equilibrium.CONVERGED
    assert e == pytest.approx(eq.energy, rel=1e-12, abs=0)
    assert np.allclose(x, eq.xy_flat, rtol=0.0, atol=1e-6 * eq.d_min)


def test_convergence_error_counts_outcomes(bare_trap_21, species, monkeypatch):
    """With every restart dropped the error says how each one ended."""
    ends = iter([equilibrium.SADDLE, equilibrium.UNCONVERGED,
                 equilibrium.SADDLE, equilibrium.UNCONVERGED, equilibrium.UNCONVERGED])

    def dropped(x, trap, species):
        return next(ends), x, 0.0, 1.0

    monkeypatch.setattr(equilibrium, "_relax", dropped)
    monkeypatch.setattr(equilibrium, "_cpu_count", lambda: 1)  # `ends` is read in-process
    with pytest.raises(cv.ConvergenceError,
                       match="in 5 restarts: 3 unconverged, 2 saddles"):
        cv.find_equilibria(4, bare_trap_21, species, n_restarts=5, seed=0)


def _bits(eqs):
    return [(eq.positions.tobytes(),
             np.array([eq.energy, eq.r_max, eq.d_min, eq.grad_norm]).tobytes(),
             eq.stability, eq.ring_configuration, eq.ring_ambiguous,
             eq.n_found_duplicates) for eq in eqs]


@pytest.mark.parametrize("n", [1, 2, 5, 13, 18, 20, 37])
def test_restart_pool_matches_serial(n, bare_trap_100, species, monkeypatch):
    """Bitwise the same minima on two workers as on one; at N = 13, 18, 20
    and 37 some restarts end unconverged."""
    for seed in (0, 1):
        monkeypatch.setattr(equilibrium, "_cpu_count", lambda: 1)
        serial = cv.find_equilibria(n, bare_trap_100, species, n_restarts=12, seed=seed)
        monkeypatch.setattr(equilibrium, "_cpu_count", lambda: 2)
        pooled = cv.find_equilibria(n, bare_trap_100, species, n_restarts=12, seed=seed)
        assert multiprocessing.active_children() == []
        assert _bits(pooled) == _bits(serial)


def _index_pid(index):
    return index, os.getpid()


_ONE_RESTART = equilibrium._one_restart


def _restart_failing(n_ions, trap, species, seed, index):
    if index == 2:
        time.sleep(0.2)  # index 4 has failed by now on the pool
        raise cv.ConvergenceError("restart 2 failed")
    if index == 4:
        raise cv.ConvergenceError("restart 4 failed")
    return _ONE_RESTART(n_ions, trap, species, seed, index)


def _slow_index_pid(index):
    time.sleep(0.02)
    return index, os.getpid()


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the restart pool needs the fork start method")


@needs_fork
def test_restarts_run_in_workers_in_index_order(monkeypatch):
    """The caller runs tasks beside its one child, and the values come back
    in index order."""
    monkeypatch.setattr(equilibrium, "_cpu_count", lambda: 2)
    ran = equilibrium._in_workers(_slow_index_pid, 9)
    assert [k for k, _ in ran] == list(range(9))
    pids = {pid for _, pid in ran}
    assert os.getpid() in pids and len(pids) == 2
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(equilibrium, "_cpu_count", lambda: 1)
    ran = equilibrium._in_workers(_index_pid, 9)
    assert ran == [(k, os.getpid()) for k in range(9)]


@needs_fork
def test_many_small_tasks_share_one_counter(monkeypatch):
    """20,000 indices, more than a 64 KiB pipe of 4-byte indices holds, on
    more runners than CPUs: each task runs once, in index order."""
    monkeypatch.setattr(equilibrium, "_cpu_count", lambda: 4)
    ran = equilibrium._in_workers(_index_pid, 20000)
    assert [k for k, _ in ran] == list(range(20000))
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_child_that_exits_without_reporting_raises(monkeypatch):
    """A child that dies on its first task fails the call with its exit
    status, after the caller has run the rest; no process is left."""
    caller = os.getpid()

    def task(index):
        time.sleep(0.02)
        if os.getpid() != caller:
            os._exit(3)
        return index

    monkeypatch.setattr(equilibrium, "_cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="exited with status 3 before it reported task"):
        equilibrium._in_workers(task, 6)
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Stop(BaseException):
    pass


@needs_fork
def test_a_base_exception_in_the_callers_task_leaves_no_child(monkeypatch):
    """The caller's own task raising a BaseException kills and reaps the
    children, which would otherwise sleep for a minute."""
    caller = os.getpid()

    def task(index):
        if os.getpid() == caller:
            raise _Stop
        time.sleep(60.0)

    monkeypatch.setattr(equilibrium, "_cpu_count", lambda: 3)
    t0 = time.monotonic()
    with pytest.raises(_Stop):
        equilibrium._in_workers(task, 6)
    assert time.monotonic() - t0 < 30.0
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_restarts_stay_in_process_beside_other_threads(monkeypatch):
    """No fork while another thread runs: the child would lack that thread."""
    monkeypatch.setattr(equilibrium, "_cpu_count", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30.0,))
    other.start()
    try:
        ran = equilibrium._in_workers(_index_pid, 9)
    finally:
        release.set()
        other.join(timeout=30.0)
    assert not other.is_alive()
    assert ran == [(k, os.getpid()) for k in range(9)]
    assert multiprocessing.active_children() == []


def test_restart_pool_raises_lowest_failing_index(bare_trap_21, species, monkeypatch):
    """A worker's error surfaces as on the serial path; no worker is left."""
    monkeypatch.setattr(equilibrium, "_one_restart", _restart_failing)
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(equilibrium, "_cpu_count", lambda: cpus)
        with pytest.raises(cv.ConvergenceError) as info:
            cv.find_equilibria(4, bare_trap_21, species, n_restarts=6, seed=0)
        errors.append((type(info.value), str(info.value)))
        assert multiprocessing.active_children() == []
    assert errors == [(cv.ConvergenceError, "restart 2 failed")] * 2


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
def test_find_equilibria_rejects_bad_seed(seed, bare_trap_21, species, monkeypatch):
    """A seed that is not an integer >= 0 fails before any restart starts."""
    monkeypatch.setattr(equilibrium, "_in_workers", None)  # a call would raise TypeError
    with pytest.raises(cv.DomainError, match="seed"):
        cv.find_equilibria(3, bare_trap_21, species, n_restarts=2, seed=seed)


def test_find_equilibria_takes_numpy_integer_seed(bare_trap_21, species):
    eqs = cv.find_equilibria(3, bare_trap_21, species, n_restarts=2, seed=np.int64(4))
    assert _bits(eqs) == _bits(cv.find_equilibria(3, bare_trap_21, species,
                                                  n_restarts=2, seed=4))


def test_align_recovers_symmetry_transforms(eq10_21, bare_trap_21, species):
    ell = cv.characteristic_length(species, bare_trap_21.omega_r)
    ref = eq10_21[0].xy
    rng = np.random.default_rng(5)
    for reflect in (False, True):
        theta = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        if reflect:
            rot = rot @ np.diag([1.0, -1.0])
        perm = rng.permutation(10)
        other = (ref @ rot.T)[perm]
        aligned, _, rms = cv.align_configurations(ref, other)
        assert rms < 1e-9 * ell
        assert np.allclose(aligned, ref, atol=1e-9 * ell)


def test_align_distinguishes_configurations(eq10_21, bare_trap_21, species):
    ell = cv.characteristic_length(species, bare_trap_21.omega_r)
    _, _, rms = cv.align_configurations(eq10_21[0].xy, eq10_21[1].xy)
    assert rms > 1e-3 * ell


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _reference_scan(reference, other, n_angles=96):
    """Each orientation of a one-by-one coarse scan, in order: (rms, points, cols)."""
    flip = np.array([[1.0, 0.0], [0.0, -1.0]])
    scan = []
    for reflect in (False, True):
        base = other @ flip if reflect else other
        for angle in np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False):
            cand = base @ _rotation(angle).T
            cost = np.sum((reference[:, None, :] - cand[None, :, :]) ** 2, axis=-1)
            rows, cols = linear_sum_assignment(cost)
            scan.append((math.sqrt(cost[rows, cols].mean()), cand, cols))
    return scan


def _reference_align(reference, other):
    """Oracle: the first orientation of smallest rms, then the Procrustes polish."""
    rms, cand, perm = min(_reference_scan(reference, other), key=lambda item: item[0])
    aligned = cand[perm]
    for _ in range(10):
        u, _, vt = np.linalg.svd(aligned.T @ reference)
        aligned = aligned @ (u @ vt)
        cost = np.sum((reference[:, None, :] - aligned[None, :, :]) ** 2, axis=-1)
        rows, cols = linear_sum_assignment(cost)
        new_rms = math.sqrt(cost[rows, cols].mean())
        aligned = aligned[cols]
        perm = perm[cols]
        if new_rms >= rms * (1.0 - 1e-12):
            rms = min(rms, new_rms)
            break
        rms = new_rms
    return aligned, perm, rms


def _assert_same_alignment(ref, other):
    got = cv.align_configurations(ref, other)
    want = _reference_align(ref, other)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


@pytest.mark.parametrize("n, pairs", [
    (1, 40), (2, 40), (3, 40), (6, 30), (9, 30), (20, 12), (30, 8), (60, 4),
])
def test_align_bitwise_matches_one_by_one_scan(n, pairs):
    """Turned, mirrored, relabelled and noisy copies, unit spacing times scale."""
    rng = np.random.default_rng(n)
    for k in range(pairs):
        scale = 10.0 ** rng.uniform(-7.0, 0.0)
        ref = rng.normal(size=(n, 2)) * math.sqrt(n) * scale
        rot = _rotation(rng.uniform(0.0, 2.0 * math.pi))
        if rng.random() < 0.5:
            rot = rot @ np.diag([1.0, -1.0])
        noise = 0.0 if k % 4 == 0 else rng.uniform(0.0, 3.0)
        other = (ref @ rot.T)[rng.permutation(n)]
        other += noise * scale * rng.normal(size=(n, 2))
        _assert_same_alignment(ref, other)


def test_align_tie_goes_to_first_orientation():
    """A (1,5) crystal symmetric under y -> -y ties both parities at every angle."""
    angles = 2.0 * math.pi * np.arange(1, 3) / 5.0
    ref = np.array([[0.0, 0.0], [1.0, 0.0]] + [
        [math.cos(a), sign * math.sin(a)] for a in angles for sign in (1.0, -1.0)
    ])
    rng = np.random.default_rng(3)
    shift = 0.05 * rng.normal(size=(4, 2))
    other = ref.copy()
    other[:2, 0] += shift[:2, 0]  # on-axis ions move along the axis only
    for pair, (dx, dy) in zip(((2, 3), (4, 5)), shift[2:]):
        other[pair[0]] += (dx, dy)
        other[pair[1]] += (dx, -dy)
    other = other[rng.permutation(6)]
    rms = [item[0] for item in _reference_scan(ref, other)]
    assert rms.count(min(rms)) >= 2
    _assert_same_alignment(ref, other)


def test_align_memory_bounded():
    """N = 300: one stack of all 192 cost matrices would take 138 MB."""
    rng = np.random.default_rng(4)
    ref = rng.normal(size=(300, 2)) * math.sqrt(300)
    other = (ref @ _rotation(1.0).T)[rng.permutation(300)]
    tracemalloc.start()
    try:
        cv.align_configurations(ref, other)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_ring_configuration_rotation_invariant(eq10_21):
    pts = eq10_21[0].xy
    theta = 0.83
    rot = np.array([
        [math.cos(theta), -math.sin(theta)],
        [math.sin(theta), math.cos(theta)],
    ])
    counts, ambiguous = cv.ring_configuration(pts @ rot.T)
    assert counts == eq10_21[0].ring_configuration
    assert not ambiguous


def test_ring_configuration_ambiguity_flag():
    # hull layers that shrink outward are not shells: an outer triangle
    # (3 ions) around an inner hexagon (6 ions) has no trustworthy label
    outer = 3.0 * np.array([[math.cos(a), math.sin(a)]
                            for a in np.linspace(0, 2 * math.pi, 3, endpoint=False)])
    inner = np.array([[math.cos(a), math.sin(a)]
                      for a in np.linspace(0, 2 * math.pi, 6, endpoint=False)])
    counts, ambiguous = cv.ring_configuration(np.vstack([outer, inner]))
    assert ambiguous
    assert counts == (9,)


@pytest.mark.parametrize("pts, expected", [
    pytest.param([[0.0, 0.0]], (1,), id="N1"),
    pytest.param([[-1.0, 0.0], [1.0, 0.0]], (2,), id="N2"),
    pytest.param([[0.0, 1.0], [-0.9, -0.5], [0.9, -0.5]], (3,), id="N3"),
    pytest.param([[x, 0.0] for x in range(6)], (6,), id="chain"),
    # a collinear rest inside a ring is one inner shell
    pytest.param([[3 * math.cos(a), 3 * math.sin(a)]
                  for a in np.linspace(0, 2 * math.pi, 8, endpoint=False)]
                 + [[x - 1.5, 0.0] for x in range(4)], (4, 8), id="ring-chain"),
])
def test_ring_configuration_small_and_collinear(pts, expected):
    counts, ambiguous = cv.ring_configuration(np.array(pts))
    assert counts == expected
    assert not ambiguous


def test_n30_metastable_ring_labelled(species):
    """The (5,11,14) minimum the radial-gap rule left as an ambiguous (30,)."""
    optical = cv.OpticalTrapConfig(1064e-9, 21e-6, 0.0, cv.ANTINODE_COS2)
    trap = cv.make_trap(OMEGA_R, optical)
    trap = trap.with_depth(cv.depth_for_aspect(trap, species, 4.0))
    eqs = cv.find_equilibria(30, trap, species, n_restarts=16, seed=7)
    assert eqs[0].ring_configuration == (5, 10, 15)
    labels = [(eq.ring_configuration, eq.ring_ambiguous) for eq in eqs[1:]]
    assert ((5, 11, 14), False) in labels


def test_crystal_metrics_square():
    a = 2e-6
    pts = np.array([[a, a], [-a, a], [-a, -a], [a, -a]])
    r_max, d_min = cv.crystal_metrics(pts)
    assert r_max == pytest.approx(a * math.sqrt(2), rel=1e-12)
    assert d_min == pytest.approx(2 * a, rel=1e-12)
    with pytest.raises(cv.DomainError):
        cv.crystal_metrics(pts[:1])


def test_input_validation(bare_trap_21, species):
    with pytest.raises(cv.DomainError):
        cv.find_equilibria(0, bare_trap_21, species)
    with pytest.raises(cv.DomainError):
        cv.find_equilibria(3, bare_trap_21, species, n_restarts=0)
