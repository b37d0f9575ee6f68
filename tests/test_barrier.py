import copy
import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment
from scipy.special import ndtri, ndtri_exp
from scipy.stats import chisquare, ks_2samp, kstest

import cavitrap as cv
from cavitrap import barrier, equilibrium
from cavitrap.barrier import _grey_pool

KB = cv.CONST.boltzmann


@pytest.fixture(scope="module")
def five_ion_pair(bare_trap_21, species):
    eqs = cv.find_equilibria(5, bare_trap_21, species, n_restarts=20, seed=0)
    assert eqs[0].ring_configuration == (5,)
    assert eqs[1].ring_configuration == (1, 4)
    return eqs


def test_params_validation():
    with pytest.raises(cv.DomainError):
        cv.BarrierWalkParams(n_samples=0)
    with pytest.raises(cv.DomainError):
        cv.BarrierWalkParams(t_p=0.0)
    with pytest.raises(cv.DomainError):
        cv.BarrierWalkParams(t_p=math.nan)  # once failed later, inside rng.choice
    with pytest.raises(cv.DomainError):
        cv.BarrierWalkParams(d=1e-6, epsilon=1e-6)  # needs epsilon > d


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
def test_params_reject_bad_seed(seed):
    """A walk's seed must be an integer >= 0 before any path starts."""
    with pytest.raises(cv.DomainError, match="seed"):
        cv.BarrierWalkParams(seed=seed)


@pytest.mark.parametrize("step", [
    dict(d=0.0), dict(d=-1e-7), dict(d=math.nan), dict(epsilon=0.0),
    dict(epsilon=-1e-7), dict(d=0.0, epsilon=1e-6),
])
def test_params_reject_nonpositive_step(step):
    """d = 0 once reached ceil(dist / 0) in the walk and overflowed."""
    with pytest.raises(cv.DomainError, match="d > 0 and epsilon > 0"):
        cv.BarrierWalkParams(**step)


def test_grey_region_membership(five_ion_pair):
    x = five_ion_pair[0].xy_flat
    xf = five_ion_pair[1].xy_flat
    dist = np.linalg.norm(x - xf)
    d = dist / 20
    eps = 2.5 * d
    params = cv.BarrierWalkParams(d=d, epsilon=eps, n_samples=500)
    rng = np.random.default_rng(0)
    samples = np.vstack([_grey_pool(x, xf, params, rng) for _ in range(20)])
    assert samples.shape == (20 * 500, x.size)  # exactly n_samples per call
    assert np.abs(samples - x).max() <= eps / 2 + 1e-18
    radii = np.linalg.norm(samples - xf, axis=1)
    assert radii.max() <= dist - d + 1e-18


def _brute_force_grey(x, xf, d, eps, n, rng):
    """Reference law: rejection from the bounding box of cube(x, eps) and ball."""
    r_ball = np.linalg.norm(x - xf) - d
    lo = np.maximum(x - eps / 2, xf - r_ball)
    hi = np.minimum(x + eps / 2, xf + r_ball)
    pool, kept = [], 0
    while kept < n:
        y = lo + (hi - lo) * rng.random((20_000, x.size))
        hit = (np.linalg.norm(y - xf, axis=1) <= r_ball) & (
            np.max(np.abs(y - x), axis=1) <= eps / 2
        )
        pool.append(y[hit])
        kept += hit.sum()
    return np.vstack(pool)[:n]


# (dim, d, eps, |x - xf|, samples). The dim = 4 pair has the cube or the
# ball as the smaller container; dim 12 and 18 are walk steps early
# (|x - xf| = 20 d) and late (5-6 d), where bounding-box rejection is still
# affordable; "dim12_tail" puts the cube at the ball's rim (d = dist / 1e4),
# so the proposal's sigma is tiny and some axes lie beyond 38 sigma.
GREY_GEOMETRIES = {
    "cube_smaller": (4, 0.3, 1.0, 1.5, 20_000),
    "ball_smaller": (4, 0.3, 1.0, 0.8, 20_000),
    "dim12_early": (12, 0.05, 0.125, 1.0, 40_000),
    "dim12_late": (12, 0.2, 0.5, 1.0, 40_000),
    "dim18_early": (18, 0.05, 0.125, 1.0, 40_000),
    "dim18_late": (18, 1 / 6, 2.5 / 6, 1.0, 40_000),
    "dim12_tail": (12, 1e-4, 2.5e-4, 1.0, 40_000),
}


@pytest.mark.parametrize("geometry", sorted(GREY_GEOMETRIES))
def test_grey_sampler_law_matches_brute_force(geometry):
    dim, d, eps, dist, n = GREY_GEOMETRIES[geometry]
    x = np.zeros(dim)
    direction = np.random.default_rng(dim).uniform(0.2, 1.0, dim)
    direction *= np.where(np.arange(dim) % 3 == 2, -1.0, 1.0)
    xf = dist * direction / np.linalg.norm(direction)

    params = cv.BarrierWalkParams(d=d, epsilon=eps, n_samples=n)
    got = _grey_pool(x, xf, params, np.random.default_rng(11))
    ref = _brute_force_grey(x, xf, d, eps, n, np.random.default_rng(12))
    for k in range(dim):  # Bonferroni over the coordinates
        assert ks_2samp(got[:, k], ref[:, k]).pvalue > 0.01 / dim, f"coordinate {k}"
    radius = ks_2samp(np.linalg.norm(got - xf, axis=1), np.linalg.norm(ref - xf, axis=1))
    assert radius.pvalue > 0.01
    cube = ks_2samp(np.abs(got - x).max(axis=1), np.abs(ref - x).max(axis=1))
    assert cube.pvalue > 0.01


def test_grey_sampler_uniform_in_ball_inside_cube():
    """With the ball inside the cube the grey region is the ball itself."""
    x = np.zeros(4)
    xf = np.array([0.3, 0.2, 0.1, 0.0])
    d, eps = 0.2, 2.0  # ball radius ~0.17 around xf, cube half-side 1 around x
    r_ball = np.linalg.norm(x - xf) - d
    params = cv.BarrierWalkParams(d=d, epsilon=eps, n_samples=5000)
    samples = _grey_pool(x, xf, params, np.random.default_rng(3))
    radii = np.linalg.norm(samples - xf, axis=1)
    assert radii.max() <= r_ball
    assert kstest((radii / r_ball) ** x.size, "uniform").pvalue > 0.01


def _unfiltered_map(x, xf, params):
    """The sampler's map from raw uniforms to y, with its sigma and R^2."""
    s = x - xf
    r_ball = np.linalg.norm(s) - params.d
    a = -np.abs(s) - params.epsilon / 2.0
    b = a + params.epsilon
    sigma = barrier._proposal_sigma(a, b, r_ball)
    log_pb, q = barrier._lower_masses(a / sigma, b / sigma)
    tail = log_pb < barrier._LOG_TINY
    scale = np.where(s > 0.0, -sigma, sigma)

    def to_y(u):
        y = ndtri(np.exp(log_pb) * (1.0 - q * u))
        y[:, tail] = ndtri_exp(log_pb[tail] + np.log1p(-u[:, tail] * q[tail]))
        return y * scale

    return to_y, sigma, r_ball**2


def _unfiltered_grey_pool(x, xf, params, rng):
    """Oracle: the grey-region sampler with no squeeze.

    Every draw goes through the inverse CDF and the exact test, with the
    same random stream; _grey_pool must return this pool bit for bit.
    """
    to_y, sigma, r2 = _unfiltered_map(x, xf, params)
    n = params.n_samples
    pool, accepted, drawn, chunk = [], 0, 0, n
    while accepted < n:
        y = to_y(rng.random((chunk, x.size)))
        rr = np.einsum("ij,ij->i", y, y)
        keep = (rr <= r2) & (rng.random(chunk) <= np.exp((rr - r2) / (2.0 * sigma**2)))
        pool.append(y[keep])
        accepted += int(keep.sum())
        drawn += chunk
        chunk = min(barrier._MAX_CHUNK * n,
                    math.ceil(1.1 * (n - accepted) * drawn / max(accepted, 1)))
    return xf + np.vstack(pool)[:n]


# (dim, d, eps, |x - xf|, straddle): GREY_GEOMETRIES' steps at n_samples =
# 1000, dim 60 as at N = 30, and steps 3 d from the target. With straddle,
# every third axis has |x_k - xf_k| < eps / 2, so the cube holds xf_k and
# one bin on that axis crosses y_k = 0.
SQUEEZE_GEOMETRIES = {
    **{name: (*g[:4], False) for name, g in GREY_GEOMETRIES.items()},
    "dim4_straddle": (4, 0.3, 1.0, 1.5, True),
    "dim12_straddle": (12, 0.05, 0.125, 1.0, True),
    "dim12_near": (12, 1 / 3, 2.5 / 3, 1.0, False),
    "dim18_near_straddle": (18, 1 / 3, 2.5 / 3, 1.0, True),
    "dim18_tail_straddle": (18, 1e-4, 2.5e-4, 1.0, True),
    "dim60_early": (60, 0.05, 0.125, 1.0, False),
    "dim60_late_straddle": (60, 0.2, 0.5, 1.0, True),
    "dim60_tail": (60, 1e-4, 2.5e-4, 1.0, False),
}


def _squeeze_step(geometry):
    """x, xf and the walk parameters of one SQUEEZE_GEOMETRIES step."""
    dim, d, eps, dist, straddle = SQUEEZE_GEOMETRIES[geometry]
    x = np.zeros(dim)
    direction = np.random.default_rng(dim).uniform(0.2, 1.0, dim)
    direction *= np.where(np.arange(dim) % 3 == 2, -1.0, 1.0)
    if straddle:
        direction[::3] *= 1e-6
    xf = dist * direction / np.linalg.norm(direction)
    assert not straddle or (np.abs(xf - x)[::3] < eps / 2).all()
    return x, xf, cv.BarrierWalkParams(d=d, epsilon=eps)


@pytest.mark.parametrize("geometry", sorted(SQUEEZE_GEOMETRIES))
def test_squeeze_matches_unfiltered_sampler(geometry):
    """Skipping the draws the bounds settle leaves the pool and stream as they were."""
    x, xf, params = _squeeze_step(geometry)
    rng, twin = np.random.default_rng(13), np.random.default_rng(13)
    for _ in range(3):
        assert np.array_equal(_grey_pool(x, xf, params, rng),
                              _unfiltered_grey_pool(x, xf, params, twin))
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("geometry", sorted(SQUEEZE_GEOMETRIES))
def test_squeeze_tables_bound_every_draw(geometry):
    """Each draw's y_k^2 lies within its bin's table entries.

    A bin that crosses y_k = 0 must bound y_k^2 below by 0. Without that
    zero it overstates the bound by at most (eps / _SQUEEZE_BINS)^2, too
    little to move any pool the comparison above draws, so this checks the
    tables directly.
    """
    x, xf, params = _squeeze_step(geometry)
    to_y, _, _ = _unfiltered_map(x, xf, params)
    lo, hi = barrier._squeeze_tables(to_y, x.size)
    u = np.random.default_rng(17).random((20_000, x.size))
    y2 = to_y(u) ** 2
    bins = (u * barrier._SQUEEZE_BINS).astype(int) + barrier._SQUEEZE_BINS * np.arange(x.size)
    assert (lo[bins] <= y2).all() and (y2 <= hi[bins]).all()


@pytest.mark.parametrize("n", [6, 9])
def test_squeeze_matches_unfiltered_sampler_along_a_walk(n, bare_trap_21, species,
                                                         monkeypatch):
    """Every step of a walk draws the oracle's pool, so every walk is unchanged."""
    eqs = cv.find_equilibria(n, bare_trap_21, species, n_restarts=40, seed=0)
    target = barrier._aligned_target(eqs[0], eqs[1], bare_trap_21)
    squeezed, steps = barrier._grey_pool, []

    def checked(x, xf, params, rng):
        twin = copy.deepcopy(rng)
        pool = squeezed(x, xf, params, rng)
        steps.append(np.array_equal(pool, _unfiltered_grey_pool(x, xf, params, twin))
                     and rng.bit_generator.state == twin.bit_generator.state)
        return pool

    monkeypatch.setattr(barrier, "_grey_pool", checked)
    cv.optimize_path(eqs[0], target, cv.BarrierWalkParams(), bare_trap_21, species)
    assert len(steps) >= 15 and all(steps)


def test_sigma_solve_evaluates_each_point_once(five_ion_pair, bare_trap_21, species,
                                               monkeypatch):
    """Over one walk, no second moment is evaluated twice at one point."""
    moment, calls = barrier._second_moment, []

    def counted(a, b, sigma):
        calls.append((a.tobytes(), b.tobytes(), sigma))
        return moment(a, b, sigma)

    monkeypatch.setattr(barrier, "_second_moment", counted)
    cv.optimize_path(five_ion_pair[0].xy_flat, five_ion_pair[1].xy_flat,
                     cv.BarrierWalkParams(), bare_trap_21, species)
    assert len(calls) >= 30 and len(set(calls)) == len(calls)


def test_grey_pool_empty_region_raises_before_drawing():
    """The cube's nearest point to xf lies beyond R: no draw is made."""
    x = np.zeros(4)
    xf = np.array([1.0, 0.0, 0.0, 0.0])
    params = cv.BarrierWalkParams(d=0.5, epsilon=0.6, n_samples=100)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(cv.SamplingError, match="reached 0 of 100"):
        _grey_pool(x, xf, params, rng)
    assert rng.bit_generator.state == state


def test_grey_pool_full_at_late_walk_geometry():
    """|x - xf| = 3.5 d at dim 12, where fixed-container rejection ran short."""
    dim = 12
    direction = np.random.default_rng(7).standard_normal(dim)
    d = 1.0
    xf = 3.5 * d * direction / np.linalg.norm(direction)
    params = cv.BarrierWalkParams(d=d, epsilon=2.5 * d)
    pool = _grey_pool(np.zeros(dim), xf, params, np.random.default_rng(8))
    assert pool.shape == (params.n_samples, dim)
    assert np.abs(pool).max() <= 1.25 * d
    assert np.linalg.norm(pool - xf, axis=1).max() <= 2.5 * d


def test_propose_step_moves_closer(five_ion_pair, bare_trap_21, species):
    x = five_ion_pair[0].xy_flat
    xf = five_ion_pair[1].xy_flat
    dist = np.linalg.norm(x - xf)
    d = dist / 20
    params = cv.BarrierWalkParams(d=d, epsilon=2.5 * d)
    rng = np.random.default_rng(1)
    step, e_step = cv.propose_step(x, xf, params, rng, bare_trap_21, species)
    assert np.linalg.norm(step - xf) <= dist - d
    assert e_step == pytest.approx(cv.planar_energy(step, bare_trap_21, species), abs=0)
    rng2 = np.random.default_rng(1)
    step2, _ = cv.propose_step(x, xf, params, rng2, bare_trap_21, species)
    assert np.array_equal(step, step2)


def test_propose_step_rejects_degenerate_call(five_ion_pair, bare_trap_21, species):
    xf = five_ion_pair[1].xy_flat
    d = np.linalg.norm(five_ion_pair[0].xy_flat - xf) / 20
    params = cv.BarrierWalkParams(d=d, epsilon=2.5 * d)
    with pytest.raises(cv.DomainError):
        cv.propose_step(xf, xf, params, np.random.default_rng(0),
                        bare_trap_21, species)


def test_temperature_controls_step_energy(five_ion_pair, bare_trap_21, species):
    """Cold walks pick low-energy grey points, hot walks do not care."""
    x = five_ion_pair[0].xy_flat
    xf = five_ion_pair[1].xy_flat
    d = np.linalg.norm(x - xf) / 20
    means = {}
    for t_p in (1e-6, 1e3):
        params = cv.BarrierWalkParams(d=d, epsilon=2.5 * d, n_samples=300, t_p=t_p)
        rng = np.random.default_rng(4)
        e = [
            cv.propose_step(x, xf, params, rng, bare_trap_21, species)[1]
            for _ in range(15)
        ]
        means[t_p] = np.mean(e)
    assert means[1e-6] < means[1e3]


def test_optimize_path_contract(five_ion_pair, bare_trap_21, species):
    params = cv.BarrierWalkParams(seed=0)
    path = cv.optimize_path(
        five_ion_pair[0].xy_flat, five_ion_pair[1].xy_flat,
        params, bare_trap_21, species, path_index=0,
    )
    assert path.energies[0] == pytest.approx(five_ion_pair[0].energy, rel=1e-9, abs=0)
    assert path.peak_energy == max(path.energies)
    assert path.barrier_from_start == pytest.approx(
        (path.peak_energy - path.energies[0]) / KB
    )
    arc = path.arc_length_coordinate
    assert arc[0] == 0.0 and arc[-1] == pytest.approx(1.0)
    assert np.all(np.diff(arc) > 0)
    d = np.linalg.norm(path.points[-1] - path.points[0])
    assert np.linalg.norm(path.points[-1] - path.points[-2]) < d  # finished near target


def test_paths_deterministic_and_distinct(five_ion_pair, bare_trap_21, species):
    params = cv.BarrierWalkParams(seed=7)
    args = (five_ion_pair[0].xy_flat, five_ion_pair[1].xy_flat,
            params, bare_trap_21, species)
    a0 = cv.optimize_path(*args, path_index=0)
    b0 = cv.optimize_path(*args, path_index=0)
    a1 = cv.optimize_path(*args, path_index=1)
    assert np.array_equal(a0.points, b0.points)
    assert a0.points.shape != a1.points.shape or not np.array_equal(a0.points, a1.points)


def test_barrier_upper_bound_picks_best_path(five_ion_pair, bare_trap_21, species):
    """barrier_pair's bound is the lowest peak over its paths, read off the
    path that reaches it."""
    params = cv.BarrierWalkParams(seed=0, n_paths=3)
    result = cv.barrier_pair(five_ion_pair[0], five_ion_pair[1], params,
                             bare_trap_21, species)
    paths, best = result["paths"], result["best_path"]
    assert any(p is best for p in paths)
    assert best.peak_energy == min(result["peaks"])
    assert result["barrier_from_start"] == min(p.barrier_from_start for p in paths)
    assert result["barrier_from_start"] == best.barrier_from_start


def test_barrier_pair_consistency(five_ion_pair, bare_trap_21, species):
    params = cv.BarrierWalkParams(seed=0, n_paths=4)
    result = cv.barrier_pair(five_ion_pair[0], five_ion_pair[1], params,
                             bare_trap_21, species)
    b_s = result["barrier_from_start"]
    b_m = result["barrier_from_other"]
    # both bounds come from one peak, so they differ by the energy gap
    gap = (five_ion_pair[1].energy - five_ion_pair[0].energy) / KB
    assert b_s - b_m == pytest.approx(gap, rel=1e-9)
    assert b_m > 0  # the peak sits above the metastable minimum too
    assert result["n_converged"] == 4
    assert len(result["peaks"]) == 4


def test_barrier_pair_aligns_once(five_ion_pair, bare_trap_21, species,
                                  monkeypatch):
    """One alignment per pair; every path walks toward the aligned target."""
    params = cv.BarrierWalkParams(seed=1, n_paths=3, n_samples=200)
    start, other = five_ion_pair[0], five_ion_pair[1]
    target = cv.align_configurations(start.xy, other.xy)[0]
    per_path = [
        cv.optimize_path(start, target, params, bare_trap_21, species,
                         path_index=k).peak_energy
        for k in range(params.n_paths)
    ]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cv.align_configurations(*args, **kwargs)

    monkeypatch.setattr(barrier, "align_configurations", counted)
    result = cv.barrier_pair(start, other, params, bare_trap_21, species)
    assert len(calls) == 1
    assert result["peaks"] == per_path


class _TargetCaptured(Exception):
    pass


@pytest.mark.parametrize("n, anisotropy", [(9, 0.07), (6, 0.0)])
def test_aligned_target_is_the_other_minimum(n, anisotropy, bare_trap_21, species,
                                            monkeypatch):
    """Alignment uses only the trap's symmetries, so the target keeps its energy.

    At 7 % anisotropy a rotation of the N = 9 target by the isotropic
    alignment is no symmetry, and left it 330 mK above the other minimum.
    """
    trap = cv.make_trap(bare_trap_21.omega_x_dc, bare_trap_21.optical,
                        anisotropy=anisotropy)
    eqs = cv.find_equilibria(n, trap, species, n_restarts=40, seed=0)
    targets = []

    def captured(x0, xf, *args, **kwargs):
        targets.append(xf)
        raise _TargetCaptured

    monkeypatch.setattr(barrier, "optimize_path", captured)
    with pytest.raises(_TargetCaptured):
        cv.barrier_pair(eqs[0], eqs[1], cv.BarrierWalkParams(n_paths=1),
                        trap, species)
    energy = cv.planar_energy(targets[0], trap, species)
    assert energy == pytest.approx(eqs[1].energy, rel=1e-12, abs=0.0)


def test_optimize_path_walks_to_the_target_as_given(five_ion_pair, bare_trap_21,
                                                     species):
    """A turned, relabelled copy of the other minimum is walked to, not aligned."""
    start, other = five_ion_pair[0], five_ion_pair[1]
    c, s = math.cos(1.0), math.sin(1.0)
    turned = (other.xy @ np.array([[c, -s], [s, c]]).T)[[3, 0, 4, 1, 2]].ravel()
    path = cv.optimize_path(start, turned, cv.BarrierWalkParams(n_samples=200),
                            bare_trap_21, species)
    d = np.linalg.norm(start.xy_flat - turned) / 20.0
    assert np.linalg.norm(path.points[-1] - turned) < d


_FLIPS = ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0))


def _reference_flip_align(reference, other):
    """Oracle: one flip at a time, the first of smallest rms wins; (rms, points)."""
    scan = []
    for flip in _FLIPS:
        cand = other * flip
        cost = np.sum((reference[:, None, :] - cand[None, :, :]) ** 2, axis=-1)
        rows, cols = linear_sum_assignment(cost)
        scan.append((math.sqrt(cost[rows, cols].mean()), cand[cols]))
    return scan, min(scan, key=lambda item: item[0])[1]


@pytest.fixture(scope="module")
def anisotropic_trap(bare_trap_21):
    return cv.make_trap(bare_trap_21.omega_x_dc, bare_trap_21.optical, anisotropy=0.07)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 30])
def test_axis_flip_alignment_matches_one_by_one_scan(n, anisotropic_trap):
    """Flipped, relabelled and noisy copies, unit spacing times scale."""
    rng = np.random.default_rng(n)
    for k in range(12):
        scale = 10.0 ** rng.uniform(-7.0, 0.0)
        ref = rng.normal(size=(n, 2)) * math.sqrt(n) * scale
        other = (ref * _FLIPS[rng.integers(4)])[rng.permutation(n)]
        other += (0.0 if k % 4 == 0 else rng.uniform(0.0, 3.0)) * scale * rng.normal(
            size=(n, 2))
        got = barrier._aligned_target(ref, other, anisotropic_trap)
        assert np.array_equal(got, _reference_flip_align(ref, other)[1].ravel())


def test_axis_flip_tie_goes_to_first_flip(anisotropic_trap):
    """A reference symmetric under both flips ties all four: integer squares sum exactly."""
    ref = np.array([[3.0, 1.0], [-3.0, 1.0], [3.0, -1.0], [-3.0, -1.0], [0.0, 0.0]])
    other = ref + np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    ref, other = ref * 2.0**-20, other[[2, 4, 0, 3, 1]] * 2.0**-20
    scan, want = _reference_flip_align(ref, other)
    assert len({rms for rms, _ in scan}) == 1
    assert not np.array_equal(scan[0][1], scan[3][1])
    got = barrier._aligned_target(ref, other, anisotropic_trap)
    assert np.array_equal(got, want.ravel())


_WALK = cv.optimize_path
_RAN = {}  # "dir": where walkers leave marks; forked workers inherit it


def _walk_marked(x0, xf, params, trap, species, path_index=0):
    """optimize_path that first leaves a file named '<pid>-<path index>'."""
    (_RAN["dir"] / f"{os.getpid()}-{path_index}").touch()
    return _WALK(x0, xf, params, trap, species, path_index)


def _walk_failing(x0, xf, params, trap, species, path_index=0):
    """Paths 2 and 4 fail; path 2 waits until path 4 has failed, and the
    paths after 4 are slow, so some are still queued when path 2 fails."""
    marks = _RAN["dir"]
    (marks / str(path_index)).touch()
    if path_index > 4:
        time.sleep(0.1)
    if path_index == 2:
        deadline = time.monotonic() + 30.0
        while not (marks / "4-failed").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise cv.SamplingError("path 2 failed")
    if path_index == 4:
        (marks / "4-failed").touch()
        raise cv.SamplingError("path 4 failed")
    return _WALK(x0, xf, params, trap, species, path_index)


def test_barrier_pair_workers_match_serial_walks(five_ion_pair, bare_trap_21,
                                                species, tmp_path, monkeypatch):
    """One, two and four workers give the bits of serial optimize_path calls."""
    params = cv.BarrierWalkParams(seed=2, n_paths=6, n_samples=200)
    start, other = five_ion_pair[0], five_ion_pair[1]
    target = cv.align_configurations(start.xy, other.xy)[0]
    serial = [
        cv.optimize_path(start, target, params, bare_trap_21, species, path_index=k)
        for k in range(params.n_paths)
    ]
    best = min(serial, key=lambda p: p.peak_energy)
    bound = best.barrier_from_start
    monkeypatch.setattr(barrier, "optimize_path", _walk_marked)
    for cpus in (1, 2, 4):
        monkeypatch.setattr(equilibrium, "_cpu_count", lambda: cpus)
        marks = tmp_path / str(cpus)
        marks.mkdir()
        monkeypatch.setitem(_RAN, "dir", marks)
        t0 = time.perf_counter()
        result = cv.barrier_pair(start, other, params, bare_trap_21, species)
        assert time.perf_counter() - t0 < 60.0
        assert multiprocessing.active_children() == []
        ran = [name.split("-") for name in os.listdir(marks)]
        assert sorted(int(k) for _, k in ran) == list(range(params.n_paths))
        pids = {int(pid) for pid, _ in ran}
        if cpus == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() in pids and 1 < len(pids) <= cpus
        assert len(result["paths"]) == params.n_paths
        for got, want in zip(result["paths"], serial):
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.energies, want.energies)
        assert result["barrier_from_start"] == bound
        assert result["barrier_from_other"] == (best.peak_energy - other.energy) / KB


def test_barrier_pair_raises_first_failing_path(five_ion_pair, bare_trap_21,
                                                species, tmp_path, monkeypatch):
    """Index 2's error wins although index 4 fails first; every path runs and
    no worker or thread is left (a pool.map would cancel the paths still
    queued when path 2 fails)."""
    params = cv.BarrierWalkParams(seed=0, n_paths=20, n_samples=100)
    monkeypatch.setattr(barrier, "optimize_path", _walk_failing)
    monkeypatch.setattr(equilibrium, "_cpu_count", lambda: 4)
    monkeypatch.setitem(_RAN, "dir", tmp_path)
    before = set(threading.enumerate())
    with pytest.raises(cv.SamplingError, match="path 2 failed"):
        cv.barrier_pair(five_ion_pair[0], five_ion_pair[1], params,
                        bare_trap_21, species)
    assert (tmp_path / "4-failed").exists()
    assert all((tmp_path / str(k)).exists() for k in range(params.n_paths))
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) <= before
    assert threading.active_count() == len(before)


def test_walk_converges_at_thirty_ions(bare_trap_21, species):
    """Dim 60: rejection from the cube or the ball alone found no grey point."""
    eqs = cv.find_equilibria(30, bare_trap_21, species, n_restarts=12, seed=0)
    path = cv.optimize_path(eqs[0], eqs[1], cv.BarrierWalkParams(), bare_trap_21,
                            species)
    d = np.linalg.norm(eqs[0].xy_flat - eqs[1].xy_flat) / 20.0
    assert np.linalg.norm(path.points[-1] - eqs[1].xy_flat) < d


@pytest.mark.parametrize("ratio", [1.0, 2.0])
def test_step_reaching_the_target_is_rejected(ratio, five_ion_pair, bare_trap_21,
                                              species):
    """d >= |x0 - xf| once gave one-point paths: 0 K from the start, < 0 from the other end."""
    dist = np.linalg.norm(five_ion_pair[0].xy_flat - five_ion_pair[1].xy_flat)
    params = cv.BarrierWalkParams(d=ratio * dist, n_paths=2)
    with pytest.raises(cv.DomainError, match="reaches the target"):
        cv.optimize_path(five_ion_pair[0], five_ion_pair[1], params, bare_trap_21,
                         species)
    with pytest.raises(cv.DomainError, match="reaches the target"):
        cv.barrier_pair(five_ion_pair[0], five_ion_pair[1], params, bare_trap_21,
                        species)


def test_walk_endpoint_mismatch(five_ion_pair, bare_trap_21, species):
    params = cv.BarrierWalkParams(seed=0)
    with pytest.raises(cv.DomainError):
        cv.optimize_path(five_ion_pair[0].xy_flat[:8],
                         five_ion_pair[1].xy_flat,
                         params, bare_trap_21, species)


def test_hot_selection_uniform_and_weights_normalized(five_ion_pair, bare_trap_21,
                                                      species):
    """At t_p -> inf the Boltzmann pick is uniform over the accepted pool."""
    x = five_ion_pair[0].xy_flat
    xf = five_ion_pair[1].xy_flat
    d = np.linalg.norm(x - xf) / 20
    params = cv.BarrierWalkParams(d=d, epsilon=2.5 * d, n_samples=32, t_p=1e9)
    n_trials = 10_000
    ranks = np.empty(n_trials, dtype=np.intp)
    for k in range(n_trials):
        pool = _grey_pool(x, xf, params, np.random.default_rng(900 + k))
        energies = cv.planar_energy_batch(pool, bare_trap_21, species)
        weights = np.exp(-(energies - energies.min()) / (KB * params.t_p))
        assert np.sum(weights / weights.sum()) == pytest.approx(1.0, rel=1e-12)
        step, e_step = cv.propose_step(x, xf, params, np.random.default_rng(900 + k),
                                       bare_trap_21, species)
        pick = int(np.argmin(np.abs(energies - e_step)))
        assert np.array_equal(pool[pick], step)
        ranks[k] = np.searchsorted(np.sort(energies), e_step)
    counts = np.bincount(ranks, minlength=params.n_samples)
    assert chisquare(counts).pvalue > 0.01


def _grid_minimax_barrier(e, start, target):
    """Lowest level at which start and target cells 4-connect on an energy grid."""
    ny, nx = e.shape
    flat = e.ravel()
    parent = np.arange(flat.size)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    s = start[0] * nx + start[1]
    t = target[0] * nx + target[1]
    active = np.zeros(flat.size, dtype=bool)
    for idx in np.argsort(flat):
        active[idx] = True
        i, j = divmod(idx, nx)
        for nbr in (idx - nx, idx + nx, idx - 1, idx + 1):
            if nbr < 0 or nbr >= flat.size:
                continue
            if abs(nbr - idx) == 1 and nbr // nx != i:
                continue  # no wrap across row edges
            if active[nbr]:
                parent[find(nbr)] = find(idx)
        if find(s) == find(t):
            return flat[idx] - e[start]
    raise AssertionError("grid flood never connected the two wells")


def test_two_ion_anisotropic_barrier_matches_grid_saddle(bare_trap_21, species):
    """20% anisotropy: walk bound vs exhaustive minimax search, relative coords."""
    trap = cv.make_trap(bare_trap_21.omega_x_dc, bare_trap_21.optical, anisotropy=0.2)
    kq = cv.CONST.coulomb_coefficient
    m = species.mass
    dx = (2.0 * kq / (m * trap.omega_x_dc**2)) ** (1.0 / 3.0)
    dy = (2.0 * kq / (m * trap.omega_y_dc**2)) ** (1.0 / 3.0)
    x0 = np.array([dx / 2, 0.0, -dx / 2, 0.0])
    xf = np.array([0.0, dy / 2, 0.0, -dy / 2])

    params = cv.BarrierWalkParams(seed=2)
    result = cv.barrier_pair(x0, xf, params, trap, species)
    walk = result["barrier_from_start"]

    # COM decouples, so scan the relative coordinate on a dense grid
    n = 321
    rho = np.linspace(-1.6 * dx, 1.6 * dx, n)
    rx, ry = np.meshgrid(rho, rho)
    r = np.hypot(rx, ry)
    r[r == 0] = np.inf
    e = 0.25 * m * (trap.omega_x_dc**2 * rx**2 + trap.omega_y_dc**2 * ry**2) + kq / r
    start = (np.argmin(np.abs(rho)), np.argmin(np.abs(rho - dx)))
    target = (np.argmin(np.abs(rho - dy)), np.argmin(np.abs(rho)))
    grid = _grid_minimax_barrier(e, start, target) / KB

    assert result["n_converged"] == params.n_paths
    assert walk >= grid * 0.98  # upper bound, modulo grid resolution
    assert walk <= 1.10 * grid
