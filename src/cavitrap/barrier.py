"""Barrier bounds between planar configurations by Boltzmann-biased walks.

A walk steps from a start configuration toward a target in the 2N-dim
planar configuration space. Each step samples candidates uniformly in the
"grey region": the cube of side epsilon around the current point cut down
to points at least d closer to the target, then picks one candidate with
Boltzmann weights exp(-dE / kB T_p). Every step shortens the distance by
at least d, so the walk terminates; the smallest energy peak over several
independent walks is an upper bound on the barrier.

The grey region is exactly cube(x, epsilon) intersected with
ball(x_f, R), R = |x - x_f| - d. One exact rejection sampler draws from
it: a product of normals N(0, sigma^2) about x_f, each truncated to the
cube's side on its axis, so every draw lies in the cube, and a draw y
(relative to x_f) is kept with probability
1{|y| <= R} exp((|y|^2 - R^2) / 2 sigma^2). On the cube the proposal
density is proportional to exp(-|y|^2 / 2 sigma^2), so this is the ratio
of the uniform law to it, scaled to 1 at |y| = R: the kept points are
uniform on the grey region for every sigma > 0. sigma is the root of
sum_k E[y_k^2] = R^2, which maximises the acceptance (12-25 % at every
step of the N = 6 and 9 walks, 7-16 % at N = 30). Each step scores exactly
n_samples points, or raises SamplingError saying how many it reached.

optimize_path walks toward the target it is given. barrier_pair first
matches the other minimum onto the start, once, over the trap's symmetries
(rotations and reflections in an isotropic trap, the four axis sign flips
otherwise), so the walk ends at the same minimum in the start's frame.

barrier_pair walks its paths concurrently, one thread per CPU the process
may use. Path k draws only from its own SeedSequence(seed, spawn_key=(k,))
stream and shares nothing writable with the other paths, so the paths and
bounds are bitwise the same for any number of threads. The work of a step
is inverse-CDF draws and array arithmetic on thousands of elements, which
numpy and scipy run without the interpreter lock, so the threads overlap.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtri, ndtri_exp

from .core import CONST
from .equilibrium import EquilibriumResult, _best_assignment, _xy, align_configurations
from .errors import DomainError, SamplingError
from .potential import planar_energy, planar_energy_batch

_DRAW_BUDGET = 200  # raw draws per step, times n_samples
_MAX_CHUNK = 8  # draws per chunk at most, times n_samples
_LOG_TINY = math.log(1e-300)  # below this Phi(beta) leaves the normal range
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class BarrierWalkParams:
    """Walk defaults; d and epsilon of None resolve from the endpoint distance.

    A given d or epsilon must be positive, and epsilon > d if both are.
    """

    d: float = None               # m, target step scale, default |x0 - xf| / 20
    epsilon: float = None         # m, cube side, default 2.5 d
    n_samples: int = 1000         # accepted grey-region points per step
    t_p: float = 1e-3             # K, selection temperature
    n_paths: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1 or self.n_paths < 1 or self.t_p <= 0:
            raise DomainError("need n_samples >= 1, n_paths >= 1, t_p > 0")
        if any(v is not None and not v > 0 for v in (self.d, self.epsilon)):
            raise DomainError("need d > 0 and epsilon > 0 when given")
        if self.d is not None and self.epsilon is not None and self.epsilon <= self.d:
            raise DomainError("need epsilon > d")


@dataclass(frozen=True)
class BarrierPath:
    points: np.ndarray        # (n_steps, 2N)
    energies: np.ndarray      # J, one per point
    peak_energy: float        # J
    barrier_from_start: float  # K
    converged: bool

    @property
    def arc_length_coordinate(self):
        """Cumulative arc length normalized to [0, 1], for path plots."""
        seg = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        return s / s[-1] if s[-1] > 0 else s


# (x, y) -> (+-x, +-y): the symmetries of an anisotropic trap, identity first
_AXIS_FLIPS = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])


def _aligned_target(x0, xf, trap):
    """xf matched onto x0 over the trap's symmetries (module docstring), flat.

    Of the four axis sign flips, the first of smallest rms wins.
    """
    ref, other = _xy(x0), _xy(xf)
    if ref.shape != other.shape:
        raise DomainError("endpoint configurations differ in size")
    if trap.omega_x_dc == trap.omega_y_dc:
        aligned, _, _ = align_configurations(ref, other)
    else:
        flipped = other * _AXIS_FLIPS[:, None]
        k, cols, _ = _best_assignment(ref, flipped)
        aligned = flipped[k][cols]
    return aligned.ravel()


def _lower_masses(alpha, beta):
    """log Phi(beta) and q = (Phi(beta) - Phi(alpha)) / Phi(beta), alpha < beta."""
    log_pb = log_ndtr(beta)
    return log_pb, -np.expm1(log_ndtr(alpha) - log_pb)


def _second_moment(a, b, sigma):
    """Sum over axes of E[y_k^2], y_k ~ N(0, sigma^2) truncated to [a_k, b_k]."""
    alpha, beta = a / sigma, b / sigma
    log_pb, q = _lower_masses(alpha, beta)
    log_c = -_LOG_SQRT_2PI - (log_pb + np.log(q))  # -log(sqrt(2 pi) Z)
    ratio = alpha * np.exp(log_c - 0.5 * alpha**2) - beta * np.exp(log_c - 0.5 * beta**2)
    return sigma**2 * (a.size + ratio.sum())


def _proposal_sigma(a, b, r_ball):
    """The sigma at which sum_k E[y_k^2] = R^2, the largest acceptance.

    The log acceptance is concave in 1/sigma^2 and its derivative there is
    (sum_k E[y_k^2] - R^2) / 2; the sum grows with sigma from the squared
    distance of the cube's nearest point (< R^2) to the cube's uniform
    second moment (> |x - xf|^2 > R^2), so the root is bracketed by doubling.
    Any sigma gives the exact law, so a loose tolerance only costs yield.
    """

    def excess(log_sigma):
        return _second_moment(a, b, math.exp(log_sigma)) - r_ball**2

    lo = hi = math.log(r_ball / math.sqrt(a.size))
    while excess(hi) < 0.0:
        hi += math.log(2.0)
    while excess(lo) > 0.0:
        lo -= math.log(2.0)
    return math.exp(brentq(excess, lo, hi, xtol=1e-3))


def _grey_pool(x, xf, params, rng):
    """Exactly params.n_samples points uniform on cube(x, eps) cut to ball(xf, R).

    Works in target-centred coordinates y = point - xf, with s = x - xf and
    R = |s| - d. Each axis is reflected so that its cube side lies on the
    lower tail, t_k = -sign(s_k) y_k in [a_k, b_k] = -|s_k| -+ eps/2, and
    t_k is drawn from N(0, sigma^2) truncated to [a_k, b_k] by inverse CDF,
    in log space on axes where Phi(b_k / sigma) underflows. Raises
    SamplingError before any draw if the cube's nearest point to xf lies
    beyond R, and after _DRAW_BUDGET * n_samples draws if the pool is short.
    """
    n, eps, dim = params.n_samples, params.epsilon, x.size
    s = x - xf
    r_ball = np.linalg.norm(s) - params.d
    a = -np.abs(s) - eps / 2.0
    b = a + eps
    nearest = np.minimum(b, 0.0)
    if r_ball <= 0.0 or nearest @ nearest >= r_ball**2:
        raise SamplingError(
            f"grey region empty: reached 0 of {n} points (step scale d={params.d:g})"
        )

    sigma = _proposal_sigma(a, b, r_ball)
    log_pb, q = _lower_masses(a / sigma, b / sigma)
    p_b = np.exp(log_pb)
    tail = log_pb < _LOG_TINY
    any_tail = bool(tail.any())
    scale = np.where(s > 0.0, -sigma, sigma)  # undoes the reflection
    r2 = r_ball**2

    pool, accepted, drawn = [], 0, 0
    budget = _DRAW_BUDGET * n
    chunk = n
    while accepted < n:
        if drawn >= budget:
            raise SamplingError(
                f"reached {accepted} of {n} grey-region points after {drawn} draws "
                f"(step scale d={params.d:g})"
            )
        u = rng.random((chunk, dim))
        if any_tail:
            t_tail = ndtri_exp(log_pb[tail] + np.log1p(-u[:, tail] * q[tail]))
        u *= -q
        u += 1.0
        u *= p_b  # uniform on [Phi(alpha), Phi(beta)]
        y = ndtri(u, out=u)
        if any_tail:
            y[:, tail] = t_tail
        y *= scale
        rr = np.einsum("ij,ij->i", y, y)
        keep = (rr <= r2) & (rng.random(chunk) <= np.exp((rr - r2) / (2.0 * sigma**2)))
        pool.append(y[keep])
        accepted += int(keep.sum())
        drawn += chunk
        # the yield so far sizes the next chunk, with a 10% margin
        chunk = min(
            budget - drawn,
            _MAX_CHUNK * n,
            math.ceil(1.1 * (n - accepted) * drawn / max(accepted, 1)),
        )
    return xf + np.vstack(pool)[:n]


def propose_step(x_i, x_f, params, rng, trap, species):
    """One walk step: sample the grey region, Boltzmann-select a candidate.

    params must have concrete d and epsilon. Returns (x_next, energy_next).
    """
    if np.linalg.norm(x_i - x_f) <= params.d:
        raise DomainError("already within d of the target")

    candidates = _grey_pool(x_i, x_f, params, rng)
    energies = planar_energy_batch(candidates, trap, species)
    kbt = CONST.boltzmann * params.t_p
    log_w = -(energies - energies.min()) / kbt
    weights = np.exp(log_w)
    weights /= weights.sum()
    pick = rng.choice(len(candidates), p=weights)
    return candidates[pick], float(energies[pick])


def optimize_path(x0, xf, params, trap, species, path_index=0):
    """One biased walk from x0 toward xf, unaligned; returns the visited BarrierPath."""
    start, target = _xy(x0).ravel(), _xy(xf).ravel()
    if start.shape != target.shape:
        raise DomainError("endpoint configurations differ in size")
    dist = np.linalg.norm(start - target)
    if dist == 0.0:
        raise DomainError("endpoints are the same configuration")
    d = params.d if params.d is not None else dist / 20.0
    eps = params.epsilon if params.epsilon is not None else 2.5 * d
    max_iter = 10 * math.ceil(dist / d)
    resolved = replace(params, d=d, epsilon=eps)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=params.seed, spawn_key=(path_index,))
    )

    x = start.copy()
    energy = planar_energy(x, trap, species)
    points = [x.copy()]
    energies = [energy]
    converged = False
    for _ in range(max_iter):
        if np.linalg.norm(x - target) < d:
            converged = True
            break
        x, energy = propose_step(x, target, resolved, rng, trap, species)
        points.append(x.copy())
        energies.append(energy)
    else:
        converged = bool(np.linalg.norm(x - target) < d)

    energies = np.array(energies)
    peak = float(energies.max())
    return BarrierPath(
        points=np.array(points),
        energies=energies,
        peak_energy=peak,
        barrier_from_start=(peak - energies[0]) / CONST.boltzmann,
        converged=converged,
    )


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def barrier_upper_bound(paths):
    """Smallest peak over converged paths; returns (barrier in K, best path)."""
    converged = [p for p in paths if p.converged]
    if not converged:
        raise SamplingError("no converged path to bound the barrier with")
    best = min(converged, key=lambda p: p.peak_energy)
    return best.barrier_from_start, best


def barrier_pair(eq_start, eq_other, params, trap, species):
    """Walk n_paths from eq_start toward eq_other and bound both barriers.

    The minimum peak along any connecting path bounds the barrier as seen
    from either end, so one peak yields barrier_from_start (peak minus the
    start energy) and barrier_from_other (the same peak minus the other
    configuration's energy), both in K. The target is aligned onto the
    start once, over the trap's symmetries, and every path walks toward
    that aligned target.

    The paths run in min(n_paths, CPUs) threads. Each draws from its own
    seeded stream and reads only the shared endpoints, trap and species,
    so the result does not depend on the thread count or the scheduling.
    If paths raise, the error of the lowest failing index is raised once
    every path has ended, as a serial loop over the indices would raise.
    """
    target = _aligned_target(eq_start, eq_other, trap)
    with ThreadPoolExecutor(max_workers=min(params.n_paths, _cpu_count())) as pool:
        futures = [
            pool.submit(
                optimize_path, eq_start, target, params, trap, species, path_index=k
            )
            for k in range(params.n_paths)
        ]
    # leaving the block waited for every path; result() re-raises in index order
    paths = [f.result() for f in futures]
    bound, best = barrier_upper_bound(paths)
    e_other = (
        eq_other.energy
        if isinstance(eq_other, EquilibriumResult)
        else planar_energy(_xy(eq_other), trap, species)
    )
    return {
        "paths": paths,
        "best_path": best,
        "barrier_from_start": bound,
        "barrier_from_other": (best.peak_energy - e_other) / CONST.boltzmann,
        "peaks": [p.peak_energy for p in paths],
        "n_converged": sum(p.converged for p in paths),
    }
