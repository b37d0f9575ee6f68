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

Most draws are rejected, so the sampler settles what it can from cheap
bounds before the inverse CDF runs (the squeeze of rejection sampling,
Devroye 1986, II.5). A draw maps its raw uniform u_k on axis k through a
map monotone in u_k. Per step, each axis's [0, 1) is cut into
_SQUEEZE_BINS bins (a power of 2, so u_k times it is exact and truncation
gives the bin), the bin edges go through the same map, and two tables hold
each bin's least and largest y_k^2 (the least is 0 where the bin crosses
y_k = 0). Summing a draw's bins gives rr_lo <= |y|^2 <= rr_hi. The draw is
rejected outright when rr_lo > R^2, or when its acceptance uniform exceeds
exp((min(rr_hi, R^2) - R^2) / 2 sigma^2), each bound widened by
_SQUEEZE_RTOL against rounding. Only the rest go through the inverse CDF
and the exact test. A skipped draw is one the exact test would reject, the
random stream is drawn in the same order, and the rows left are mapped and
tested element by element as before, so the pool is bitwise the one the
unfiltered loop gives. On the walks at N = 6 to 60, 20-25 % of the draws
are left for the inverse CDF.

optimize_path walks toward the target it is given. barrier_pair first
matches the other minimum onto the start, once, over the trap's symmetries
(rotations and reflections in an isotropic trap, the four axis sign flips
otherwise), so the walk ends at the same minimum in the start's frame.

barrier_pair walks its paths on the map the equilibrium search runs its
restarts on: the caller beside min(n_paths, CPUs) - 1 forked children.
Path k draws only from its own stream, equilibrium._stream(seed, k),
so the paths and bounds are bitwise the same for any number of workers.
"""

import math
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtri, ndtri_exp

from .core import CONST
from .equilibrium import (
    _best_assignment,
    _check_seed,
    _in_workers,
    _stream,
    _xy,
    align_configurations,
)
from .errors import DomainError, SamplingError
from .potential import planar_energy, planar_energy_batch

_DRAW_BUDGET = 200  # raw draws per step, times n_samples
_MAX_CHUNK = 8  # draws per chunk at most, times n_samples
_LOG_TINY = math.log(1e-300)  # below this Phi(beta) leaves the normal range
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQUEEZE_BINS = 256  # bins of u per axis; a power of 2, so u * bins is exact
_SQUEEZE_RTOL = 1e-9  # relative slack on each squeeze bound, far above rounding
# elements per block of squeeze temporaries: 64 KiB arrays come from the heap
# and are reused, where chunk-sized ones were mapped afresh and page-faulted
_SQUEEZE_BLOCK = 8192


@dataclass(frozen=True)
class BarrierWalkParams:
    """Walk defaults; d and epsilon of None resolve from the endpoint distance.

    A given d or epsilon must be positive, epsilon > d if both are, and
    seed an integer >= 0.
    """

    d: float = None               # m, target step scale, default |x0 - xf| / 20
    epsilon: float = None         # m, cube side, default 2.5 d
    n_samples: int = 1000         # accepted grey-region points per step
    t_p: float = 1e-3             # K, selection temperature
    n_paths: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1 or self.n_paths < 1 or not self.t_p > 0:
            raise DomainError("need n_samples >= 1, n_paths >= 1, t_p > 0")
        if any(v is not None and not v > 0 for v in (self.d, self.epsilon)):
            raise DomainError("need d > 0 and epsilon > 0 when given")
        if self.d is not None and self.epsilon is not None and self.epsilon <= self.d:
            raise DomainError("need epsilon > d")
        _check_seed(self.seed)


@dataclass(frozen=True)
class BarrierPath:
    points: np.ndarray        # (n_steps, 2N)
    energies: np.ndarray      # J, one per point
    peak_energy: float        # J
    barrier_from_start: float  # K

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
    Both loops start at one point and brentq starts at the bracket's ends,
    so excess is memoised: each point is evaluated once.
    """

    @cache
    def excess(log_sigma):
        return _second_moment(a, b, math.exp(log_sigma)) - r_ball**2

    lo = hi = math.log(r_ball / math.sqrt(a.size))
    while excess(hi) < 0.0:
        hi += math.log(2.0)
    while excess(lo) > 0.0:
        lo -= math.log(2.0)
    return math.exp(brentq(excess, lo, hi, xtol=1e-3))


def _squeeze_tables(inverse_cdf, dim):
    """Least and largest y_k^2 on each bin of u_k, widened by _SQUEEZE_RTOL.

    inverse_cdf maps rows of raw uniforms to y, monotone in u on each axis.
    Both tables are flat: bin j of axis k sits at k * _SQUEEZE_BINS + j.
    """
    u_edges = np.arange(_SQUEEZE_BINS + 1.0) / _SQUEEZE_BINS
    edges = inverse_cdf(np.repeat(u_edges[:, None], dim, axis=1))
    sq = edges**2
    lo = np.minimum(sq[:-1], sq[1:])
    lo[(edges[:-1] < 0.0) != (edges[1:] < 0.0)] = 0.0  # the bin crosses y = 0
    hi = np.maximum(sq[:-1], sq[1:])
    return (lo * (1.0 - _SQUEEZE_RTOL)).T.ravel(), (hi * (1.0 + _SQUEEZE_RTOL)).T.ravel()


def _grey_pool(x, xf, params, rng):
    """Exactly params.n_samples points uniform on cube(x, eps) cut to ball(xf, R).

    Works in target-centred coordinates y = point - xf, with s = x - xf and
    R = |s| - d. Each axis is reflected so that its cube side lies on the
    lower tail, t_k = -sign(s_k) y_k in [a_k, b_k] = -|s_k| -+ eps/2, and
    t_k is drawn from N(0, sigma^2) truncated to [a_k, b_k] by inverse CDF,
    in log space on axes where Phi(b_k / sigma) underflows. Raises
    SamplingError before any draw if the cube's nearest point to xf lies
    beyond R, and after _DRAW_BUDGET * n_samples draws if the pool is short.
    Draws that the squeeze tables settle skip the inverse CDF (module docstring).
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

    def inverse_cdf(u):
        """Raw uniforms (rows, dim) -> y, monotone in u on each axis; overwrites u."""
        if any_tail:
            t_tail = ndtri_exp(log_pb[tail] + np.log1p(-u[:, tail] * q[tail]))
        u *= -q
        u += 1.0
        u *= p_b  # uniform on [Phi(alpha), Phi(beta)]
        y = ndtri(u, out=u)
        if any_tail:
            y[:, tail] = t_tail
        y *= scale
        return y

    lo_table, hi_table = _squeeze_tables(inverse_cdf, dim)
    offsets = np.arange(dim) * _SQUEEZE_BINS
    ones = np.ones(dim)
    block = max(1, _SQUEEZE_BLOCK // dim)

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
        v = rng.random(chunk)
        u *= _SQUEEZE_BINS  # exact, and undone exactly below
        rr_lo, rr_hi = np.empty(chunk), np.empty(chunk)
        for rows in range(0, chunk, block):
            bins = u[rows:rows + block].astype(np.intp)
            bins += offsets
            # row sums, faster than sum(axis=1) on short rows
            rr_lo[rows:rows + block] = lo_table[bins] @ ones
            rr_hi[rows:rows + block] = hi_table[bins] @ ones
        p_hi = np.exp((np.minimum(rr_hi, r2) - r2) / (2.0 * sigma**2))
        # the exact test, on the rows the bounds leave open; a NaN bound settles nothing
        live = ~((rr_lo > r2) | (v > p_hi * (1.0 + _SQUEEZE_RTOL)))
        u = u[live]
        u /= _SQUEEZE_BINS
        y = inverse_cdf(u)
        rr = np.einsum("ij,ij->i", y, y)
        keep = (rr <= r2) & (v[live] <= np.exp((rr - r2) / (2.0 * sigma**2)))
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
    """One biased walk from x0 toward xf, unaligned; returns the visited BarrierPath.

    The step scale d must be below |x0 - xf|, or the walk would end where it starts.
    """
    start, target = _xy(x0).ravel(), _xy(xf).ravel()
    if start.shape != target.shape:
        raise DomainError("endpoint configurations differ in size")
    dist = np.linalg.norm(start - target)
    if dist == 0.0:
        raise DomainError("endpoints are the same configuration")
    d = params.d if params.d is not None else dist / 20.0
    if d >= dist:
        raise DomainError(f"step scale d={d:g} m reaches the target {dist:g} m away")
    eps = params.epsilon if params.epsilon is not None else 2.5 * d
    resolved = replace(params, d=d, epsilon=eps)
    rng = _stream(params.seed, path_index)

    x = start.copy()
    energy = planar_energy(x, trap, species)
    points = [x.copy()]
    energies = [energy]
    # each step lands at least d closer, so this ends or propose_step raises
    while np.linalg.norm(x - target) >= d:
        x, energy = propose_step(x, target, resolved, rng, trap, species)
        points.append(x.copy())
        energies.append(energy)

    energies = np.array(energies)
    peak = float(energies.max())
    return BarrierPath(
        points=np.array(points),
        energies=energies,
        peak_energy=peak,
        barrier_from_start=(peak - energies[0]) / CONST.boltzmann,
    )


def barrier_pair(eq_start, eq_other, params, trap, species):
    """Walk n_paths from eq_start toward eq_other and bound both barriers.

    The minimum peak along any connecting path bounds the barrier as seen
    from either end, so one peak yields barrier_from_start (peak minus the
    start energy) and barrier_from_other (the same peak minus the other
    configuration's energy), both in K. The target is aligned onto the
    start once, over the trap's symmetries, and every path walks toward
    that aligned target.

    The paths run on _in_workers, in the caller and its forked children,
    so the result does not depend on the worker count; once every path has
    run, the lowest failing path's error is raised.
    """
    target = _aligned_target(eq_start, eq_other, trap)
    walk = partial(optimize_path, eq_start, target, params, trap, species)
    paths = _in_workers(walk, params.n_paths)
    best = min(paths, key=lambda p: p.peak_energy)
    e_other = planar_energy(_xy(eq_other), trap, species)
    return {
        "paths": paths,
        "best_path": best,
        "barrier_from_start": best.barrier_from_start,
        "barrier_from_other": (best.peak_energy - e_other) / CONST.boltzmann,
        "peaks": [p.peak_energy for p in paths],
        "n_converged": len(paths),  # every walk reaches its target
    }
