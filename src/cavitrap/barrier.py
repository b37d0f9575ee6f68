"""Barrier bounds between planar configurations by Boltzmann-biased walks.

A walk steps from a start configuration toward a target in the 2N-dim
planar configuration space. Each step samples candidates uniformly in the
"grey region": the cube of side epsilon around the current point cut down
to points at least d closer to the target, then picks one candidate with
Boltzmann weights exp(-dE / kB T_p). Every step shortens the distance by
at least d, so the walk terminates; the smallest energy peak over several
independent walks is an upper bound on the barrier.

The grey region is exactly cube(x, epsilon) intersected with
ball(x_f, |x - x_f| - d). Candidates come by rejection from one of the two
containers: uniform in the cube keeping ball hits, or uniform in the ball
keeping cube hits. Either route alone is uniform on the intersection, so
the choice leaves the law unchanged; it only sets the acceptance rate,
vol(intersection) / vol(container). Each call therefore draws from the
smaller container, picked from the closed-form volumes. n_samples counts
accepted grey-region points, matching the walk's sampling density
regardless of how thin the grey region gets.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import CONST
from .equilibrium import EquilibriumResult, align_configurations
from .errors import DomainError, SamplingError
from .potential import planar_energy, planar_energy_batch


@dataclass(frozen=True)
class BarrierWalkParams:
    """Walk defaults; d and epsilon of None resolve from the endpoint distance."""

    d: float = None               # m, target step scale, default |x0 - xf| / 20
    epsilon: float = None         # m, cube side, default 2.5 d
    n_samples: int = 1000         # accepted grey-region points per step
    t_p: float = 1e-3             # K, selection temperature
    n_paths: int = 10
    seed: int = 0
    draw_budget_factor: int = 200  # raw-draw cap per step, times n_samples
    align: bool = True            # gauge-fix xf onto x0 before walking

    def __post_init__(self):
        if self.n_samples < 1 or self.n_paths < 1 or self.t_p <= 0:
            raise DomainError("need n_samples >= 1, n_paths >= 1, t_p > 0")
        if self.d is not None and self.epsilon is not None and not (
            self.epsilon > self.d > 0
        ):
            raise DomainError("need epsilon > d > 0")


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


def _xy_flat(config):
    if isinstance(config, EquilibriumResult):
        return config.xy_flat
    return np.asarray(config, dtype=float).ravel().copy()


def _endpoints(x0, xf, align):
    """Flat start and target points; the target is aligned onto the start if align."""
    start = _xy_flat(x0)
    target = _xy_flat(xf)
    if start.shape != target.shape:
        raise DomainError("endpoint configurations differ in size")
    if align:
        aligned, _, _ = align_configurations(
            start.reshape(-1, 2), target.reshape(-1, 2)
        )
        target = aligned.ravel()
    return start, target


def _sample_grey(x, xf, d, eps, n, rng):
    """Up to n points uniform on cube(x, eps) intersect ball(xf, |x-xf|-d).

    All n draws come from whichever container has the smaller volume,
    eps^dim for the cube or pi^(dim/2) R^dim / Gamma(dim/2 + 1) for the
    ball; the points that fall in the other container are kept. Rejection
    from either container is uniform on the intersection, and the smaller
    one accepts the larger share of its draws.
    """
    dim = x.size
    r_ball = np.linalg.norm(x - xf) - d
    if r_ball <= 0:
        return np.empty((0, dim))
    shift = x - xf
    log_cube = dim * math.log(eps)
    log_ball = (
        0.5 * dim * math.log(math.pi)
        - math.lgamma(0.5 * dim + 1.0)
        + dim * math.log(r_ball)
    )

    if log_cube <= log_ball:
        y = rng.random((n, dim))
        y -= 0.5
        y *= eps
        y += shift  # now relative to xf
        keep = np.einsum("ij,ij->i", y, y) <= r_ball**2
        return xf + y[keep]

    y = rng.standard_normal((n, dim))
    radii = r_ball * rng.random(n) ** (1.0 / dim)
    y *= (radii / np.sqrt(np.einsum("ij,ij->i", y, y)))[:, None]
    y -= shift  # now relative to x
    keep = np.max(np.abs(y), axis=1) <= eps / 2.0
    return x + y[keep]


def propose_step(x_i, x_f, params, rng, trap, species, energy_i=None):
    """One walk step: sample the grey region, Boltzmann-select a candidate.

    params must have concrete d and epsilon. Returns (x_next, energy_next).
    """
    d, eps = params.d, params.epsilon
    if np.linalg.norm(x_i - x_f) <= d:
        raise DomainError("already within d of the target")
    if energy_i is None:
        energy_i = planar_energy(x_i, trap, species)

    pool = []
    accepted = 0
    drawn = 0
    budget = params.draw_budget_factor * params.n_samples
    chunk = 4 * params.n_samples
    while accepted < params.n_samples and drawn < budget:
        batch = _sample_grey(x_i, x_f, d, eps, chunk, rng)
        drawn += chunk
        if len(batch):
            pool.append(batch)
            accepted += len(batch)
    if accepted == 0:
        raise SamplingError(
            f"no grey-region candidates after {drawn} draws (step scale d={d:g})"
        )
    candidates = np.vstack(pool)[: params.n_samples]

    energies = planar_energy_batch(candidates, trap, species)
    kbt = CONST.boltzmann * params.t_p
    log_w = -(energies - energies.min()) / kbt
    weights = np.exp(log_w)
    weights /= weights.sum()
    pick = rng.choice(len(candidates), p=weights)
    return candidates[pick], float(energies[pick])


def optimize_path(x0, xf, params, trap, species, path_index=0):
    """One biased walk from x0 toward xf; returns the visited BarrierPath."""
    start, target = _endpoints(x0, xf, params.align)
    dist = np.linalg.norm(start - target)
    if dist == 0.0:
        raise DomainError("endpoints are the same configuration")
    d = params.d if params.d is not None else dist / 20.0
    eps = params.epsilon if params.epsilon is not None else 2.5 * d
    max_iter = 10 * math.ceil(dist / d)
    resolved = replace(params, d=d, epsilon=eps, align=False)
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
        x, energy = propose_step(x, target, resolved, rng, trap, species, energy)
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
    configuration's energy), both in K. With params.align the target is
    aligned onto the start once, and every path walks toward that target.
    """
    _, target = _endpoints(eq_start, eq_other, params.align)
    walk = replace(params, align=False)
    paths = [
        optimize_path(eq_start, target, walk, trap, species, path_index=k)
        for k in range(params.n_paths)
    ]
    bound, best = barrier_upper_bound(paths)
    e_other = (
        eq_other.energy
        if isinstance(eq_other, EquilibriumResult)
        else planar_energy(_xy_flat(eq_other), trap, species)
    )
    return {
        "paths": paths,
        "best_path": best,
        "barrier_from_start": bound,
        "barrier_from_other": (best.peak_energy - e_other) / CONST.boltzmann,
        "peaks": [p.peak_energy for p in paths],
        "n_converged": sum(p.converged for p in paths),
    }
