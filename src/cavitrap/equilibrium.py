"""Planar equilibrium configurations via multistart quasi-Newton descent.

The search runs in scaled units (lengths over the Coulomb length ell,
energies over e^2/(4 pi eps0 ell)) because SI crystal energies are ~1e-19 J
and quasi-Newton stopping tests with absolute floors stall there. Each
restart draws its own RNG stream from (seed, restart_index). The restarts
run on _in_workers: the caller and min(restarts, CPUs) - 1 forked children
take indices from one shared counter, and the outcomes are merged in index
order, so the result does not depend on the CPU count.
Two converged restarts are the same crystal exactly when their energies
agree to ENERGY_MATCH_RTOL: the energy is invariant under rotation,
reflection and relabeling, so no alignment is needed. Copies of one
crystal (exact images, or shells turned along the nearly free inter-shell
rotation at N = 19 and 20) agree to 2e-13 relative; the closest distinct
minima seen lie 1.6e-8 apart (N = 120).
"""

import math
import multiprocessing
import os
import threading
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import cdist

from .core import CONST, characteristic_length
from .errors import ConvergenceError, DomainError
from .potential import (
    _pair_distances,
    coulomb_z_block,
    planar_energy_gradient,
    planar_hessian,
)

STABLE = "stable"
METASTABLE = "metastable"

# how a restart's local solve (_relax) ends
CONVERGED, UNCONVERGED, SADDLE = "converged", "unconverged", "saddle"

# relative energy agreement for two minima to count as the same configuration
ENERGY_MATCH_RTOL = 1e-12

# rotation angles of the coarse alignment scan, per parity
ALIGN_ANGLES = 96

# Newton polish: Hessian eigenvalues at or below this fraction of the largest
# are dropped from the pseudo-inverse (the noisy global-rotation mode)
POLISH_EIG_RTOL = 1e-8

# a converged restart is a saddle if its lowest curvature is below minus this
# many m omega_r^2; in an isotropic trap every crystal's global-rotation mode
# has an exact zero eigenvalue, whose near-zero numerical value must pass
SADDLE_CURVATURE_TOL = 1e-6

# a restart converges when its gradient norm is below this many kq / ell^2
GRAD_TOL_REL = 1e-8


@dataclass(frozen=True)
class EquilibriumResult:
    """One distinct planar equilibrium: positions (flat 3N, z = 0) and metrics.

    positions is kept as a read-only float copy. The crystal's Coulomb z
    block and its upper-triangle pair distances are computed on first use
    and kept, read-only, so the transition, mode and spin layers share one
    pair pass per crystal (about 1.1 MB at N = 300).
    """

    positions: np.ndarray
    energy: float
    stability: str
    ring_configuration: tuple
    ring_ambiguous: bool
    r_max: float
    d_min: float
    n_found_duplicates: int
    grad_norm: float

    def __post_init__(self):
        object.__setattr__(self, "positions", _read_only(self.positions))

    @cached_property
    def _z_block(self):
        return _read_only(coulomb_z_block(self.xy))

    @cached_property
    def _upper_r(self):
        return _read_only(_pair_r(self.xy))

    @property
    def n_ions(self):
        return len(self.positions) // 3

    @property
    def xy(self):
        return self.positions.reshape(-1, 3)[:, :2]

    @property
    def xy_flat(self):
        return self.xy.ravel().copy()


def _read_only(values):
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _xy(config):
    """(N, 2) in-plane positions of an EquilibriumResult or of coordinates."""
    if isinstance(config, EquilibriumResult):
        return config.xy
    return np.asarray(config, dtype=float).reshape(-1, 2)


def _coulomb_z(config):
    """coulomb_z_block of an EquilibriumResult (kept) or of coordinates."""
    if isinstance(config, EquilibriumResult):
        return config._z_block
    return coulomb_z_block(_xy(config))


def _pair_r(config):
    """Pair distances |p_j - p_i| over i < j, in np.triu_indices order, of an
    EquilibriumResult (kept) or of coordinates."""
    if isinstance(config, EquilibriumResult):
        return config._upper_r
    _, r = _pair_distances(_xy(config))
    return r[~np.tri(len(r), dtype=bool)]  # a mask: no two index arrays to build


def _best_assignment(reference, candidates):
    """The first candidate nearest `reference` under its optimal relabeling.

    reference is (N, 2); candidates is a sequence of (N, 2) arrays. Each
    candidate is relabeled by optimal assignment on the squared distances,
    and the first one of smallest rms distance wins. Returns (its index,
    the relabeling, the rms); candidate[relabeling] is the matched copy.
    """
    best_rms, best_k, best_cols = math.inf, None, None
    for k, cand in enumerate(candidates):
        cost = cdist(reference, cand, "sqeuclidean")
        rows, cols = linear_sum_assignment(cost)
        rms = math.sqrt(cost[rows, cols].mean())
        if rms < best_rms:
            best_rms, best_k, best_cols = rms, k, cols
    return best_k, best_cols, best_rms


def align_configurations(reference, other):
    """Match `other` onto `reference` over rotations, reflections, relabelings.

    Gauge-fixes a barrier walk's target onto its start in an isotropic trap.

    Coarse scan, in order, over the two parities (reflection off, then on)
    times ALIGN_ANGLES rotation angles, with optimal assignment at each,
    keeping the first orientation of smallest rms; then iterated
    orthogonal-Procrustes polish against the best assignment. Returns
    (aligned points, permutation, rms distance); reference and other are
    (N, 2) arrays.
    """
    ref = np.asarray(reference, dtype=float)
    oth = np.asarray(other, dtype=float)
    if ref.shape != oth.shape:
        raise DomainError("configurations must have the same shape to align")

    flip = np.array([[1.0, 0.0], [0.0, -1.0]])
    angles = np.linspace(0.0, 2.0 * math.pi, ALIGN_ANGLES, endpoint=False).tolist()
    c = np.array([math.cos(a) for a in angles])
    s = np.array([math.sin(a) for a in angles])
    # the transposed view hands BLAS the strides of a single `points @ rot.T`,
    # which keeps the rotated points bitwise equal to it (at N = 1 too)
    rot_t = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2).transpose(0, 2, 1)
    cands = (np.stack([oth, oth @ flip])[:, None] @ rot_t).reshape(-1, len(ref), 2)
    k, perm, rms = _best_assignment(ref, cands)

    aligned = cands[k][perm]
    for _ in range(10):
        # orthogonal Procrustes (reflections allowed, the trap has O(2) symmetry)
        u, _, vt = np.linalg.svd(aligned.T @ ref)
        rot = u @ vt
        aligned = aligned @ rot
        cost = cdist(ref, aligned, "sqeuclidean")
        rows, cols = linear_sum_assignment(cost)
        new_rms = math.sqrt(cost[rows, cols].mean())
        aligned = aligned[cols]
        perm = perm[cols]
        if new_rms >= rms * (1.0 - 1e-12):
            rms = min(rms, new_rms)
            break
        rms = new_rms
    return aligned, perm, rms


def ring_configuration(xy):
    """Shell counts from innermost outward, plus an ambiguity flag.

    Shells are convex-hull layers: the hull of the ions left, with the ions
    on its boundary counted in it (Qhull's coplanar points), is peeled off
    until at most three ions, or a collinear rest, remain as the innermost
    shell. Physical shells grow outward; counts that do not (hull layers of
    a triangular core, say) are ambiguous and give the flagged shell (N,).
    """
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    rest = np.arange(len(pts))
    counts = []
    while len(rest) > 3:
        try:
            hull = ConvexHull(pts[rest], qhull_options="Qc")
        except QhullError:  # a collinear rest has no 2D hull
            break
        layer = np.zeros(len(rest), dtype=bool)
        layer[hull.vertices] = True
        layer[hull.coplanar[:, 0]] = True
        counts.append(int(layer.sum()))
        rest = rest[~layer]
    if len(rest):
        counts.append(len(rest))
    counts.reverse()
    if any(a > b for a, b in zip(counts, counts[1:])):
        return (len(pts),), True
    return tuple(counts), False


def crystal_metrics(xy):
    """(r_max from the centroid, minimum pair spacing) of a planar crystal."""
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    if len(pts) < 2:
        raise DomainError("d_min needs at least two ions")
    r_max = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max())
    _, r = _pair_distances(pts)
    return r_max, float(r.min())


def _relax(x, trap, species):
    """L-BFGS descent from x, then guarded Newton steps, each point's
    planar_hessian built once: its eigh steps while |g| >= GRAD_TOL_REL
    kq / ell^2, its eigvalsh then says CONVERGED or SADDLE. Running out of
    steps or of line-search halvings ends UNCONVERGED. Returns (outcome, x,
    energy, gradient norm), the last two from the pass at x.
    """
    ell = characteristic_length(species, trap.omega_r)
    echar = CONST.coulomb_coefficient / ell
    fchar = CONST.coulomb_coefficient / ell**2

    def fun(y):  # energy and gradient from one pair pass, in scaled units
        e, g = planar_energy_gradient(y * ell, trap, species)
        return e / echar, g / fchar
    res = minimize(fun, x / ell, jac=True, method="L-BFGS-B",
                   options=dict(maxiter=20000, ftol=1e-14, gtol=1e-7))

    x = res.x * ell
    grad_tol = GRAD_TOL_REL * fchar
    step_cap, max_steps = 0.1 * ell, 60
    e, g = planar_energy_gradient(x, trap, species)
    for n_steps in range(max_steps + 1):
        gnorm = np.linalg.norm(g)
        if gnorm >= grad_tol and n_steps == max_steps:
            break
        h = planar_hessian(x, trap, species)
        if gnorm < grad_tol:
            lowest = np.linalg.eigvalsh(h).min()
            saddle = lowest < -SADDLE_CURVATURE_TOL * species.mass * trap.omega_r**2
            return (SADDLE if saddle else CONVERGED), x, e, gnorm
        w, v = np.linalg.eigh(h)
        keep = w > POLISH_EIG_RTOL * w[-1]
        step = -(v[:, keep] @ ((v[:, keep].T @ g) / w[keep]))
        norm = np.linalg.norm(step)
        if norm > step_cap:
            step *= step_cap / norm
        scale = 1.0
        for _ in range(12):
            trial = x + scale * step
            e_trial, g_trial = planar_energy_gradient(trial, trap, species)
            if np.linalg.norm(g_trial) < gnorm:
                x, e, g = trial, e_trial, g_trial
                break
            scale *= 0.5
        else:
            break
    return UNCONVERGED, x, e, gnorm


def _stream(seed, index):
    """Task index's own random generator under seed, whatever the worker count."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _one_restart(n_ions, trap, species, seed, index):
    """_relax from restart index's start, uniform in a disc of radius 1.5 ell sqrt(N)."""
    rng = _stream(seed, index)
    radius = 1.5 * characteristic_length(species, trap.omega_r) * math.sqrt(n_ions)
    r = radius * np.sqrt(rng.random(n_ions))
    phi = 2.0 * math.pi * rng.random(n_ions)
    x0 = np.column_stack([r * np.cos(phi), r * np.sin(phi)]).ravel()
    return _relax(x0, trap, species)


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _in_workers(fn, count):
    """[fn(0), ..., fn(count - 1)], run by the caller beside min(count, CPUs)
    - 1 forked children. Each runner takes the next task index from one
    shared counter until none is left; a child sends its (index, value or
    exception) records back through a pipe when it runs out, and the
    caller returns the values in index order. Once every task has run, the
    error of the lowest failing index is raised; a task whose child exited
    without reporting fails with the child's exit status. No child outlives
    the call: if the caller's own task raises a BaseException, the children
    are killed and reaped. The children inherit the caller's BLAS pool
    size, one thread unless the environment set another.

    The calls run in the caller, one by one, for one runner, on a platform
    without fork, or beside other threads: a forked child gets only the
    forking thread, and a lock another thread held stays locked.
    """
    runners = min(count, _cpu_count())
    if (runners == 1 or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(k) for k in range(count)]
    context = multiprocessing.get_context("fork")
    counter = context.Value("q", 0)

    def run():
        records = []
        while True:
            with counter.get_lock():
                k = counter.value
                counter.value = k + 1
            if k >= count:
                return records
            try:
                records.append((k, True, fn(k)))
            except Exception as exc:
                records.append((k, False, exc))

    def child(writer):
        writer.send(run())

    children, died = [], []
    try:
        for _ in range(runners - 1):
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(target=child, args=(writer,))
            process.start()
            writer.close()
            children.append((process, reader))
        records = run()
        for process, reader in children:
            try:
                records += reader.recv()
            except EOFError:  # the child exited before it reported
                died.append(process)
            process.join()
    finally:
        for process, reader in children:
            if process.exitcode is None:
                process.kill()
                process.join()
            reader.close()
    done = {k: (ok, value) for k, ok, value in records}
    for k in range(count):
        if k not in done:
            raise RuntimeError(f"a worker process exited with status "
                               f"{died[0].exitcode} before it reported task {k}")
        ok, value = done[k]
        if not ok:
            raise value
    return [done[k][1] for k in range(count)]


def _check_seed(seed):
    """Raise DomainError unless seed is an integer >= 0 (a bool is not)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"need an integer seed >= 0, got {seed!r}")


def _same_energy(a, b, floor):
    """a and b agree to ENERGY_MATCH_RTOL on a scale floored for E = 0 (N = 1)."""
    return abs(a - b) <= ENERGY_MATCH_RTOL * max(abs(a), floor, abs(b))


def find_equilibria(n_ions, trap, species, n_restarts=50, seed=0):
    """All distinct planar equilibria found over n_restarts random starts.

    Returns EquilibriumResults sorted by energy; the first is labeled
    stable, the rest metastable. Raises ConvergenceError, with the number
    of restarts that ended unconverged and as saddles, if none converges.
    """
    if n_ions < 1 or n_restarts < 1:
        raise DomainError("need n_ions >= 1 and n_restarts >= 1")
    _check_seed(seed)
    echar = CONST.coulomb_coefficient / characteristic_length(species, trap.omega_r)

    found = []  # list of [x, energy, gradient norm, count]
    outcomes = dict.fromkeys((CONVERGED, UNCONVERGED, SADDLE), 0)
    restart = partial(_one_restart, n_ions, trap, species, seed)
    for outcome, x, e, gnorm in _in_workers(restart, n_restarts):
        outcomes[outcome] += 1
        if outcome != CONVERGED:
            continue
        for entry in found:
            if _same_energy(e, entry[1], 1e-6 * echar):
                entry[3] += 1
                break
        else:
            found.append([x, e, gnorm, 1])
    if not found:
        raise ConvergenceError(
            f"no converged minimum in {n_restarts} restarts: "
            f"{outcomes[UNCONVERGED]} unconverged, {outcomes[SADDLE]} saddles"
        )

    found.sort(key=lambda entry: entry[1])
    results = []
    for rank, (x, e, gnorm, count) in enumerate(found):
        pts = x.reshape(-1, 2)
        rings, ambiguous = ring_configuration(pts)
        if n_ions >= 2:
            r_max, d_min = crystal_metrics(pts)
        else:
            r_max, d_min = 0.0, math.nan
        results.append(
            EquilibriumResult(
                positions=np.column_stack([pts, np.zeros(n_ions)]).ravel(),
                energy=float(e),
                stability=STABLE if rank == 0 else METASTABLE,
                ring_configuration=rings,
                ring_ambiguous=ambiguous,
                r_max=r_max,
                d_min=d_min,
                n_found_duplicates=count,
                grad_norm=float(gnorm),
            )
        )
    return results
