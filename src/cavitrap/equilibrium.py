"""Planar equilibrium configurations via multistart quasi-Newton descent.

The search runs in scaled units (lengths over the Coulomb length ell,
energies over e^2/(4 pi eps0 ell)) because SI crystal energies are ~1e-19 J
and quasi-Newton stopping tests with absolute floors stall there. Each
restart draws its own RNG stream from (seed, restart_index), and the
restarts run one after another in index order. Two converged restarts are the
same crystal exactly when their energies agree to ENERGY_MATCH_RTOL: the
energy is invariant under rotation, reflection and relabeling, so no
alignment is needed. Copies of one crystal (exact images, or shells turned
along the nearly free inter-shell rotation at N = 19 and 20) agree to
2e-13 relative; the closest distinct minima seen lie 1.6e-8 apart (N = 120).

Note on "positive definite": with an isotropic trap every crystal has one
exact zero eigenvalue in the in-plane Hessian, the global-rotation mode.
Minima are therefore accepted as strict up to that symmetry mode, and
genuinely negative curvature is rejected.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize
from scipy.spatial import ConvexHull, QhullError

from .core import CONST, characteristic_length
from .errors import ConvergenceError, DomainError
from .potential import _pair_distances, planar_energy_gradient, planar_hessian

STABLE = "stable"
METASTABLE = "metastable"

# relative energy agreement for two minima to count as the same configuration
ENERGY_MATCH_RTOL = 1e-12

# rotation angles of the coarse alignment scan, per parity
ALIGN_ANGLES = 96


@dataclass(frozen=True)
class EquilibriumResult:
    """One distinct planar equilibrium: positions (flat 3N, z = 0) and metrics."""

    positions: np.ndarray
    energy: float
    stability: str
    ring_configuration: tuple
    ring_ambiguous: bool
    r_max: float
    d_min: float
    n_found_duplicates: int
    grad_norm: float

    @property
    def n_ions(self):
        return len(self.positions) // 3

    @property
    def xy(self):
        return self.positions.reshape(-1, 3)[:, :2]

    @property
    def xy_flat(self):
        return self.xy.ravel().copy()


def _xy(config):
    """(N, 2) in-plane positions of an EquilibriumResult or of coordinates."""
    if isinstance(config, EquilibriumResult):
        return config.xy
    return np.asarray(config, dtype=float).reshape(-1, 2)


def _square_distance(ax, ay, bx, by):
    """(ax - bx)**2 + (ay - by)**2, broadcast.

    Bitwise equal to np.sum(d**2, axis=-1) over a length-2 (x, y) axis,
    without that slow tiny-axis reduction.
    """
    dx = ax - bx
    dy = ay - by
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _best_assignment(reference, candidates):
    """The first candidate nearest `reference` under its optimal relabeling.

    reference is (N, 2); candidates is a sequence of (N, 2) arrays. Each
    candidate is relabeled by optimal assignment on the squared distances,
    and the first one of smallest rms distance wins. Returns (its index,
    the relabeling, the rms); candidate[relabeling] is the matched copy.
    """
    rx, ry = reference[:, 0, None], reference[:, 1, None]
    best_rms, best_k, best_cols = math.inf, None, None
    for k, cand in enumerate(candidates):
        cost = _square_distance(rx, ry, cand[:, 0], cand[:, 1])
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

    rx, ry = ref[:, 0, None], ref[:, 1, None]
    aligned = cands[k][perm]
    for _ in range(10):
        # orthogonal Procrustes (reflections allowed, the trap has O(2) symmetry)
        u, _, vt = np.linalg.svd(aligned.T @ ref)
        rot = u @ vt
        aligned = aligned @ rot
        cost = _square_distance(rx, ry, aligned[:, 0], aligned[:, 1])
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


def _polish_newton(x, trap, species, ell, grad_tol, max_iter=60):
    """Guarded Newton refinement of a near-converged minimum.

    Returns (x, energy, gradient norm), the last two from the pass at x.
    """
    step_cap = 0.1 * ell
    e, g = planar_energy_gradient(x, trap, species)
    for _ in range(max_iter):
        gnorm = np.linalg.norm(g)
        if gnorm < grad_tol:
            break
        h = planar_hessian(x, trap, species)
        # pseudo-inverse on the well-conditioned subspace; the global
        # rotation direction has a noisy near-zero eigenvalue and a raw
        # solve would step wildly along it
        w, v = np.linalg.eigh(h)
        keep = w > 1e-8 * w[-1]
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
    return x, e, np.linalg.norm(g)


def _one_restart(n_ions, trap, species, seed, index, ell, echar, fchar, grad_tol):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    radius = 1.5 * ell * math.sqrt(n_ions)
    # uniform in a disc of that radius
    r = radius * np.sqrt(rng.random(n_ions))
    phi = 2.0 * math.pi * rng.random(n_ions)
    x0 = np.column_stack([r * np.cos(phi), r * np.sin(phi)]).ravel()

    def fun(y):  # energy and gradient from one pair pass, in scaled units
        e, g = planar_energy_gradient(y * ell, trap, species)
        return e / echar, g / fchar
    res = minimize(
        fun,
        x0 / ell,
        jac=True,
        method="L-BFGS-B",
        options=dict(maxiter=20000, ftol=1e-14, gtol=1e-7),
    )
    x, e, gnorm = _polish_newton(res.x * ell, trap, species, ell, grad_tol)
    if gnorm >= grad_tol:
        return None
    # reject saddles; one near-zero eigenvalue (global rotation) is expected
    eigs = np.linalg.eigvalsh(planar_hessian(x, trap, species))
    if eigs.min() < -1e-6 * species.mass * trap.omega_r**2:
        return None
    return x, e, gnorm


def find_equilibria(n_ions, trap, species, n_restarts=50, seed=0):
    """All distinct planar equilibria found over n_restarts random starts.

    Returns EquilibriumResults sorted by energy; the first is labeled
    stable, the rest metastable. Raises ConvergenceError if no restart
    converges.
    """
    if n_ions < 1 or n_restarts < 1:
        raise DomainError("need n_ions >= 1 and n_restarts >= 1")
    ell = characteristic_length(species, trap.omega_r)
    echar = CONST.coulomb_coefficient / ell
    fchar = CONST.coulomb_coefficient / ell**2
    grad_tol = 1e-8 * fchar

    found = []  # list of [x, energy, gradient norm, count]
    for k in range(n_restarts):
        item = _one_restart(n_ions, trap, species, seed, k, ell, echar, fchar, grad_tol)
        if item is None:
            continue
        x, e, gnorm = item
        # floor the relative comparison so exact-zero energies (N = 1) match
        e_scale = max(abs(e), 1e-6 * echar)
        for entry in found:
            if abs(e - entry[1]) <= ENERGY_MATCH_RTOL * max(e_scale, abs(entry[1])):
                entry[3] += 1
                break
        else:
            found.append([x, e, gnorm, 1])
    if not found:
        raise ConvergenceError(f"no converged minimum in {n_restarts} restarts")

    found.sort(key=lambda entry: entry[1])
    results = []
    for rank, (x, e, gnorm, count) in enumerate(found):
        pts = x.reshape(-1, 2)
        rings, ambiguous = ring_configuration(pts)
        if n_ions >= 2:
            r_max, d_min = crystal_metrics(pts)
        else:
            r_max, d_min = 0.0, math.nan
        coords = np.zeros(3 * n_ions)
        coords[0::3] = pts[:, 0]
        coords[1::3] = pts[:, 1]
        results.append(
            EquilibriumResult(
                positions=coords,
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
