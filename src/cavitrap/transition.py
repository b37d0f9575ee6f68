"""2D-3D structural transition points and their scaling with N and waist.

The transition is where the softest out-of-plane mode of a fixed in-plane
equilibrium goes soft as the optical depth, and with it the aspect ratio
alpha = omega_z / omega_r, is lowered. The z block is linear in the depth,

    M(alpha) = A + U(alpha) diag(c) - m omega_z_dc^2 I,

with A the Coulomb z block and c_i > 0 the per-ion lattice curvature per
unit depth, and U(alpha) = U0 + alpha^2 U1 is linear in alpha^2
(core.depth_for_aspect). M is positive definite exactly when
alpha^2 > lambda_max(m omega_z_dc^2 I - A - U0 diag(c), U1 diag(c)), and
because diag(c) is diagonal that generalized eigenvalue is one symmetric
eigensolve of the pencil scaled by 1 / sqrt(U1 c_i). An ion the beam
does not reach at double precision (c_i <= eps max c) leaves no finite
answer, and find_alpha_tr raises BracketError.

In the uniform-waist limit (c_i identical) this reduces to the closed form
alpha_tr = sqrt(max eig(-A/m)) / omega_r, kept here as a cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ANTINODE_COS2, depth_for_aspect
from .equilibrium import find_equilibria
from .errors import BracketError, CavitrapError, FitError
from .potential import coulomb_z_block, optical_z_curvature


@dataclass(frozen=True)
class TransitionPoint:
    n_ions: int
    alpha_tr: float
    stability: str
    w0_over_rmax: float


@dataclass(frozen=True)
class PowerLawFit:
    prefactor: float
    exponent: float
    residual: float  # RMS in log space


def find_alpha_tr(eq, trap, species):
    """Transition aspect ratio of one configuration from one eigensolve."""
    xy = eq.xy
    if len(xy) == 1:
        return TransitionPoint(1, 0.0, eq.stability, math.inf)
    curv = optical_z_curvature(xy, trap.optical)
    if curv.min() <= np.finfo(float).eps * curv.max():
        raise BracketError(
            f"ion {int(curv.argmin())} sees lattice curvature "
            f"{curv.min() / curv.max():.1e} of the peak; no finite transition point"
        )
    u0 = depth_for_aspect(trap, species, 0.0)
    u1 = depth_for_aspect(trap, species, 1.0) - u0
    lhs = -coulomb_z_block(xy)
    lhs[np.diag_indices(len(xy))] += species.mass * trap.omega_z_dc**2 - u0 * curv
    scale = 1.0 / np.sqrt(u1 * curv)
    alpha_sq = np.linalg.eigvalsh(scale[:, None] * lhs * scale[None, :])[-1]
    alpha = math.sqrt(max(alpha_sq, 0.0))  # <= 0: the plane holds at alpha = 0
    r_max = float(np.linalg.norm(xy - xy.mean(axis=0), axis=1).max())
    return TransitionPoint(
        n_ions=len(xy),
        alpha_tr=alpha,
        stability=eq.stability,
        w0_over_rmax=trap.optical.waist / r_max if r_max > 0 else math.inf,
    )


def alpha_tr_uniform(eq, trap, species):
    """Closed-form transition point in the uniform-waist (large w0) limit."""
    xy = eq.xy if hasattr(eq, "xy") else np.asarray(eq, dtype=float).reshape(-1, 2)
    if len(xy) == 1:
        return 0.0
    a_over_m = coulomb_z_block(xy) / species.mass
    lam_max = np.linalg.eigvalsh(-a_over_m)[-1]
    return math.sqrt(lam_max) / trap.omega_r


def fit_power_law(points):
    """Least squares of ln(alpha_tr) on ln(N); returns PowerLawFit."""
    pts = [(n, a) for n, a in points]
    if len(pts) < 3:
        raise FitError("power-law fit needs at least 3 points")
    n = np.array([p[0] for p in pts], dtype=float)
    alpha = np.array([p[1] for p in pts], dtype=float)
    if np.any(n <= 0) or np.any(alpha <= 0):
        raise FitError("power-law fit needs positive N and alpha")
    design = np.column_stack([np.log(n), np.ones(len(n))])
    coef, *_ = np.linalg.lstsq(design, np.log(alpha), rcond=None)
    resid = design @ coef - np.log(alpha)
    return PowerLawFit(
        prefactor=float(np.exp(coef[1])),
        exponent=float(coef[0]),
        residual=float(np.sqrt(np.mean(resid**2))),
    )


def transition_scan(n_values, trap, species, n_restarts=12, seed=0, threads=None):
    """alpha_tr of the stable configuration for each N in n_values."""
    out = []
    for n in n_values:
        eqs = find_equilibria(n, trap, species, n_restarts=n_restarts, seed=seed,
                              threads=threads)
        out.append(find_alpha_tr(eqs[0], trap, species))
    return out


def waist_sweep(n_ions, trap, species, w0_values, n_restarts=12, seed=0):
    """alpha_tr versus waist; per-point toolkit errors are recorded, not raised.

    Returns a list of (w0, TransitionPoint or None, error message or None).
    For the node_sin2 lattice the planar equilibrium is waist independent
    (the plane is dark), so it is solved once and reused.
    """
    records = []
    shared_eq = None
    if trap.optical.lattice_variant != ANTINODE_COS2:
        shared_eq = find_equilibria(
            n_ions, trap, species, n_restarts=n_restarts, seed=seed
        )[0]
    for w0 in w0_values:
        trap_w = trap.with_waist(w0)
        try:
            eq = shared_eq
            if eq is None:
                eq = find_equilibria(
                    n_ions, trap_w, species, n_restarts=n_restarts, seed=seed
                )[0]
            records.append((w0, find_alpha_tr(eq, trap_w, species), None))
        except CavitrapError as exc:
            records.append((w0, None, f"{type(exc).__name__}: {exc}"))
    return records
