"""2D-3D structural transition points and their scaling with N and waist.

The transition is where the softest out-of-plane mode of a fixed in-plane
equilibrium goes soft as the optical depth, and with it the aspect ratio
alpha = omega_z / omega_r, is lowered. The z block is linear in the depth,

    M(alpha) = A + U(alpha) diag(c) - m omega_z_dc^2 I,

with A the Coulomb z block and c_i > 0 the per-ion lattice curvature per
unit depth, and U(alpha) = U0 + alpha^2 U1 is linear in alpha^2
(core.depth_for_aspect). M is positive definite exactly when
alpha^2 > lambda_max(m omega_z_dc^2 I - A - U0 diag(c), U1 diag(c)), and
because diag(c) is diagonal that generalized eigenvalue is the top
eigenvalue of the pencil scaled by 1 / sqrt(U1 c_i), read from one LAPACK
subset solve that finds only that end of the spectrum. An ion the beam
does not reach at double precision (c_i <= eps max c) leaves no finite
answer, and find_alpha_tr raises BracketError.

The uniform-waist limit (c_i identical) has the closed form alpha_tr_uniform,
sqrt(max eig(-A/m)) / omega_r: the asymptote of the Table I waist rule.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .core import ANTINODE_COS2, depth_for_aspect
from .equilibrium import _coulomb_z, _log_design, _xy, find_equilibria
from .errors import BracketError, CavitrapError, FitError
from .potential import optical_z_curvature


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


@functools.cache
def _dsyevr_workspace(n):
    """(lwork, liwork) LAPACK's workspace query gives dsyevr for an n x n
    matrix, asked once per n."""
    lwork, liwork, _ = lapack.dsyevr_lwork(n, lower=1)
    return int(lwork), int(liwork)


def _top_eigenvalue(m):
    """Largest eigenvalue of the symmetric m (lower triangle), which it
    overwrites if m is in Fortran order; in C order LAPACK gets a copy.

    Calls LAPACK dsyevr for eigenvalue n alone, with the arguments and
    workspace scipy.linalg.eigvalsh(m, subset_by_index=(n - 1, n - 1)) passes,
    so the value is that call's to the bit, without its per-call checks.
    """
    n = len(m)
    lwork, liwork = _dsyevr_workspace(n)
    w, _, _, _, info = lapack.dsyevr(
        m, compute_v=0, range="I", lower=1, il=n, iu=n,
        lwork=lwork, liwork=liwork, overwrite_a=1,
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info {info}")
    return w[0]


def find_alpha_tr(eq, trap, species):
    """Transition aspect ratio of one EquilibriumResult from one top-eigenvalue solve."""
    xy = eq.xy
    n = len(xy)
    if n == 1:
        return TransitionPoint(1, 0.0, eq.stability, math.inf)
    curv = optical_z_curvature(xy, trap.optical)
    if curv.min() <= np.finfo(float).eps * curv.max():
        raise BracketError(
            f"ion {int(curv.argmin())} sees lattice curvature "
            f"{curv.min() / curv.max():.1e} of the peak; no finite transition point"
        )
    u0 = depth_for_aspect(trap, species, 0.0)
    u1 = depth_for_aspect(trap, species, 1.0) - u0
    # one fresh buffer, handed to LAPACK: entry (i, j) is (-A_ij s_i) s_j
    # and the diagonal ((d_i - A_ii) s_i) s_i, with d = m omega_z_dc^2 - U0 c.
    # The z block A is exactly symmetric, so its transpose holds the same
    # matrix in the Fortran order LAPACK takes without a copy
    z = _coulomb_z(eq)
    scale = 1.0 / np.sqrt(u1 * curv)
    lhs = np.multiply(z.T, -scale[:, None])
    lhs.flat[::n + 1] = (species.mass * trap.omega_z_dc**2 - u0 * curv - np.diagonal(z)) * scale
    lhs *= scale
    alpha_sq = _top_eigenvalue(lhs)
    alpha = math.sqrt(max(alpha_sq, 0.0))  # <= 0: the plane holds at alpha = 0
    return TransitionPoint(
        n_ions=n,
        alpha_tr=alpha,
        stability=eq.stability,
        w0_over_rmax=trap.optical.waist / eq.r_max if eq.r_max > 0 else math.inf,
    )


def alpha_tr_uniform(eq, trap, species):
    """Closed-form transition point in the uniform-waist (large w0) limit."""
    if len(_xy(eq)) == 1:
        return 0.0
    lam_max = _top_eigenvalue((_coulomb_z(eq) / -species.mass).T)
    return math.sqrt(lam_max) / trap.omega_r


def _log_log_fit(x_fit, y, x_name, y_name):
    """Least squares of ln y on ln x: (slope, intercept, RMS residual in log space).

    x_fit is equilibrium._log_design(x). Raises FitError, naming x_name and
    y_name, unless x and y are positive and x holds at least three distinct
    values.
    """
    if x_fit is None or np.any(y <= 0):
        raise FitError(f"power-law fit needs positive {x_name} and {y_name}")
    design, distinct = x_fit
    if distinct < 3:
        raise FitError(f"need at least 3 distinct {x_name}")
    log_y = np.log(y)
    coef, *_ = np.linalg.lstsq(design, log_y, rcond=None)
    resid = design @ coef - log_y
    return float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid**2)))


def fit_power_law(points):
    """Least squares of ln(alpha_tr) on ln(N); returns PowerLawFit.
    FitError unless N and alpha are positive, with 3 distinct N."""
    pts = [(n, a) for n, a in points]
    n = np.array([p[0] for p in pts], dtype=float)
    alpha = np.array([p[1] for p in pts], dtype=float)
    exponent, intercept, residual = _log_log_fit(_log_design(n), alpha, "N", "alpha")
    return PowerLawFit(float(np.exp(intercept)), exponent, residual)


def transition_scan(n_values, trap, species, n_restarts=12, seed=0):
    """alpha_tr of the stable configuration for each N in n_values."""
    out = []
    for n in n_values:
        eqs = find_equilibria(n, trap, species, n_restarts=n_restarts, seed=seed)
        out.append(find_alpha_tr(eqs[0], trap, species))
    return out


def waist_sweep(n_ions, trap, species, w0_values, n_restarts=12, seed=0):
    """alpha_tr versus waist; per-point toolkit errors are recorded, not raised.

    Returns a list of (w0, TransitionPoint or None, error message or None).
    Where the plane is dark (node_sin2, or zero depth) the planar equilibrium
    is waist independent, so it is solved once, at the first waist whose
    search succeeds, and reused.
    """
    records = []
    eq = None
    lit = trap.optical.lattice_variant == ANTINODE_COS2 and trap.optical.depth > 0.0
    for w0 in w0_values:
        trap_w = trap.with_waist(w0)
        try:
            if eq is None or lit:
                eq = find_equilibria(
                    n_ions, trap_w, species, n_restarts=n_restarts, seed=seed
                )[0]
            records.append((w0, find_alpha_tr(eq, trap_w, species), None))
        except CavitrapError as exc:
            records.append((w0, None, f"{type(exc).__name__}: {exc}"))
    return records
