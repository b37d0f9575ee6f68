"""Phonon-mediated spin-spin couplings and their distance power law.

With spin-dependent forces at frequencies mu_n addressing a set of normal
modes, the effective Ising couplings are

    J_ij = E_recoil sum_n Omega_in Omega_jn sum_m b_im b_jm / (mu_n^2 - omega_m^2)

reported in rad/s (divided by hbar). Driving just above the highest
out-of-plane mode makes the center-of-mass term dominate, giving nearly
uniform positive (anti-ferromagnetic) couplings; far above all modes the
kernel flattens to the 1/r^3 Coulomb z-block tail, so the fitted power
law exponent beta sweeps the full range between 0 and 3.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import CONST
from .errors import DomainError, FitError, ResonanceError
from .modes import OUT_OF_PLANE
from .equilibrium import _pair_r
from .transition import _log_log_fit

RESONANCE_TOL_FACTOR = 1e-3


@dataclass(frozen=True)
class SpinDriveConfig:
    """SDF frequencies, Rabi matrix and recoil scale of an out-of-plane drive.

    The drive couples to the z displacement, so only the out-of-plane
    modes enter. rabi is (n_ions, n_drives) in rad/s; resonance_tolerance
    of None resolves to RESONANCE_TOL_FACTOR times the highest
    out-of-plane mode frequency.
    """

    mu: tuple                      # rad/s, one per drive
    rabi: np.ndarray               # (n_ions, n_drives), rad/s
    recoil_energy: float           # J
    resonance_tolerance: float = None

    def __post_init__(self):
        if self.recoil_energy < 0:
            raise DomainError("recoil energy must be nonnegative")
        if np.any(np.asarray(self.rabi) < 0):
            raise DomainError("Rabi frequencies must be nonnegative")


@dataclass(frozen=True)
class SpinGraph:
    j: np.ndarray                  # (N, N) rad/s, symmetric, zero diagonal
    af_fraction: float             # fraction of pairs with J_ij > 0


def uniform_drive(n_ions, mu, rabi, recoil_energy):
    """Single SDF with the same Rabi frequency on every ion."""
    return SpinDriveConfig(
        mu=(float(mu),),
        rabi=np.full((n_ions, 1), float(rabi)),
        recoil_energy=recoil_energy,
    )


def compute_jij(spectrum, eq, drive):
    """SpinGraph for the given drive over the out-of-plane modes.

    Raises DomainError for fewer than two ions, since there is no pair to
    couple, and for a Rabi matrix that is not (ions, drives).
    """
    n_ions = spectrum.n_modes // 3
    if n_ions < 2:
        raise DomainError("J_ij needs at least two ions")
    rabi = np.asarray(drive.rabi, dtype=float)
    want = (n_ions, len(drive.mu))
    if rabi.shape != want:
        raise DomainError(f"Rabi matrix has shape {rabi.shape}, want {want} (ions, drives)")
    idx = spectrum.select(OUT_OF_PLANE)
    if np.any(spectrum.imaginary[idx]):
        raise DomainError("out-of-plane modes include imaginary modes")
    omega = spectrum.omega[idx]
    patterns = spectrum.vectors[2::3, :][:, idx]
    tol = drive.resonance_tolerance
    if tol is None:
        tol = RESONANCE_TOL_FACTOR * omega.max()

    j = np.zeros((n_ions, n_ions))
    for n, mu in enumerate(drive.mu):
        gaps = np.abs(mu - omega)
        if gaps.min() < tol:
            m = int(idx[np.argmin(gaps)])
            raise ResonanceError(
                f"drive {n} (mu = {mu:.6e} rad/s) within {tol:.3e} of mode {m}"
            )
        kernel = (patterns / (mu**2 - omega**2)) @ patterns.T
        j += np.outer(rabi[:, n], rabi[:, n]) * kernel
    j *= drive.recoil_energy / CONST.hbar
    j = 0.5 * (j + j.T)  # kill the last-ulp asymmetry of the matmul
    np.fill_diagonal(j, 0.0)
    # j is exactly symmetric: each positive pair counts twice
    af_fraction = float(np.count_nonzero(j > 0.0) / (n_ions * (n_ions - 1)))
    return SpinGraph(j=j, af_fraction=af_fraction)


def fit_beta(graph, eq):
    """Power-law exponent of |J| versus pair distance, (beta, residual RMS).

    Raises FitError for a zero coupling, or for fewer than three distinct
    pair distances (transition._log_log_fit).
    """
    j_abs = np.abs(graph.j[np.triu_indices(len(graph.j), 1)])
    slope, _, residual = _log_log_fit(_pair_r(eq), j_abs, "pair distances", "couplings")
    return -slope, residual


def beta_sweep(spectrum, eq, mu_values, drive_template):
    """Fit beta at each drive frequency; resonant points are recorded, not fatal.

    Returns a list of dicts with keys mu, beta, residual, af_fraction,
    error (None on success).
    """
    records = []
    for mu in mu_values:
        drive = replace(drive_template, mu=(float(mu),))
        try:
            graph = compute_jij(spectrum, eq, drive)
            beta, resid = fit_beta(graph, eq)
            records.append(
                dict(mu=float(mu), beta=beta, residual=resid,
                     af_fraction=graph.af_fraction, error=None)
            )
        except (ResonanceError, FitError) as exc:
            records.append(
                dict(mu=float(mu), beta=math.nan, residual=math.nan,
                     af_fraction=math.nan, error=f"{type(exc).__name__}: {exc}")
            )
    return records
