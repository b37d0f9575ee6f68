"""Independent physics for the benchmark's correctness checks.

Everything here is written from the textbook formulas and shares no code
with cavitrap: pair sums run over an explicit upper-triangle pair list, the
transition depth is one generalized symmetric eigenproblem instead of a
bracketed bisection, and the spin couplings come from this module's own
z-block eigenvectors. Positions are (N, 2) arrays in metres, z = 0.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

ELEMENTARY_CHARGE = 1.602176634e-19  # C
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
BOLTZMANN = 1.380649e-23  # J/K
PLANCK = 6.62607015e-34  # J s
HBAR = PLANCK / (2.0 * math.pi)
ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg
KQ = ELEMENTARY_CHARGE**2 / (4.0 * math.pi * VACUUM_PERMITTIVITY)  # J m


@dataclass(frozen=True)
class Trap:
    """DC quadrupole plus an optional in-plane Gaussian well.

    gauss_depth is the antinode lattice's well depth on the z = 0 plane
    (J); the node lattice is dark there and leaves it 0.
    """

    mass: float
    omega_x: float
    omega_y: float
    gauss_depth: float = 0.0
    waist: float = math.inf

    @property
    def omega_r(self):
        return math.sqrt(self.omega_x * self.omega_y)

    @property
    def omega_z_dc_sq(self):
        # Laplace: the static field anti-confines z by the summed radial curvature
        return self.omega_x**2 + self.omega_y**2

    def length_scale(self):
        return (KQ / (self.mass * self.omega_r**2)) ** (1.0 / 3.0)


def _pairs(pts):
    i, j = np.triu_indices(len(pts), 1)
    d = pts[i] - pts[j]
    return i, j, d, np.hypot(d[:, 0], d[:, 1])


def energy(xy, trap):
    """Coulomb + DC + in-plane optical energy (J)."""
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    _, _, _, r = _pairs(pts)
    x, y = pts[:, 0], pts[:, 1]
    e = KQ * np.sum(1.0 / r)
    e += 0.5 * trap.mass * np.sum(trap.omega_x**2 * x**2 + trap.omega_y**2 * y**2)
    if trap.gauss_depth:
        e -= trap.gauss_depth * np.sum(np.exp(-2.0 * (x**2 + y**2) / trap.waist**2))
    return float(e)


def gradient(xy, trap):
    """dE/d(x, y) per ion, (N, 2) in J/m."""
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    i, j, d, r = _pairs(pts)
    pair_force = KQ * d / r[:, None] ** 3  # force on i from j
    grad = np.zeros_like(pts)
    np.add.at(grad, i, -pair_force)
    np.add.at(grad, j, pair_force)
    grad[:, 0] += trap.mass * trap.omega_x**2 * pts[:, 0]
    grad[:, 1] += trap.mass * trap.omega_y**2 * pts[:, 1]
    if trap.gauss_depth:
        rho2 = np.sum(pts**2, axis=1)
        well = trap.gauss_depth * np.exp(-2.0 * rho2 / trap.waist**2)
        grad += (4.0 * well / trap.waist**2)[:, None] * pts
    return grad


def coulomb_z(xy):
    """Coulomb part of the z-z Hessian, J/m^2: +KQ/r^3 off the diagonal."""
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    i, j, _, r = _pairs(pts)
    a = np.zeros((len(pts), len(pts)))
    a[i, j] = a[j, i] = KQ / r**3
    a[np.diag_indices(len(pts))] = -a.sum(axis=1)
    return a


def node_curvature(xy, waist, wavelength):
    """Per-ion z-z curvature of a sin^2 lattice at z = 0, per unit depth (1/m^2)."""
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    k = 2.0 * math.pi / wavelength
    return 2.0 * k**2 * np.exp(-2.0 * np.sum(pts**2, axis=1) / waist**2)


def depth_for_omega_z(trap, omega_z, wavelength):
    """Lattice depth (J) whose axial curvature gives omega_z at the centre."""
    k = 2.0 * math.pi / wavelength
    return trap.mass * (omega_z**2 + trap.omega_z_dc_sq) / (2.0 * k**2)


def z_block(xy, trap, depth, waist, wavelength):
    """Mass-weighted out-of-plane block, (rad/s)^2, for the node lattice."""
    c = node_curvature(xy, waist, wavelength)
    k_mat = coulomb_z(xy) / trap.mass
    k_mat[np.diag_indices(len(c))] += depth * c / trap.mass - trap.omega_z_dc_sq
    return k_mat


def alpha_tr(xy, trap, waist, wavelength):
    """Transition aspect ratio from U* = lambda_max(m w_zdc^2 I - A, diag(c)).

    The z block is (A + U diag(c))/m - w_zdc^2 I; its softest eigenvalue
    crosses zero exactly at the largest generalized eigenvalue U* of the
    pencil above, and diag(c) is positive definite, so no bracket is needed.
    """
    a = coulomb_z(xy)
    c = node_curvature(xy, waist, wavelength)
    lhs = trap.mass * trap.omega_z_dc_sq * np.eye(len(c)) - a
    u_star = scipy.linalg.eigh(lhs, np.diag(c), eigvals_only=True)[-1]
    k = 2.0 * math.pi / wavelength
    omega_z_sq = 2.0 * k**2 * u_star / trap.mass - trap.omega_z_dc_sq
    return math.sqrt(omega_z_sq) / trap.omega_r


def alpha_uniform(xy, trap):
    """Uniform-waist limit: sqrt(lambda_max(-A/m)) / omega_r."""
    return math.sqrt(np.linalg.eigvalsh(-coulomb_z(xy) / trap.mass)[-1]) / trap.omega_r


def jij(k_mat, mu, rabi, recoil_energy):
    """Ising couplings (rad/s) of a uniform drive over the modes of k_mat."""
    omega_sq, vecs = np.linalg.eigh(k_mat)
    j = (rabi**2 * recoil_energy / HBAR) * (vecs / (mu**2 - omega_sq)) @ vecs.T
    np.fill_diagonal(j, 0.0)
    return j


def recoil_energy(wavelength, mass):
    """Single-photon recoil (h / lambda)^2 / (2 m), J."""
    return (PLANCK / wavelength) ** 2 / (2.0 * mass)
