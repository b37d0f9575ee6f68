"""Scattering-limited trapping lifetime and residual heating estimates.

Off-resonant scattering from the trapping light occasionally lands the
ion in a metastable D state whose AC Stark shift is anti-trapping, so a
single such event costs the crystal; the N-ion lifetime is
tau = 1 / (Gamma_meta N). Background-gas Langevin collisions and photon
recoil are the slower competing channels, estimated here for comparison.
"""

import math
from dataclasses import dataclass

from .core import CONST, _line_factors
from .errors import DomainError


@dataclass(frozen=True)
class LifetimeEstimate:
    gamma_off: float    # 1/s
    gamma_meta: float   # 1/s
    n_ions: int
    tau: float          # s


# The non-Langevin (glancing) collision channel is only bounded, not
# modeled: reported heating stays below this figure.
NON_LANGEVIN_HEATING_BOUND = 1e-4  # K/s

# The ultra-high-vacuum background gas is H2: its mass, and its
# polarizability from the volume 0.787 Angstrom^3 as alpha = 4 pi eps0 volume
H2_MASS = 2.0 * CONST.atomic_mass_unit  # kg
H2_POLARIZABILITY = 4.0 * math.pi * CONST.vacuum_permittivity * 0.787 * 1e-30  # C m^2/V


def scattering_rates(species, omega_l, intensity):
    """(gamma_off, gamma_meta) at the given laser frequency and intensity.

    Each line contributes its weighted two-level scattering rate with the
    (omega_l / omega_a)^3 emission factor; the metastable rate is the
    branching fraction of the total.
    """
    if intensity < 0:
        raise DomainError("intensity must be nonnegative")
    c = CONST.speed_of_light
    gamma_off = 0.0
    for weight, wa, dispersion in _line_factors(species, omega_l):
        gamma_off += (
            weight
            * (3.0 * math.pi * c**2 / (2.0 * CONST.hbar * wa**3))
            * (omega_l / wa) ** 3
            * dispersion**2
            * intensity
        )
    return gamma_off, gamma_off * species.branch_ratio_meta


def trapping_lifetime(gamma_meta, n_ions):
    """tau = 1 / (gamma_meta N); infinite if the metastable channel is closed."""
    if n_ions < 1:
        raise DomainError("need at least one ion")
    if gamma_meta < 0:
        raise DomainError("rate must be nonnegative")
    if gamma_meta == 0.0:
        return math.inf
    return 1.0 / (gamma_meta * n_ions)


def lifetime_estimate(species, omega_l, intensity, n_ions):
    gamma_off, gamma_meta = scattering_rates(species, omega_l, intensity)
    return LifetimeEstimate(
        gamma_off=gamma_off,
        gamma_meta=gamma_meta,
        n_ions=n_ions,
        tau=trapping_lifetime(gamma_meta, n_ions),
    )


def langevin_rate(pressure, temperature, gas_polarizability, gas_mass, species):
    """Ion-neutral capture collision rate for one ion, in 1/s.

    Standard induced-dipole capture: rate constant k_L =
    (e / 2 eps0) sqrt(alpha / mu_red) times the gas number density.
    """
    if min(pressure, temperature, gas_polarizability, gas_mass) < 0:
        raise DomainError("inputs must be nonnegative")
    if temperature == 0:
        raise DomainError("temperature must be positive")
    density = pressure / (CONST.boltzmann * temperature)
    mu_red = gas_mass * species.mass / (gas_mass + species.mass)
    k_l = (
        CONST.elementary_charge
        / (2.0 * CONST.vacuum_permittivity)
        * math.sqrt(gas_polarizability / mu_red)
    )
    return density * k_l


def photon_recoil(wavelength, species):
    """Single-photon recoil energy (h / lambda)^2 / (2 m), in J."""
    if wavelength <= 0:
        raise DomainError("wavelength must be positive")
    return (CONST.planck / wavelength) ** 2 / (2.0 * species.mass)


def recoil_heating(wavelength, species, gamma_off):
    """(recoil energy in J, heating rate in K/s) at the given scattering rate."""
    e_rec = photon_recoil(wavelength, species)
    return e_rec, gamma_off * e_rec / CONST.boltzmann
