"""Physical constants, ion species data, and trap configuration.

Everything downstream works in SI internally. This module holds the CODATA
constants, the atomic-line data for the trapped species, the static (DC
quadrupole) and optical (cavity standing wave) trap parameters, and the
single-ion closed forms: circulating intensity from input power and AC Stark
trap depth from intensity (each with its inverse), and the effective
harmonic frequencies at the trap center.
"""

import json
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources

from .errors import AntiTrappedError, DomainError, ResonanceError, ValidationError


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA values, fixed; not meant to be user-edited."""

    elementary_charge: float = 1.602176634e-19      # C
    vacuum_permittivity: float = 8.8541878128e-12   # F/m
    speed_of_light: float = 299792458.0             # m/s
    boltzmann: float = 1.380649e-23                 # J/K
    planck: float = 6.62607015e-34                  # J s
    atomic_mass_unit: float = 1.66053906660e-27     # kg

    @property
    def hbar(self):
        return self.planck / (2.0 * math.pi)

    @property
    def coulomb_coefficient(self):
        """e^2 / (4 pi eps0), the pair interaction prefactor in J m."""
        return self.elementary_charge**2 / (4.0 * math.pi * self.vacuum_permittivity)


CONST = PhysicalConstants()

# 1 atomic unit of polarizability in SI (C m^2 / V)
ATOMIC_POLARIZABILITY_SI = 1.64877727436e-41

# Relative detuning below which the two-level dispersion formula is rejected
RESONANCE_BAND = 1e-6


@dataclass(frozen=True)
class AtomicLine:
    """One electric-dipole transition contributing to the AC Stark shift.

    weight is the relative line strength (e.g. 1/3 and 2/3 for the D1/D2
    doublet of an alkali-like ion); weights enter the polarizability
    linearly and the scattering rate linearly as well.
    """

    transition_angular_frequency: float  # rad/s
    natural_linewidth: float             # rad/s
    weight: float = 1.0

    def __post_init__(self):
        if self.transition_angular_frequency <= 0 or self.natural_linewidth <= 0:
            raise ValidationError("atomic line frequencies must be positive")
        if self.natural_linewidth / self.transition_angular_frequency >= RESONANCE_BAND:
            raise ValidationError("linewidth too large relative to transition frequency")
        if self.weight <= 0:
            raise ValidationError("line weight must be positive")


@dataclass(frozen=True)
class IonSpecies:
    """Mass and optical response of one ion species.

    polarizability_offset collects the quasi-static contribution of all
    transitions not listed explicitly (core electrons plus far D-state
    lines), in SI units; it adds alpha*I/(2 eps0 c) to the trap depth but
    is assumed to contribute negligible scattering.
    """

    mass: float                       # kg
    lines: tuple                      # of AtomicLine
    branch_ratio_meta: float          # fraction of scattering events ending in metastable states
    metastable_lifetime: float        # s
    label: str = ""
    polarizability_offset: float = 0.0  # C m^2 / V

    def __post_init__(self):
        if self.mass <= 0:
            raise ValidationError("ion mass must be positive")
        if not self.lines:
            raise ValidationError("species needs at least one atomic line")
        if not 0.0 <= self.branch_ratio_meta <= 1.0:
            raise ValidationError("branch_ratio_meta must lie in [0, 1]")


def _unique_keys(pairs):
    """A json object_pairs_hook: the object, or a ValidationError naming a repeated key."""
    for i, (key, _) in enumerate(pairs):
        if key in dict(pairs[:i]):
            raise ValidationError(f"repeated key {key!r}")
    return dict(pairs)


def load_species(source):
    """Build an IonSpecies from a JSON file path or a shipped data name.

    The file schema uses laboratory units: mass_amu, lines as a list of
    {wavelength_nm, linewidth_mhz, [weight]}, branch_ratio_meta,
    metastable_lifetime_ms, and optionally polarizability_offset_au and
    label.
    """
    if not isinstance(source, (str, os.PathLike)):
        raise ValidationError(f"species source must be a name or a path, got {source!r}")
    try:
        path = resources.files("cavitrap.data").joinpath(f"{source}.json")
        with path.open() if path.is_file() else open(source) as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValidationError(f"cannot read species data {source!r}: {exc}") from exc
    except (json.JSONDecodeError, ValidationError) as exc:  # ValidationError: a repeated key
        raise ValidationError(f"species file {source!r} is not valid JSON: {exc}") from exc

    def number(entry, key, default=None, positive=False):
        """entry[key], or default where given and the key is absent; a
        ValidationError naming file and key unless a finite (positive) number.
        The bound also rejects NaN and an int too large for a float."""
        value = entry[key] if default is None else entry.get(key, default)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max or (positive and not value > 0)):
            raise ValidationError(f"species file {source!r} key {key!r} must be a finite "
                                  f"{'positive ' if positive else ''}number, got {value!r}")
        return value

    if not isinstance(raw, dict):
        raise ValidationError(f"species file {source!r} must hold a JSON object")
    try:
        entries = raw["lines"]
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValidationError(
                f"species file {source!r} key 'lines' must be a list of objects")
        lines = tuple(
            AtomicLine(
                transition_angular_frequency=2.0 * math.pi * CONST.speed_of_light
                / (number(entry, "wavelength_nm", positive=True) * 1e-9),
                natural_linewidth=2.0 * math.pi * number(entry, "linewidth_mhz") * 1e6,
                weight=number(entry, "weight", 1.0),
            )
            for entry in entries
        )
        return IonSpecies(
            mass=number(raw, "mass_amu") * CONST.atomic_mass_unit,
            lines=lines,
            branch_ratio_meta=number(raw, "branch_ratio_meta"),
            metastable_lifetime=number(raw, "metastable_lifetime_ms") * 1e-3,
            label=raw.get("label", ""),
            polarizability_offset=number(raw, "polarizability_offset_au", 0.0)
            * ATOMIC_POLARIZABILITY_SI,
        )
    except KeyError as exc:
        raise ValidationError(f"species file {source!r} missing key {exc}") from exc


def yb171():
    """The shipped 171Yb+ data set."""
    return load_species("yb171")


NODE_SIN2 = "node_sin2"
ANTINODE_COS2 = "antinode_cos2"


@dataclass(frozen=True)
class OpticalTrapConfig:
    """Cavity standing-wave parameters.

    lattice_variant, which every caller names, selects the axial phase of
    the lattice: node_sin2 puts the z=0 plane at an intensity node (a sin^2
    well of depth U above zero), which only blue-detuned light holds
    (stark_coefficient < 0); antinode_cos2 puts it at an antinode (a -U cos^2
    well), which only red-detuned light holds (> 0). Both give the same axial
    curvature at z=0.
    """

    wavelength: float                  # m
    waist: float                       # m
    depth: float                       # J, magnitude of the maximum AC Stark shift
    lattice_variant: str               # NODE_SIN2 or ANTINODE_COS2
    finesse: float = 3000.0

    def __post_init__(self):
        if self.wavelength <= 0 or self.waist <= 0:
            raise DomainError("wavelength and waist must be positive")
        if self.depth < 0:
            raise DomainError("trap depth is a magnitude, must be >= 0")
        if self.lattice_variant not in (NODE_SIN2, ANTINODE_COS2):
            raise ValidationError(f"unknown lattice variant {self.lattice_variant!r}")

    @property
    def rayleigh_range(self):
        return math.pi * self.waist**2 / self.wavelength

    @property
    def lattice_wavenumber(self):
        return 2.0 * math.pi / self.wavelength


@dataclass(frozen=True)
class TrapConfig:
    """DC quadrupole frequencies plus the optical configuration.

    The DC z frequency is derived, not stored: Laplace's equation forces
    omega_z_dc^2 = omega_x_dc^2 + omega_y_dc^2, i.e. the static potential
    anti-confines along z with exactly the summed radial curvature.
    """

    omega_x_dc: float       # rad/s
    omega_y_dc: float       # rad/s
    optical: OpticalTrapConfig

    def __post_init__(self):
        if self.omega_x_dc < 0 or self.omega_y_dc < 0:
            raise DomainError("DC trap frequencies must be nonnegative")

    @property
    def omega_z_dc(self):
        return math.hypot(self.omega_x_dc, self.omega_y_dc)

    @property
    def omega_r(self):
        """Scalar radial frequency used for aspect ratios (geometric mean)."""
        return math.sqrt(self.omega_x_dc * self.omega_y_dc)

    def with_depth(self, depth):
        return replace(self, optical=replace(self.optical, depth=depth))

    def with_waist(self, waist):
        return replace(self, optical=replace(self.optical, waist=waist))


def make_trap(omega_r, optical, anisotropy=0.0):
    """TrapConfig with omega_x = omega_r and omega_y = omega_r*(1+anisotropy)."""
    return TrapConfig(
        omega_x_dc=omega_r,
        omega_y_dc=omega_r * (1.0 + anisotropy),
        optical=optical,
    )


def intensity_from_power(p_in, finesse, w0):
    """Peak circulating intensity of the cavity standing wave.

    Convention I_max = 2 F P_in / (pi^2 w0^2): the cavity enhances the
    circulating power by F/pi, the two counter-propagating fields
    quadruple the peak of one running wave of that power, and the
    Gaussian peak intensity is 2P/(pi w0^2).
    """
    if w0 <= 0:
        raise DomainError("waist must be positive")
    if p_in < 0 or finesse < 0:
        raise DomainError("power and finesse must be nonnegative")
    return 2.0 * finesse * p_in / (math.pi**2 * w0**2)


def power_for_intensity(i_max, finesse, w0):
    """Input power giving peak circulating intensity i_max; inverts
    intensity_from_power."""
    if w0 <= 0 or finesse <= 0:
        raise DomainError("waist and finesse must be positive")
    if i_max < 0:
        raise DomainError("intensity must be nonnegative")
    return i_max * math.pi**2 * w0**2 / (2.0 * finesse)


def _line_factors(species, omega_l):
    """(weight, omega_a, Gamma / (omega_a - omega_l) + Gamma / (omega_a + omega_l))
    of each line; ResonanceError names the first line within RESONANCE_BAND."""
    if omega_l <= 0:
        raise DomainError("laser frequency must be positive")
    factors = []
    for n, line in enumerate(species.lines):
        wa = line.transition_angular_frequency
        if abs(wa - omega_l) < RESONANCE_BAND * wa:
            raise ResonanceError(
                f"laser frequency within {RESONANCE_BAND:g} of line {n} "
                f"({wa / (2 * math.pi):.4e} Hz)"
            )
        ga = line.natural_linewidth
        factors.append((line.weight, wa, ga / (wa - omega_l) + ga / (wa + omega_l)))
    return factors


def stark_coefficient(species, omega_l):
    """Signed AC Stark shift per unit intensity kappa, J per (W/m^2).

    Sum of the two-level dispersive shifts over the listed lines (with weights,
    keeping the counter-rotating term) plus the quasi-static polarizability
    offset. The light shift is U = -kappa I (Grimm et al., Adv. At. Mol. Opt.
    Phys. 42, 95 (2000)): kappa > 0 draws the ion into the light, < 0 out of it.
    """
    c = CONST.speed_of_light
    total = 0.0
    for weight, wa, dispersion in _line_factors(species, omega_l):
        total += weight * (3.0 * math.pi * c**2 / (2.0 * wa**3)) * dispersion
    total += species.polarizability_offset / (2.0 * CONST.vacuum_permittivity * c)
    return total


def trap_depth(species, laser_angular_frequency, i_max):
    """Magnitude of the maximum AC Stark shift at intensity i_max, in J."""
    if i_max < 0:
        raise DomainError("intensity must be nonnegative")
    return abs(stark_coefficient(species, laser_angular_frequency)) * i_max


def intensity_for_depth(species, laser_angular_frequency, depth):
    """Peak intensity whose AC Stark shift is depth (J); inverts trap_depth."""
    if depth < 0:
        raise DomainError("trap depth is a magnitude, must be >= 0")
    return depth / abs(stark_coefficient(species, laser_angular_frequency))


def effective_frequencies(trap, species):
    """Harmonic frequencies (omega_x, omega_y, omega_z) at the trap center.

    The axial lattice curvature gives m omega_z,opt^2 = 2 U k^2 for either
    lattice variant, against which the DC anti-confinement competes:
    omega_z^2 = 2 U k^2 / m - omega_z_dc^2. The node_sin2 lattice is dark
    on the z=0 plane, so the radial frequencies stay purely DC; for
    antinode_cos2 the Gaussian envelope adds 4U/(m w0^2) to each radial
    frequency squared.
    """
    opt = trap.optical
    m = species.mass
    k = opt.lattice_wavenumber
    wz_sq = 2.0 * opt.depth * k**2 / m - trap.omega_z_dc**2
    if wz_sq <= 0:
        raise AntiTrappedError(
            "optical depth too small to beat DC anti-confinement along z "
            f"(omega_z^2 = {wz_sq:.3e} (rad/s)^2)"
        )
    wx_sq = trap.omega_x_dc**2
    wy_sq = trap.omega_y_dc**2
    if opt.lattice_variant == ANTINODE_COS2:
        radial = 4.0 * opt.depth / (m * opt.waist**2)
        wx_sq += radial
        wy_sq += radial
    return math.sqrt(wx_sq), math.sqrt(wy_sq), math.sqrt(wz_sq)


def depth_for_aspect(trap, species, alpha):
    """Optical depth giving trap aspect ratio alpha = omega_z / omega_r.

    Inverts the omega_z relation of effective_frequencies at fixed
    omega_r, so U = m (alpha^2 omega_r^2 + omega_z_dc^2) / (2 k^2).
    """
    if alpha < 0:
        raise DomainError("aspect ratio must be nonnegative")
    k = trap.optical.lattice_wavenumber
    wz_sq = (alpha * trap.omega_r) ** 2 + trap.omega_z_dc**2
    return species.mass * wz_sq / (2.0 * k**2)


def characteristic_length(species, omega_r):
    """Coulomb length scale (e^2 / (4 pi eps0 m omega_r^2))^(1/3)."""
    if omega_r <= 0:
        raise DomainError("omega_r must be positive")
    return (CONST.coulomb_coefficient / (species.mass * omega_r**2)) ** (1.0 / 3.0)
