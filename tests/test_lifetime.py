import math

import numpy as np
import pytest
import scipy.constants as sc

import cavitrap as cv
from cavitrap.lifetime import H2_MASS, H2_POLARIZABILITY

OMEGA_1064 = 2.0 * math.pi * sc.c / 1064e-9


def test_trapping_lifetime_identities():
    assert cv.trapping_lifetime(0.15, 20) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert cv.trapping_lifetime(0.15, 1) == pytest.approx(20.0 / 3.0, rel=1e-15)
    assert cv.trapping_lifetime(0.0, 7) == math.inf
    with pytest.raises(cv.DomainError):
        cv.trapping_lifetime(0.15, 0)
    with pytest.raises(cv.DomainError):
        cv.trapping_lifetime(-1.0, 5)


def test_lifetime_estimate_bundle(species):
    est = cv.lifetime_estimate(species, OMEGA_1064, 1.16e12, 10)
    assert est.gamma_meta == pytest.approx(
        est.gamma_off * species.branch_ratio_meta, rel=1e-15
    )
    assert est.tau == pytest.approx(1.0 / (est.gamma_meta * 10), rel=1e-15)
    assert est.n_ions == 10


def test_scattering_linear_in_intensity(species):
    g1, m1 = cv.scattering_rates(species, OMEGA_1064, 1e12)
    g2, m2 = cv.scattering_rates(species, OMEGA_1064, 2e12)
    assert g2 == pytest.approx(2 * g1, rel=1e-15)
    assert m1 == pytest.approx(g1 * species.branch_ratio_meta, rel=1e-15)
    g0, m0 = cv.scattering_rates(species, OMEGA_1064, 0.0)
    assert g0 == 0.0 and m0 == 0.0


def test_scattering_rate_against_line_sum(species):
    # independent line-by-line sum with scipy constants
    intensity = 1.16e12
    total = 0.0
    for line in species.lines:
        wa = line.transition_angular_frequency
        ga = line.natural_linewidth
        disp = ga / (wa - OMEGA_1064) + ga / (wa + OMEGA_1064)
        total += (
            line.weight
            * 3.0 * math.pi * sc.c**2 / (2.0 * sc.hbar * wa**3)
            * (OMEGA_1064 / wa) ** 3
            * disp**2
            * intensity
        )
    g, _ = cv.scattering_rates(species, OMEGA_1064, intensity)
    assert g == pytest.approx(total, rel=1e-12)
    # order of magnitude for Yb at 1064 nm and ~1e12 W/m^2: a few per second
    assert 1.0 < g < 10.0


def test_one_line_species_closed_forms():
    """A two-level ion: the Stark shift and the scattering rate of its one line."""
    wa, ga = 2.0 * math.pi * sc.c / 369.5e-9, 2.0 * math.pi * 19.6e6
    one_line = cv.IonSpecies(mass=171 * sc.atomic_mass, lines=(cv.AtomicLine(wa, ga),),
                             branch_ratio_meta=0.005, metastable_lifetime=0.05)
    intensity = 1.16e12
    for wl in (OMEGA_1064, 2.0 * math.pi * sc.c / 300e-9):  # red, then blue of the line
        disp = ga / (wa - wl) + ga / (wa + wl)
        kappa = cv.stark_coefficient(one_line, wl)
        assert kappa == pytest.approx(3.0 * math.pi * sc.c**2 / (2.0 * wa**3) * disp,
                                      rel=1e-12, abs=0)
        assert (kappa > 0) == (wl < wa)
        gamma_off, gamma_meta = cv.scattering_rates(one_line, wl, intensity)
        assert gamma_off == pytest.approx(
            3.0 * math.pi * sc.c**2 / (2.0 * sc.hbar * wa**3) * (wl / wa) ** 3
            * disp**2 * intensity, rel=1e-12)
        assert gamma_meta == pytest.approx(0.005 * gamma_off, rel=1e-15)


def test_resonance_error_names_the_line(species):
    """Both rules name the index of the line the laser sits on."""
    for n, line in enumerate(species.lines):
        wa = line.transition_angular_frequency
        with pytest.raises(cv.ResonanceError, match=f"of line {n} "):
            cv.stark_coefficient(species, wa)
        with pytest.raises(cv.ResonanceError, match=f"of line {n} "):
            cv.scattering_rates(species, wa, 1e12)


def test_scattering_validation(species):
    with pytest.raises(cv.DomainError):
        cv.scattering_rates(species, OMEGA_1064, -1.0)
    with pytest.raises(cv.DomainError):
        cv.scattering_rates(species, 0.0, 1e12)
    with pytest.raises(cv.ResonanceError):
        cv.scattering_rates(
            species, species.lines[0].transition_angular_frequency, 1e12
        )


def test_h2_constants():
    assert H2_MASS == pytest.approx(2.0 * sc.atomic_mass, rel=1e-9)
    assert H2_POLARIZABILITY == pytest.approx(
        4.0 * math.pi * sc.epsilon_0 * 0.787e-30, rel=1e-12
    )


def test_langevin_rate_value(species):
    rate = cv.langevin_rate(1e-9, 300.0, H2_POLARIZABILITY, H2_MASS, species)
    mu_red = H2_MASS * species.mass / (H2_MASS + species.mass)
    expect = (
        1e-9 / (sc.k * 300.0)
        * sc.e / (2.0 * sc.epsilon_0)
        * math.sqrt(H2_POLARIZABILITY / mu_red)
    )
    assert rate == pytest.approx(expect, rel=1e-12)
    # about 1.3 collisions per hour per ion at 1e-9 Pa room temperature
    assert rate * 3600.0 == pytest.approx(1.2843, abs=2e-4)
    with pytest.raises(cv.DomainError):
        cv.langevin_rate(1e-9, 0.0, H2_POLARIZABILITY, H2_MASS, species)
    with pytest.raises(cv.DomainError):
        cv.langevin_rate(-1e-9, 300.0, H2_POLARIZABILITY, H2_MASS, species)


def test_langevin_rate_pressure_scaling(species):
    r1 = cv.langevin_rate(1e-9, 300.0, H2_POLARIZABILITY, H2_MASS, species)
    for factor in (0.0, 3.0, 10.0):
        scaled = cv.langevin_rate(
            factor * 1e-9, 300.0, H2_POLARIZABILITY, H2_MASS, species
        )
        assert scaled == pytest.approx(factor * r1, rel=1e-14, abs=0.0)


def test_photon_recoil_value(species):
    e_rec = cv.photon_recoil(1064e-9, species)
    assert e_rec == pytest.approx(
        (sc.h / 1064e-9) ** 2 / (2.0 * species.mass), rel=1e-12
    )
    # about 5e-5 mK in temperature units
    assert e_rec / sc.k * 1e3 == pytest.approx(4.946e-5, rel=1e-3)
    with pytest.raises(cv.DomainError):
        cv.photon_recoil(0.0, species)


def test_recoil_heating_identity_and_bound(species):
    gamma_off, _ = cv.scattering_rates(species, OMEGA_1064, 1.93e12)
    e_rec, rate_k_per_s = cv.recoil_heating(1064e-9, species, gamma_off)
    assert e_rec == cv.photon_recoil(1064e-9, species)
    assert rate_k_per_s == pytest.approx(gamma_off * e_rec / sc.k, rel=1e-14)
    # recoil channel sits far below the quoted non-Langevin ceiling
    assert rate_k_per_s < cv.NON_LANGEVIN_HEATING_BOUND
