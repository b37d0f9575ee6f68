import json
import math
from pathlib import Path

import pytest

import cavitrap as cv
from cavitrap.core import ATOMIC_POLARIZABILITY_SI

OMEGA_1064 = 2.0 * math.pi * cv.CONST.speed_of_light / 1064e-9


def test_constants():
    assert cv.CONST.hbar == pytest.approx(1.054571817e-34, rel=1e-9, abs=0)
    kq = cv.CONST.elementary_charge**2 / (4 * math.pi * cv.CONST.vacuum_permittivity)
    assert cv.CONST.coulomb_coefficient == pytest.approx(kq, rel=1e-15, abs=0)


def test_species_data(species):
    assert species.label == "171Yb+"
    assert species.mass == pytest.approx(171 * cv.CONST.atomic_mass_unit, rel=1e-12, abs=0)
    assert len(species.lines) == 2
    wavelengths = sorted(
        2 * math.pi * cv.CONST.speed_of_light / l.transition_angular_frequency
        for l in species.lines
    )
    assert wavelengths[0] == pytest.approx(328.94e-9, rel=1e-6)
    assert wavelengths[1] == pytest.approx(369.52e-9, rel=1e-6)
    assert species.branch_ratio_meta == pytest.approx(1 / 200)
    assert species.polarizability_offset == pytest.approx(
        17.6 * ATOMIC_POLARIZABILITY_SI, rel=1e-12, abs=0
    )


def test_species_file_roundtrip(tmp_path, species):
    payload = {
        "label": "toy",
        "mass_amu": 40.0,
        "lines": [{"wavelength_nm": 397.0, "linewidth_mhz": 20.0}],
        "branch_ratio_meta": 0.1,
        "metastable_lifetime_ms": 1000.0,
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(payload))
    sp = cv.load_species(str(path))
    assert sp.mass == pytest.approx(40 * cv.CONST.atomic_mass_unit, abs=0)
    assert sp.lines[0].weight == 1.0
    assert sp.polarizability_offset == 0.0


def test_species_file_errors(tmp_path):
    with pytest.raises(cv.ValidationError):
        cv.load_species(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(cv.ValidationError):
        cv.load_species(str(bad))
    incomplete = tmp_path / "inc.json"
    incomplete.write_text(json.dumps({"mass_amu": 1.0}))
    with pytest.raises(cv.ValidationError):
        cv.load_species(str(incomplete))
    # True and 0 would open file descriptors 1 and 0
    for source in (True, 0, ["yb171"]):
        with pytest.raises(cv.ValidationError):
            cv.load_species(source)


def test_species_validation():
    line = cv.AtomicLine(1e15, 1e8)
    with pytest.raises(cv.ValidationError):
        cv.IonSpecies(mass=-1.0, lines=(line,), branch_ratio_meta=0.1,
                      metastable_lifetime=1.0)
    with pytest.raises(cv.ValidationError):
        cv.IonSpecies(mass=1e-25, lines=(), branch_ratio_meta=0.1,
                      metastable_lifetime=1.0)
    with pytest.raises(cv.ValidationError):
        cv.AtomicLine(1e15, -1.0)
    with pytest.raises(cv.ValidationError):
        cv.AtomicLine(1e15, 1e8, weight=0.0)


def test_stark_coefficient_value(species):
    # regression value for 171Yb+ at 1064 nm, checked in-band against the
    # published depth/intensity columns by the acceptance suite; abs=0, as
    # approx's default absolute tolerance of 1e-12 would pass any kappa
    kappa = cv.stark_coefficient(species, OMEGA_1064)
    assert kappa == pytest.approx(2.0589e-37, rel=2e-3, abs=0)
    # U = -kappa I. Red detuning on both lines plus a positive offset: the
    # ion is drawn into the light. 360 nm is blue of the 369.52 nm line,
    # which pushes the ion out of it; the depth is the magnitude
    assert kappa > 0
    omega_360 = 2.0 * math.pi * cv.CONST.speed_of_light / 360e-9
    assert cv.stark_coefficient(species, omega_360) == pytest.approx(-3.987e-37, rel=1e-3, abs=0)
    assert cv.trap_depth(species, omega_360, 1e12) == pytest.approx(3.987e-25, rel=1e-3, abs=0)


def test_species_file_rejects_a_repeated_key(tmp_path):
    """A key given twice in one object, at the top or in a line, is an error
    naming the file and the key, not a silent last value."""
    text = (Path(cv.__file__).parent / "data" / "yb171.json").read_text()
    for old, new, key in (
        ('"mass_amu": 171.0,', '"mass_amu": 171.0, "mass_amu": 1.0,', "mass_amu"),
        ('"weight": 0.3333333333333333}', '"weight": 1, "weight": 0.3333333333333333}',
         "weight"),
    ):
        path = tmp_path / f"{key}.json"
        path.write_text(text.replace(old, new))
        with pytest.raises(cv.ValidationError, match=f"{path}.*'{key}'"):
            cv.load_species(str(path))


def test_stark_resonance_guard(species):
    omega_line = species.lines[0].transition_angular_frequency
    with pytest.raises(cv.ResonanceError):
        cv.stark_coefficient(species, omega_line * (1 + 1e-9))
    with pytest.raises(cv.DomainError):
        cv.stark_coefficient(species, -1.0)


def test_intensity_from_power():
    i = cv.intensity_from_power(0.84, 3000.0, 21e-6)
    assert i == pytest.approx(2 * 3000 * 0.84 / (math.pi**2 * (21e-6) ** 2), rel=1e-12)
    # doubling finesse at fixed power doubles the circulating intensity
    assert cv.intensity_from_power(0.84, 6000.0, 21e-6) == pytest.approx(2 * i)
    with pytest.raises(cv.DomainError):
        cv.intensity_from_power(1.0, 3000.0, 0.0)
    with pytest.raises(cv.DomainError):
        cv.intensity_from_power(-1.0, 3000.0, 21e-6)


@pytest.mark.parametrize("finesse", [1.0, 3000.0, 1.7e5])
@pytest.mark.parametrize("w0", [3.3e-6, 21e-6, 1e-3])
def test_power_for_intensity_inverts_intensity_from_power(finesse, w0):
    for i_max in (0.0, 1.16e12, 3.7e9, 8.9e14):
        p_in = cv.power_for_intensity(i_max, finesse, w0)
        assert cv.intensity_from_power(p_in, finesse, w0) == pytest.approx(i_max, rel=1e-15, abs=0)
    for p_in in (0.31, 4.2e-3, 17.0):
        i_max = cv.intensity_from_power(p_in, finesse, w0)
        assert cv.power_for_intensity(i_max, finesse, w0) == pytest.approx(p_in, rel=1e-15)


def test_power_for_intensity_domain():
    for i_max, finesse, w0 in ((1e12, 3000.0, 0.0), (1e12, 3000.0, -21e-6),
                               (1e12, 0.0, 21e-6), (1e12, -1.0, 21e-6),
                               (-1.0, 3000.0, 21e-6)):
        with pytest.raises(cv.DomainError):
            cv.power_for_intensity(i_max, finesse, w0)


@pytest.mark.parametrize("wavelength", [360e-9, 532e-9, 1064e-9, 1560e-9])
def test_intensity_for_depth_inverts_trap_depth(species, wavelength):
    omega_l = 2.0 * math.pi * cv.CONST.speed_of_light / wavelength
    for i_max in (0.0, 1.16e12, 3.7e9, 8.9e14):
        depth = cv.trap_depth(species, omega_l, i_max)
        assert cv.intensity_for_depth(species, omega_l, depth) == pytest.approx(
            i_max, rel=1e-15, abs=0)
    for depth_mk in (0.05, 1.0, 430.0):
        depth = depth_mk * 1e-3 * cv.CONST.boltzmann
        i_max = cv.intensity_for_depth(species, omega_l, depth)
        assert cv.trap_depth(species, omega_l, i_max) == pytest.approx(depth, rel=1e-15, abs=0)


def test_intensity_for_depth_domain(species):
    with pytest.raises(cv.DomainError):
        cv.intensity_for_depth(species, OMEGA_1064, -1e-27)
    with pytest.raises(cv.DomainError):
        cv.intensity_for_depth(species, -1.0, 1e-27)


def test_trap_depth_is_linear_in_intensity(species):
    d1 = cv.trap_depth(species, OMEGA_1064, 1e12)
    d2 = cv.trap_depth(species, OMEGA_1064, 2e12)
    assert d2 == pytest.approx(2 * d1, rel=1e-12, abs=0)


def test_laplace_constraint():
    optical = cv.OpticalTrapConfig(1064e-9, 21e-6, 0.0, cv.NODE_SIN2)
    trap = cv.TrapConfig(2e6, 1.5e6, optical)
    assert trap.omega_z_dc**2 == pytest.approx(
        trap.omega_x_dc**2 + trap.omega_y_dc**2, rel=1e-12
    )
    assert trap.omega_r == pytest.approx(math.sqrt(2e6 * 1.5e6), rel=1e-12)


def test_effective_frequencies_inverts_depth_for_aspect(species, bare_trap_21):
    alpha = 3.7
    trap = bare_trap_21.with_depth(cv.depth_for_aspect(bare_trap_21, species, alpha))
    wx, wy, wz = cv.effective_frequencies(trap, species)
    assert wz / trap.omega_r == pytest.approx(alpha, rel=1e-12)
    assert wx == pytest.approx(trap.omega_x_dc, rel=1e-12)


def test_effective_frequencies_working_point(species, bare_trap_21):
    # 17.3 mK of depth at 0.5 MHz radial: axial frequency just below 1 MHz,
    # an aspect ratio of ~2 that clears the ten-ion transition threshold
    trap = bare_trap_21.with_depth(17.3e-3 * cv.CONST.boltzmann)
    _, _, wz = cv.effective_frequencies(trap, species)
    assert wz / (2 * math.pi * 1e6) == pytest.approx(0.99, abs=0.01)
    assert wz / trap.omega_r == pytest.approx(1.99, abs=0.02)


def test_antinode_adds_radial_confinement(species, bare_trap_21):
    depth = cv.depth_for_aspect(bare_trap_21, species, 2.0)
    node = bare_trap_21.with_depth(depth)
    anti = cv.TrapConfig(
        node.omega_x_dc, node.omega_y_dc,
        cv.OpticalTrapConfig(1064e-9, 21e-6, depth, cv.ANTINODE_COS2),
    )
    wx_n, _, wz_n = cv.effective_frequencies(node, species)
    wx_a, _, wz_a = cv.effective_frequencies(anti, species)
    assert wz_a == pytest.approx(wz_n, rel=1e-12)
    expected = math.sqrt(wx_n**2 + 4 * depth / (species.mass * (21e-6) ** 2))
    assert wx_a == pytest.approx(expected, rel=1e-12)


def test_anti_trapped_raises(species, bare_trap_21):
    with pytest.raises(cv.AntiTrappedError):
        cv.effective_frequencies(bare_trap_21.with_depth(1e-30), species)


def test_optical_config_validation():
    with pytest.raises(cv.DomainError):
        cv.OpticalTrapConfig(-1e-9, 21e-6, 0.0, cv.NODE_SIN2)
    with pytest.raises(cv.DomainError):
        cv.OpticalTrapConfig(1064e-9, 21e-6, -1.0, cv.NODE_SIN2)
    with pytest.raises(cv.ValidationError):
        cv.OpticalTrapConfig(1064e-9, 21e-6, 0.0, "nonsense")
    with pytest.raises(TypeError):  # every caller names the lattice
        cv.OpticalTrapConfig(1064e-9, 21e-6, 0.0)
    opt = cv.OpticalTrapConfig(1064e-9, 21e-6, 0.0, cv.NODE_SIN2)
    assert opt.rayleigh_range == pytest.approx(math.pi * (21e-6) ** 2 / 1064e-9)
    assert opt.lattice_wavenumber == pytest.approx(2 * math.pi / 1064e-9)


def test_with_depth_with_waist(bare_trap_21):
    t2 = bare_trap_21.with_depth(1e-25).with_waist(30e-6)
    assert t2.optical.depth == 1e-25
    assert t2.optical.waist == 30e-6
    assert bare_trap_21.optical.depth == 0.0  # original untouched


def test_characteristic_length(species):
    omega_r = 2 * math.pi * 0.5e6
    ell = cv.characteristic_length(species, omega_r)
    assert ell**3 * species.mass * omega_r**2 == pytest.approx(
        cv.CONST.coulomb_coefficient, rel=1e-12, abs=0
    )
    with pytest.raises(cv.DomainError):
        cv.characteristic_length(species, 0.0)
