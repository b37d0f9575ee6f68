import dataclasses
import math

import numpy as np
import pytest

import cavitrap as cv

HBAR = cv.CONST.hbar


@pytest.fixture(scope="module")
def spin_setup(bare_trap_100, species):
    """N=4 crystal with a stiff lattice; small enough for brute-force sums."""
    eq = cv.find_equilibria(4, bare_trap_100, species, n_restarts=12, seed=0)[0]
    trap = bare_trap_100.with_depth(
        cv.depth_for_aspect(bare_trap_100, species, 4.0)
    )
    spectrum = cv.normal_modes(eq, trap, species)
    return eq, spectrum


def brute_force_jij(spectrum, drive):
    """Plain double loop over drives and out-of-plane modes."""
    idx = spectrum.select(cv.OUT_OF_PLANE)
    rabi = np.asarray(drive.rabi, dtype=float)
    n = rabi.shape[0]
    j = np.zeros((n, n))
    for i in range(n):
        for jdx in range(n):
            if i == jdx:
                continue
            total = 0.0
            for nd, mu in enumerate(drive.mu):
                for m in idx:
                    b = spectrum.vectors[2::3, m]
                    total += (
                        rabi[i, nd] * rabi[jdx, nd]
                        * b[i] * b[jdx] / (mu**2 - spectrum.omega[m] ** 2)
                    )
            j[i, jdx] = drive.recoil_energy * total / HBAR
    return j


def test_matches_brute_force(spin_setup, species):
    eq, spectrum = spin_setup
    zmax = spectrum.omega[spectrum.select(cv.OUT_OF_PLANE)].max()
    recoil = cv.photon_recoil(355e-9, species)
    rng = np.random.default_rng(3)
    drive = cv.SpinDriveConfig(
        mu=(1.1 * zmax, 2.7 * zmax),
        rabi=rng.uniform(1e4, 1e5, size=(4, 2)),
        recoil_energy=recoil,
    )
    graph = cv.compute_jij(spectrum, eq, drive)
    brute = brute_force_jij(spectrum, drive)
    scale = np.abs(brute).max()
    assert np.abs(graph.j - brute).max() < 1e-12 * scale


def test_symmetry_and_zero_diagonal(spin_setup, species):
    eq, spectrum = spin_setup
    zmax = spectrum.omega[spectrum.select(cv.OUT_OF_PLANE)].max()
    drive = cv.uniform_drive(4, 1.3 * zmax, 2 * math.pi * 50e3,
                             cv.photon_recoil(355e-9, species))
    graph = cv.compute_jij(spectrum, eq, drive)
    assert np.array_equal(graph.j, graph.j.T)
    assert np.all(np.diag(graph.j) == 0.0)


def test_scaling_laws(spin_setup, species):
    """Linear in the recoil energy, quadratic in a uniform Rabi scale."""
    eq, spectrum = spin_setup
    zmax = spectrum.omega[spectrum.select(cv.OUT_OF_PLANE)].max()
    recoil = cv.photon_recoil(355e-9, species)
    base = cv.compute_jij(
        spectrum, eq, cv.uniform_drive(4, 1.3 * zmax, 1e5, recoil)
    )
    doubled_rec = cv.compute_jij(
        spectrum, eq, cv.uniform_drive(4, 1.3 * zmax, 1e5, 2 * recoil)
    )
    tripled_rabi = cv.compute_jij(
        spectrum, eq, cv.uniform_drive(4, 1.3 * zmax, 3e5, recoil)
    )
    assert np.allclose(doubled_rec.j, 2 * base.j, rtol=1e-12)
    assert np.allclose(tripled_rabi.j, 9 * base.j, rtol=1e-12)


def test_far_detuned_couplings_fall_as_mu_fourth(spin_setup, species):
    # rows of the out-of-plane eigenvector block are orthonormal, so the
    # 1/mu^2 term cancels off the diagonal and J_ij ~ K_ij / mu^4
    eq, spectrum = spin_setup
    zmax = spectrum.omega[spectrum.select(cv.OUT_OF_PLANE)].max()
    recoil = cv.photon_recoil(355e-9, species)
    mus = np.array([50.0, 100.0, 200.0]) * zmax
    vals = []
    for mu in mus:
        g = cv.compute_jij(spectrum, eq, cv.uniform_drive(4, mu, 1e5, recoil))
        vals.append(np.abs(g.j).max())
        # far above the band every pair has the same sign (Coulomb-kernel
        # dominated once the identity term cancels)
        off = g.j[~np.eye(4, dtype=bool)]
        assert np.all(np.sign(off) == np.sign(off[0]))
    slope = np.polyfit(np.log(mus), np.log(vals), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.02)


def test_resonance_error_names_drive_and_mode(spin_setup, species):
    eq, spectrum = spin_setup
    idx = spectrum.select(cv.OUT_OF_PLANE)
    target = spectrum.omega[idx[1]]
    drive = cv.uniform_drive(4, target * (1 + 1e-9), 1e5,
                             cv.photon_recoil(355e-9, species))
    with pytest.raises(cv.ResonanceError) as err:
        cv.compute_jij(spectrum, eq, drive)
    assert "drive 0" in str(err.value)
    assert f"mode {idx[1]}" in str(err.value)


def test_imaginary_partition_rejected(bare_trap_100, species, eq10_100):
    eq = eq10_100[0]
    alpha_tr = cv.find_alpha_tr(eq, bare_trap_100, species).alpha_tr
    trap = bare_trap_100.with_depth(
        cv.depth_for_aspect(bare_trap_100, species, 0.9 * alpha_tr)
    )
    spectrum = cv.normal_modes(eq, trap, species)
    drive = cv.uniform_drive(10, 2 * math.pi * 10e6, 1e5,
                             cv.photon_recoil(355e-9, species))
    with pytest.raises(cv.DomainError):
        cv.compute_jij(spectrum, eq, drive)


def test_relabeling_invariance(spin_setup, species):
    eq, spectrum = spin_setup
    zmax = spectrum.omega[spectrum.select(cv.OUT_OF_PLANE)].max()
    drive = cv.uniform_drive(4, 1.4 * zmax, 1e5, cv.photon_recoil(355e-9, species))
    graph = cv.compute_jij(spectrum, eq, drive)
    # permuting ions permutes rows/columns of J computed from permuted modes
    perm = np.array([2, 0, 3, 1])
    inv = np.argsort(perm)
    w2_z, vec_z = spectrum._z
    spectrum_p = dataclasses.replace(spectrum, _z=(w2_z, vec_z[perm]))
    graph_p = cv.compute_jij(spectrum_p, eq.xy[perm], drive)
    assert np.allclose(graph_p.j, graph.j[np.ix_(perm, perm)], rtol=1e-12)


def test_couplings_read_only_the_out_of_plane_block(bare_trap_100, species, eq10_100):
    """An in-plane block of NaNs leaves J bitwise and the sweep's records,
    a resonant one among them, as they were."""
    eq = eq10_100[0]
    trap = bare_trap_100.with_depth(cv.depth_for_aspect(bare_trap_100, species, 4.0))
    spectrum = cv.label_modes(cv.normal_modes(eq, trap, species), eq)
    w2_xy, vec_xy = spectrum._xy
    blind = dataclasses.replace(spectrum, _xy=(np.full_like(w2_xy, np.nan),
                                               np.full_like(vec_xy, np.nan)))
    idx = spectrum.select(cv.OUT_OF_PLANE)
    zmax = spectrum.omega[idx].max()
    template = cv.uniform_drive(10, 1.5 * zmax, 1e5, cv.photon_recoil(355e-9, species))
    for mu in (1.002 * zmax, 1.5 * zmax, 10 * zmax):
        drive = dataclasses.replace(template, mu=(mu,))
        j = cv.compute_jij(spectrum, eq, drive).j
        assert cv.compute_jij(blind, eq, drive).j.tobytes() == j.tobytes()
    mu_values = [spectrum.omega[idx[0]], 1.1 * zmax, 10 * zmax]
    records = cv.beta_sweep(spectrum, eq, mu_values, template)
    assert records[0]["error"] is not None and records[1]["error"] is None
    assert repr(cv.beta_sweep(blind, eq, mu_values, template)) == repr(records)


@pytest.mark.parametrize("n", [4, 10])
def test_af_fraction_is_the_upper_triangle_mean(n, bare_trap_100, species):
    """The count over the whole symmetric J is np.mean over its upper
    triangle to the bit, with drives between modes, where the signs mix."""
    eq = cv.find_equilibria(n, bare_trap_100, species, n_restarts=4, seed=0)[0]
    trap = bare_trap_100.with_depth(cv.depth_for_aspect(bare_trap_100, species, 4.0))
    spectrum = cv.normal_modes(eq, trap, species)
    omega = np.sort(spectrum.omega[spectrum.select(cv.OUT_OF_PLANE)])
    apart = np.diff(omega) > 0.01 * omega[-1]  # not a degenerate pair
    mus = [*(0.5 * (omega[:-1] + omega[1:]))[apart], 1.002 * omega[-1], 10.0 * omega[-1]]
    fractions = set()
    for mu in mus:
        graph = cv.compute_jij(spectrum, eq, cv.uniform_drive(n, mu, 1e5, 1e-30))
        want = float(np.mean(graph.j[np.triu_indices(n, 1)] > 0.0))
        assert type(graph.af_fraction) is float
        assert graph.af_fraction.hex() == want.hex()
        fractions.add(want)
    assert len(fractions) > 2  # some drives give mixed signs


def test_fit_beta_synthetic_cube_law():
    # irregular cluster, plenty of distinct pair distances
    xy = np.array(
        [[0.0, 0.0], [2.1, 0.3], [-1.2, 1.7], [0.4, -2.6], [3.3, 2.2]]
    ) * 1e-6
    r = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=-1)
    with np.errstate(divide="ignore"):
        j = 1.0 / r**3
    np.fill_diagonal(j, 0.0)
    graph = cv.SpinGraph(j=j, af_fraction=1.0)
    beta, resid = cv.fit_beta(graph, xy)
    assert beta == pytest.approx(3.0, abs=1e-10)
    assert resid < 1e-10


def test_fit_beta_matches_polyfit():
    rng = np.random.default_rng(8)
    xy = rng.normal(size=(9, 2)) * 1e-6
    iu = np.triu_indices(9, 1)
    r = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=-1)[iu]
    j = np.zeros((9, 9))
    j[iu] = rng.choice([-1.0, 1.0], len(r)) * r**-1.3 * np.exp(0.2 * rng.normal(size=len(r)))
    beta, resid = cv.fit_beta(cv.SpinGraph(j=j + j.T, af_fraction=0.5), xy)
    slope, intercept = np.polyfit(np.log(r), np.log(np.abs(j[iu])), 1)
    rms = np.sqrt(np.mean((slope * np.log(r) + intercept - np.log(np.abs(j[iu]))) ** 2))
    assert beta == pytest.approx(-slope, rel=1e-12)
    assert resid == pytest.approx(rms, rel=1e-12)


def test_fit_beta_errors(spin_setup):
    eq, _ = spin_setup
    graph = cv.SpinGraph(j=np.zeros((4, 4)), af_fraction=0.0)
    with pytest.raises(cv.FitError):
        cv.fit_beta(graph, eq)
    # equilateral pair distances: a single distinct distance cannot fix beta
    tri = np.array([[0.0, 1.0], [math.sqrt(3) / 2, -0.5], [-math.sqrt(3) / 2, -0.5]])
    j = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(cv.FitError):
        cv.fit_beta(cv.SpinGraph(j=j, af_fraction=1.0), tri * 1e-6)
    # couplings of other ions than the crystal's
    for n in (3, 5):
        with pytest.raises(cv.DomainError, match=f"shape \\({n}, {n}\\), the crystal 4 ions"):
            cv.fit_beta(cv.SpinGraph(j=np.ones((n, n)), af_fraction=1.0), eq)


def test_fit_beta_counts_distances_beyond_rounding():
    """Sides equal but for equilibrium rounding (3e-9) are one distance."""
    j = np.ones((3, 3)) - np.eye(3)
    graph = cv.SpinGraph(j=j, af_fraction=1.0)
    rounded = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2 * (1 + 3e-9)]])
    with pytest.raises(cv.FitError, match="3 distinct"):
        cv.fit_beta(graph, rounded * 1e-6)
    scalene = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    beta, resid = cv.fit_beta(graph, scalene * 1e-6)
    assert beta == pytest.approx(0.0, abs=1e-12) and resid < 1e-12


def test_single_ion_has_no_couplings(bare_trap_100, species):
    eq = cv.find_equilibria(1, bare_trap_100, species, n_restarts=1, seed=0)[0]
    trap = bare_trap_100.with_depth(cv.depth_for_aspect(bare_trap_100, species, 4.0))
    spectrum = cv.normal_modes(eq, trap, species)
    drive = cv.uniform_drive(1, 1.5 * spectrum.omega.max(), 1e5,
                             cv.photon_recoil(355e-9, species))
    with pytest.raises(cv.DomainError, match="two ions"):
        cv.compute_jij(spectrum, eq, drive)


@pytest.mark.parametrize("shape, n_drives", [
    ((4,), 1),     # one Rabi frequency per ion, not a column
    ((5, 1), 1),   # an ion too many
    ((3, 1), 1),   # an ion too few
    ((4, 1), 2),   # one column for two drives
    ((4, 2), 1),   # two columns for one drive
])
def test_rabi_shape_must_be_ions_by_drives(shape, n_drives, spin_setup, species):
    eq, spectrum = spin_setup
    zmax = spectrum.omega[spectrum.select(cv.OUT_OF_PLANE)].max()
    drive = cv.SpinDriveConfig(
        mu=tuple(1.3 * zmax * (k + 1) for k in range(n_drives)),
        rabi=np.full(shape, 1e5),
        recoil_energy=cv.photon_recoil(355e-9, species),
    )
    with pytest.raises(cv.DomainError) as err:
        cv.compute_jij(spectrum, eq, drive)
    assert str(shape) in str(err.value) and str((4, n_drives)) in str(err.value)


def test_beta_sweep_records_errors_and_continues(bare_trap_100, species, eq10_100):
    # the 4-ion square has too few distinct distances for the fit, so
    # sweep on the 10-ion crystal instead
    eq = eq10_100[0]
    trap = bare_trap_100.with_depth(
        cv.depth_for_aspect(bare_trap_100, species, 4.0)
    )
    spectrum = cv.normal_modes(eq, trap, species)
    idx = spectrum.select(cv.OUT_OF_PLANE)
    zmax = spectrum.omega[idx].max()
    recoil = cv.photon_recoil(355e-9, species)
    template = cv.uniform_drive(10, 1.5 * zmax, 1e5, recoil)
    mu_values = [spectrum.omega[idx[0]], 1.5 * zmax, 10 * zmax]
    records = cv.beta_sweep(spectrum, eq, mu_values, template)
    assert len(records) == 3
    assert records[0]["error"] is not None and math.isnan(records[0]["beta"])
    assert records[1]["error"] is None
    assert records[2]["beta"] > records[1]["beta"]  # beta grows toward 3
