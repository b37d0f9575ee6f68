import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavitrap as cv
from cavitrap import potential
from cavitrap.potential import coulomb_z_block, optical_z_curvature

RNG = np.random.default_rng(7)


def scattered_points(n, rng, scale=5e-6, dim=3, min_sep=1e-6):
    """Random ion positions with a guaranteed minimum pair separation."""
    while True:
        pts = rng.uniform(-scale, scale, size=(n, dim))
        diff = pts[:, None, :] - pts[None, :, :]
        r = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(r, np.inf)
        if r.min() > min_sep:
            return pts.ravel()


def trap_with(variant, depth, waist=21e-6, anisotropy=0.0):
    optical = cv.OpticalTrapConfig(1064e-9, waist, depth, variant)
    return cv.make_trap(2 * math.pi * 0.5e6, optical, anisotropy=anisotropy)


def fd_gradient(coords, trap, species, h=3e-11):
    coords = np.asarray(coords, dtype=float)
    out = np.empty_like(coords)
    for i in range(coords.size):
        up, dn = coords.copy(), coords.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (
            cv.total_energy(up, trap, species).total
            - cv.total_energy(dn, trap, species).total
        ) / (2 * h)
    return out


def fd_hessian(coords, trap, species, h=3e-11):
    coords = np.asarray(coords, dtype=float)
    out = np.empty((coords.size, coords.size))
    for i in range(coords.size):
        up, dn = coords.copy(), coords.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (
            cv.gradient(up, trap, species) - cv.gradient(dn, trap, species)
        ) / (2 * h)
    return 0.5 * (out + out.T)


@pytest.mark.parametrize("variant", [cv.NODE_SIN2, cv.ANTINODE_COS2])
def test_gradient_matches_central_differences(species, variant):
    trap = trap_with(variant, depth=20e-3 * cv.CONST.boltzmann, anisotropy=0.07)
    for _ in range(3):
        x = scattered_points(5, RNG)
        g = cv.gradient(x, trap, species)
        g_fd = fd_gradient(x, trap, species)
        assert np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd) < 1e-6


@pytest.mark.parametrize("variant", [cv.NODE_SIN2, cv.ANTINODE_COS2])
def test_hessian_matches_gradient_differences(species, variant):
    trap = trap_with(variant, depth=20e-3 * cv.CONST.boltzmann, anisotropy=0.07)
    x = scattered_points(4, RNG)
    h = cv.hessian(x, trap, species)
    h_fd = fd_hessian(x, trap, species)
    assert np.linalg.norm(h - h_fd) / np.linalg.norm(h_fd) < 1e-5


def test_hessian_symmetric_and_z_decoupled(species):
    trap = trap_with(cv.ANTINODE_COS2, depth=20e-3 * cv.CONST.boltzmann)
    x3 = scattered_points(6, RNG, dim=2)
    coords = np.zeros(18)
    coords[0::3] = x3[0::2]
    coords[1::3] = x3[1::2]
    h = cv.hessian(coords, trap, species)
    assert np.array_equal(h, h.T)
    # on the z = 0 plane the xz and yz mixed curvatures vanish identically
    z_idx = np.arange(2, 18, 3)
    xy_idx = np.setdiff1d(np.arange(18), z_idx)
    assert np.abs(h[np.ix_(z_idx, xy_idx)]).max() == 0.0


def test_energy_term_brute_force(species):
    trap = trap_with(cv.ANTINODE_COS2, depth=15e-3 * cv.CONST.boltzmann,
                     anisotropy=0.05)
    coords = scattered_points(5, RNG)
    pts = coords.reshape(-1, 3)
    kq = cv.CONST.coulomb_coefficient
    e_c = sum(
        kq / np.linalg.norm(pts[i] - pts[j])
        for i in range(5)
        for j in range(i + 1, 5)
    )
    m = species.mass
    e_dc = sum(
        0.5 * m * (
            trap.omega_x_dc**2 * p[0] ** 2
            + trap.omega_y_dc**2 * p[1] ** 2
            - trap.omega_z_dc**2 * p[2] ** 2
        )
        for p in pts
    )
    opt = trap.optical
    k = opt.lattice_wavenumber
    e_opt = 0.0
    for p in pts:
        wz2 = opt.waist**2 * (1 + (p[2] / opt.rayleigh_range) ** 2)
        envelope = (opt.waist**2 / wz2) * math.exp(-2 * (p[0] ** 2 + p[1] ** 2) / wz2)
        e_opt += opt.depth * envelope * (math.sin(k * p[2]) ** 2 - 1.0)
    bd = cv.total_energy(coords, trap, species)
    assert bd.coulomb == pytest.approx(e_c, rel=1e-12)
    assert bd.dc == pytest.approx(e_dc, rel=1e-12)
    assert bd.optical == pytest.approx(e_opt, rel=1e-12)
    assert bd.total == pytest.approx(e_c + e_dc + e_opt, rel=1e-12)


@pytest.mark.parametrize("variant", [cv.NODE_SIN2, cv.ANTINODE_COS2])
def test_planar_agrees_with_embedded_3d(species, variant):
    trap = trap_with(variant, depth=15e-3 * cv.CONST.boltzmann, anisotropy=0.03)
    xy = scattered_points(6, RNG, dim=2)
    coords = np.zeros(18)
    coords[0::3] = xy[0::2]
    coords[1::3] = xy[1::2]
    assert cv.planar_energy(xy, trap, species) == pytest.approx(
        cv.total_energy(coords, trap, species).total, rel=1e-12
    )
    g3 = cv.gradient(coords, trap, species).reshape(-1, 3)
    g2 = cv.planar_gradient(xy, trap, species).reshape(-1, 2)
    assert np.allclose(g2, g3[:, :2], rtol=1e-12, atol=0)
    h3 = cv.hessian(coords, trap, species)
    keep = np.setdiff1d(np.arange(18), np.arange(2, 18, 3))
    assert np.allclose(
        cv.planar_hessian(xy, trap, species), h3[np.ix_(keep, keep)],
        rtol=1e-12, atol=1e-30,
    )


@pytest.mark.parametrize("variant", [cv.NODE_SIN2, cv.ANTINODE_COS2])
def test_planar_derivatives_match_central_differences(species, variant):
    """Independent oracle for the planar Coulomb, DC and optical derivatives."""
    trap = trap_with(variant, depth=20e-3 * cv.CONST.boltzmann, anisotropy=0.07)
    xy = scattered_points(5, np.random.default_rng(3), dim=2)
    h = 3e-11
    e, g = cv.planar_energy_gradient(xy, trap, species)
    assert e == cv.planar_energy(xy, trap, species)
    assert np.array_equal(g, cv.planar_gradient(xy, trap, species))
    g_fd = np.empty_like(xy)
    h_fd = np.empty((xy.size, xy.size))
    for i in range(xy.size):
        up, dn = xy.copy(), xy.copy()
        up[i] += h
        dn[i] -= h
        e_up, g_up = cv.planar_energy_gradient(up, trap, species)
        e_dn, g_dn = cv.planar_energy_gradient(dn, trap, species)
        g_fd[i] = (e_up - e_dn) / (2 * h)
        h_fd[i] = (g_up - g_dn) / (2 * h)
    assert np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd) < 1e-6
    h_fd = 0.5 * (h_fd + h_fd.T)
    hess = cv.planar_hessian(xy, trap, species)
    assert np.linalg.norm(hess - h_fd) / np.linalg.norm(h_fd) < 1e-5


def test_batch_energy_matches_scalar(species):
    rng = np.random.default_rng(7)
    for variant in (cv.NODE_SIN2, cv.ANTINODE_COS2):
        trap = trap_with(variant, depth=10e-3 * cv.CONST.boltzmann)
        for n_ions, rows in ((2, 1), (2, 3), (7, 9), (300, 1), (300, 3)):
            batch = np.stack([
                scattered_points(n_ions, rng, scale=60e-6, dim=2, min_sep=1e-7)
                for _ in range(rows)
            ])
            e_batch = cv.planar_energy_batch(batch, trap, species)
            assert e_batch.shape == (rows,)
            for row, e in zip(batch, e_batch):
                assert e == pytest.approx(
                    cv.planar_energy(row, trap, species), rel=1e-12
                ), (variant, n_ions, rows)


def test_batch_energy_memory_linear_in_ions(species):
    """1000 rows at N = 300: a (B, N, N, 2) difference array alone is 1.4 GB."""
    trap = trap_with(cv.NODE_SIN2, depth=0.0)
    batch = np.random.default_rng(5).uniform(-60e-6, 60e-6, size=(1000, 600))
    tracemalloc.start()
    try:
        cv.planar_energy_batch(batch, trap, species)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


# The stacked-axis pair pass the per-axis kernels replaced, kept as the oracle
# of test_pair_kernels_bitwise_match_stacked_axis_oracle.


def stacked_pair_distances(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(r, np.inf)
    return diff, r


def stacked_coulomb_gradient(diff, r):
    return -cv.CONST.coulomb_coefficient * np.sum(diff / r[:, :, None] ** 3, axis=1)


def stacked_coulomb_hessian(diff, r):
    n, _, dim = diff.shape
    inv3 = 1.0 / r**3
    inv5 = 1.0 / r**5
    outer = diff[:, :, :, None] * diff[:, :, None, :]
    blocks = cv.CONST.coulomb_coefficient * (
        np.eye(dim)[None, None, :, :] * inv3[:, :, None, None]
        - outer * (3.0 * inv5)[:, :, None, None]
    )
    idx = np.arange(n)
    blocks[idx, idx] = 0.0
    blocks[idx, idx] = -blocks.sum(axis=1)
    return blocks.transpose(0, 2, 1, 3).reshape(dim * n, dim * n)


def stacked_energy_batch(batch, trap, species):
    pts = batch.reshape(batch.shape[0], -1, 2)
    inv_r = np.zeros(pts.shape[0])
    for i in range(pts.shape[1] - 1):
        diff = pts[:, i + 1 :, :] - pts[:, i, None, :]
        inv_r += np.sum(1.0 / np.sqrt(np.einsum("bjk,bjk->bj", diff, diff)), axis=1)
    e = cv.CONST.coulomb_coefficient * inv_r
    m = species.mass
    e += 0.5 * m * np.sum(
        trap.omega_x_dc**2 * pts[:, :, 0] ** 2 + trap.omega_y_dc**2 * pts[:, :, 1] ** 2,
        axis=1,
    )
    opt = trap.optical
    if opt.lattice_variant == cv.ANTINODE_COS2 and opt.depth != 0.0:
        rho2 = pts[:, :, 0] ** 2 + pts[:, :, 1] ** 2
        e -= opt.depth * np.sum(np.exp(-2.0 * rho2 / opt.waist**2), axis=1)
    return e


def kernel_outputs(xy, coords, trap, species):
    e, g = cv.planar_energy_gradient(xy, trap, species)
    bd = cv.total_energy(coords, trap, species)
    return dict(
        planar_energy=e,
        planar_gradient=g,
        planar_hessian=cv.planar_hessian(xy, trap, species),
        z_block=coulomb_z_block(xy),
        total_energy=np.array([bd.coulomb, bd.dc, bd.optical]),
        gradient=cv.gradient(coords, trap, species),
        hessian=cv.hessian(coords, trap, species),
    )


@pytest.mark.parametrize("variant", [cv.NODE_SIN2, cv.ANTINODE_COS2])
@pytest.mark.parametrize("anisotropy", [0.0, 0.07])
@pytest.mark.parametrize("n_ions", [1, 2, 7, 30, 120])
def test_pair_kernels_bitwise_match_stacked_axis_oracle(
    species, monkeypatch, variant, anisotropy, n_ions
):
    """Per-axis kernels against the (N, N, dim) pass: planar kernels bit for
    bit; the 3D ones to 1e-12, since einsum adds the three squares in an
    order of its own."""
    trap = trap_with(variant, depth=20e-3 * cv.CONST.boltzmann, anisotropy=anisotropy)
    rng = np.random.default_rng([n_ions, int(anisotropy * 100)])
    scale = 5e-6 * math.sqrt(n_ions)
    xy = rng.uniform(-scale, scale, 2 * n_ions)
    coords = np.zeros(3 * n_ions)
    coords[0::3] = xy[0::2]
    coords[1::3] = xy[1::2]
    coords[2::3] = rng.uniform(-2e-7, 2e-7, n_ions)
    new = kernel_outputs(xy, coords, trap, species)

    calls = []

    def counted_pair_distances(pts):
        calls.append(len(pts))
        return stacked_pair_distances(pts)

    with monkeypatch.context() as patch:
        patch.setattr(potential, "_pair_distances", counted_pair_distances)
        patch.setattr(potential, "_coulomb_gradient", stacked_coulomb_gradient)
        patch.setattr(potential, "_coulomb_hessian", stacked_coulomb_hessian)
        old = kernel_outputs(xy, coords, trap, species)
    assert calls == [n_ions] * 6  # every kernel ran on the oracle's pair pass

    for name in ("planar_energy", "planar_gradient", "planar_hessian", "z_block"):
        assert np.array_equal(new[name], old[name]), name
    for name in ("total_energy", "gradient", "hessian"):
        scale = np.abs(old[name]).max()
        assert np.abs(new[name] - old[name]).max() <= 1e-12 * scale, name

    batch = np.stack([xy, xy[::-1], 1.1 * xy])
    assert np.array_equal(
        cv.planar_energy_batch(batch, trap, species),
        stacked_energy_batch(batch, trap, species),
    )
    if n_ions > 1:
        pts = xy.reshape(-1, 2)
        diff, r = stacked_pair_distances(pts)
        r_max = np.linalg.norm(pts - pts.mean(axis=0), axis=1).max()
        d_min = np.linalg.norm(diff, axis=-1)[~np.eye(n_ions, dtype=bool)].min()
        assert cv.crystal_metrics(xy) == (r_max, d_min)


def test_coulomb_z_block_structure(species):
    xy = scattered_points(6, RNG, dim=2)
    a = coulomb_z_block(xy)
    assert np.allclose(a, a.T, rtol=0, atol=0)
    assert np.abs(a.sum(axis=1)).max() < 1e-25  # uniform vector annihilated
    assert np.linalg.eigvalsh(a).max() < 1e-25  # negative semidefinite
    pts = xy.reshape(-1, 2)
    kq = cv.CONST.coulomb_coefficient
    r01 = np.linalg.norm(pts[0] - pts[1])
    assert a[0, 1] == pytest.approx(kq / r01**3, rel=1e-12)


def test_optical_z_curvature_node(species):
    opt = cv.OpticalTrapConfig(1064e-9, 21e-6, 0.0, cv.NODE_SIN2)
    xy = scattered_points(5, RNG, dim=2)
    pts = xy.reshape(-1, 2)
    k = opt.lattice_wavenumber
    expected = 2 * k**2 * np.exp(-2 * (pts[:, 0] ** 2 + pts[:, 1] ** 2) / opt.waist**2)
    assert np.allclose(optical_z_curvature(xy, opt), expected, rtol=1e-12)


def test_z_curvature_consistent_with_full_hessian(species):
    """The assembled z block must equal the z rows of the 3D Hessian."""
    for variant in (cv.NODE_SIN2, cv.ANTINODE_COS2):
        trap = trap_with(variant, depth=20e-3 * cv.CONST.boltzmann)
        xy = scattered_points(5, RNG, dim=2)
        coords = np.zeros(15)
        coords[0::3] = xy[0::2]
        coords[1::3] = xy[1::2]
        h3 = cv.hessian(coords, trap, species)
        z_idx = np.arange(2, 15, 3)
        block = (
            coulomb_z_block(xy)
            + np.diag(
                trap.optical.depth * optical_z_curvature(xy, trap.optical)
                - species.mass * trap.omega_z_dc**2
            )
        )
        assert np.allclose(h3[np.ix_(z_idx, z_idx)], block, rtol=1e-10, atol=1e-22)


def test_singular_configurations_rejected(species):
    trap = trap_with(cv.NODE_SIN2, depth=0.0)
    with pytest.raises(cv.SingularConfigurationError):
        cv.total_energy([0, 0, 0, 0, 0, 0], trap, species)
    with pytest.raises(cv.SingularConfigurationError):
        cv.planar_energy([1e-6, 0, 1e-6, 0], trap, species)
    with pytest.raises(cv.SingularConfigurationError):
        cv.planar_gradient([np.nan, 0, 1e-6, 0], trap, species)


@settings(max_examples=25, deadline=None)
@given(
    angle=st.floats(min_value=-math.pi, max_value=math.pi),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_rotation_invariance_isotropic(angle, seed):
    """Isotropic DC trap + cylindrical envelope: energy blind to rotations."""
    species = cv.yb171()
    trap = trap_with(cv.ANTINODE_COS2, depth=10e-3 * cv.CONST.boltzmann)
    rng = np.random.default_rng(seed)
    xy = scattered_points(5, rng, dim=2)
    pts = xy.reshape(-1, 2)
    c, s = math.cos(angle), math.sin(angle)
    rotated = pts @ np.array([[c, -s], [s, c]]).T
    e0 = cv.planar_energy(xy, trap, species)
    e1 = cv.planar_energy(rotated.ravel(), trap, species)
    assert e1 == pytest.approx(e0, rel=1e-11)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.5, max_value=2.0),
       seed=st.integers(min_value=0, max_value=2**31))
def test_coulomb_scaling(scale, seed):
    """Pure Coulomb term scales as 1/s under coordinate dilation by s."""
    species = cv.yb171()
    trap = trap_with(cv.NODE_SIN2, depth=0.0)
    rng = np.random.default_rng(seed)
    x = scattered_points(4, rng)
    e0 = cv.total_energy(x, trap, species).coulomb
    e1 = cv.total_energy(scale * x, trap, species).coulomb
    assert e1 == pytest.approx(e0 / scale, rel=1e-12)
