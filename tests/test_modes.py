import math

import numpy as np
import pytest

import cavitrap as cv
from cavitrap.modes import (
    LABEL_COM,
    LABEL_OTHER,
    LABEL_SADDLE,
    LABEL_TILT_X,
    LABEL_TILT_Y,
    _gram_schmidt,
    _label_basis,
    _overlaps,
)

OMEGA_R = 2.0 * math.pi * 0.5e6


@pytest.fixture(scope="module")
def trapped_10(bare_trap_21, species, eq10_21):
    """N=10 crystal with the lattice depth set for omega_z/omega_r = 4."""
    trap = bare_trap_21.with_depth(
        cv.depth_for_aspect(bare_trap_21, species, 4.0)
    )
    return eq10_21[0], trap


def test_eigenvectors_orthonormal(trapped_10, species):
    eq, trap = trapped_10
    spec = cv.normal_modes(eq, trap, species)
    gram = spec.vectors.T @ spec.vectors
    assert np.abs(gram - np.eye(30)).max() < 1e-10


def test_partition_and_counts(trapped_10, species):
    eq, trap = trapped_10
    spec = cv.normal_modes(eq, trap, species)
    assert spec.n_modes == 30
    oop = spec.select(cv.OUT_OF_PLANE)
    inp = spec.select(cv.IN_PLANE)
    assert len(oop) == 10 and len(inp) == 20
    # out-of-plane vectors have no xy component and vice versa
    for m in oop:
        v = spec.vectors[:, m]
        assert np.abs(np.delete(v, np.arange(2, 30, 3))).max() == 0.0
    for m in inp:
        assert np.abs(spec.vectors[2::3, m]).max() == 0.0


def test_modes_match_full_3d_hessian(trapped_10, species):
    """The split z/xy solve must agree with brute eigh of the 3N Hessian."""
    eq, trap = trapped_10
    spec = cv.normal_modes(eq, trap, species)
    h = cv.hessian(eq.positions, trap, species) / species.mass
    w_full = np.sort(np.linalg.eigvalsh(h))
    w_split = np.sort(spec.omega_sq)
    assert np.allclose(w_full, w_split, rtol=1e-10, atol=1e-4 * np.abs(w_full).max())


def test_eigen_residual(trapped_10, species):
    eq, trap = trapped_10
    spec = cv.normal_modes(eq, trap, species)
    h = cv.hessian(eq.positions, trap, species) / species.mass
    resid = h @ spec.vectors - spec.vectors * spec.omega_sq[None, :]
    assert np.abs(resid).max() < 1e-8 * np.abs(spec.omega_sq).max()


def test_above_transition_all_real(trapped_10, species):
    eq, trap = trapped_10
    spec = cv.normal_modes(eq, trap, species)
    oop = spec.select(cv.OUT_OF_PLANE)
    assert not spec.imaginary[oop].any()
    # in-plane rotation zero mode may flip sign numerically; everything
    # else must be positive
    inp = spec.select(cv.IN_PLANE)
    w2 = np.sort(spec.omega_sq[inp])
    assert (w2[1:] > 0).all()


def test_below_transition_soft_mode_imaginary(bare_trap_21, species, eq10_21):
    eq = eq10_21[0]
    alpha_tr = cv.find_alpha_tr(eq, bare_trap_21, species).alpha_tr
    trap = bare_trap_21.with_depth(
        cv.depth_for_aspect(bare_trap_21, species, 0.9 * alpha_tr)
    )
    spec = cv.normal_modes(eq, trap, species)
    omega, imag = cv.out_of_plane_lowest(spec)
    assert imag
    assert omega > 0


def test_com_label_and_frequency_uniform_limit(species, eq10_100, bare_trap_100):
    """With waist >> crystal the COM mode sits exactly at omega_z."""
    trap = bare_trap_100.with_waist(5e-3).with_depth(
        cv.depth_for_aspect(bare_trap_100, species, 4.0)
    )
    eq = eq10_100[0]
    spec = cv.label_modes(cv.normal_modes(eq, trap, species), eq)
    oop = spec.select(cv.OUT_OF_PLANE)
    top = oop[0]
    assert spec.labels[top] == LABEL_COM
    _, _, wz = cv.effective_frequencies(trap, species)
    assert spec.omega[top] == pytest.approx(wz, rel=1e-5)
    # COM pattern is uniform up to the envelope sag
    assert cv.amplitude_ratio(spec, top) > 0.999


def test_in_plane_com_modes_at_trap_frequencies(trapped_10, species):
    """Coulomb forces are translation invariant, so two in-plane modes sit
    exactly at omega_x and omega_y (the node lattice is dark in-plane)."""
    eq, trap = trapped_10
    spec = cv.normal_modes(eq, trap, species)
    inp = spec.select(cv.IN_PLANE)
    at_omega_r = [
        m for m in inp if abs(spec.omega[m] - OMEGA_R) < 1e-9 * OMEGA_R
    ]
    assert len(at_omega_r) == 2
    for m in at_omega_r:
        v = spec.vectors[:, m].reshape(-1, 3)
        # rigid in-plane translation: identical displacement on every ion
        assert np.abs(v - v[0]).max() < 1e-9 * np.abs(v).max()


def test_labels_cover_com_and_tilts(trapped_10, species):
    eq, trap = trapped_10
    spec = cv.label_modes(cv.normal_modes(eq, trap, species), eq)
    oop = spec.select(cv.OUT_OF_PLANE)
    labels = [spec.labels[m] for m in oop]
    assert labels.count(LABEL_COM) == 1
    assert labels.count(LABEL_TILT_X) == 1
    assert labels.count(LABEL_TILT_Y) == 1
    inp = spec.select(cv.IN_PLANE)
    assert all(spec.labels[m] is None for m in inp)


def test_labeled_vectors_still_orthonormal(trapped_10, species):
    eq, trap = trapped_10
    spec = cv.label_modes(cv.normal_modes(eq, trap, species), eq)
    gram = spec.vectors.T @ spec.vectors
    assert np.abs(gram - np.eye(30)).max() < 1e-10


def test_degenerate_tilts_rotated_to_axes(species, bare_trap_100, eq10_100):
    """Isotropic trap: the tilt pair is degenerate and the labeler must
    still resolve one x tilt and one y tilt."""
    trap = bare_trap_100.with_waist(5e-3).with_depth(
        cv.depth_for_aspect(bare_trap_100, species, 4.0)
    )
    eq = eq10_100[0]
    spec = cv.label_modes(cv.normal_modes(eq, trap, species), eq)
    oop = spec.select(cv.OUT_OF_PLANE)
    labels = [spec.labels[m] for m in oop]
    assert labels.count(LABEL_TILT_X) == 1
    assert labels.count(LABEL_TILT_Y) == 1
    tx = oop[labels.index(LABEL_TILT_X)]
    x = eq.xy[:, 0]
    pattern = spec.z_amplitudes(tx)
    overlap = (pattern @ (x / np.linalg.norm(x))) ** 2
    assert overlap > 0.95


def test_amplitude_ratio_range(trapped_10, species):
    eq, trap = trapped_10
    spec = cv.label_modes(cv.normal_modes(eq, trap, species), eq)
    oop = spec.select(cv.OUT_OF_PLANE)
    com = oop[[spec.labels[m] for m in oop].index(LABEL_COM)]
    ratio = cv.amplitude_ratio(spec, com)
    assert 0.0 < ratio <= 1.0


def test_label_other_for_high_order_patterns(trapped_10, species):
    eq, trap = trapped_10
    spec = cv.label_modes(cv.normal_modes(eq, trap, species), eq)
    oop = spec.select(cv.OUT_OF_PLANE)
    labels = [spec.labels[m] for m in oop]
    assert LABEL_OTHER in labels  # ten z modes, only four named patterns


def _labelled(spec):
    return sorted(spec.labels[m] for m in spec.select(cv.OUT_OF_PLANE)
                  if spec.labels[m] != LABEL_OTHER)


@pytest.mark.parametrize("n, allowed", [
    (1, [[LABEL_COM]]),
    (2, [[LABEL_COM, LABEL_TILT_X], [LABEL_COM, LABEL_TILT_Y]]),
    (3, [[LABEL_COM, LABEL_TILT_X, LABEL_TILT_Y]]),
])
def test_small_crystals_label_only_the_patterns_they_carry(n, allowed, species, bare_trap_100):
    """One ion carries only uniform motion, two a tilt along their axis, and
    three no x y pattern; runtime warnings are errors under the test suite."""
    trap = bare_trap_100.with_depth(cv.depth_for_aspect(bare_trap_100, species, 4.0))
    eq = cv.find_equilibria(n, bare_trap_100, species, n_restarts=4, seed=0)[0]
    spec = cv.label_modes(cv.normal_modes(eq, trap, species), eq)
    assert _labelled(spec) in allowed
    assert np.abs(spec.vectors.T @ spec.vectors - np.eye(3 * n)).max() < 1e-12


def test_square_on_the_axes_has_no_saddle(species, bare_trap_100):
    """x y = 0 at every ion of a square with its corners on the axes."""
    a = 5e-6
    xy = np.array([[a, 0.0], [0.0, a], [-a, 0.0], [0.0, -a]])
    trap = bare_trap_100.with_depth(cv.depth_for_aspect(bare_trap_100, species, 4.0))
    spec = cv.label_modes(cv.normal_modes(xy, trap, species), xy)
    assert _labelled(spec) == [LABEL_COM, LABEL_TILT_X, LABEL_TILT_Y]
    assert LABEL_SADDLE not in spec.labels


@pytest.mark.parametrize("dim, k", [(5, 3), (30, 4), (300, 4)])
def test_gram_schmidt_matches_qr(dim, k):
    a = np.random.default_rng(dim).normal(size=(dim, k))
    q = np.zeros_like(a)
    assert _gram_schmidt(a.T, np.full(k, 1e-16) * np.sum(a * a, axis=0), q) == list(range(k))
    assert np.abs(q.T @ q - np.eye(k)).max() < 1e-14
    ref, _ = np.linalg.qr(a)
    signs = np.sign(np.sum(q * ref, axis=0))  # each column is fixed up to sign
    assert np.abs(q - ref * signs).max() < 1e-13


def test_gram_schmidt_leaves_dependent_columns_zero():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 4))
    a[:, 2] = a[:, 0] - 2.0 * a[:, 1]
    q = np.zeros_like(a)
    assert _gram_schmidt(a.T, np.full(4, 1e-16) * np.sum(a * a, axis=0), q) == [0, 1, 3]
    assert np.all(q[:, 3] == 0.0)
    # a full space takes no more: three columns span three dimensions
    wide = rng.normal(size=(3, 5))
    q = np.zeros_like(wide)
    assert _gram_schmidt(wide.T, np.zeros(5), q) == [0, 1, 2]
    assert np.all(q[:, 3:] == 0.0)


def test_overlaps_do_not_depend_on_memory_placement(trapped_10, species):
    """A group of modes and the label basis, copied to each 8-byte offset of
    a 64-byte span, give the same overlap bits, equal to sub.T @ b to
    rounding."""
    eq, trap = trapped_10
    spec = cv.normal_modes(eq, trap, species)
    sub = np.column_stack([spec.vectors[2::3, i] for i in spec.select(cv.OUT_OF_PLANE)[1:3]])
    basis = _label_basis(eq.positions.reshape(-1, 3)[:, :2])
    versions = set()
    for offset in range(8):
        placed = []
        for a in (sub, basis):
            buf = np.empty(a.size + 8)
            placed.append(buf[offset:offset + a.size].reshape(a.shape))
            placed[-1][...] = a
        overlaps = np.array([_overlaps(placed[0], b) for b in placed[1].T])
        versions.add(overlaps.tobytes())
    assert len(versions) == 1
    assert np.abs(overlaps - basis.T @ sub).max() < 1e-15
