"""Normal modes of a planar crystal: spectrum, partition, and labels.

At a planar equilibrium the z block of the Hessian decouples exactly from
the xy block (mirror symmetry about the crystal plane), so the two are
diagonalized separately and reassembled into one 3N spectrum. Modes are
mass weighted; with a single species that is a uniform 1/m scaling, so
eigenvalues are omega^2 directly and eigenvectors stay orthonormal.

Out-of-plane modes get semantic labels by projecting onto the polynomial
basis {1, x, y, xy} evaluated at the ion positions: uniform motion is the
center-of-mass mode, linear patterns are the two tilts, and the bilinear
pattern is the saddle mode. The basis is orthonormalised by modified
Gram-Schmidt; a pattern the positions cannot carry (with one ion, two, or
x y = 0 at every ion) is a zero column and labels no mode.
"""

from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import _coulomb_z, _xy
from .potential import optical_z_curvature, planar_hessian

OUT_OF_PLANE = "out_of_plane"
IN_PLANE = "in_plane"

LABEL_COM = "com"
LABEL_TILT_X = "tilt_x"
LABEL_TILT_Y = "tilt_y"
LABEL_SADDLE = "saddle_xy"
LABEL_OTHER = "other"

DEGENERACY_RTOL = 1e-6
LABEL_OVERLAP_THRESHOLD = 0.5


@dataclass(frozen=True)
class ModeSpectrum:
    """3N normal modes, out-of-plane partition first, descending within each.

    omega_sq keeps the signed eigenvalues; omega holds magnitudes with the
    imaginary flags marking omega_sq < 0 (planar configuration past the
    2D-3D transition).
    """

    omega: np.ndarray        # rad/s magnitudes
    omega_sq: np.ndarray     # signed (rad/s)^2
    vectors: np.ndarray      # (3N, 3N), column m is mode m
    partition: tuple         # per-mode OUT_OF_PLANE / IN_PLANE
    imaginary: np.ndarray    # per-mode bool
    labels: tuple = None     # per-mode, filled by label_modes

    @property
    def n_modes(self):
        return len(self.omega)

    def select(self, which):
        """Indices of modes in the given partition."""
        return np.array([i for i, p in enumerate(self.partition) if p == which])

    def z_amplitudes(self, mode_index):
        """Per-ion z displacement pattern of an out-of-plane mode."""
        return self.vectors[2::3, mode_index]


def _descending_eigh(a):
    """Eigenpairs of the symmetric a, largest eigenvalue first."""
    w, v = np.linalg.eigh(a)
    return w[::-1], v[:, ::-1]


def normal_modes(eq, trap, species):
    """Eigendecomposition of the mass-weighted Hessian at a planar equilibrium."""
    xy = _xy(eq)
    n = len(xy)
    m = species.mass

    z_block = _coulomb_z(eq) / m
    z_block += np.diag(
        trap.optical.depth * optical_z_curvature(xy, trap.optical) / m
        - trap.omega_z_dc**2
    )
    w2_z, vec_z = _descending_eigh(z_block)
    w2_xy, vec_xy = _descending_eigh(planar_hessian(xy.ravel(), trap, species) / m)

    vectors = np.zeros((3 * n, 3 * n))
    vectors[2::3, :n] = vec_z
    vectors[0::3, n:] = vec_xy[0::2]
    vectors[1::3, n:] = vec_xy[1::2]
    omega_sq = np.concatenate([w2_z, w2_xy])
    return ModeSpectrum(
        omega=np.sqrt(np.abs(omega_sq)),
        omega_sq=omega_sq,
        vectors=vectors,
        partition=(OUT_OF_PLANE,) * n + (IN_PLANE,) * (2 * n),
        imaginary=omega_sq < 0.0,
    )


def _gram_schmidt(columns, floor_sq, q, count=0):
    """Modified Gram-Schmidt of the vectors in columns into q, whose first count
    columns are orthonormal. Vector j, less its projections on the columns
    taken so far, is normalised into the next column if its squared norm
    exceeds floor_sq[j], else dropped. Stops once q is full or its columns
    span the space; returns the indices taken."""
    taken, full = [], min(q.shape)
    for j, v in enumerate(columns):
        if count == full:
            break
        for i in range(count):
            v = v - q[:, i].dot(v) * q[:, i]
        weight = v.dot(v)
        if weight > floor_sq[j]:
            q[:, count] = v / np.sqrt(weight)
            taken.append(j)
            count += 1
    return taken


# a remainder within this fraction of its vector's norm is rounding noise
_INDEPENDENCE_RTOL = 1e-8


def _label_basis(xy):
    """Orthonormal columns of {1, x, y, xy} at the ion positions, zero for a
    pattern the earlier ones span at those positions."""
    x, y = xy[:, 0], xy[:, 1]
    raw = np.column_stack([np.ones(len(xy)), x, y, x * y])
    q = np.zeros_like(raw)
    taken = _gram_schmidt(raw.T, _INDEPENDENCE_RTOL**2 * np.sum(raw * raw, axis=0), q)
    basis = np.zeros_like(raw)
    basis[:, taken] = q[:, :len(taken)]
    return basis


_BASIS_LABELS = (LABEL_COM, LABEL_TILT_X, LABEL_TILT_Y, LABEL_SADDLE)


def _overlaps(sub, b):
    """sub.T @ b as a plain sum of products down each column. A BLAS
    matrix-vector product can round differently with where sub lies in
    memory; this sum's order is fixed by the shape alone."""
    return (sub * b[:, None]).sum(axis=0)


def label_modes(spectrum, eq):
    """Attach COM/tilt/saddle labels to the out-of-plane modes.

    Degenerate groups (frequencies within DEGENERACY_RTOL) are rotated to
    the basis-overlap-maximizing orthogonal combination before labeling,
    since individual eigenvectors of a degenerate pair are arbitrary.
    Returns a new spectrum; in-plane modes keep label None.
    """
    xy = _xy(eq)
    basis = _label_basis(xy)
    z_idx = spectrum.select(OUT_OF_PLANE)
    vecs = spectrum.vectors.copy()

    groups = []
    for i in z_idx:
        if groups and abs(spectrum.omega[i] - spectrum.omega[groups[-1][-1]]) <= (
            DEGENERACY_RTOL * max(spectrum.omega[i], spectrum.omega[groups[-1][-1]])
        ):
            groups[-1].append(i)
        else:
            groups.append([i])

    patterns = list(basis.T)
    overlap_floor = (LABEL_OVERLAP_THRESHOLD,) * len(patterns)
    labels = [None] * spectrum.n_modes
    for group in groups:
        sub = np.column_stack([vecs[2::3, i] for i in group])
        rot = np.zeros((len(group), len(group)))
        # with nothing taken no mode of the group is labelled either: a single
        # mode's overlap with a basis vector is at most the group's weight
        taken = _gram_schmidt([_overlaps(sub, b) for b in patterns], overlap_floor, rot)
        if taken:
            _gram_schmidt(np.eye(len(group)), (_INDEPENDENCE_RTOL**2,) * len(group),
                          rot, len(taken))
            vecs[2::3, group] = sub @ rot
        for slot, i in enumerate(group):
            labels[i] = _BASIS_LABELS[taken[slot]] if slot < len(taken) else LABEL_OTHER
    return replace(spectrum, vectors=vecs, labels=tuple(labels))
