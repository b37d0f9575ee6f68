"""Normal modes of a planar crystal: spectrum, partition, and labels.

At a planar equilibrium the z block of the Hessian decouples exactly from
the xy block (mirror symmetry about the crystal plane), so the two are
diagonalized separately and reassembled into one 3N spectrum. Modes are
mass weighted; with a single species that is a uniform 1/m scaling, so
eigenvalues are omega^2 directly and eigenvectors stay orthonormal.

The two solves overlap on two CPUs: a short-lived helper thread solves the
z block while the calling thread solves the in-plane block. numpy's LAPACK
releases the interpreter lock, and each solve keeps its input, its routine
and its one BLAS thread, so the spectrum is the serial one to the bit.

Out-of-plane modes get semantic labels by projecting onto the polynomial
basis {1, x, y, xy} evaluated at the ion positions: uniform motion is the
center-of-mass mode, linear patterns are the two tilts, and the bilinear
pattern is the saddle mode. The basis is orthonormalised by modified
Gram-Schmidt; a pattern the positions cannot carry (with one ion, two, or
x y = 0 at every ion) is a zero column and labels no mode.
"""

import threading
from dataclasses import dataclass, replace
from functools import cached_property

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
        """Indices of modes in the given partition, read-only; the out-of-plane
        set is computed once per spectrum."""
        if which == OUT_OF_PLANE:
            return self._out_of_plane
        return _indices_of(self.partition, which)

    @cached_property
    def _out_of_plane(self):
        return _indices_of(self.partition, OUT_OF_PLANE)

    def z_amplitudes(self, mode_index):
        """Per-ion z displacement pattern of an out-of-plane mode."""
        return self.vectors[2::3, mode_index]


def _indices_of(partition, which):
    """Read-only indices of the entries of partition equal to which."""
    idx = np.array([i for i, p in enumerate(partition) if p == which], dtype=int)
    idx.flags.writeable = False
    return idx


def _descending_eigh(a):
    """Eigenpairs of the symmetric a, largest eigenvalue first."""
    w, v = np.linalg.eigh(a)
    return w[::-1], v[:, ::-1]


def _run_into(out, fn, *args):
    """Append fn(*args), or the exception it raised, to out."""
    try:
        out.append(fn(*args))
    except BaseException as exc:  # raised again by the thread that joins
        out.append(exc)


def normal_modes(eq, trap, species):
    """Eigendecomposition of the mass-weighted Hessian at a planar equilibrium.

    The z block is solved on a helper thread while this thread solves the
    in-plane block; the helper is joined before the call returns, and its
    error, if any, is raised here. Both are np.linalg.eigh on the block the
    serial solve would get, so every bit is the serial one.
    """
    xy = _xy(eq)
    n = len(xy)
    m = species.mass

    z_block = _coulomb_z(eq) / m
    z_block.flat[::n + 1] += (
        trap.optical.depth * optical_z_curvature(xy, trap.optical) / m
        - trap.omega_z_dc**2
    )
    xy_block = planar_hessian(xy.ravel(), trap, species)
    xy_block /= m
    # started once the in-plane block is built, so that the two threads do
    # not trade the interpreter lock through its Python steps
    z_solve = []
    helper = threading.Thread(target=_run_into, args=(z_solve, _descending_eigh, z_block))
    helper.start()
    try:
        w2_xy, vec_xy = _descending_eigh(xy_block)
    finally:
        helper.join()
    if isinstance(z_solve[0], BaseException):
        raise z_solve[0]
    w2_z, vec_z = z_solve[0]

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

    A mode whose frequency no neighbour shares to DEGENERACY_RTOL takes the
    first basis pattern its overlap squared exceeds LABEL_OVERLAP_THRESHOLD
    for, with its sign turned to make that overlap positive; all such modes
    are labelled in one array pass. Degenerate groups are rotated to the
    basis-overlap-maximizing orthogonal combination before labeling, since
    individual eigenvectors of a degenerate pair are arbitrary.
    Returns a new spectrum; in-plane modes keep label None.
    """
    basis = _label_basis(_xy(eq))
    z_idx = spectrum.select(OUT_OF_PLANE)
    labels = [None] * spectrum.n_modes

    # group k starts at starts[k]; a mode joins its predecessor's group when
    # their frequencies agree to DEGENERACY_RTOL
    omega = spectrum.omega[z_idx]
    joins = np.abs(np.diff(omega)) <= DEGENERACY_RTOL * np.maximum(omega[1:], omega[:-1])
    starts = np.flatnonzero(np.concatenate(([True], ~joins)))
    sizes = np.diff(np.append(starts, len(omega)))

    # a mode alone: _overlaps of a group of one sums a contiguous column of
    # products, as a sum along a contiguous row does, and the Gram-Schmidt of
    # one column scales it by ov / sqrt(ov ov). The basis is orthonormal, so
    # at most four modes are named.
    lone = z_idx[starts[sizes == 1]]
    rows = spectrum.vectors[2::3][:, lone].T
    products = np.empty(rows.shape)  # C order: one contiguous row per mode
    ov = np.array([np.multiply(rows, b, out=products).sum(axis=1) for b in basis.T])
    del rows, products  # before the full copy below
    weight = ov * ov
    hit = weight > LABEL_OVERLAP_THRESHOLD
    named = hit.any(axis=0)
    first = np.argmax(hit, axis=0)
    for i, j, ok in zip(lone.tolist(), first.tolist(), named.tolist()):
        labels[i] = _BASIS_LABELS[j] if ok else LABEL_OTHER

    vecs = spectrum.vectors.copy()
    pick = first[named], np.flatnonzero(named)
    for i, scale in zip(lone[named], ov[pick] / np.sqrt(weight[pick])):
        vecs[2::3, i] *= scale

    patterns = list(basis.T)
    overlap_floor = (LABEL_OVERLAP_THRESHOLD,) * len(patterns)
    for start, size in zip(starts[sizes > 1], sizes[sizes > 1]):
        group = z_idx[start:start + size]
        sub = np.column_stack([vecs[2::3, i] for i in group])
        rot = np.zeros((size, size))
        # with nothing taken no mode of the group is labelled either: a single
        # mode's overlap with a basis vector is at most the group's weight
        taken = _gram_schmidt([_overlaps(sub, b) for b in patterns], overlap_floor, rot)
        if taken:
            _gram_schmidt(np.eye(size), (_INDEPENDENCE_RTOL**2,) * size, rot, len(taken))
            vecs[2::3, group] = sub @ rot
        for slot, i in enumerate(group):
            labels[i] = _BASIS_LABELS[taken[slot]] if slot < len(taken) else LABEL_OTHER
    return replace(spectrum, vectors=vecs, labels=tuple(labels))
