"""Total N-ion potential: Coulomb + DC quadrupole + cavity standing wave.

Energy, analytic gradient, and analytic Hessian in full 3D coordinates
(flat layout x1, y1, z1, x2, ...), plus fast planar (z = 0) variants used
by the equilibrium search and the barrier walks. Each 3D function is a
Coulomb pair pass plus one read of the shared per-ion DC and optical
kernel `_single_ion_terms`; they are the reference for the planar ones.
Finite differences live in the test suite as oracles, not here.

All Coulomb terms share one pair pass in per-axis form: `_pair_distances`
gives one contiguous (N, N) difference matrix per coordinate and the
separations, and `_coulomb_gradient` and `_coulomb_hessian` work on those
in any dimension. No (N, N, dim) array is built, because numpy walks a
short trailing axis element by element. The planar energy and gradient
come from one such pass (`planar_energy_gradient`).

The optical term for one ion is written as

    u = U * A(z) * E(x, y, z) * S(z)

with A = w0^2/w(z)^2 the envelope gain, E = exp(-2 rho^2 / w(z)^2), and
S = sin^2(kz) - s0 where s0 = 0 for the node_sin2 variant and s0 = 1 for
antinode_cos2 (so the antinode well is the sin^2 lattice minus a plain
Gaussian well, and one set of derivative formulas covers both).
"""

from dataclasses import dataclass

import numpy as np

from .core import ANTINODE_COS2, CONST
from .errors import SingularConfigurationError

# Below this pair separation the potential is treated as singular rather
# than huge, so optimizers cannot silently exploit the 1/r pole.
PAIR_DISTANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class EnergyBreakdown:
    coulomb: float
    dc: float
    optical: float

    @property
    def total(self):
        return self.coulomb + self.dc + self.optical


def _as_points(coords, dim):
    pts = np.asarray(coords, dtype=float).reshape(-1, dim)
    if not np.all(np.isfinite(pts)):
        raise SingularConfigurationError("non-finite coordinate")
    return pts


def _pair_distances(pts):
    """Per-axis pair geometry of (N, dim) points: (d, r).

    d[k, i, j] = p[j, k] - p[i, k], so each d[k] is one contiguous (N, N)
    matrix, and r[i, j] = |p_j - p_i|, +inf on the diagonal.
    """
    c = np.ascontiguousarray(pts.T)
    d = c[:, None, :] - c[:, :, None]
    r = d[0] * d[0]
    for dk in d[1:]:
        r += dk * dk
    np.sqrt(r, out=r)
    np.fill_diagonal(r, np.inf)
    if r.min() < PAIR_DISTANCE_FLOOR:
        raise SingularConfigurationError(
            f"ion pair closer than {PAIR_DISTANCE_FLOOR:g} m"
        )
    return d, r


def _coulomb_gradient(d, r):
    """(N, dim) Coulomb gradient, -kq sum_j (p_i - p_j) / r^3 for each ion i.

    The sum over d[k, j, i] = p_i - p_j adds the ions j in order, one row
    at a time, so it rounds like a sequential sum over j.
    """
    return (-CONST.coulomb_coefficient * (d / r**3).sum(axis=1)).T


def _coulomb_hessian(d, r):
    """(dim*N, dim*N) Coulomb Hessian: pair blocks kq (I/r^3 - 3 d d^T / r^5)
    for i != j, and minus the row sum of the pair blocks on the diagonal.

    Each of the dim^2 blocks is an (N, N) matrix, symmetric to the last bit,
    so its column sums are its row sums.
    """
    dim, n = len(d), len(r)
    kq = CONST.coulomb_coefficient
    inv3 = 1.0 / r**3
    three_inv5 = 3.0 * (1.0 / r**5)
    hess = np.empty((n, dim, n, dim))
    for k in range(dim):
        for l in range(k, dim):
            block = kq * ((inv3 if k == l else 0.0) - d[k] * d[l] * three_inv5)
            np.fill_diagonal(block, -block.sum(axis=0))
            hess[:, k, :, l] = block
            hess[:, l, :, k] = block
    return hess.reshape(dim * n, dim * n)


def _single_ion_terms(pts, trap, species):
    """Per-ion DC and optical terms of (N, 3) points.

    Returns (DC energy per ion, optical energy per ion, (N, 3) gradient,
    (N, 3, 3) Hessian blocks); the gradient and the blocks sum both terms.
    With p = U A E, u = p S, f = -4 / w(z)^2 (so d ln E/dx = f x) and
    g = d ln(A E)/dz, the optical gradient is u f (x, y) in the plane and
    p (g S + S') along z.
    """
    omega_sq = np.array([trap.omega_x_dc, trap.omega_y_dc, trap.omega_z_dc]) ** 2
    spring = species.mass * omega_sq * [1.0, 1.0, -1.0]  # the DC field defocuses z
    grad = spring * pts  # the DC gradient; the optical one is added below
    e_dc = 0.5 * (grad * pts).sum(axis=1)
    blocks = np.zeros((len(pts), 3, 3)) + np.diag(spring)

    opt = trap.optical
    k = opt.lattice_wavenumber
    xy, z = pts[:, :2], pts[:, 2]
    qpp = 2.0 * opt.waist**2 / opt.rayleigh_range**2  # q = w(z)^2 = w0^2 + qpp z^2 / 2
    q = opt.waist**2 + 0.5 * qpp * z**2
    qp = qpp * z
    s0 = 1.0 if opt.lattice_variant == ANTINODE_COS2 else 0.0
    s = np.sin(k * z) ** 2 - s0
    sp = k * np.sin(2.0 * k * z)
    spp = 2.0 * k**2 * np.cos(2.0 * k * z)
    rho2 = xy[:, 0] ** 2 + xy[:, 1] ** 2
    p = opt.depth * (opt.waist**2 / q) * np.exp(-2.0 * rho2 / q)
    u = p * s
    f = -4.0 / q
    g = (qp / q) * (2.0 * rho2 / q - 1.0)
    g_z = (qpp * q - qp**2) / q**2 * (2.0 * rho2 / q - 1.0) - 2.0 * rho2 * qp**2 / q**3

    grad[:, :2] += (u * f)[:, None] * xy
    grad[:, 2] += p * (g * s + sp)
    # u_ab = u f (delta_ab + f a b) in the plane; x*y == y*x keeps it symmetric
    outer = xy[:, :, None] * xy[:, None, :]
    blocks[:, :2, :2] += (u * f)[:, None, None] * (np.eye(2) + f[:, None, None] * outer)
    mixed = (f * p * (g * s + sp - s * qp / q))[:, None] * xy
    blocks[:, :2, 2] += mixed
    blocks[:, 2, :2] += mixed
    blocks[:, 2, 2] += p * ((g**2 + g_z) * s + 2.0 * g * sp + spp)
    return e_dc, u, grad, blocks


def total_energy(coords, trap, species):
    """EnergyBreakdown of the three potential terms at the given 3N coordinates."""
    pts = _as_points(coords, 3)
    _, r = _pair_distances(pts)
    e_coulomb = 0.5 * CONST.coulomb_coefficient * np.sum(1.0 / r)
    e_dc, e_opt, _, _ = _single_ion_terms(pts, trap, species)
    return EnergyBreakdown(float(e_coulomb), float(e_dc.sum()), float(e_opt.sum()))


def gradient(coords, trap, species):
    """Analytic gradient of the total potential, flat 3N vector in J/m."""
    pts = _as_points(coords, 3)
    grad = _coulomb_gradient(*_pair_distances(pts))
    grad += _single_ion_terms(pts, trap, species)[2]
    return grad.ravel()


def hessian(coords, trap, species):
    """Analytic Hessian of the total potential, (3N, 3N) in J/m^2."""
    pts = _as_points(coords, 3)
    hess = _coulomb_hessian(*_pair_distances(pts))
    n = len(pts)
    ion = np.arange(n)
    blocks = hess.reshape(n, 3, n, 3)  # a view: blocks[i, :, i, :] is ion i's 3x3
    blocks[ion, :, ion, :] += _single_ion_terms(pts, trap, species)[3]
    return hess


# ---------------------------------------------------------------------------
# Planar (z = 0) fast paths. The equilibrium search and the barrier walks
# restrict the ions to the z = 0 plane, where the lattice profile reduces to
# S = -s0 and the envelope to exp(-2 rho^2 / w0^2).


def _planar_optical(x, y, optical):
    """(per-ion optical energy, w0^2) at plane x, y of any shape; None if dark."""
    if optical.lattice_variant != ANTINODE_COS2 or optical.depth == 0.0:
        return None
    rho2 = x**2 + y**2
    q = optical.waist**2
    u = -optical.depth * np.exp(-2.0 * rho2 / q)
    return u, q


def planar_energy_gradient(xy, trap, species):
    """(total potential, flat 2N gradient) of a flat (x1, y1, x2, ...) planar
    configuration, both from one pair pass."""
    pts = _as_points(xy, 2)
    d, r = _pair_distances(pts)
    e = 0.5 * CONST.coulomb_coefficient * (1.0 / r).sum()
    grad = _coulomb_gradient(d, r)
    m = species.mass
    e += 0.5 * m * np.sum(
        trap.omega_x_dc**2 * pts[:, 0] ** 2 + trap.omega_y_dc**2 * pts[:, 1] ** 2
    )
    grad[:, 0] += m * trap.omega_x_dc**2 * pts[:, 0]
    grad[:, 1] += m * trap.omega_y_dc**2 * pts[:, 1]
    planar_opt = _planar_optical(pts[:, 0], pts[:, 1], trap.optical)
    if planar_opt is not None:
        u, q = planar_opt
        e += np.sum(u)
        grad += (-4.0 * u / q)[:, None] * pts
    return float(e), grad.ravel()


def planar_energy(xy, trap, species):
    """Total potential of a planar configuration, flat (x1, y1, x2, ...) input."""
    return planar_energy_gradient(xy, trap, species)[0]


def _column_sums(block):
    """Per-column sums of an (m, B) block, each rounded as numpy rounds the
    sum of a contiguous row of m values: in order while m < 8 (numpy's
    pairwise sum adds fewer than 8 elements one by one, as a sum down the
    block does), else as rows of a transposed contiguous copy."""
    if len(block) < 8:
        return block.sum(axis=0)
    return np.ascontiguousarray(block.T).sum(axis=1)


def planar_energy_batch(xy_batch, trap, species):
    """planar_energy vectorized over rows of a (B, 2N) array.

    Works ion-major: x and y become contiguous (N, B) planes, and ion i's
    partners j > i form one (N - 1 - i, B) block, so every pass runs over
    all B samples and the largest temporaries are two (N - 1, B) buffers;
    memory grows as B*N, not B*N^2. Each sample's sums keep the order of
    a sum over a row of the row-major (B, N) layout, so every energy is
    bitwise the one a loop over rows gives.
    """
    batch = np.asarray(xy_batch, dtype=float)
    x = np.ascontiguousarray(batch[:, 0::2].T)
    y = np.ascontiguousarray(batch[:, 1::2].T)
    n = len(x)
    inv_r = np.zeros(len(batch))
    dx, dy = np.empty((2, max(n - 1, 0), len(batch)))
    for i in range(n - 1):
        bx, by = dx[: n - 1 - i], dy[: n - 1 - i]
        np.subtract(x[i + 1 :], x[i], out=bx)
        np.subtract(y[i + 1 :], y[i], out=by)
        bx *= bx
        by *= by
        bx += by
        np.sqrt(bx, out=bx)
        inv_r += _column_sums(np.divide(1.0, bx, out=bx))
    e = CONST.coulomb_coefficient * inv_r
    m = species.mass
    e += 0.5 * m * _column_sums(trap.omega_x_dc**2 * x**2 + trap.omega_y_dc**2 * y**2)
    planar_opt = _planar_optical(x, y, trap.optical)
    if planar_opt is not None:
        e += _column_sums(planar_opt[0])
    return e


def planar_gradient(xy, trap, species):
    """In-plane gradient of the planar potential, flat 2N vector."""
    return planar_energy_gradient(xy, trap, species)[1]


def planar_hessian(xy, trap, species):
    """In-plane Hessian of the planar potential, (2N, 2N)."""
    pts = _as_points(xy, 2)
    hess = _coulomb_hessian(*_pair_distances(pts))
    m = species.mass
    d = 2 * np.arange(len(pts))
    hess[d, d] += m * trap.omega_x_dc**2
    hess[d + 1, d + 1] += m * trap.omega_y_dc**2
    x, y = pts[:, 0], pts[:, 1]
    planar_opt = _planar_optical(x, y, trap.optical)
    if planar_opt is not None:
        u, q = planar_opt
        hess[d, d] += (-4.0 * u / q) * (1.0 - 4.0 * x**2 / q)
        hess[d + 1, d + 1] += (-4.0 * u / q) * (1.0 - 4.0 * y**2 / q)
        off = u * 16.0 * x * y / q**2
        hess[d, d + 1] += off
        hess[d + 1, d] += off
    return hess


def coulomb_z_block(xy):
    """Coulomb contribution to the z-z Hessian block of a planar crystal.

    Off-diagonal entries are +kq/r^3, the diagonal carries minus the row
    sums, so the matrix annihilates the uniform vector and is negative
    semidefinite (the Coulomb repulsion softens out-of-plane motion).
    """
    pts = _as_points(xy, 2)
    _, r = _pair_distances(pts)
    kq = CONST.coulomb_coefficient
    a = kq / r**3  # 0 on the diagonal, where r is +inf
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def optical_z_curvature(xy, optical):
    """Per-ion z-z curvature of the optical term at z = 0, per unit depth.

    For the sin^2 lattice this is 2 k^2 exp(-2 rho^2 / w0^2); the antinode
    variant picks up a tiny envelope correction from the Rayleigh-range
    divergence. Multiply by the actual depth to get J/m^2.
    """
    pts = _as_points(xy, 2)
    rho2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    q = optical.waist**2
    env = np.exp(-2.0 * rho2 / q)
    k = optical.lattice_wavenumber
    curv = 2.0 * k**2 * env
    if optical.lattice_variant == ANTINODE_COS2:
        qpp = 2.0 * optical.waist**2 / optical.rayleigh_range**2
        curv -= env * (qpp / q) * (2.0 * rho2 / q - 1.0)
    return curv
