import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

import cavitrap as cv
from cavitrap import transition

OMEGA_R = 2.0 * math.pi * 0.5e6


@pytest.fixture(scope="module")
def eq30_21(bare_trap_21, species):
    return cv.find_equilibria(30, bare_trap_21, species, n_restarts=6, seed=0)


def test_eigensolve_matches_uniform_shortcut(eq10_21, bare_trap_21, species):
    """At waist >> crystal the direct solve must land on the analytic
    largest-eigenvalue expression."""
    trap = bare_trap_21.with_waist(50e-3)
    eq = eq10_21[0]
    point = cv.find_alpha_tr(eq, trap, species)
    shortcut = cv.alpha_tr_uniform(eq, trap, species)
    assert abs(point.alpha_tr - shortcut) / shortcut < 1e-7


@pytest.mark.parametrize("variant", [cv.NODE_SIN2, cv.ANTINODE_COS2])
@pytest.mark.parametrize("crystal, w0, alpha_min", [
    pytest.param("eq10_21", 21e-6, 0.0, id="n10_w21um"),
    pytest.param("eq30_21", 9e-6, 10.0, id="n30_w9um"),  # alpha_tr ~ 20
])
def test_alpha_tr_brackets_soft_mode_sign(crystal, w0, alpha_min, variant,
                                          species, request):
    """The softest out-of-plane mode buckles just below alpha_tr and not
    above, also far past alpha = 10 for a beam narrower than the crystal."""
    eq = request.getfixturevalue(crystal)[0]
    trap = cv.make_trap(OMEGA_R, cv.OpticalTrapConfig(1064e-9, w0, 0.0, variant))
    point = cv.find_alpha_tr(eq, trap, species)
    assert point.stability == cv.STABLE
    assert point.w0_over_rmax == pytest.approx(w0 / eq.r_max, rel=1e-12)
    assert point.alpha_tr > alpha_min
    for factor, should_buckle in ((0.98, True), (1.02, False)):
        deep = trap.with_depth(
            cv.depth_for_aspect(trap, species, factor * point.alpha_tr)
        )
        spectrum = cv.normal_modes(eq, deep, species)
        softest = spectrum.omega_sq[spectrum.select(cv.OUT_OF_PLANE)].min()
        assert (softest < 0.0) == should_buckle


@pytest.fixture(scope="module")
def oracle_crystals(bare_trap_100, species):
    return {n: cv.find_equilibria(n, bare_trap_100, species, n_restarts=2, seed=0)[0]
            for n in (2, 10, 30, 120)}


def _pencil(eq, trap, species):
    """(L, B) with alpha_tr^2 = lambda_max(L, B), written out afresh:
    L = m omega_z_dc^2 I - A - U0 diag(c) and B = U1 diag(c)."""
    curv = cv.optical_z_curvature(eq.xy, trap.optical)
    u0 = cv.depth_for_aspect(trap, species, 0.0)
    u1 = cv.depth_for_aspect(trap, species, 1.0) - u0
    lhs = np.diag(species.mass * trap.omega_z_dc**2 - u0 * curv) - cv.coulomb_z_block(eq.xy)
    return lhs, u1 * curv


@pytest.mark.parametrize("variant", [cv.NODE_SIN2, cv.ANTINODE_COS2])
@pytest.mark.parametrize("n", [2, 10, 30, 120])
def test_alpha_tr_matches_full_spectrum_and_generalized_pencil(n, variant, oracle_crystals,
                                                              species):
    """The one-end solve gives the top of the full spectrum of the same
    scaled pencil, and the generalized pencil's largest eigenvalue. It is
    bitwise scipy's subset solve of the scaled pencil built in C order: the
    Fortran-order buffer find_alpha_tr hands LAPACK holds the same matrix."""
    eq = oracle_crystals[n]
    for factor in (1.5, 3.0, 6.0, 20.0):
        trap = cv.make_trap(OMEGA_R, cv.OpticalTrapConfig(
            1064e-9, factor * eq.r_max, 0.0, variant))
        alpha = cv.find_alpha_tr(eq, trap, species).alpha_tr
        assert alpha > 0
        lhs, b = _pencil(eq, trap, species)
        scale = 1.0 / np.sqrt(b)
        pencil = scale[:, None] * lhs * scale[None, :]
        assert alpha == math.sqrt(scipy.linalg.eigvalsh(pencil, subset_by_index=(n - 1, n - 1))[0])
        full = np.linalg.eigvalsh(pencil)[-1]
        assert alpha == pytest.approx(math.sqrt(full), rel=1e-13)
        general = scipy.linalg.eigh(lhs, np.diag(b), eigvals_only=True)[-1]
        assert alpha == pytest.approx(math.sqrt(general), rel=1e-10)


@pytest.mark.parametrize("n", [2, 10, 30, 120])
def test_alpha_tr_uniform_matches_full_spectrum(n, oracle_crystals, bare_trap_100, species):
    eq = oracle_crystals[n]
    a = -cv.coulomb_z_block(eq.xy) / species.mass
    alpha = cv.alpha_tr_uniform(eq, bare_trap_100, species)
    top = scipy.linalg.eigvalsh(a, subset_by_index=(n - 1, n - 1))[0]
    assert alpha == math.sqrt(top) / bare_trap_100.omega_r  # bitwise
    lam = np.linalg.eigvalsh(a)[-1]
    assert alpha == pytest.approx(math.sqrt(lam) / bare_trap_100.omega_r, rel=1e-13)


def test_transition_solves_one_end_only(oracle_crystals, bare_trap_100, species, monkeypatch):
    """Both transition points ask LAPACK dsyevr for the top eigenvalue only
    (range "I", il = iu = n) and leave the crystal's kept z block as it was."""
    eq = oracle_crystals[30]
    kept = np.array(eq._z_block)
    ranges = []
    dsyevr = scipy.linalg.lapack.dsyevr

    def one_end(a, **kwargs):
        ranges.append((len(a), kwargs["range"], kwargs["il"], kwargs["iu"]))
        return dsyevr(a, **kwargs)

    def full_spectrum(*args, **kwargs):
        raise AssertionError("full-spectrum eigensolve")
    monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", one_end)
    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, full_spectrum)
        monkeypatch.setattr(scipy.linalg, name, full_spectrum)
    trap = bare_trap_100.with_waist(3.0 * eq.r_max)
    cv.find_alpha_tr(eq, trap, species)
    cv.alpha_tr_uniform(eq, trap, species)
    assert ranges == [(30, "I", 30, 30), (30, "I", 30, 30)]
    assert np.array_equal(eq._z_block, kept)


@pytest.mark.parametrize("lo, hi", [(2, 60), (60, 150), (150, 301)])
def test_top_eigenvalue_is_eigvalsh_to_the_bit(lo, hi):
    """The direct dsyevr call gives scipy's subset eigvalsh bits, N = 2-300,
    on either side of LAPACK's blocked-reduction crossover."""
    rng = np.random.default_rng(lo)
    for n in range(lo, hi):
        a = rng.normal(size=(n, n))
        a += a.T
        want = scipy.linalg.eigvalsh(a.copy(), subset_by_index=(n - 1, n - 1),
                                     overwrite_a=True, check_finite=False)[0]
        assert transition._top_eigenvalue(a.copy()).tobytes() == want.tobytes(), n


def test_single_ion_never_buckles(bare_trap_21, species):
    eq = cv.find_equilibria(1, bare_trap_21, species, n_restarts=4, seed=0)[0]
    point = cv.find_alpha_tr(eq, bare_trap_21, species)
    assert point.alpha_tr == 0.0


def test_alpha_tr_grows_with_n(bare_trap_100, species):
    values = []
    for n in (5, 15, 40):
        eq = cv.find_equilibria(n, bare_trap_100, species, n_restarts=8, seed=0)[0]
        values.append(cv.find_alpha_tr(eq, bare_trap_100, species).alpha_tr)
    assert values[0] < values[1] < values[2]


def test_alpha_tr_shrinking_waist_raises_threshold(eq10_21, bare_trap_21, species):
    """Weaker confinement of the outer ions destabilizes the plane, so a
    tighter beam needs a larger aspect ratio."""
    eq = eq10_21[0]
    alphas = [
        cv.find_alpha_tr(eq, bare_trap_21.with_waist(w0), species).alpha_tr
        for w0 in (12e-6, 21e-6, 60e-6, 300e-6)
    ]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))
    # and the large-waist end approaches the uniform value from above
    uniform = cv.alpha_tr_uniform(eq, bare_trap_21, species)
    assert alphas[-1] == pytest.approx(uniform, rel=2e-3)
    assert alphas[-1] >= uniform * (1 - 1e-6)


def test_uniform_shortcut_scale_invariance(eq10_21, bare_trap_21, species):
    """alpha_tr is dimensionless: rescaling omega_r rescales positions by
    omega_r^(-2/3) and leaves the threshold unchanged."""
    eq = eq10_21[0]
    base = cv.alpha_tr_uniform(eq, bare_trap_21, species)
    scale = 2.0
    trap2 = cv.make_trap(OMEGA_R * scale, bare_trap_21.optical)
    xy2 = eq.xy * scale ** (-2.0 / 3.0)
    assert cv.alpha_tr_uniform(xy2, trap2, species) == pytest.approx(base, rel=1e-9)


def test_fit_power_law_exact():
    n = np.arange(10, 100, 10)
    fit = cv.fit_power_law([(int(k), 1.37 * k**0.21) for k in n])
    assert fit.prefactor == pytest.approx(1.37, rel=1e-10)
    assert fit.exponent == pytest.approx(0.21, rel=1e-10)
    assert fit.residual < 1e-12


def test_fit_power_law_matches_polyfit():
    rng = np.random.default_rng(4)
    n = np.arange(5, 125, 7)
    alpha = 2.3 * n**0.265 * np.exp(0.05 * rng.normal(size=len(n)))
    fit = cv.fit_power_law(zip(n.tolist(), alpha.tolist()))
    slope, intercept = np.polyfit(np.log(n), np.log(alpha), 1)
    resid = slope * np.log(n) + intercept - np.log(alpha)
    assert fit.exponent == pytest.approx(slope, rel=1e-12)
    assert fit.prefactor == pytest.approx(math.exp(intercept), rel=1e-12)
    assert fit.residual == pytest.approx(np.sqrt(np.mean(resid**2)), rel=1e-12)


def test_fit_power_law_errors():
    with pytest.raises(cv.FitError):
        cv.fit_power_law([(10, 1.0), (20, 1.2)])
    with pytest.raises(cv.FitError):
        cv.fit_power_law([(10, 1.0), (20, -1.2), (30, 1.4)])
    # three points at fewer than three distinct N determine no power law
    for points in ([(5, 1.0), (5, 1.0), (5, 1.0)], [(5, 1.0), (5, 1.1), (6, 1.2)]):
        with pytest.raises(cv.FitError, match="3 distinct N"):
            cv.fit_power_law(points)


def test_transition_scan_points(bare_trap_100, species):
    points = cv.transition_scan((4, 9), bare_trap_100, species,
                                n_restarts=8, seed=0)
    assert [p.n_ions for p in points] == [4, 9]
    assert all(p.stability == cv.STABLE for p in points)
    assert points[0].alpha_tr < points[1].alpha_tr


def test_waist_sweep_records_per_point(bare_trap_21, species):
    records = cv.waist_sweep(6, bare_trap_21, species,
                             [15e-6, 40e-6], n_restarts=8, seed=0)
    assert len(records) == 2
    for w0, point, error in records:
        assert error is None
        assert point.alpha_tr > 0
    assert records[0][1].alpha_tr > records[1][1].alpha_tr


def test_waist_sweep_records_bracket_error_and_continues(bare_trap_21, species):
    records = cv.waist_sweep(30, bare_trap_21, species,
                             [0.8e-6, 40e-6], n_restarts=6, seed=0)
    (_, narrow, narrow_error), (_, wide, wide_error) = records
    assert narrow is None and narrow_error.startswith("BracketError")
    assert wide_error is None and wide.alpha_tr > 0


@pytest.mark.parametrize("variant, depth_mk, searches", [
    (cv.NODE_SIN2, 0.0, 1),
    (cv.ANTINODE_COS2, 0.0, 1),
    (cv.NODE_SIN2, 1.0, 1),
    (cv.ANTINODE_COS2, 1.0, 3),
])
def test_waist_sweep_searches_again_only_where_the_plane_is_lit(
        monkeypatch, bare_trap_21, species, variant, depth_mk, searches):
    """A dark plane (a node, or no light) makes the crystal waist independent,
    so one search serves every waist; a lit antinode plane needs one per waist."""
    calls = []
    search = transition.find_equilibria
    monkeypatch.setattr(transition, "find_equilibria",
                        lambda *args, **kw: calls.append(args) or search(*args, **kw))
    optical = dataclasses.replace(bare_trap_21.optical, lattice_variant=variant,
                                  depth=depth_mk * 1e-3 * cv.CONST.boltzmann)
    trap = dataclasses.replace(bare_trap_21, optical=optical)
    records = cv.waist_sweep(6, trap, species, [15e-6, 21e-6, 40e-6], n_restarts=4)
    assert [error for _, _, error in records] == [None] * 3
    assert len(calls) == searches


def test_bracket_error_when_no_transition(species):
    """An absurdly over-confined case: alpha_tr below any bracket start is
    still found; a crystal that cannot be stabilized raises."""
    optical = cv.OpticalTrapConfig(1064e-9, 0.8e-6, 0.0, cv.NODE_SIN2)
    trap = cv.make_trap(OMEGA_R, optical)
    eq = cv.find_equilibria(30, trap, species, n_restarts=6, seed=0)[0]
    # beam much narrower than the crystal: outer ions see almost no lattice
    with pytest.raises(cv.BracketError):
        cv.find_alpha_tr(eq, trap, species)
