import math

import numpy as np
import pytest

import cavitrap as cv
from cavitrap.modes import normal_modes, out_of_plane_lowest

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
        _, imag = out_of_plane_lowest(normal_modes(eq, deep, species))
        assert imag == should_buckle


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


def test_fit_power_law_errors():
    with pytest.raises(cv.FitError):
        cv.fit_power_law([(10, 1.0), (20, 1.2)])
    with pytest.raises(cv.FitError):
        cv.fit_power_law([(10, 1.0), (20, -1.2), (30, 1.4)])


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


def test_bracket_error_when_no_transition(species):
    """An absurdly over-confined case: alpha_tr below any bracket start is
    still found; a crystal that cannot be stabilized raises."""
    optical = cv.OpticalTrapConfig(1064e-9, 0.8e-6, 0.0, cv.NODE_SIN2)
    trap = cv.make_trap(OMEGA_R, optical)
    eq = cv.find_equilibria(30, trap, species, n_restarts=6, seed=0)[0]
    # beam much narrower than the crystal: outer ions see almost no lattice
    with pytest.raises(cv.BracketError):
        cv.find_alpha_tr(eq, trap, species)
