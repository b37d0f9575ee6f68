"""Acceptance suite: one test per published-number criterion.

Each test prints exactly one line,

    ACCEPTANCE <k> (<topic>): PASS|FAIL - <details>

before asserting, so a plain `pytest -s tests/test_acceptance.py` gives a
readable scorecard. Each test also compares its figures at full precision
with acceptance_scorecard.json beside this file (scorecard_moved), so drift
inside a band shows as a diff of that file. Criterion 6 carries a known
failing sub-band for the six-ion metastable barrier; see the README
acceptance notes.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.constants as sc

import cavitrap as cv
from cavitrap import cli
from cavitrap.lifetime import H2_MASS, H2_POLARIZABILITY
from cavitrap.modes import LABEL_COM, LABEL_TILT_X, LABEL_TILT_Y

MHZ = 2.0 * math.pi * 1e6
OMEGA_1064 = 2.0 * math.pi * sc.c / 1064e-9

TABLE_N = (5, 10, 20, 30)
PUB_RINGS = {5: (5,), 10: (2, 8), 20: (1, 7, 12), 30: (5, 10, 15)}
PUB_SPACING_UM = (5.7, 4.7, 4.8, 4.4)
PUB_RADIUS_UM = (4.8, 7.8, 10.9, 13.4)
PUB_WAIST_UM = (14.4, 21.0, 27.3, 26.8)
PUB_DEPTH_MK = (13.8, 17.3, 22.8, 28.8)
PUB_INTENSITY = (9.22e11, 1.16e12, 1.53e12, 1.93e12)
PUB_POWER_W = (0.31, 0.84, 1.9, 2.3)
PUB_GAMMA_OFF = (2.8, 3.6, 4.7, 5.9)
FINESSE = 3000.0


SCORECARD = Path(__file__).with_name("acceptance_scorecard.json")
_SPEC = importlib.util.spec_from_file_location(
    "environment", Path(__file__).resolve().parents[1] / "tools" / "environment.py")
_ENVIRONMENT = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_ENVIRONMENT)


def report(k, topic, ok, detail):
    print(f"\nACCEPTANCE {k} ({topic}): {'PASS' if ok else 'FAIL'} - {detail}")


def scorecard_moved(k, figures):
    """Criterion k's figures (name -> number) against the committed scorecard,
    at rel 1e-12 with no absolute slack; None when each one agrees.

    In the environment the scorecard names, a moved, missing or extra figure
    fails the test here. Elsewhere the bits may move without a code change,
    so the message, naming both environments, is returned for the test to
    xfail on once its bands are checked. The message carries the fresh
    figures as JSON, ready for the file if the move is meant.
    """
    card = json.loads(SCORECARD.read_text())
    want = card["criteria"][str(k)]
    fresh = {name: float(value) for name, value in figures.items()}
    moved = sorted(name for name in want.keys() | fresh.keys()
                   if name not in want or name not in fresh
                   or not math.isclose(fresh[name], want[name], rel_tol=1e-12, abs_tol=0.0))
    if not moved:
        return None
    message = f"criterion {k} figures {moved} moved; now {json.dumps(fresh)}"
    here = _ENVIRONMENT.environment()
    if here == card["environment"]:
        pytest.fail(message)
    return f"recorded on {card['environment']}, run on {here}: {message}"


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def table_pipeline(bare_trap_100, species):
    """Geometry and optics for the four published crystal sizes."""
    kappa = cv.stark_coefficient(species, OMEGA_1064)
    rows = {}
    for n, w_um in zip(TABLE_N, PUB_WAIST_UM):
        eq = cv.find_equilibria(n, bare_trap_100, species,
                                n_restarts=50, seed=0)[0]
        trap_w = bare_trap_100.with_waist(w_um * 1e-6)
        alpha = cv.find_alpha_tr(eq, trap_w, species).alpha_tr
        depth = cv.depth_for_aspect(trap_w, species, alpha)
        intensity = depth / kappa
        power = intensity * math.pi**2 * (w_um * 1e-6) ** 2 / (2.0 * FINESSE)
        gamma_off, _ = cv.scattering_rates(species, OMEGA_1064, intensity)
        rows[n] = dict(
            eq=eq,
            depth_mk=depth / sc.k * 1e3,
            intensity=intensity,
            power_w=power,
            gamma_off=gamma_off,
        )
    return rows


@pytest.fixture(scope="module")
def spin_stage(bare_trap_100, species, eq10_100):
    eq = eq10_100[0]
    trap = bare_trap_100.with_depth(
        cv.depth_for_aspect(bare_trap_100, species, 4.0)
    )
    spectrum = cv.normal_modes(eq, trap, species)
    z_max = spectrum.omega[spectrum.select(cv.OUT_OF_PLANE)].max()
    return eq, spectrum, z_max


# --------------------------------------------------------------- criteria


def test_criterion_1_transition_power_law(bare_trap_100, species):
    points = cv.transition_scan(
        range(30, 121, 10), bare_trap_100, species, n_restarts=8, seed=0
    )
    fit = cv.fit_power_law([(p.n_ions, p.alpha_tr) for p in points])
    ok = abs(fit.exponent - 0.265) <= 0.03 and abs(fit.prefactor - 1.1) <= 0.15
    report(
        1, "alpha_tr power law", ok,
        f"exponent {fit.exponent:.4f} (want 0.265 +- 0.03), "
        f"prefactor {fit.prefactor:.4f} (want 1.1 +- 0.15)",
    )
    moved = scorecard_moved(1, dict(exponent=fit.exponent, prefactor=fit.prefactor,
                                    residual=fit.residual))
    assert abs(fit.exponent - 0.265) <= 0.03
    assert abs(fit.prefactor - 1.1) <= 0.15
    if moved:
        pytest.xfail(moved)


def test_criterion_2_table_geometry(table_pipeline):
    details, ok = [], True
    for idx, n in enumerate(TABLE_N):
        eq = table_pipeline[n]["eq"]
        rings = tuple(eq.ring_configuration)
        r_um = eq.r_max * 1e6
        d_um = eq.d_min * 1e6
        good = (
            rings == PUB_RINGS[n]
            and within(r_um, PUB_RADIUS_UM[idx], 0.05)
            and within(d_um, PUB_SPACING_UM[idx], 0.05)
        )
        ok &= good
        details.append(f"N={n}: {list(rings)} r={r_um:.2f}um d={d_um:.2f}um")
    report(2, "Table I geometry", ok, "; ".join(details))
    figures = {}
    for n in TABLE_N:
        eq = table_pipeline[n]["eq"]
        figures[f"N{n} r_max_um"] = eq.r_max * 1e6
        figures[f"N{n} d_min_um"] = eq.d_min * 1e6
    moved = scorecard_moved(2, figures)
    for idx, n in enumerate(TABLE_N):
        eq = table_pipeline[n]["eq"]
        assert tuple(eq.ring_configuration) == PUB_RINGS[n]
        assert within(eq.r_max * 1e6, PUB_RADIUS_UM[idx], 0.05)
        assert within(eq.d_min * 1e6, PUB_SPACING_UM[idx], 0.05)
    if moved:
        pytest.xfail(moved)


def test_criterion_3_table_optics(table_pipeline, species):
    details, ok = [], True
    formula_ok = True
    figures = {}
    for idx, n in enumerate(TABLE_N):
        i_formula = cv.intensity_from_power(
            PUB_POWER_W[idx], FINESSE, PUB_WAIST_UM[idx] * 1e-6
        )
        formula_ok &= within(i_formula, PUB_INTENSITY[idx], 0.03)
        figures[f"N{n} intensity_formula_w_m2"] = i_formula
        figures[f"N{n} depth_mk"] = table_pipeline[n]["depth_mk"]
        figures[f"N{n} gamma_off_per_s"] = table_pipeline[n]["gamma_off"]
    depth_ok = all(
        within(table_pipeline[n]["depth_mk"], PUB_DEPTH_MK[i], 0.10)
        for i, n in enumerate(TABLE_N)
    )
    gamma_ok = all(
        within(table_pipeline[n]["gamma_off"], PUB_GAMMA_OFF[i], 0.25)
        for i, n in enumerate(TABLE_N)
    )
    ok = formula_ok and depth_ok and gamma_ok
    details = (
        f"intensity formula vs published within 3%: {formula_ok}; depths "
        + "/".join(f"{table_pipeline[n]['depth_mk']:.1f}" for n in TABLE_N)
        + " mK (want "
        + "/".join(f"{d}" for d in PUB_DEPTH_MK)
        + " +-10%); Gamma_off "
        + "/".join(f"{table_pipeline[n]['gamma_off']:.2f}" for n in TABLE_N)
        + " 1/s (want "
        + "/".join(f"{g}" for g in PUB_GAMMA_OFF)
        + " +-25%)"
    )
    report(3, "Table I optics", ok, details)
    moved = scorecard_moved(3, figures)
    assert formula_ok
    assert depth_ok
    assert gamma_ok
    if moved:
        pytest.xfail(moved)


def test_criterion_4_lifetime_identities(species):
    gamma_meta = 30.0 * species.branch_ratio_meta
    tau20 = cv.trapping_lifetime(gamma_meta, 20)
    ok = gamma_meta == pytest.approx(0.15, rel=1e-12) and tau20 == pytest.approx(
        1.0 / 3.0, rel=1e-12
    )
    report(
        4, "lifetime identities", ok,
        f"Gamma_meta {gamma_meta:.6g} 1/s (want 0.15), "
        f"tau(20) {tau20 * 1e3:.4g} ms (want 333.3)",
    )
    moved = scorecard_moved(4, dict(gamma_meta_per_s=gamma_meta, tau20_s=tau20))
    assert gamma_meta == pytest.approx(0.15, rel=1e-12)
    assert tau20 == pytest.approx(1.0 / 3.0, rel=1e-12)
    if moved:
        pytest.xfail(moved)


def test_criterion_5_collision_and_recoil(species):
    rate_hr = 3600.0 * cv.langevin_rate(
        1e-11 * 100.0, 300.0, H2_POLARIZABILITY, H2_MASS, species
    )
    e_rec_mk = cv.photon_recoil(1064e-9, species) / sc.k * 1e3
    ok = within(rate_hr, 1.3, 0.10) and within(e_rec_mk, 5e-5, 0.05)
    report(
        5, "background collisions and recoil", ok,
        f"Langevin {rate_hr:.4f}/hr (want 1.3 +-10%), "
        f"recoil {e_rec_mk:.3e} mK (want 5e-5 +-5%)",
    )
    moved = scorecard_moved(5, dict(langevin_per_hr=rate_hr, recoil_mk=e_rec_mk))
    assert within(rate_hr, 1.3, 0.10)
    assert within(e_rec_mk, 5e-5, 0.05)
    if moved:
        pytest.xfail(moved)


BARRIER_CASES = {
    # n: (stable target in mK, metastable band in mK)
    5: (456.0, (30.0, 80.0)),
    6: (532.0, (97.2, 226.8)),
    9: (230.0, (30.0, 80.0)),
}


@pytest.fixture(scope="module")
def barrier_results(bare_trap_100, species):
    out = {}
    params = cv.BarrierWalkParams()
    for n in BARRIER_CASES:
        eqs = cv.find_equilibria(n, bare_trap_100, species,
                                 n_restarts=40, seed=0)
        result = cv.barrier_pair(eqs[0], eqs[1], params,
                                 bare_trap_100, species)
        out[n] = (
            result["barrier_from_start"] * 1e3,
            result["barrier_from_other"] * 1e3,
        )
    return out


def test_criterion_6_barriers(barrier_results):
    details, ok = [], True
    checks = []
    for n, (stable_target, meta_band) in BARRIER_CASES.items():
        b_s, b_m = barrier_results[n]
        s_ok = within(b_s, stable_target, 0.40)
        m_ok = meta_band[0] <= b_m <= meta_band[1]
        ok &= s_ok and m_ok
        checks.append((n, s_ok, m_ok))
        details.append(
            f"N={n}: stable {b_s:.0f} mK (want {stable_target:.0f} +-40%, "
            f"{'ok' if s_ok else 'MISS'}), metastable {b_m:.0f} mK "
            f"(want {meta_band[0]:.0f}-{meta_band[1]:.0f}, "
            f"{'ok' if m_ok else 'MISS'})"
        )
    report(6, "inter-configuration barriers", ok, "; ".join(details))
    figures = {}
    for n, (b_s, b_m) in barrier_results.items():
        figures[f"N{n} stable_mk"] = b_s
        figures[f"N{n} metastable_mk"] = b_m
    moved = scorecard_moved(6, figures)
    for n, s_ok, m_ok in checks:
        assert s_ok, f"N={n} stable barrier outside the +-40% band"
        # the six-ion metastable reference band sits above the exact
        # saddle height of this landscape; see README acceptance notes
        assert m_ok, f"N={n} metastable barrier outside the reference band"
    if moved:
        pytest.xfail(moved)


def test_criterion_7_mode_structure(bare_trap_21, bare_trap_100, species,
                                     eq10_21):
    optical = bare_trap_100.optical

    def aniso_spectrum(anisotropy):
        trap0 = cv.make_trap(0.5 * MHZ, optical, anisotropy=anisotropy)
        eq = cv.find_equilibria(10, trap0, species, n_restarts=25, seed=0)[0]
        trap = trap0.with_depth(cv.depth_for_aspect(trap0, species, 4.0))
        spectrum = cv.label_modes(cv.normal_modes(eq, trap, species), eq)
        idx = spectrum.select(cv.OUT_OF_PLANE)
        order = idx[np.argsort(spectrum.omega[idx])[::-1]]
        return spectrum, order

    spectrum10, order10 = aniso_spectrum(0.10)
    top_labels = [spectrum10.labels[m] for m in order10[:3]]
    labels_ok = top_labels[0] == LABEL_COM and set(top_labels[1:]) == {
        LABEL_TILT_X, LABEL_TILT_Y
    }

    spectrum8, order8 = aniso_spectrum(0.08)
    f1, f2 = spectrum8.omega[order8[1]], spectrum8.omega[order8[2]]
    split_pct = 100.0 * abs(f1 - f2) / (0.5 * (f1 + f2))
    split_ok = 0.2 <= split_pct <= 0.8

    eq21 = eq10_21[0]
    alpha_tr = cv.find_alpha_tr(eq21, bare_trap_21, species).alpha_tr
    trap21 = bare_trap_21.with_depth(
        cv.depth_for_aspect(bare_trap_21, species, 1.001 * alpha_tr)
    )
    spectrum21 = cv.label_modes(cv.normal_modes(eq21, trap21, species), eq21)
    com = [m for m in spectrum21.select(cv.OUT_OF_PLANE)
           if spectrum21.labels[m] == LABEL_COM][0]
    amps = np.abs(spectrum21.z_amplitudes(com))
    ratio = amps.min() / amps.max()
    ratio_ok = within(ratio, 0.56, 0.05 / 0.56)

    ok = labels_ok and split_ok and ratio_ok
    report(
        7, "out-of-plane mode structure", ok,
        f"top modes {top_labels} (want com then both tilts); tilt split "
        f"{split_pct:.2f}% at 8% anisotropy (want 0.2-0.8); COM min/max "
        f"amplitude {ratio:.3f} at w0=21um (want 0.56 +- 0.05)",
    )
    moved = scorecard_moved(7, dict(tilt_split_pct=split_pct, com_amplitude_ratio=ratio))
    assert labels_ok
    assert split_ok
    assert ratio_ok
    if moved:
        pytest.xfail(moved)


def test_criterion_8_spin_graph(spin_stage, species):
    eq, spectrum, z_max = spin_stage
    recoil = cv.photon_recoil(355e-9, species)
    rabi = 2.0 * math.pi * 50e3

    drive = cv.uniform_drive(10, 1.002 * z_max, rabi, recoil)
    graph = cv.compute_jij(spectrum, eq, drive)

    # brute-force double sum over drives and out-of-plane modes
    idx = spectrum.select(cv.OUT_OF_PLANE)
    brute = np.zeros((10, 10))
    for i in range(10):
        for j in range(10):
            if i == j:
                continue
            total = 0.0
            for mu in drive.mu:
                for m in idx:
                    b = spectrum.vectors[2::3, m]
                    total += rabi * rabi * b[i] * b[j] / (
                        mu**2 - spectrum.omega[m] ** 2
                    )
            brute[i, j] = recoil * total / sc.hbar
    brute_err = np.abs(graph.j - brute).max() / np.abs(brute).max()
    brute_ok = brute_err < 1e-12
    af_ok = graph.af_fraction == 1.0

    template = cv.SpinDriveConfig(
        mu=(1.5 * z_max,),
        rabi=np.full((10, 1), rabi),
        recoil_energy=recoil,
        resonance_tolerance=1e-5 * z_max,
    )
    mu_values = np.concatenate(
        [[1.0002], np.geomspace(1.01, 60.0, 12)]
    ) * z_max
    records = cv.beta_sweep(spectrum, eq, mu_values, template)
    betas = [r["beta"] for r in records if r["error"] is None]
    range_ok = len(betas) > 3 and max(betas) >= 2.85 and min(betas) <= 0.15

    ok = brute_ok and af_ok and range_ok
    report(
        8, "spin-spin couplings", ok,
        f"brute-force rel err {brute_err:.1e} (want <1e-12); AF fraction "
        f"{graph.af_fraction:.2f} (want 1.0); fitted beta spans "
        f"[{min(betas):.3f}, {max(betas):.3f}] (want <=0.15 and >=2.85)",
    )
    moved = scorecard_moved(8, dict(brute_force_rel_err=brute_err,
                                    af_fraction=graph.af_fraction,
                                    beta_min=min(betas), beta_max=max(betas)))
    assert brute_ok
    assert af_ok
    assert range_ok
    if moved:
        pytest.xfail(moved)


def test_criterion_9_property_suite(bare_trap_100, species, eq10_100,
                                    tmp_path_factory):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-4e-6, 4e-6, size=(6, 3))
    pts[:, 2] = 0.0
    trap = bare_trap_100.with_depth(
        cv.depth_for_aspect(bare_trap_100, species, 4.0)
    )

    # gradient against central differences
    g = cv.gradient(pts, trap, species)
    h = 3e-11
    fd = np.zeros_like(g)
    for i in range(pts.shape[0]):
        for a in range(3):
            up, dn = pts.copy(), pts.copy()
            up[i, a] += h
            dn[i, a] -= h
            fd[3 * i + a] = (
                cv.total_energy(up, trap, species).total
                - cv.total_energy(dn, trap, species).total
            ) / (2 * h)
    grad_err = np.abs(g - fd).max() / np.abs(g).max()
    grad_ok = grad_err < 1e-6

    # Hessian symmetry and z-block decoupling on planar input
    hess = cv.hessian(pts, trap, species)
    flat = hess.reshape(18, 18)
    sym_ok = np.array_equal(flat, flat.T)
    z_idx = np.arange(2, 18, 3)
    xy_idx = np.setdiff1d(np.arange(18), z_idx)
    cross = np.abs(flat[np.ix_(z_idx, xy_idx)]).max()
    decouple_ok = cross == 0.0

    # eigenvector orthonormality
    eq = eq10_100[0]
    spectrum = cv.normal_modes(eq, trap, species)
    gram = spectrum.vectors.T @ spectrum.vectors
    ortho_err = np.abs(gram - np.eye(30)).max()
    ortho_ok = ortho_err < 1e-10

    # eigensolve vs uniform-waist shortcut at an effectively flat beam
    wide = bare_trap_100.with_waist(50e-3)
    a_eig = cv.find_alpha_tr(eq, wide, species).alpha_tr
    a_uni = cv.alpha_tr_uniform(eq, wide, species)
    eig_err = abs(a_eig - a_uni) / a_uni
    eig_ok = eig_err < 1e-4

    # two-ion spacing closed form
    eq2 = cv.find_equilibria(2, bare_trap_100, species, n_restarts=6, seed=0)[0]
    d_closed = (
        sc.e**2 / (4.0 * math.pi * sc.epsilon_0)
        * 2.0 / (species.mass * bare_trap_100.omega_r**2)
    ) ** (1.0 / 3.0)
    two_err = abs(eq2.d_min - d_closed) / d_closed
    two_ok = two_err < 1e-6

    # byte-identical reruns of the batch driver
    base = tmp_path_factory.mktemp("determinism")
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps(dict(
        task="equilibrate", n_ions=5, omega_r_mhz=0.5, waist_um=100.0,
        n_restarts=8, seed=1,
    )))
    blobs = []
    for name in ("r1", "r2"):
        out = base / name
        cli.run(str(cfg), out_dir=str(out))
        blobs.append(b"".join(
            (out / f).read_bytes()
            for f in ("equilibria_summary.csv", "equilibrium_00.csv")
        ))
    rerun_ok = blobs[0] == blobs[1]

    ok = all([grad_ok, sym_ok, decouple_ok, ortho_ok, eig_ok, two_ok, rerun_ok])
    report(
        9, "property suite", ok,
        f"grad FD {grad_err:.1e}; Hessian symmetric {sym_ok}, z-decoupled "
        f"{decouple_ok}; orthonormality {ortho_err:.1e}; eigensolve vs "
        f"shortcut {eig_err:.1e}; two-ion {two_err:.1e}; reruns identical "
        f"{rerun_ok}",
    )
    moved = scorecard_moved(9, dict(gradient_fd_rel_err=grad_err,
                                    orthonormality_err=ortho_err,
                                    eigensolve_vs_shortcut_rel_err=eig_err,
                                    two_ion_rel_err=two_err))
    assert grad_ok and sym_ok and decouple_ok
    assert ortho_ok and eig_ok and two_ok and rerun_ok
    if moved:
        pytest.xfail(moved)
