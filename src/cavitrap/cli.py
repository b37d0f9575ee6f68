"""Batch driver: JSON experiment configs in, CSV/JSON artifacts out.

Config keys carry unit suffixes (omega_r_mhz, waist_um, t_p_mk, ...) so a
config file is unambiguous without consulting docs. Every output file is
written atomically (temp file then rename) and a manifest.json records the
config hash, code version, wall time, output list, and warnings. Identical
(config, seed) pairs produce byte-identical data files on one BLAS thread,
which the package sets unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is exported.

Exit codes: 0 success; 2 a command-line usage error, an unreadable or
unparseable config, or any other OSError; 3 a ValidationError or
DomainError (invalid config or inputs); 4 any other failure. Failures
past the command line print a one-line JSON diagnostic to stderr.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from functools import cache

import numpy as np
from scipy.optimize import brentq

from . import __version__
from .core import (
    ANTINODE_COS2,
    CONST,
    NODE_SIN2,
    OpticalTrapConfig,
    _unique_keys,
    depth_for_aspect,
    intensity_for_depth,
    intensity_from_power,
    load_species,
    make_trap,
    power_for_intensity,
    stark_coefficient,
    trap_depth,
)
from .barrier import BarrierWalkParams, barrier_pair
from .equilibrium import _pair_r, find_equilibria
from .errors import CavitrapError, DomainError, FitError, ValidationError
from .lifetime import (
    H2_MASS,
    H2_POLARIZABILITY,
    NON_LANGEVIN_HEATING_BOUND,
    langevin_rate,
    lifetime_estimate,
    photon_recoil,
    recoil_heating,
    scattering_rates,
)
from .modes import OUT_OF_PLANE, label_modes, normal_modes
from .spin import beta_sweep, compute_jij, fit_beta, uniform_drive
from .transition import (
    alpha_tr_uniform,
    find_alpha_tr,
    fit_power_law,
    transition_scan,
    waist_sweep,
)

MHZ = 2.0 * math.pi * 1e6

REQUIRED = object()  # default of a key that every task reading it needs

# value kinds, each phrased for the ValidationError that names a wrong value
NUMBER = "a number"  # finite
INTEGER = "a non-negative integer"  # 5.0 counts as 5
TEXT = "a string"
NUMBERS = "a list of numbers"
INTEGERS = "a list of non-negative integers"

# Every config key as (kind, default); any other key is a ValidationError.
# A default of None marks an optional key with no default, where a JSON
# null counts as absent.
CONFIG_TABLE = {
    "task": (TEXT, ""),
    "seed": (INTEGER, 0),
    "output_dir": (TEXT, "."),
    "species_file": (TEXT, "yb171"),         # shipped species name or JSON path
    "omega_r_mhz": (NUMBER, 0.5),            # MHz, radial DC frequency / 2 pi
    "anisotropy": (NUMBER, 0.0),             # omega_y / omega_x - 1
    "wavelength_nm": (NUMBER, 1064.0),       # nm
    "waist_um": (NUMBER, 100.0),             # um
    "lattice_variant": (TEXT, None),         # checked: the light shift's sign picks it
    "finesse": (NUMBER, 3000.0),
    # light keys: at most one of the next four (_LIGHT_KEYS)
    "depth_mk": (NUMBER, None),              # mK, optical depth
    "omega_z_mhz": (NUMBER, None),           # MHz, axial frequency / 2 pi
    "intensity_w_m2": (NUMBER, None),        # W/m^2, intracavity intensity
    "power_w": (NUMBER, None),               # W, input power
    "n_ions": (INTEGER, REQUIRED),
    "n_ions_list": (INTEGERS, REQUIRED),
    "n_restarts": (INTEGER, 50),             # 12 in transition-scan and waist-scan
    "w0_values_um": (NUMBERS, REQUIRED),     # um
    "waists_um": (NUMBERS, None),            # um, one per N of Table I
    "n_samples": (INTEGER, 1000),
    "t_p_mk": (NUMBER, 1.0),                 # mK, walk temperature
    "n_paths": (INTEGER, 10),
    "sdf_wavelength_nm": (NUMBER, 355.0),    # nm
    "rabi_khz": (NUMBER, 50.0),              # kHz
    # drive keys: at most one of the next two (_DRIVE_KEYS)
    "mu_mhz": (NUMBER, None),                # MHz, drive frequency / 2 pi
    "mu_over_max": (NUMBER, 1.002),          # mu / highest out-of-plane mode
    "mu_over_max_list": (NUMBERS, None),     # sweep of mu_over_max
    "pressure_mbar": (NUMBER, 1e-11),        # mbar
    "temperature_k": (NUMBER, 300.0),        # K
}
_LIGHT_KEYS = ("depth_mk", "omega_z_mhz", "intensity_w_m2", "power_w")
_DRIVE_KEYS = ("mu_mhz", "mu_over_max")


class Config:
    """A config's values, each checked against CONFIG_TABLE when it loads,
    whether or not the task reads it; a null counts as absent for a key
    without a default. Integers are stored as int, any other value
    unconverted, so a config int echoed into a data file keeps its form.
    ``used`` maps every key read so far to the value the run used,
    defaults included; the manifest hashes it.
    """

    def __init__(self, given):
        unknown = sorted(set(given) - set(CONFIG_TABLE))
        if unknown:
            raise ValidationError(f"unknown config keys {unknown}")
        self.given = {}
        for key, value in given.items():
            kind, default = CONFIG_TABLE[key]
            if value is None and default is None:  # optional key, null
                continue
            if not _is_kind(value, kind):
                raise ValidationError(f"config key {key!r} must be {kind}, got {value!r}")
            if kind == INTEGER:
                value = int(value)
            elif kind == INTEGERS:
                value = [int(v) for v in value]
            self.given[key] = value
        for keys in (_LIGHT_KEYS, _DRIVE_KEYS):
            chosen = [key for key in keys if key in self.given]
            if len(chosen) > 1:
                raise ValidationError(
                    f"config keys {chosen} are alternatives; give at most one")
        self.used = {}

    def read(self, key, default=None):
        """The value of key; default, when given, stands in for the table's.

        A missing REQUIRED key is a ValidationError naming the key.
        """
        if default is None:
            default = CONFIG_TABLE[key][1]
        value = self.given.get(key, default)
        if value is REQUIRED:
            raise ValidationError(f"config key {key!r} is required for this task")
        self.used[key] = value
        return value


def _is_kind(value, kind):
    if kind == TEXT:
        return isinstance(value, str)
    if kind in (NUMBERS, INTEGERS):
        entry = NUMBER if kind == NUMBERS else INTEGER
        return isinstance(value, list) and all(_is_kind(v, entry) for v in value)
    # the bound also rejects an int too large for a float, on which
    # math.isfinite would raise OverflowError
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max
            and (kind == NUMBER or (value >= 0 and value == int(value))))


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    code_version: str
    wall_time_s: float
    outputs: tuple
    warnings: tuple


def load_config(path):
    with open(path) as fh:
        cfg = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    return cfg


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()


def _atomic_write(path, text):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _fmt(x):
    """Shortest round-trip decimal form; numpy scalars print as plain floats."""
    return repr(float(x))


def _build_trap(cfg, species):
    """TrapConfig from laboratory-unit config keys; the depth is _optical_depth's."""
    wavelength = cfg.read("wavelength_nm") * 1e-9
    kappa = stark_coefficient(species, _laser_omega(wavelength))
    variant = ANTINODE_COS2 if kappa > 0 else NODE_SIN2  # where U = -kappa I holds the ion
    if cfg.read("lattice_variant", variant) != variant:
        raise ValidationError(
            f"config key 'lattice_variant' is {cfg.given['lattice_variant']!r}, but "
            f"{wavelength * 1e9:g} nm light holds the plane only in {variant!r}")
    optical = OpticalTrapConfig(
        wavelength=wavelength,
        waist=cfg.read("waist_um") * 1e-6,
        depth=0.0,
        lattice_variant=variant,
        finesse=cfg.read("finesse"),
    )
    trap = make_trap(cfg.read("omega_r_mhz") * MHZ, optical, cfg.read("anisotropy"))
    return trap.with_depth(_optical_depth(cfg, trap, species)[0])


def _one_of(cfg, keys):
    """The one of keys that cfg gives, or None; Config allows at most one."""
    return next((key for key in keys if key in cfg.given), None)


def _optical_depth(cfg, trap, species):
    """(depth, intensity) from the one light key given, zero depth without one.
    omega_z_mhz is inverted through the axial curvature relation; intensity
    is the one intensity_w_m2 or power_w gave, else None."""
    key = _one_of(cfg, _LIGHT_KEYS)
    if key is None:
        return 0.0, None
    value = cfg.read(key)
    if key == "depth_mk":
        return value * 1e-3 * CONST.boltzmann, None
    if key == "omega_z_mhz":
        return depth_for_aspect(trap, species, value * MHZ / trap.omega_r), None
    intensity = value
    if key == "power_w":
        intensity = intensity_from_power(value, trap.optical.finesse, trap.optical.waist)
    return trap_depth(species, _laser_omega(trap.optical.wavelength), intensity), intensity


def _equilibria(n, cfg, trap, species, seed):
    """find_equilibria for n ions with the config's n_restarts."""
    return find_equilibria(
        n, trap, species, n_restarts=cfg.read("n_restarts"), seed=seed,
    )


def _laser_omega(wavelength):
    return 2.0 * math.pi * CONST.speed_of_light / wavelength


# --------------------------------------------------------------------------
# task implementations; each returns (files, warnings), files being the
# (file name, text) pairs to write, in order


def _task_equilibrate(cfg, trap, species, seed):
    eqs = _equilibria(cfg.read("n_ions"), cfg, trap, species, seed)
    files = []
    summary_rows = []
    sidecar = []
    for i, eq in enumerate(eqs):
        files.append((f"equilibrium_{i:02d}.csv", _csv(
            ["ion_index", "x_m", "y_m"],
            [[j, _fmt(p[0]), _fmt(p[1])] for j, p in enumerate(eq.xy)],
        )))
        rings = ",".join(str(c) for c in eq.ring_configuration)
        summary_rows.append([
            i, eq.stability, _fmt(eq.energy), rings,
            _fmt(eq.r_max), _fmt(eq.d_min), eq.n_found_duplicates,
        ])
        sidecar.append(dict(
            config_index=i, stability=eq.stability, energy_j=eq.energy,
            ring_configuration=list(eq.ring_configuration),
            ring_ambiguous=eq.ring_ambiguous,
            r_max_m=eq.r_max, d_min_m=eq.d_min if eq.n_ions > 1 else None,
            n_found_duplicates=eq.n_found_duplicates,
        ))
    files.append(("equilibria_summary.csv", _csv(
        ["config_index", "stability", "energy_j", "ring_configuration",
         "r_max_m", "d_min_m", "n_found_duplicates"],
        summary_rows,
    )))
    files.append(("equilibria.json", _json(sidecar)))
    ambiguous = [i for i, eq in enumerate(eqs) if eq.ring_ambiguous]
    warnings = ([f"ring clustering ambiguous in {len(ambiguous)} of {len(eqs)} "
                 f"configurations: {ambiguous}"] if ambiguous else [])
    return files, warnings


def _task_modes(cfg, trap, species, seed):
    eq = _equilibria(cfg.read("n_ions"), cfg, trap, species, seed)[0]
    spectrum = label_modes(normal_modes(eq, trap, species), eq)
    rows = [
        [
            m,
            spectrum.partition[m],
            _fmt(spectrum.omega[m] / (2.0 * math.pi)),
            int(spectrum.imaginary[m]),
            spectrum.labels[m] if spectrum.labels[m] is not None else "",
        ]
        for m in range(spectrum.n_modes)
    ]
    return [
        ("modes.csv", _csv(
            ["mode_index", "partition", "frequency_hz", "imaginary", "label"],
            rows,
        )),
        ("eigenvectors.json", _json(dict(vectors=spectrum.vectors.tolist()))),
    ], []


SCAN_HEADER = ["n_ions", "w0_m", "w0_over_rmax", "alpha_tr", "stability"]


def _scan_row(w0, point):
    return [point.n_ions, _fmt(w0), _fmt(point.w0_over_rmax),
            _fmt(point.alpha_tr), point.stability]


def _task_transition_scan(cfg, trap, species, seed):
    points = transition_scan(
        cfg.read("n_ions_list"), trap, species,
        n_restarts=cfg.read("n_restarts", 12), seed=seed,
    )
    files = [("transition_points.csv", _csv(
        SCAN_HEADER, [_scan_row(trap.optical.waist, p) for p in points],
    ))]
    try:
        fit = fit_power_law([(p.n_ions, p.alpha_tr) for p in points])
    except FitError as exc:  # the points stand; no fit file is written
        return files, [f"power-law fit skipped: {type(exc).__name__}: {exc}"]
    files.append(("power_law_fit.json", _json(asdict(fit))))
    return files, []


def _task_waist_scan(cfg, trap, species, seed):
    n = cfg.read("n_ions")
    w0_values = [w * 1e-6 for w in cfg.read("w0_values_um")]
    records = waist_sweep(
        n, trap, species, w0_values,
        n_restarts=cfg.read("n_restarts", 12), seed=seed,
    )
    rows, warnings = [], []
    for w0, point, error in records:
        if point is None:
            warnings.append(f"w0 = {w0 * 1e6:g} um failed: {error}")
            continue
        rows.append(_scan_row(w0, point))
    return [("waist_scan.csv", _csv(SCAN_HEADER, rows))], warnings


def _task_barrier(cfg, trap, species, seed):
    n = cfg.read("n_ions")
    eqs = _equilibria(n, cfg, trap, species, seed)
    if len(eqs) < 2:
        raise DomainError(
            f"single equilibrium for N = {n}; no barrier to compute"
        )
    params = BarrierWalkParams(
        n_samples=cfg.read("n_samples"),
        t_p=cfg.read("t_p_mk") * 1e-3,
        n_paths=cfg.read("n_paths"),
        seed=seed,
    )
    result = barrier_pair(eqs[0], eqs[1], params, trap, species)

    files = []
    for k, path_obj in enumerate(result["paths"]):
        target = path_obj.points[-1]
        arc = path_obj.arc_length_coordinate
        rows = [
            [
                step,
                _fmt(np.linalg.norm(pt - target)),
                _fmt(e),
                _fmt(float((e - path_obj.energies[0]) / CONST.boltzmann * 1e3)),
                _fmt(arc[step]),
            ]
            for step, (pt, e) in enumerate(zip(path_obj.points, path_obj.energies))
        ]
        files.append((f"path_{k:02d}.csv", _csv(
            ["step", "distance_to_final_m", "energy_j", "energy_mk",
             "path_coordinate"],
            rows,
        )))

    files.append(("barriers.json", _json(
        dict(
            n_ions=n,
            barrier_stable_mk=result["barrier_from_start"] * 1e3,
            barrier_metastable_mk=result["barrier_from_other"] * 1e3,
            peaks_j=result["peaks"],
            n_paths=params.n_paths,
        ),
    )))
    return files, []


def _task_spin(cfg, trap, species, seed):
    n = cfg.read("n_ions")
    eq = _equilibria(n, cfg, trap, species, seed)[0]
    spectrum = normal_modes(eq, trap, species)
    z_max = spectrum.omega[spectrum.select(OUT_OF_PLANE)].max()

    recoil = photon_recoil(cfg.read("sdf_wavelength_nm") * 1e-9, species)
    rabi = cfg.read("rabi_khz") * 2.0 * math.pi * 1e3
    if _one_of(cfg, _DRIVE_KEYS) == "mu_mhz":
        mu = cfg.read("mu_mhz") * MHZ
    else:
        mu = cfg.read("mu_over_max") * z_max
    drive = uniform_drive(n, mu, rabi, recoil)
    graph = compute_jij(spectrum, eq, drive)
    warnings = []
    try:
        beta, resid = fit_beta(graph, eq)
    except FitError as exc:  # the J_ij graph stands; beta and residual are null
        beta = resid = None
        warnings.append(f"beta fit skipped: {exc}")

    header = ["ion"] + [str(i) for i in range(n)]
    rows = [[i] + [_fmt(v) for v in graph.j[i]] for i in range(n)]
    files = [("jij.csv", _csv(header, rows))]

    edge_rows = [
        [i, j, _fmt(r), _fmt(graph.j[i, j]), "AF" if graph.j[i, j] > 0 else "FM"]
        for i, j, r in zip(*np.triu_indices(n, 1), _pair_r(eq))
    ]
    files.append(
        ("edges.csv", _csv(["i", "j", "r_m", "J_rad_per_s", "sign"], edge_rows))
    )

    sweep_rows = []
    if cfg.read("mu_over_max_list") is not None:
        mu_values = [f * z_max for f in cfg.read("mu_over_max_list")]
        for rec in beta_sweep(spectrum, eq, mu_values, drive):
            if rec["error"] is not None:
                warnings.append(f"mu = {rec['mu']:.6e} rad/s skipped: {rec['error']}")
                continue
            sweep_rows.append([
                _fmt(rec["mu"] / (2.0 * math.pi)), _fmt(rec["beta"]),
                _fmt(rec["residual"]), _fmt(rec["af_fraction"]),
            ])
        files.append(("beta_sweep.csv", _csv(
            ["mu_hz", "beta", "residual", "af_fraction"], sweep_rows,
        )))

    files.append(("spin_summary.json", _json(
        dict(mu_rad_per_s=mu, beta=beta, residual=resid,
             af_fraction=graph.af_fraction),
    )))
    return files, warnings


def _task_lifetime(cfg, trap, species, seed):
    n = cfg.read("n_ions")
    omega_l = _laser_omega(trap.optical.wavelength)
    if _one_of(cfg, _LIGHT_KEYS) is None:
        raise ValidationError(f"lifetime task needs one of {list(_LIGHT_KEYS)}")
    intensity = _optical_depth(cfg, trap, species)[1]
    if intensity is None:  # a depth key: invert the built trap's depth
        intensity = intensity_for_depth(species, omega_l, trap.optical.depth)
    est = lifetime_estimate(species, omega_l, intensity, n)

    pressure = cfg.read("pressure_mbar") * 100.0  # mbar to Pa
    temperature = cfg.read("temperature_k")
    collision = langevin_rate(pressure, temperature, H2_POLARIZABILITY, H2_MASS, species)
    e_rec, heat = recoil_heating(trap.optical.wavelength, species, est.gamma_off)
    warnings = (["tau_s is infinite (no metastable scattering); written as null"]
                if math.isinf(est.tau) else [])

    return [("lifetime.json", _json(
        dict(
            intensity_w_m2=intensity,
            gamma_off_per_s=est.gamma_off,
            gamma_meta_per_s=est.gamma_meta,
            n_ions=n,
            tau_s=None if math.isinf(est.tau) else est.tau,
            langevin_rate_per_s=collision,
            langevin_rate_per_hour=collision * 3600.0,
            recoil_energy_j=e_rec,
            recoil_heating_k_per_s=heat,
            non_langevin_heating_bound_k_per_s=NON_LANGEVIN_HEATING_BOUND,
            background_pressure_pa=pressure,
            gas="H2",
            temperature_k=temperature,
        ),
    ))], warnings


TABLE_ONE_N = (5, 10, 20, 30)

TABLE_ONE_ROWS = (
    "Ion number N",
    "Ion configuration",
    "Radial DC trap frequency [MHz]",
    "Laser wavelength [nm]",
    "Minimum ion spacing [um]",
    "Ion crystal radius [um]",
    "Trapping beam waist w0 [um]",
    "Minimum required AC Stark shift at center [mK]",
    "Minimum required cavity intensity at center [W/m^2]",
    "Cavity finesse",
    "Minimum required laser power [W]",
    "Off-resonant scattering rate of an ion at center [1/s]",
)

# the waist rule: smallest waist from 1.5 r_max up whose alpha_tr is within
# 2 percent of the uniform-waist value
WAIST_RULE_TOL = 0.02


def _select_waist(eq, trap, species):
    """The waist rule's w0: 1.5 r_max where alpha_tr meets the rule already,
    else the root of alpha_tr(w0) - 1.02 alpha_tr_uniform. That excess falls
    with w0 toward -0.02 alpha_tr_uniform, so doubling from 1.5 r_max
    brackets the root and brentq finds it. brentq starts at the bracket's
    ends, which the doubling evaluated, so excess is memoised."""
    limit = (1.0 + WAIST_RULE_TOL) * alpha_tr_uniform(eq, trap, species)

    @cache
    def excess(factor):
        w0 = factor * eq.r_max
        return find_alpha_tr(eq, trap.with_waist(w0), species).alpha_tr - limit

    lo = hi = 1.5
    while excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    return (hi if lo == hi else brentq(excess, lo, hi)) * eq.r_max


def _task_table_one(cfg, trap, species, seed):
    explicit = cfg.read("waists_um")
    if explicit is not None and len(explicit) != len(TABLE_ONE_N):
        raise ValidationError("waists_um must list one waist per N in (5,10,20,30)")
    omega_l = _laser_omega(trap.optical.wavelength)
    columns = {}
    warnings = []
    for idx, n in enumerate(TABLE_ONE_N):
        try:
            eq = _equilibria(n, cfg, trap, species, seed)[0]
            if explicit is not None:
                w0 = explicit[idx] * 1e-6
            else:
                w0 = _select_waist(eq, trap, species)
            trap_w = trap.with_waist(w0)
            alpha = find_alpha_tr(eq, trap_w, species).alpha_tr
            depth = depth_for_aspect(trap_w, species, alpha)
            intensity = intensity_for_depth(species, omega_l, depth)
            power = power_for_intensity(intensity, trap.optical.finesse, w0)
            gamma_off, _ = scattering_rates(species, omega_l, intensity)
            columns[n] = [
                str(n),
                "[" + ", ".join(str(c) for c in eq.ring_configuration) + "]",
                f"{trap.omega_r / MHZ:.3g}",
                f"{trap.optical.wavelength * 1e9:.4g}",
                f"{eq.d_min * 1e6:.3g}",
                f"{eq.r_max * 1e6:.3g}",
                f"{w0 * 1e6:.3g}",
                f"{depth / CONST.boltzmann * 1e3:.3g}",
                f"{intensity:.3e}",
                f"{trap.optical.finesse:.4g}",
                f"{power:.3g}",
                f"{gamma_off:.3g}",
            ]
        except CavitrapError as exc:
            warnings.append(f"N = {n} failed: {type(exc).__name__}: {exc}")
            columns[n] = [str(n)] + ["ERROR"] * (len(TABLE_ONE_ROWS) - 1)
    rows = [
        [TABLE_ONE_ROWS[r]] + [columns[n][r] for n in TABLE_ONE_N]
        for r in range(len(TABLE_ONE_ROWS))
    ]
    header = ["row"] + [f"N={n}" for n in TABLE_ONE_N]
    return [("table1.csv", _csv(header, rows))], warnings


_TASK_IMPL = {
    "equilibrate": _task_equilibrate,
    "modes": _task_modes,
    "transition-scan": _task_transition_scan,
    "waist-scan": _task_waist_scan,
    "barrier": _task_barrier,
    "spin": _task_spin,
    "lifetime": _task_lifetime,
    "table-one": _task_table_one,
}
TASKS = tuple(_TASK_IMPL)


def run(config_path, task=None, seed=None, threads=None, out_dir=None):
    """Execute one task; returns a RunManifest. Raises on failure.

    task, seed and out_dir, when given, stand in for the config's task,
    seed and output_dir keys. The manifest's config hash covers every
    value the run read, defaults included, except the output directory.
    """
    if threads is not None:  # a removed option; the slot stays for positional callers
        raise ValidationError(
            "the threads option was removed; restarts run in one process per CPU")
    start = time.monotonic()
    given = load_config(config_path)
    if task:
        given["task"] = task
    if seed is not None:
        given["seed"] = seed
    if out_dir:
        given["output_dir"] = out_dir
    cfg = Config(given)

    task = cfg.read("task")
    if task not in _TASK_IMPL:
        raise ValidationError(f"unknown task {task!r}; choose from {TASKS}")
    seed = cfg.read("seed")
    out = cfg.read("output_dir")

    species = load_species(cfg.read("species_file"))
    trap = _build_trap(cfg, species)
    files, warnings = _TASK_IMPL[task](cfg, trap, species, seed)
    os.makedirs(out, exist_ok=True)  # only a run that writes makes it
    outputs = []
    for name, text in files:
        outputs.append(os.path.join(out, name))
        _atomic_write(outputs[-1], text)

    resolved = dict(cfg.used, task=task)
    del resolved["output_dir"]
    manifest = RunManifest(
        config_hash=config_hash(resolved),
        code_version=__version__,
        wall_time_s=time.monotonic() - start,
        outputs=tuple(outputs),
        warnings=tuple(warnings),
    )
    _atomic_write(os.path.join(out, "manifest.json"), _json(asdict(manifest)))
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cavitrap",
        description="2D ion crystals in a hybrid DC + optical-cavity trap",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    def fail(code, kind, message):
        print(json.dumps(dict(error=kind, message=message)), file=sys.stderr)
        return code

    try:
        manifest = run(
            args.config,
            task=args.task,
            seed=args.seed,
            out_dir=args.out,
        )
    except (OSError, json.JSONDecodeError) as exc:
        return fail(2, type(exc).__name__, str(exc))
    except (ValidationError, DomainError) as exc:
        return fail(3, type(exc).__name__, str(exc))
    except Exception as exc:  # keep batch callers out of tracebacks
        return fail(4, type(exc).__name__, str(exc))
    for path in manifest.outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
