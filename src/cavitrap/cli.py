"""Batch driver: JSON experiment configs in, CSV/JSON artifacts out.

Config keys carry unit suffixes (omega_r_mhz, waist_um, t_p_mk, ...) so a
config file is unambiguous without consulting docs. Every output file is
written atomically (temp file then rename) and a manifest.json records the
config hash, code version, wall time, output list, and warnings. Identical
(config, seed) pairs produce byte-identical data files.

Exit codes: 0 success, 2 config parse failure, 3 validation failure,
4 compute failure. Failures print a one-line JSON diagnostic to stderr.
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
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import (
    CONST,
    OpticalTrapConfig,
    TrapConfig,
    depth_for_aspect,
    effective_frequencies,
    intensity_from_power,
    load_species,
    stark_coefficient,
)
from .barrier import BarrierWalkParams, barrier_pair
from .equilibrium import METASTABLE, STABLE, find_equilibria
from .errors import CavitrapError, DomainError, ValidationError
from .lifetime import (
    NON_LANGEVIN_HEATING_BOUND,
    langevin_rate,
    lifetime_estimate,
    load_gas,
    photon_recoil,
    recoil_heating,
    scattering_rates,
)
from .modes import label_modes, normal_modes
from .spin import beta_sweep, compute_jij, fit_beta, uniform_drive
from .transition import (
    alpha_tr_uniform,
    find_alpha_tr,
    fit_power_law,
    transition_scan,
    waist_sweep,
)

TASKS = (
    "equilibrate",
    "modes",
    "transition-scan",
    "waist-scan",
    "barrier",
    "spin",
    "lifetime",
    "table-one",
)

MHZ = 2.0 * math.pi * 1e6


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    code_version: str
    wall_time: float
    outputs: tuple
    warnings: tuple


def load_config(path):
    with open(path) as fh:
        cfg = json.load(fh)
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


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path, payload):
    _atomic_write(
        path,
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
        + "\n",
    )


def _fmt(x):
    """Shortest round-trip decimal form; numpy scalars print as plain floats."""
    return repr(float(x))


def _build_species(cfg):
    return load_species(cfg.get("species_file", "yb171"))


def _build_trap(cfg, species):
    """TrapConfig from laboratory-unit config keys.

    Optical depth resolves from the first present of depth_mk,
    omega_z_mhz (inverted through the axial curvature relation),
    intensity_w_m2, power_w; default is zero depth.
    """
    if "omega_x_mhz" in cfg or "omega_y_mhz" in cfg:
        omega_x = cfg["omega_x_mhz"] * MHZ
        omega_y = cfg["omega_y_mhz"] * MHZ
    else:
        omega_x = cfg.get("omega_r_mhz", 0.5) * MHZ
        omega_y = omega_x * (1.0 + cfg.get("anisotropy", 0.0))

    optical = OpticalTrapConfig(
        wavelength=cfg.get("wavelength_nm", 1064.0) * 1e-9,
        waist=cfg.get("waist_um", 100.0) * 1e-6,
        depth=0.0,
        lattice_variant=cfg.get("lattice_variant", "node_sin2"),
        finesse=cfg.get("finesse", 3000.0),
        input_power=cfg.get("power_w", 0.0),
    )
    trap = TrapConfig(omega_x_dc=omega_x, omega_y_dc=omega_y, optical=optical)

    if "depth_mk" in cfg:
        depth = cfg["depth_mk"] * 1e-3 * CONST.boltzmann
    elif "omega_z_mhz" in cfg:
        depth = depth_for_aspect(
            trap, species, cfg["omega_z_mhz"] * MHZ / trap.omega_r
        )
    elif "intensity_w_m2" in cfg:
        kappa = stark_coefficient(
            species, 2.0 * math.pi * CONST.speed_of_light / optical.wavelength
        )
        depth = kappa * cfg["intensity_w_m2"]
    elif "power_w" in cfg:
        intensity = intensity_from_power(
            cfg["power_w"], optical.finesse, optical.waist
        )
        kappa = stark_coefficient(
            species, 2.0 * math.pi * CONST.speed_of_light / optical.wavelength
        )
        depth = kappa * intensity
    else:
        depth = 0.0
    return trap.with_depth(depth)


def _need(cfg, key):
    if key not in cfg:
        raise ValidationError(f"config key {key!r} is required for this task")
    return cfg[key]


def _equilibria(n, cfg, trap, species, seed, threads):
    """find_equilibria for n ions with the config's n_restarts (default 50)."""
    return find_equilibria(
        n, trap, species,
        n_restarts=int(cfg.get("n_restarts", 50)), seed=seed, threads=threads,
    )


def _laser_omega(trap):
    return 2.0 * math.pi * CONST.speed_of_light / trap.optical.wavelength


# --------------------------------------------------------------------------
# task implementations; each returns (outputs, warnings)


def _task_equilibrate(cfg, trap, species, seed, threads, out):
    n = int(_need(cfg, "n_ions"))
    eqs = _equilibria(n, cfg, trap, species, seed, threads)
    outputs, warnings = [], []
    summary_rows = []
    sidecar = []
    for i, eq in enumerate(eqs):
        path = os.path.join(out, f"equilibrium_{i:02d}.csv")
        _write_csv(
            path,
            ["ion_index", "x_m", "y_m"],
            [[j, _fmt(p[0]), _fmt(p[1])] for j, p in enumerate(eq.xy)],
        )
        outputs.append(path)
        rings = ",".join(str(c) for c in eq.ring_configuration)
        summary_rows.append([
            i, eq.stability, _fmt(eq.energy), rings,
            _fmt(eq.r_max), _fmt(eq.d_min), eq.n_found_duplicates,
        ])
        sidecar.append(dict(
            config_index=i, stability=eq.stability, energy_j=eq.energy,
            ring_configuration=list(eq.ring_configuration),
            ring_ambiguous=eq.ring_ambiguous,
            r_max_m=eq.r_max, d_min_m=eq.d_min,
            n_found_duplicates=eq.n_found_duplicates,
        ))
        if eq.ring_ambiguous:
            warnings.append(f"configuration {i}: ring clustering ambiguous")
    path = os.path.join(out, "equilibria_summary.csv")
    _write_csv(
        path,
        ["config_index", "stability", "energy_j", "ring_configuration",
         "r_max_m", "d_min_m", "n_found_duplicates"],
        summary_rows,
    )
    outputs.append(path)
    path = os.path.join(out, "equilibria.json")
    _write_json(path, sidecar)
    outputs.append(path)
    return outputs, warnings


def _task_modes(cfg, trap, species, seed, threads, out):
    n = int(_need(cfg, "n_ions"))
    eq = _equilibria(n, cfg, trap, species, seed, threads)[0]
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
    path_csv = os.path.join(out, "modes.csv")
    _write_csv(
        path_csv,
        ["mode_index", "partition", "frequency_hz", "imaginary", "label"],
        rows,
    )
    path_json = os.path.join(out, "eigenvectors.json")
    _write_json(path_json, dict(vectors=spectrum.vectors.tolist()))
    return [path_csv, path_json], []


def _task_transition_scan(cfg, trap, species, seed, threads, out):
    n_values = _need(cfg, "n_ions_list")
    points = transition_scan(
        n_values, trap, species,
        n_restarts=int(cfg.get("n_restarts", 12)), seed=seed, threads=threads,
    )
    rows = [
        [p.n_ions, _fmt(trap.optical.waist), _fmt(p.w0_over_rmax),
         _fmt(p.alpha_tr), p.stability]
        for p in points
    ]
    path_csv = os.path.join(out, "transition_points.csv")
    _write_csv(
        path_csv,
        ["n_ions", "w0_m", "w0_over_rmax", "alpha_tr", "stability"],
        rows,
    )
    outputs = [path_csv]
    warnings = []
    if len(points) >= 3:
        fit = fit_power_law([(p.n_ions, p.alpha_tr) for p in points])
        path_json = os.path.join(out, "power_law_fit.json")
        _write_json(
            path_json,
            dict(prefactor=fit.prefactor, exponent=fit.exponent,
                 residual=fit.residual),
        )
        outputs.append(path_json)
    else:
        warnings.append("fewer than 3 points, power-law fit skipped")
    return outputs, warnings


def _task_waist_scan(cfg, trap, species, seed, threads, out):
    n = int(_need(cfg, "n_ions"))
    w0_values = [w * 1e-6 for w in _need(cfg, "w0_values_um")]
    records = waist_sweep(
        n, trap, species, w0_values,
        n_restarts=int(cfg.get("n_restarts", 12)), seed=seed,
    )
    rows, warnings = [], []
    for w0, point, error in records:
        if point is None:
            warnings.append(f"w0 = {w0 * 1e6:g} um failed: {error}")
            continue
        rows.append([
            point.n_ions, _fmt(w0), _fmt(point.w0_over_rmax),
            _fmt(point.alpha_tr), point.stability,
        ])
    path = os.path.join(out, "waist_scan.csv")
    _write_csv(
        path,
        ["n_ions", "w0_m", "w0_over_rmax", "alpha_tr", "stability"],
        rows,
    )
    return [path], warnings


def _task_barrier(cfg, trap, species, seed, threads, out):
    n = int(_need(cfg, "n_ions"))
    eqs = _equilibria(n, cfg, trap, species, seed, threads)
    if len(eqs) < 2:
        raise DomainError(
            f"single equilibrium for N = {n}; no barrier to compute"
        )
    params = BarrierWalkParams(
        n_samples=int(cfg.get("n_samples", 1000)),
        t_p=cfg.get("t_p_mk", 1.0) * 1e-3,
        n_paths=int(cfg.get("n_paths", 10)),
        seed=seed,
    )
    result = barrier_pair(eqs[0], eqs[1], params, trap, species)

    outputs = []
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
        path = os.path.join(out, f"path_{k:02d}.csv")
        _write_csv(
            path,
            ["step", "distance_to_final_m", "energy_j", "energy_mk",
             "path_coordinate"],
            rows,
        )
        outputs.append(path)

    path = os.path.join(out, "barriers.json")
    _write_json(
        path,
        dict(
            n_ions=n,
            barrier_stable_mk=result["barrier_from_start"] * 1e3,
            barrier_metastable_mk=result["barrier_from_other"] * 1e3,
            peaks_j=result["peaks"],
            n_converged=result["n_converged"],
            n_paths=params.n_paths,
        ),
    )
    outputs.append(path)
    warnings = []
    if result["n_converged"] < params.n_paths:
        warnings.append(
            f"only {result['n_converged']}/{params.n_paths} paths converged"
        )
    return outputs, warnings


def _task_spin(cfg, trap, species, seed, threads, out):
    n = int(_need(cfg, "n_ions"))
    eq = _equilibria(n, cfg, trap, species, seed, threads)[0]
    spectrum = normal_modes(eq, trap, species)
    z_max = spectrum.omega[spectrum.select("out_of_plane")].max()

    recoil = photon_recoil(cfg.get("sdf_wavelength_nm", 355.0) * 1e-9, species)
    rabi = cfg.get("rabi_khz", 50.0) * 2.0 * math.pi * 1e3
    if "mu_mhz" in cfg:
        mu = cfg["mu_mhz"] * MHZ
    else:
        mu = cfg.get("mu_over_max", 1.002) * z_max
    drive = uniform_drive(n, mu, rabi, recoil)
    graph = compute_jij(spectrum, eq, drive)
    beta, resid = fit_beta(graph, eq)

    outputs = []
    header = ["ion"] + [str(i) for i in range(n)]
    rows = [[i] + [_fmt(v) for v in graph.j[i]] for i in range(n)]
    path = os.path.join(out, "jij.csv")
    _write_csv(path, header, rows)
    outputs.append(path)

    xy = eq.xy
    edge_rows = []
    for i in range(n):
        for j in range(i + 1, n):
            r = float(np.linalg.norm(xy[i] - xy[j]))
            edge_rows.append([
                i, j, _fmt(r), _fmt(graph.j[i, j]),
                "AF" if graph.j[i, j] > 0 else "FM",
            ])
    path = os.path.join(out, "edges.csv")
    _write_csv(path, ["i", "j", "r_m", "J_rad_per_s", "sign"], edge_rows)
    outputs.append(path)

    sweep_rows = []
    warnings = []
    if "mu_over_max_list" in cfg:
        mu_values = [f * z_max for f in cfg["mu_over_max_list"]]
        for rec in beta_sweep(spectrum, eq, mu_values, drive):
            if rec["error"] is not None:
                warnings.append(f"mu = {rec['mu']:.6e} rad/s skipped: {rec['error']}")
                continue
            sweep_rows.append([
                _fmt(rec["mu"] / (2.0 * math.pi)), _fmt(rec["beta"]),
                _fmt(rec["residual"]), _fmt(rec["af_fraction"]),
            ])
        path = os.path.join(out, "beta_sweep.csv")
        _write_csv(path, ["mu_hz", "beta", "residual", "af_fraction"], sweep_rows)
        outputs.append(path)

    path = os.path.join(out, "spin_summary.json")
    _write_json(
        path,
        dict(mu_rad_per_s=mu, beta=beta, residual=resid,
             af_fraction=graph.af_fraction),
    )
    outputs.append(path)
    return outputs, warnings


def _task_lifetime(cfg, trap, species, seed, threads, out):
    n = int(_need(cfg, "n_ions"))
    omega_l = _laser_omega(trap)
    if "intensity_w_m2" in cfg:
        intensity = cfg["intensity_w_m2"]
    elif trap.optical.depth > 0:
        intensity = trap.optical.depth / stark_coefficient(species, omega_l)
    else:
        raise ValidationError("lifetime task needs intensity_w_m2 or a depth key")
    est = lifetime_estimate(species, omega_l, intensity, n)

    gas = load_gas(cfg.get("gas", "H2"))
    pressure = cfg.get("pressure_mbar", 1e-11) * 100.0  # mbar to Pa
    temperature = cfg.get("temperature_k", 300.0)
    collision = langevin_rate(
        pressure, temperature, gas.polarizability, gas.mass, species
    )
    e_rec, heat = recoil_heating(trap.optical.wavelength, species, est.gamma_off)

    path = os.path.join(out, "lifetime.json")
    _write_json(
        path,
        dict(
            intensity_w_m2=intensity,
            gamma_off_per_s=est.gamma_off,
            gamma_meta_per_s=est.gamma_meta,
            n_ions=n,
            tau_s=est.tau,
            langevin_rate_per_s=collision,
            langevin_rate_per_hour=collision * 3600.0,
            recoil_energy_j=e_rec,
            recoil_heating_k_per_s=heat,
            non_langevin_heating_bound_k_per_s=NON_LANGEVIN_HEATING_BOUND,
            background_pressure_pa=pressure,
            gas=gas.label,
            temperature_k=temperature,
        ),
    )
    return [path], []


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

# waist-rule grid and asymptote tolerance: smallest waist whose alpha_tr is
# within 2 percent of the uniform-waist value
WAIST_RULE_GRID = np.linspace(1.5, 6.0, 19)
WAIST_RULE_TOL = 0.02


def _select_waist(eq, trap, species):
    asymptote = alpha_tr_uniform(eq, trap, species)
    for factor in WAIST_RULE_GRID:
        w0 = factor * eq.r_max
        point = find_alpha_tr(eq, trap.with_waist(w0), species)
        if point.alpha_tr <= (1.0 + WAIST_RULE_TOL) * asymptote:
            return w0
    return WAIST_RULE_GRID[-1] * eq.r_max


def _task_table_one(cfg, trap, species, seed, threads, out):
    explicit = cfg.get("waists_um")
    if explicit is not None and len(explicit) != len(TABLE_ONE_N):
        raise ValidationError("waists_um must list one waist per N in (5,10,20,30)")
    omega_l = _laser_omega(trap)
    kappa = stark_coefficient(species, omega_l)
    columns = {}
    warnings = []
    for idx, n in enumerate(TABLE_ONE_N):
        try:
            eq = _equilibria(n, cfg, trap, species, seed, threads)[0]
            w0 = (
                explicit[idx] * 1e-6
                if explicit is not None
                else _select_waist(eq, trap, species)
            )
            trap_w = trap.with_waist(w0)
            alpha = find_alpha_tr(eq, trap_w, species).alpha_tr
            depth = depth_for_aspect(trap_w, species, alpha)
            intensity = depth / kappa
            power = intensity * math.pi**2 * w0**2 / (2.0 * trap.optical.finesse)
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
    path = os.path.join(out, "table1.csv")
    _write_csv(path, ["row"] + [f"N={n}" for n in TABLE_ONE_N], rows)
    return [path], warnings


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

# accept the config-file task spellings too: "transition-scan" -> "TransitionScan"
_TASK_ALIASES = {name.title().replace("-", ""): name for name in TASKS}


def run(config_path, task=None, seed=None, threads=None, out_dir=None):
    """Execute one task; returns a RunManifest. Raises on failure."""
    start = time.monotonic()
    cfg = load_config(config_path)

    task = task or cfg.get("task")
    if task in _TASK_ALIASES:
        task = _TASK_ALIASES[task]
    if task not in _TASK_IMPL:
        raise ValidationError(f"unknown task {task!r}; choose from {TASKS}")
    seed = int(seed if seed is not None else cfg.get("seed", 0))
    out = out_dir or cfg.get("output_dir", ".")
    os.makedirs(out, exist_ok=True)

    species = _build_species(cfg)
    trap = _build_trap(cfg, species)
    outputs, warnings = _TASK_IMPL[task](cfg, trap, species, seed, threads, out)

    effective = dict(cfg)
    effective["task"] = task
    effective["seed"] = seed
    manifest = RunManifest(
        config_hash=config_hash(effective),
        code_version=__version__,
        wall_time=time.monotonic() - start,
        outputs=tuple(outputs),
        warnings=tuple(warnings),
    )
    _write_json(
        os.path.join(out, "manifest.json"),
        dict(
            config_hash=manifest.config_hash,
            code_version=manifest.code_version,
            wall_time_s=manifest.wall_time,
            outputs=list(manifest.outputs),
            warnings=list(manifest.warnings),
        ),
    )
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cavitrap",
        description="2D ion crystals in a hybrid DC + optical-cavity trap",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for name in TASKS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    def fail(code, kind, message):
        print(json.dumps(dict(error=kind, message=message)), file=sys.stderr)
        return code

    try:
        manifest = run(
            args.config,
            task=args.task,
            seed=args.seed,
            threads=args.threads,
            out_dir=args.out,
        )
    except (OSError, json.JSONDecodeError) as exc:
        return fail(2, type(exc).__name__, str(exc))
    except (ValidationError, DomainError) as exc:
        return fail(3, type(exc).__name__, str(exc))
    except CavitrapError as exc:
        return fail(4, type(exc).__name__, str(exc))
    except Exception as exc:  # keep batch callers out of tracebacks
        return fail(4, type(exc).__name__, str(exc))
    for path in manifest.outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
