"""The benchmark's workloads: inputs from a seed, one round of fixed work, checks.

Each workload object has
  setup(cv, seed, workdir)  build the inputs (timed as set-up),
  run_round()               do the fixed work once; returns (wall seconds, ops),
  fingerprint(ops)          a value that two rounds of the same inputs must share,
  check(ops)                (per-op failed flags, problems) against oracle.py.

An op is one call a user would make. A call that raises is a failed op; so
is an output that shows a fault named in the README (duplicate minima).
Every other check that does not hold is a problem and makes the run
incorrect.
"""

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

MHZ = 2.0 * math.pi * 1e6
OMEGA_R = 0.5 * MHZ
WAVELENGTH = 1064e-9
YB171_MASS = 171.0 * oracle.ATOMIC_MASS_UNIT
INPUTS = Path(__file__).resolve().parent / "inputs"


@dataclass
class Op:
    name: str
    output: object = None
    error: str = None  # "ExceptionType: message" when the call raised


def _call(name, fn, *args):
    try:
        return Op(name, fn(*args))
    except Exception as exc:  # a failed op is data here, not a crash
        return Op(name, error=f"{type(exc).__name__}: {exc}")


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------


class Search:
    """`equilibrate` through cavitrap.cli.run on three configs, serially."""

    def configs(self, seed):
        return (
            # seed 0: this config is the fixture of the duplicate-minima fault
            dict(task="equilibrate", n_ions=20, n_restarts=16, seed=0),
            dict(task="equilibrate", n_ions=30, n_restarts=16, seed=seed,
                 lattice_variant="antinode_cos2", waist_um=21.0, omega_z_mhz=2.0),
            # seed 0: its four restarts are half the round, and their L-BFGS
            # work differs by +-15 % from one seed to the next
            dict(task="equilibrate", n_ions=120, n_restarts=4, seed=0),
        )

    def setup(self, cv, seed, workdir):
        self.cli = cv.cli
        self.jobs = []
        for k, cfg in enumerate(self.configs(seed)):
            path = Path(workdir) / f"search_{k}.json"
            path.write_text(json.dumps(cfg))
            self.jobs.append((cfg, str(path), str(Path(workdir) / f"search_{k}")))

    def run_round(self):
        start = time.perf_counter()
        ops = [_call(f"equilibrate N={cfg['n_ions']}", self.cli.run, path, None, None, None, out)
               for cfg, path, out in self.jobs]
        wall = time.perf_counter() - start
        for op, (_, _, out) in zip(ops, self.jobs):
            if op.error is None:
                op.output = _read_equilibria(Path(out))
        return wall, ops

    def fingerprint(self, ops):
        return [(op.error, op.output and list(op.output["raw"].items())) for op in ops]

    def check(self, ops):
        failed, problems = [], []
        for op, (cfg, _, _) in zip(ops, self.jobs):
            if op.error is not None:
                failed.append(True)
                problems.append(f"{op.name}: unexpected {op.error}")
                continue
            dup = _check_minima(op, cfg, problems)
            failed.append(dup)
        return failed, problems


def _read_equilibria(out):
    raw = {p.name: p.read_bytes() for p in sorted(out.glob("equilibri*"))}
    summary = json.loads(raw["equilibria.json"])
    positions = []
    for entry in summary:
        with open(out / f"equilibrium_{entry['config_index']:02d}.csv") as fh:
            rows = list(csv.DictReader(fh))
        positions.append(np.array([[float(r["x_m"]), float(r["y_m"])] for r in rows]))
    return dict(summary=summary, positions=positions, raw=raw)


def _search_trap(cfg):
    trap = oracle.Trap(YB171_MASS, OMEGA_R, OMEGA_R)
    if cfg.get("lattice_variant") == "antinode_cos2":
        depth = oracle.depth_for_omega_z(trap, cfg["omega_z_mhz"] * MHZ, WAVELENGTH)
        trap = oracle.Trap(YB171_MASS, OMEGA_R, OMEGA_R, depth, cfg["waist_um"] * 1e-6)
    return trap


def _check_minima(op, cfg, problems):
    """Problems go to `problems`; returns whether two minima duplicate each other."""
    n = cfg["n_ions"]
    trap = _search_trap(cfg)
    ell = trap.length_scale()
    force_scale = oracle.KQ / ell**2
    summary, positions = op.output["summary"], op.output["positions"]
    if not summary:
        problems.append(f"{op.name}: no minima")
        return False
    energies = [entry["energy_j"] for entry in summary]
    for entry, xy in zip(summary, positions):
        k = entry["config_index"]
        if xy.shape != (n, 2):
            problems.append(f"{op.name} #{k}: {xy.shape} positions, want ({n}, 2)")
            continue
        e_own = oracle.energy(xy, trap)
        if _rel(entry["energy_j"], e_own) > 1e-10:
            problems.append(f"{op.name} #{k}: energy {entry['energy_j']!r} J, own {e_own!r} J")
        g = np.linalg.norm(oracle.gradient(xy, trap))
        if g > 1e-7 * force_scale:
            problems.append(f"{op.name} #{k}: own |grad E| = {g / force_scale:.2e} KQ/ell^2")
        if sum(entry["ring_configuration"]) != n:
            problems.append(f"{op.name} #{k}: rings {entry['ring_configuration']} do not sum to {n}")
    if summary[0]["stability"] != "stable" or min(energies) != energies[0]:
        problems.append(f"{op.name}: the stable minimum is not the lowest")
    if any(entry["stability"] != "metastable" for entry in summary[1:]):
        problems.append(f"{op.name}: more than one minimum labelled stable")
    return any(
        summary[i]["ring_configuration"] == summary[j]["ring_configuration"]
        and _rel(energies[j], energies[i]) <= 1e-12
        for i in range(len(summary))
        for j in range(i + 1, len(summary))
    )


# ---------------------------------------------------------------------------

# exact index-1 saddle between the N = 6 (1,5) and (6) rings, above the stable
# minimum (README of the program)
N6_SADDLE_K = 0.40863


class Walk:
    """barrier_pair between the two lowest minima at N = 6 and N = 9."""

    SIZES = (6, 9)

    def setup(self, cv, seed, workdir):
        self.cv = cv
        self.species = cv.yb171()
        optical = cv.OpticalTrapConfig(WAVELENGTH, 100e-6, 0.0, cv.NODE_SIN2)
        self.trap = cv.make_trap(OMEGA_R, optical)
        # endpoints are set-up work and independent of the walk seed
        self.ends = {
            n: cv.find_equilibria(n, self.trap, self.species, n_restarts=40, seed=0)[:2]
            for n in self.SIZES
        }
        self.params = cv.BarrierWalkParams(seed=seed)

    def run_round(self):
        start = time.perf_counter()
        ops = [
            _call(f"barrier_pair N={n}", self.cv.barrier_pair, *self.ends[n],
                  self.params, self.trap, self.species)
            for n in self.SIZES
        ]
        return time.perf_counter() - start, ops

    def fingerprint(self, ops):
        return [
            (op.error, op.output and tuple(op.output["peaks"]))
            for op in ops
        ]

    def check(self, ops):
        trap = oracle.Trap(YB171_MASS, OMEGA_R, OMEGA_R)
        failed, problems = [], []
        for op, n in zip(ops, self.SIZES):
            failed.append(op.error is not None)
            if op.error is not None:
                problems.append(f"{op.name}: unexpected {op.error}")
                continue
            res = op.output
            if res["n_converged"] != self.params.n_paths:
                problems.append(f"{op.name}: {res['n_converged']}/{self.params.n_paths} paths converged")
            for k, path in enumerate(res["paths"]):
                own = np.array([oracle.energy(p, trap) for p in path.points])
                worst = np.max(np.abs(own - path.energies) / np.abs(own))
                if worst > 1e-10:
                    problems.append(f"{op.name} path {k}: energies off own by {worst:.1e} rel")
            start, other = self.ends[n]
            gap = (oracle.energy(other.xy, trap) - oracle.energy(start.xy, trap)) / oracle.BOLTZMANN
            diff = res["barrier_from_start"] - res["barrier_from_other"]
            if abs(diff - gap) > 1e-8 * abs(gap):
                problems.append(f"{op.name}: barrier difference {diff!r} K, own gap {gap!r} K")
            if n == 6 and res["barrier_from_start"] < N6_SADDLE_K:
                problems.append(
                    f"{op.name}: bound {res['barrier_from_start'] * 1e3:.2f} mK "
                    f"below the exact saddle {N6_SADDLE_K * 1e3:.2f} mK"
                )
        return failed, problems


# ---------------------------------------------------------------------------

TABLE_ONE_WAISTS_UM = (14.4, 21.0, 26.8, 27.3)
WAIST_GRID = np.linspace(1.5, 6.0, 19)  # times r_max, the table-one waist rule
MU_OVER_MAX = (1.002, 1.01, 1.1, 2.0, 10.0)
DEPTH_OVER_TRANSITION = 1.1
RABI = 2.0 * math.pi * 50e3
SDF_WAVELENGTH = 355e-9


def load_crystals(cv, seed):
    """Stored crystals as EquilibriumResults, each turned by a seeded rotation,
    reflection and relabelling.

    The isotropic trap is O(2) symmetric and the ions are identical, so every
    quantity the scan computes is invariant; only the program's inputs change.
    """
    stored = json.loads((INPUTS / "scan_crystals.json").read_text())["crystals"]
    crystals = []
    for entry in stored:
        xy = np.array(entry["xy_m"])
        rng = np.random.default_rng([seed, len(xy)])
        angle = 2.0 * math.pi * rng.random()
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        if rng.random() < 0.5:
            rot = rot @ np.diag([1.0, -1.0])
        xy = (xy @ rot.T)[rng.permutation(len(xy))]
        positions = np.zeros((len(xy), 3))
        positions[:, :2] = xy
        crystals.append(cv.EquilibriumResult(
            positions=positions.ravel(),
            energy=entry["energy_j"],
            stability=cv.STABLE,
            ring_configuration=tuple(entry["ring_configuration"]),
            ring_ambiguous=entry["ring_ambiguous"],
            r_max=entry["r_max_m"],
            d_min=entry["d_min_m"],
            n_found_duplicates=1,
            grad_norm=entry["grad_norm"],
        ))
    return crystals


class Scan:
    """alpha_tr, modes and spin graphs of stored crystals at N = 30, 120, 300."""

    def setup(self, cv, seed, workdir):
        self.cv = cv
        self.species = cv.yb171()
        self.recoil = oracle.recoil_energy(SDF_WAVELENGTH, YB171_MASS)
        optical = cv.OpticalTrapConfig(WAVELENGTH, 100e-6, 0.0, cv.NODE_SIN2)
        self.trap = cv.make_trap(OMEGA_R, optical)
        self.crystals = []
        for eq in load_crystals(cv, seed):
            waists = [w * 1e-6 for w in TABLE_ONE_WAISTS_UM]
            waists += [f * eq.r_max for f in WAIST_GRID]
            self.crystals.append((eq, waists))

    def _crystal_ops(self, eq, waists):
        cv, trap, sp = self.cv, self.trap, self.species
        n = eq.n_ions
        ops = [_call(f"find_alpha_tr N={n} w0={w0 * 1e6:.2f}um", cv.find_alpha_tr,
                     eq, trap.with_waist(w0), sp) for w0 in waists]
        ops.append(_call(f"alpha_tr_uniform N={n}", cv.alpha_tr_uniform, eq, trap, sp))

        # working point: the widest grid waist, just above its transition
        def modes(point):
            trap_w = trap.with_waist(waists[-1])
            deep = trap_w.with_depth(
                cv.depth_for_aspect(trap_w, sp, DEPTH_OVER_TRANSITION * point.alpha_tr))
            return cv.label_modes(cv.normal_modes(eq, deep, sp), eq)

        last = ops[len(waists) - 1]
        ops.append(_call(f"modes N={n}", modes, last.output) if last.error is None
                   else Op(f"modes N={n}", error="no transition point at the widest waist"))
        spectrum = ops[-1].output
        if spectrum is None:
            ops += [Op(f"spin N={n}", error="no spectrum")] * (len(MU_OVER_MAX) + 1)
            return ops
        z_max = spectrum.omega[spectrum.select(cv.OUT_OF_PLANE)].max()
        mus = [f * z_max for f in MU_OVER_MAX]
        for f, mu in zip(MU_OVER_MAX, mus):
            drive = cv.uniform_drive(n, mu, RABI, self.recoil)
            ops.append(_call(f"compute_jij N={n} mu={f}", cv.compute_jij, spectrum, eq, drive))
        drive = cv.uniform_drive(n, mus[0], RABI, self.recoil)
        ops.append(_call(f"beta_sweep N={n}", cv.beta_sweep, spectrum, eq, mus, drive))
        return ops

    def run_round(self):
        start = time.perf_counter()
        ops = [op for eq, waists in self.crystals for op in self._crystal_ops(eq, waists)]
        return time.perf_counter() - start, ops

    def fingerprint(self, ops):
        out = []
        for op in ops:
            o = op.output
            if o is None or isinstance(o, float):
                out.append((op.error, o))
            elif hasattr(o, "alpha_tr"):
                out.append(o.alpha_tr)
            elif hasattr(o, "omega_sq"):
                out.append((o.omega_sq, o.vectors, o.labels))
            elif hasattr(o, "j"):
                out.append(o.j)
            else:
                out.append(repr(o))
        return out

    def check(self, ops):
        failed = [op.error is not None for op in ops]
        problems = []
        per_crystal = len(ops) // len(self.crystals)
        for c, (eq, waists) in enumerate(self.crystals):
            block = ops[c * per_crystal:(c + 1) * per_crystal]
            self._check_crystal(eq, waists, block, problems)
        for op in ops:
            if op.error is not None and not op.error.startswith("BracketError"):
                problems.append(f"{op.name}: unexpected {op.error}")
        return failed, problems

    def _check_crystal(self, eq, waists, ops, problems):
        n, xy = eq.n_ions, eq.xy
        trap = oracle.Trap(YB171_MASS, OMEGA_R, OMEGA_R)
        alpha_ops = ops[:len(waists)]
        uniform_op, modes_op = ops[len(waists)], ops[len(waists) + 1]
        jij_ops, sweep_op = ops[len(waists) + 2:-1], ops[-1]

        uniform = oracle.alpha_uniform(xy, trap)
        if uniform_op.error is None and _rel(uniform_op.output, uniform) > 1e-9:
            problems.append(f"{uniform_op.name}: {uniform_op.output!r}, own {uniform!r}")
        solved = []
        for w0, op in zip(waists, alpha_ops):
            if op.error is not None:
                continue
            alpha = op.output.alpha_tr
            own = oracle.alpha_tr(xy, trap, w0, WAVELENGTH)
            if _rel(alpha, own) > 1e-4:
                problems.append(f"{op.name}: alpha_tr {alpha!r}, own eigenproblem {own!r}")
            if alpha < uniform * (1.0 - 1e-4):
                problems.append(f"{op.name}: alpha_tr {alpha!r} below the uniform limit {uniform!r}")
            solved.append((w0, alpha, op.name))
        solved.sort()
        for (_, a, _), (_, b, name) in zip(solved, solved[1:]):
            # each value is within half the bisection tolerance of the truth
            if b > a * (1.0 + 1e-4):
                problems.append(f"{name}: alpha_tr rises with w0 ({a!r} -> {b!r})")
        if modes_op.error is not None:
            return

        spectrum = modes_op.output
        depth = oracle.depth_for_omega_z(
            trap, DEPTH_OVER_TRANSITION * alpha_ops[-1].output.alpha_tr * OMEGA_R, WAVELENGTH)
        k_own = oracle.z_block(xy, trap, depth, waists[-1], WAVELENGTH)
        z_idx = spectrum.select(self.cv.OUT_OF_PLANE)
        w2_z = spectrum.omega_sq[z_idx]
        if _rel(np.sum(w2_z), np.trace(k_own)) > 1e-9:
            problems.append(f"modes N={n}: sum of z omega^2 {np.sum(w2_z)!r}, own trace {np.trace(k_own)!r}")
        w2_xy = spectrum.omega_sq[spectrum.select(self.cv.IN_PLANE)]
        kohn = np.sort(np.abs(w2_xy - OMEGA_R**2))[:2] / OMEGA_R**2
        if np.any(kohn > 1e-7):
            problems.append(f"modes N={n}: no in-plane COM pair at omega_r (closest {kohn})")

        z_max = spectrum.omega[z_idx].max()
        for f, op in zip(MU_OVER_MAX, jij_ops):
            if op.error is not None:
                continue
            own = oracle.jij(k_own, f * z_max, RABI, self.recoil)
            scale = np.max(np.abs(own))
            if np.max(np.abs(op.output.j - own)) > 1e-6 * scale:
                problems.append(f"{op.name}: J_ij off own mode sum by "
                                f"{np.max(np.abs(op.output.j - own)) / scale:.1e} of max|J|")
            if f == MU_OVER_MAX[0] and op.output.af_fraction != 1.0:
                problems.append(f"{op.name}: AF fraction {op.output.af_fraction}, want 1")
        if sweep_op.error is None:
            for f, rec in zip(MU_OVER_MAX, sweep_op.output):
                if rec["error"] is not None or not math.isfinite(rec["beta"]):
                    problems.append(f"{sweep_op.name} mu={f}: {rec['error']}")
