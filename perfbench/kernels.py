"""Reference figures for perfbench/README.md: kernel timings and search threading.

    python3 perfbench/kernels.py                       # kernel table, BLAS on 1 thread
    python3 perfbench/kernels.py --search              # `search` configs, BLAS on 1 thread
    python3 perfbench/kernels.py --search --blas default   # BLAS at the library default
    python3 perfbench/kernels.py --search --threads 2  # find_equilibria(threads=2)

The kernel table times one call of each layer kernel at N = 10, 30, 120
and 300 (median over repeats, at least 3, up to 0.3 s) on the crystals of
the `scan` workload (N = 10 is searched here). These are reference figures,
not part of the benchmark's pass/fail.
"""

import argparse
import sys
import time

import env

def _median_time(fn, budget=0.3, max_reps=200):
    times = []
    while len(times) < 3 or (sum(times) < budget and len(times) < max_reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    times.sort()
    return times[len(times) // 2], len(times)


def kernel_table(cv):
    import numpy as np

    import oracle
    from workloads import OMEGA_R, RABI, SDF_WAVELENGTH, WAVELENGTH, YB171_MASS, load_crystals

    sp = cv.yb171()
    trap = cv.make_trap(OMEGA_R, cv.OpticalTrapConfig(WAVELENGTH, 100e-6, 0.0, cv.NODE_SIN2))
    crystals = [cv.find_equilibria(10, trap, sp, n_restarts=25, seed=0)[0]]
    crystals += load_crystals(cv, 0)
    recoil = oracle.recoil_energy(SDF_WAVELENGTH, YB171_MASS)
    ell = cv.characteristic_length(sp, trap.omega_r)

    print("kernel,n_ions,median_ms,repeats")
    for eq in crystals:
        n, xy = eq.n_ions, eq.xy
        flat = eq.xy_flat
        trap_w = trap.with_waist(6.0 * eq.r_max)
        alpha = cv.find_alpha_tr(eq, trap_w, sp).alpha_tr
        deep = trap_w.with_depth(cv.depth_for_aspect(trap_w, sp, 1.1 * alpha))
        spectrum = cv.normal_modes(eq, deep, sp)
        z_max = spectrum.omega[spectrum.select(cv.OUT_OF_PLANE)].max()
        drive = cv.uniform_drive(n, 1.01 * z_max, RABI, recoil)
        rng = np.random.default_rng(0)
        turned = (xy @ np.array([[0.6, -0.8], [0.8, 0.6]]).T)[rng.permutation(n)]
        # a walk's first step toward a target one ell away, d = ell / 20
        step = rng.standard_normal(2 * n)
        target = flat + ell * step / np.linalg.norm(step)
        walk = cv.BarrierWalkParams(d=ell / 20.0, epsilon=2.5 * ell / 20.0)

        kernels = {
            "energy+gradient": lambda: (cv.planar_energy(flat, trap, sp),
                                        cv.planar_gradient(flat, trap, sp)),
            "hessian": lambda: cv.planar_hessian(flat, trap, sp),
            "mode eigensolve": lambda: cv.normal_modes(eq, deep, sp),
            "align_configurations": lambda: cv.align_configurations(xy, turned),
            "walk step": lambda: cv.propose_step(flat, target, walk, np.random.default_rng(1),
                                                 trap, sp),
            "find_alpha_tr": lambda: cv.find_alpha_tr(eq, trap_w, sp),
            "compute_jij": lambda: cv.compute_jij(spectrum, eq, drive),
        }
        for name, fn in kernels.items():
            try:
                median, reps = _median_time(fn)
                print(f"{name},{n},{median * 1e3:.4g},{reps}", flush=True)
            except cv.CavitrapError as exc:
                print(f"{name},{n},{type(exc).__name__},1", flush=True)


def search_figures(cv, threads, rounds):
    import json
    import tempfile

    import workloads

    print("config,threads,round,seconds")
    with tempfile.TemporaryDirectory(dir=env.ROOT / ".perfbench-work") as workdir:
        for k, cfg in enumerate(workloads.Search().configs(seed=0)):
            path = f"{workdir}/search_{k}.json"
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            for r in range(rounds):
                t = time.perf_counter()
                cv.cli.run(path, threads=threads, out_dir=f"{workdir}/out_{k}")
                print(f"N={cfg['n_ions']},{threads},{r},{time.perf_counter() - t:.3f}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--search", action="store_true")
    parser.add_argument("--blas", choices=("1", "default"), default="1")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    if args.blas == "1":
        env.pin_threads(1)
    cv = env.load_cavitrap()
    import cavitrap.cli  # noqa: F401

    print(f"# threads: {env.thread_settings()}", file=sys.stderr)
    (env.ROOT / ".perfbench-work").mkdir(exist_ok=True)
    if args.search:
        search_figures(cv, args.threads, args.rounds)
    else:
        kernel_table(cv)


if __name__ == "__main__":
    main()
