"""Regenerate the stored crystals of the `scan` workload.

    python3 perfbench/make_inputs.py [--seed 0]

Finds the lowest planar minimum at N = 30, 120 and 300 (8, 4 and 2
restarts) in the benchmark trap (omega_r / 2pi = 0.5 MHz, isotropic, node
lattice, which is dark on the crystal plane) and writes
perfbench/inputs/scan_crystals.json. Takes about 20 s on one core.
"""

import argparse
import json
import math

import env

env.pin_threads(1)

RESTARTS = {30: 8, 120: 4, 300: 2}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cv = env.load_cavitrap()
    from workloads import INPUTS, OMEGA_R, WAVELENGTH

    species = cv.yb171()
    trap = cv.make_trap(OMEGA_R, cv.OpticalTrapConfig(WAVELENGTH, 100e-6, 0.0, cv.NODE_SIN2))
    crystals = []
    for n, restarts in RESTARTS.items():
        eq = cv.find_equilibria(n, trap, species, n_restarts=restarts, seed=args.seed)[0]
        crystals.append(dict(
            n_ions=n,
            n_restarts=restarts,
            energy_j=eq.energy,
            ring_configuration=list(eq.ring_configuration),
            ring_ambiguous=eq.ring_ambiguous,
            r_max_m=eq.r_max,
            d_min_m=eq.d_min,
            grad_norm=eq.grad_norm,
            xy_m=eq.xy.tolist(),
        ))
    INPUTS.mkdir(exist_ok=True)
    payload = dict(
        command=f"python3 perfbench/make_inputs.py --seed {args.seed}",
        trap=dict(omega_r_mhz=OMEGA_R / (2.0 * math.pi * 1e6), anisotropy=0.0,
                  lattice_variant="node_sin2", wavelength_nm=WAVELENGTH * 1e9,
                  species="yb171"),
        crystals=crystals,
    )
    (INPUTS / "scan_crystals.json").write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
