"""SHA-256 of every CLI data file over a fixed set of configs.

    python tools/data_digest.py OUT

runs each config below through cavitrap.cli.run into OUT/<config>/ and
prints a header line naming the environment (Python, numpy and scipy with
their BLAS, the machine), then one line per data file, manifests excluded
(they carry timings):

    <sha256>  <config>/<file>

Two checkouts that write byte-identical data files print identical
output, so `diff` of the two printouts is the byte-identity check. The
cavitrap package is imported from the Python path, so
`PYTHONPATH=<checkout>/src` picks the checkout to digest. data_digest.txt
beside this script is the printout of the current tree, and
tests/test_data_diff.py checks the tree against it.
"""

import os

# BLAS threads can change the last bits of an eigensolve. cavitrap defaults
# to one thread but lets an exported value win; the digests must not follow
# one, so force it here, before cavitrap and numpy load
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from cavitrap import cli  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from environment import environment  # noqa: E402

CONFIGS = {
    "equilibrate-n30": dict(task="equilibrate", n_ions=30, n_restarts=12),
    "equilibrate-n120": dict(task="equilibrate", n_ions=120, n_restarts=4),
    "transition-scan-30-120": dict(
        task="transition-scan", n_ions_list=[30, 60, 90, 120], n_restarts=4),
    "transition-scan-two-points": dict(task="transition-scan", n_ions_list=[5, 6]),
    "table-one-waist-rule": dict(task="table-one", n_restarts=8),
    "table-one-readme-waists": dict(
        task="table-one", waists_um=[14.4, 21.0, 27.3, 26.8], n_restarts=8),
    "barrier-n6": dict(task="barrier", n_ions=6, n_paths=3),
    "barrier-n9": dict(task="barrier", n_ions=9, n_paths=2),
    "barrier-n9-anisotropic": dict(task="barrier", n_ions=9, n_paths=2, anisotropy=0.07),
    "spin-n10-sweep": dict(task="spin", n_ions=10, omega_z_mhz=2.0,
                           mu_over_max_list=[1.01, 1.1, 2.0, 10.0]),
    "spin-n4": dict(task="spin", n_ions=4, omega_z_mhz=2.0),
    "modes-n10": dict(task="modes", n_ions=10, omega_z_mhz=2.0),
    # 360 nm is blue of the 369.52 nm line, so the light holds the plane at a node
    "waist-scan-node": dict(task="waist-scan", n_ions=10, wavelength_nm=360.0,
                            w0_values_um=[15.0, 21.0, 30.0, 60.0]),
    "waist-scan-antinode": dict(task="waist-scan", n_ions=10,
                                lattice_variant="antinode_cos2", omega_z_mhz=2.0,
                                w0_values_um=[15.0, 21.0, 30.0, 60.0]),
    "lifetime-intensity": dict(task="lifetime", n_ions=10, intensity_w_m2=1.16e12),
    "lifetime-power": dict(task="lifetime", n_ions=10, power_w=0.31, waist_um=21.0),
    "lifetime-depth": dict(task="lifetime", n_ions=10, depth_mk=0.5, waist_um=21.0),
    "lifetime-omega-z": dict(task="lifetime", n_ions=10, omega_z_mhz=2.0, waist_um=21.0),
}


def main(out):
    Path(out).mkdir(parents=True, exist_ok=True)
    print(f"# {environment()}")
    for name, cfg in CONFIGS.items():
        path = Path(out) / f"{name}.json"
        path.write_text(json.dumps(cfg))
        for data_file in cli.run(str(path), out_dir=str(Path(out) / name)).outputs:
            digest = hashlib.sha256(Path(data_file).read_bytes()).hexdigest()
            print(f"{digest}  {name}/{Path(data_file).name}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/data_digest.py OUT")
    main(sys.argv[1])
