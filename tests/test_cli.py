import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavitrap as cv
from scipy.optimize import brentq

from cavitrap import cli
from cavitrap.core import CONST, intensity_for_depth, intensity_from_power


def write_config(path, **kwargs):
    path.write_text(json.dumps(kwargs))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def read_strict_json(path):
    """JSON as the standard has it: NaN and Infinity are not JSON."""
    def reject(token):
        raise ValueError(f"{path.name} holds {token}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


def run_module(args, cwd):
    """cavitrap.cli in a fresh interpreter; the child does not inherit
    pytest's pythonpath setting or its warning filters."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cavitrap.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


@pytest.fixture(scope="module")
def equilibrate_run(tmp_path_factory):
    """One 10-ion equilibrate run shared by the inspection tests."""
    base = tmp_path_factory.mktemp("equilibrate")
    cfg = write_config(
        base / "cfg.json",
        task="equilibrate", n_ions=10, omega_r_mhz=0.5,
        waist_um=100.0, n_restarts=12,
    )
    out = base / "out"
    code = cli.main(["equilibrate", "--config", cfg, "--out", str(out)])
    assert code == 0
    return cfg, out


def test_outputs_exist_and_manifest_lists_them(equilibrate_run):
    _, out = equilibrate_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {f.name for f in dataclasses.fields(cli.RunManifest)}
    assert manifest["outputs"]
    for path in manifest["outputs"]:
        assert (out / path.split("/")[-1]).exists()
    assert not list(out.glob("*.part"))
    assert not list(out.glob(".tmp_*"))


def _source_hash(package):
    """The manifest's code version written out afresh: SHA-256 over each .py
    and data/*.json file of the package as path, length and bytes."""
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")) + sorted(package.glob("data/*.json")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(package).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def test_code_version_hashes_the_package_sources(equilibrate_run, tmp_path):
    """The manifest names the code that ran; a copy with one source byte
    changed names another, and importing cli computes nothing."""
    _, out = equilibrate_run
    package = Path(cli.__file__).resolve().parent
    version = json.loads((out / "manifest.json").read_text())["code_version"]
    assert version == _source_hash(package)

    copy = tmp_path / "cavitrap"
    for path in [*package.glob("*.py"), *package.glob("data/*.json")]:
        (copy / path.relative_to(package)).parent.mkdir(parents=True, exist_ok=True)
        (copy / path.relative_to(package)).write_bytes(path.read_bytes())
    (copy / "errors.py").write_bytes((package / "errors.py").read_bytes() + b"\n")
    done = subprocess.run(
        [sys.executable, "-c", "from cavitrap import cli; "
         "print(cli._code_version.cache_info().currsize, cli._code_version())"],
        env=dict(os.environ, PYTHONPATH=str(tmp_path)), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    cached, changed = done.stdout.split()
    assert cached == "0"
    assert changed == _source_hash(copy) != version


def test_summary_ring_column_and_stability(equilibrate_run):
    _, out = equilibrate_run
    rows = read_csv(out / "equilibria_summary.csv")
    header, body = rows[0], rows[1:]
    assert header[3] == "ring_configuration"
    rings = {row[3] for row in body}
    assert "2,8" in rings
    assert {row[1] for row in body} <= {"stable", "metastable"}
    # summary floats round-trip through repr
    for row in body:
        float(row[2]), float(row[4]), float(row[5])


SMALL_CONFIGS = {
    "equilibrate": dict(n_ions=6, n_restarts=10),
    "modes": dict(n_ions=4, omega_z_mhz=2.0, n_restarts=4),
    "transition-scan": dict(n_ions_list=[5, 6, 7], n_restarts=3),
    "waist-scan": dict(n_ions=5, w0_values_um=[15.0, 30.0], n_restarts=3),
    "barrier": dict(n_ions=5, n_restarts=8, n_paths=2, n_samples=200),
    "spin": dict(n_ions=6, omega_z_mhz=2.0, mu_over_max_list=[1.01, 1.1],
                 n_restarts=4),
    "lifetime": dict(n_ions=10, intensity_w_m2=1.16e12),
    "table-one": dict(waists_um=[14.4, 21.0, 27.3, 26.8], n_restarts=4),
}


@pytest.mark.parametrize("task", cli.TASKS)
def test_rerun_is_byte_identical(tmp_path, task):
    cfg = write_config(tmp_path / "cfg.json", seed=3, **SMALL_CONFIGS[task])
    manifests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main([task, "--config", cfg, "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    names = [[Path(p).name for p in m["outputs"]] for m in manifests]
    assert names[0] == names[1] and names[0]
    for fname in names[0]:
        a, b = (tmp_path / name / fname for name in ("a", "b"))
        assert a.read_bytes() == b.read_bytes()


def test_manifest_hash_covers_task_and_seed(tmp_path, monkeypatch):
    """The hash covers the resolved config: task, seed and every default read."""
    def manifest_hash(name, task="equilibrate", seed=0, **extra):
        cfg = write_config(tmp_path / f"{name}.json", n_ions=4, omega_r_mhz=0.5,
                           waist_um=100.0, **extra)
        out = tmp_path / name
        argv = [task, "--config", cfg, "--seed", str(seed), "--out", str(out)]
        assert cli.main(argv) == 0
        return json.loads((out / "manifest.json").read_text())["config_hash"]

    default = manifest_hash("default")
    assert manifest_hash("explicit", n_restarts=50) == default
    assert manifest_hash("seed", seed=5) != default
    assert manifest_hash("task", task="modes") != default
    monkeypatch.setitem(cli.CONFIG_TABLE, "n_restarts", ("integer", 6))
    assert manifest_hash("changed") != default


def test_exit_2_on_unparseable_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("")
    code = cli.main(["modes", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "JSONDecodeError"


def test_exit_2_on_missing_config(tmp_path, capsys):
    code = cli.main([
        "modes", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path),
    ])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "FileNotFoundError"


def test_exit_3_on_missing_required_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", omega_r_mhz=0.5)
    code = cli.main(["modes", "--config", cfg, "--out", str(tmp_path)])
    assert code == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert "n_ions" in diagnostic["message"]


@pytest.mark.parametrize("key, value", [
    ("n_ions", "ten"),
    ("n_restarts", "many"),
    ("omega_r_mhz", "fast"),
    ("n_ions", 5.5),
    ("n_restarts", 2.5),
    pytest.param("n_ions", 10**400, id="n_ions-too-large-for-a-float"),
    ("seed", -1),
    ("n_samples", "many"),  # read by barrier only
    pytest.param("mu_over_max_list", [1.01, "x"], id="mu_over_max_list-entry"),  # spin only
])
def test_exit_3_on_wrongly_typed_value(tmp_path, capsys, key, value):
    cfg = dict(n_ions=4, omega_r_mhz=0.5, n_restarts=4)
    cfg[key] = value
    path = write_config(tmp_path / "cfg.json", **cfg)
    code = cli.main(["equilibrate", "--config", path, "--out", str(tmp_path)])
    assert code == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ValidationError"
    assert key in diagnostic["message"]


def test_exit_3_on_unknown_key(tmp_path, capsys):
    """A typo such as n_restart is rejected, not ignored in favour of a default."""
    path = write_config(tmp_path / "cfg.json", n_ions=4, n_restart=4)
    code = cli.main(["equilibrate", "--config", path, "--out", str(tmp_path)])
    assert code == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ValidationError"
    assert "n_restart" in diagnostic["message"]
    assert not (tmp_path / "equilibria_summary.csv").exists()


@pytest.mark.parametrize("task, extra, key", [
    pytest.param("equilibrate", dict(species_file=True), "species_file",
                 id="species_file-true"),
    pytest.param("equilibrate", dict(species_file=0), "species_file",
                 id="species_file-zero"),
    pytest.param("lifetime", dict(lattice_variant=["node_sin2"]), "lattice_variant",
                 id="lattice_variant-list"),
    pytest.param("lifetime", dict(lattice_variant={"a": 1}), "lattice_variant",
                 id="lattice_variant-object"),
    pytest.param("equilibrate", dict(output_dir=5), "output_dir", id="output_dir-number"),
])
def test_exit_3_on_wrongly_typed_text(tmp_path, capsys, task, extra, key):
    path = write_config(
        tmp_path / "cfg.json", n_ions=4, n_restarts=4, depth_mk=1.0, **extra,
    )
    argv = [task, "--config", path]
    if key != "output_dir":
        argv += ["--out", str(tmp_path)]
    assert cli.main(argv) == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ValidationError"
    assert key in diagnostic["message"]


@pytest.mark.parametrize("extra, key", [
    pytest.param(dict(rabi_khz="fast"), "rabi_khz", id="rabi_khz-text"),
    pytest.param(dict(n_restarts=None), "n_restarts", id="n_restarts-null"),
    pytest.param(dict(gas="H2"), "gas", id="gas-unknown"),
])
def test_exit_3_on_a_lifetime_key_it_does_not_read(tmp_path, capsys, extra, key):
    """Every given key is checked when the config loads, not when a task
    reads it; gas is no longer a key (the background gas is H2)."""
    path = write_config(tmp_path / "cfg.json", n_ions=4, depth_mk=1.0, **extra)
    out = tmp_path / "out"
    assert cli.main(["lifetime", "--config", path, "--out", str(out)]) == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ValidationError"
    assert key in diagnostic["message"]
    assert not out.exists()


def test_exit_3_on_a_repeated_config_key(tmp_path, capsys):
    """A key given twice is an error naming it, not a silent last value."""
    path = tmp_path / "cfg.json"
    path.write_text('{"task": "lifetime", "n_ions": 10, "depth_mk": 0.5, "depth_mk": 5.0}')
    out = tmp_path / "out"
    assert cli.main(["lifetime", "--config", str(path), "--out", str(out)]) == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ValidationError"
    assert "'depth_mk'" in diagnostic["message"]
    assert not out.exists()


@pytest.mark.parametrize("extra, variant", [
    ({}, cv.ANTINODE_COS2),
    (dict(wavelength_nm=360.0), cv.NODE_SIN2),
])
def test_light_shift_sign_picks_the_lattice(species, extra, variant):
    """U = -kappa I: 1064 nm light (kappa > 0) holds the plane at an
    antinode, 360 nm light (kappa < 0) at a node."""
    assert cli._build_trap(cli.Config(extra), species).optical.lattice_variant == variant


def test_manifest_hashes_the_lattice_the_run_used(tmp_path):
    """Spelling out the lattice the light picks leaves the config hash as it is."""
    hashes = []
    for extra in ({}, dict(lattice_variant="antinode_cos2")):
        cfg = write_config(tmp_path / "cfg.json", task="lifetime", n_ions=10,
                           depth_mk=0.5, **extra)
        hashes.append(cli.run(cfg, out_dir=str(tmp_path / "out")).config_hash)
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("extra, required", [
    (dict(lattice_variant="node_sin2"), "antinode_cos2"),
    (dict(lattice_variant="antinode_cos2", wavelength_nm=360.0), "node_sin2"),
    (dict(lattice_variant="node"), "antinode_cos2"),
])
def test_exit_3_on_a_lattice_the_light_cannot_hold(tmp_path, capsys, extra, required):
    cfg = write_config(tmp_path / "cfg.json", n_ions=4, n_restarts=2, **extra)
    out = tmp_path / "out"
    assert cli.main(["equilibrate", "--config", cfg, "--out", str(out)]) == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ValidationError"
    message = diagnostic["message"]
    wavelength = f"{extra.get('wavelength_nm', 1064.0):g} nm"
    for part in ("'lattice_variant'", repr(extra["lattice_variant"]), repr(required),
                 wavelength):
        assert part in message
    assert not out.exists()


@pytest.mark.parametrize("task", ["equilibrate", "table-one"])
def test_exit_3_on_a_resonant_wavelength(tmp_path, capsys, task):
    """Every task reads the light shift to pick the lattice, so a laser on
    the 369.52 nm line fails before any search."""
    cfg = write_config(tmp_path / "cfg.json", n_ions=4, n_restarts=2, wavelength_nm=369.52)
    out = tmp_path / "out"
    assert cli.main([task, "--config", cfg, "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ResonanceError"
    assert not out.exists()


def test_exit_3_on_negative_command_line_seed(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", n_ions=4, n_restarts=4)
    argv = ["equilibrate", "--config", path, "--seed", "-3", "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ValidationError"
    assert "seed" in diagnostic["message"]


def test_config_task_of_wrong_type_rejected(tmp_path):
    path = write_config(tmp_path / "cfg.json", task=["x"], n_ions=4)
    with pytest.raises(cli.ValidationError, match="'task'"):
        cli.run(path, out_dir=str(tmp_path))


def test_threads_option_removed(tmp_path):
    path = write_config(tmp_path / "cfg.json", n_ions=4, n_restarts=4)
    with pytest.raises(cli.ValidationError, match="threads"):
        cli.run(path, threads=2, out_dir=str(tmp_path))
    with pytest.raises(SystemExit) as stop:
        cli.main(["equilibrate", "--config", path, "--threads", "2"])
    assert stop.value.code == 2
    assert not (tmp_path / "equilibria_summary.csv").exists()


def test_barrier_n20_walks_between_distinct_crystals(tmp_path):
    """N = 20 once returned copies of one crystal, 0.03 mK apart, as a barrier."""
    cfg = write_config(tmp_path / "cfg.json", n_ions=20, n_paths=2, n_samples=300)
    out = tmp_path / "out"
    assert cli.main(["barrier", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "barriers.json").read_text())
    assert payload["barrier_stable_mk"] - payload["barrier_metastable_mk"] > 100.0


@pytest.mark.parametrize("n", [3, 4])
def test_spin_without_beta_fit_writes_graph(tmp_path, n):
    """A triangle or a square has fewer than 3 distinct pair distances."""
    cfg = write_config(tmp_path / "cfg.json", n_ions=n, omega_z_mhz=2.0, n_restarts=8)
    out = tmp_path / "out"
    assert cli.main(["spin", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [Path(p).name for p in manifest["outputs"]] == [
        "jij.csv", "edges.csv", "spin_summary.json",
    ]
    assert manifest["warnings"] == [
        "beta fit skipped: need at least 3 distinct pair distances"
    ]
    summary = json.loads((out / "spin_summary.json").read_text())
    assert summary["beta"] is None and summary["residual"] is None
    assert summary["af_fraction"] == 1.0
    assert len(read_csv(out / "jij.csv")) == n + 1
    assert len(read_csv(out / "edges.csv")) == n * (n - 1) // 2 + 1


def test_transition_scan_without_fit_writes_points(tmp_path):
    """alpha_tr = 0 at N = 1 fails the power-law fit, not the scan."""
    cfg = write_config(tmp_path / "cfg.json", n_ions_list=[1, 2, 3, 4], n_restarts=4)
    out = tmp_path / "out"
    assert cli.main(["transition-scan", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [Path(p).name for p in manifest["outputs"]] == ["transition_points.csv"]
    assert not (out / "power_law_fit.json").exists()
    assert manifest["warnings"] == [
        "power-law fit skipped: FitError: power-law fit needs positive N and alpha"
    ]
    rows = read_csv(out / "transition_points.csv")
    assert [row[0] for row in rows[1:]] == ["1", "2", "3", "4"]
    assert rows[1][2:4] == ["inf", "0.0"]


@pytest.mark.parametrize("n_ions_list", [[5, 5, 5], [5, 5, 6]])
def test_transition_scan_with_two_distinct_n_writes_no_fit(tmp_path, n_ions_list):
    """Three points at two distinct N do not determine a power law."""
    cfg = write_config(tmp_path / "cfg.json", n_ions_list=n_ions_list, n_restarts=4)
    out = tmp_path / "out"
    assert cli.main(["transition-scan", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [Path(p).name for p in manifest["outputs"]] == ["transition_points.csv"]
    assert manifest["warnings"] == [
        "power-law fit skipped: FitError: need at least 3 distinct N"
    ]
    assert len(read_csv(out / "transition_points.csv")) == 1 + 3


YB171 = json.loads((Path(cv.__file__).parent / "data" / "yb171.json").read_text())


@pytest.mark.parametrize("species_data, key", [
    pytest.param(dict(YB171, mass_amu="x"), "mass_amu", id="mass_amu-text"),
    pytest.param(dict(YB171, mass_amu=math.nan), "mass_amu", id="mass_amu-nan"),
    pytest.param(dict(YB171, lines=5), "lines", id="lines-number"),
    pytest.param([YB171], None, id="top-level-list"),
    pytest.param(dict(YB171, lines=[dict(YB171["lines"][0], wavelength_nm=0)]),
                 "wavelength_nm", id="wavelength_nm-zero"),
])
def test_exit_3_on_malformed_species_file(tmp_path, capsys, species_data, key):
    """A malformed species file is a ValidationError naming the file and the
    key, not a TypeError or ZeroDivisionError from the arithmetic, nor a
    NaN mass that fails only when a task writes its JSON."""
    species_file = tmp_path / "species.json"
    species_file.write_text(json.dumps(species_data))
    cfg = write_config(tmp_path / "cfg.json", n_ions=2, species_file=str(species_file))
    out = tmp_path / "out"
    assert cli.main(["equilibrate", "--config", cfg, "--out", str(out)]) == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ValidationError"
    assert str(species_file) in diagnostic["message"]
    assert key is None or repr(key) in diagnostic["message"]
    assert not out.exists()


def test_exit_4_on_compute_failure(tmp_path, capsys):
    """At a 1 um waist the outer ions see no lattice curvature."""
    cfg = write_config(tmp_path / "cfg.json", n_ions_list=[30], waist_um=1.0,
                       n_restarts=2)
    code = cli.main(["transition-scan", "--config", cfg, "--out", str(tmp_path)])
    assert code == 4
    assert json.loads(capsys.readouterr().err.strip())["error"] == "BracketError"
    assert not (tmp_path / "transition_points.csv").exists()


def test_exit_4_on_unexpected_error(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("broken task")

    monkeypatch.setitem(cli._TASK_IMPL, "modes", broken)
    cfg = write_config(tmp_path / "cfg.json", n_ions=4)
    assert cli.main(["modes", "--config", cfg, "--out", str(tmp_path)]) == 4
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic == dict(error="RuntimeError", message="broken task")


@pytest.mark.parametrize("task, extra, key", [
    pytest.param("transition-scan", dict(n_ions_list=[5, "ten"]), "n_ions_list",
                 id="n_ions_list-entry"),
    pytest.param("transition-scan", dict(n_ions_list=5), "n_ions_list",
                 id="n_ions_list-scalar"),
    pytest.param("transition-scan", dict(n_ions_list=[10, 12.5]), "n_ions_list",
                 id="n_ions_list-fraction"),
    pytest.param("waist-scan", dict(n_ions=3, w0_values_um=[20.0, None]),
                 "w0_values_um", id="w0_values_um-entry"),
    pytest.param("spin", dict(n_ions=3, mu_over_max_list=[1.01, True]),
                 "mu_over_max_list", id="mu_over_max_list-entry"),
    pytest.param("table-one", dict(waists_um=5), "waists_um", id="waists_um-scalar"),
    pytest.param("table-one", dict(waists_um=[10, 20, "x", 40]), "waists_um",
                 id="waists_um-entry"),
])
def test_exit_3_on_wrongly_typed_list(tmp_path, capsys, task, extra, key):
    path = write_config(
        tmp_path / "cfg.json", omega_r_mhz=0.5, omega_z_mhz=2.0, waist_um=21.0,
        n_restarts=2, **extra,
    )
    code = cli.main([task, "--config", path, "--out", str(tmp_path)])
    assert code == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ValidationError"
    assert key in diagnostic["message"]


def test_integral_float_count_runs_as_int(tmp_path):
    outs = []
    for n_ions in (5, 5.0):
        path = write_config(tmp_path / "cfg.json", n_ions=n_ions, n_restarts=4)
        out = tmp_path / repr(n_ions)
        assert cli.main(["equilibrate", "--config", path, "--out", str(out)]) == 0
        outs.append(out)
    assert len(read_csv(outs[1] / "equilibrium_00.csv")) == 1 + 5
    for fname in ("equilibria_summary.csv", "equilibrium_00.csv", "equilibria.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_valid_lists_pass_unconverted():
    values = [5, 10.0, 2.5e-3]
    assert cli.Config({"w0_values_um": values}).read("w0_values_um") is values
    ints = cli.Config({"n_ions_list": [5, 10.0]}).read("n_ions_list")
    assert ints == [5, 10] and all(type(v) is int for v in ints)


def test_exit_3_lifetime_without_intensity_or_depth(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", n_ions=10)
    code = cli.main(["lifetime", "--config", cfg, "--out", str(tmp_path)])
    assert code == 3
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ValidationError"


def test_lifetime_payload(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        n_ions=10, intensity_w_m2=1.16e12, waist_um=21.0,
    )
    out = tmp_path / "out"
    assert cli.main(["lifetime", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "lifetime.json").read_text())
    assert payload["gamma_meta_per_s"] == pytest.approx(
        payload["gamma_off_per_s"] / 200.0, rel=1e-12
    )
    assert payload["tau_s"] == pytest.approx(
        1.0 / (payload["gamma_meta_per_s"] * 10), rel=1e-12
    )
    # 1e-11 mbar H2 at room temperature: ~1.3 Langevin collisions per hour
    assert payload["langevin_rate_per_hour"] == pytest.approx(1.284, abs=2e-3)
    assert payload["non_langevin_heating_bound_k_per_s"] == 1e-4
    assert payload["gas"] == "H2"


def test_lifetime_reports_the_intensity_of_power_w(tmp_path):
    """At 0.139 W into the default cavity the intensity, turned into a depth
    and back, lands one ulp off; the lifetime reports the intensity itself.
    No power is no light, as intensity_w_m2 = 0 is."""
    waist = 100.0 * 1e-6  # as the CLI turns waist_um into metres
    for power in (0.139, 0.0):
        cfg = write_config(tmp_path / "cfg.json", n_ions=10, power_w=power)
        out = tmp_path / f"out_{power}"
        assert cli.main(["lifetime", "--config", cfg, "--out", str(out)]) == 0
        payload = read_strict_json(out / "lifetime.json")
        assert payload["intensity_w_m2"] == intensity_from_power(power, 3000.0, waist)
    assert payload["tau_s"] is None


def test_lifetime_inverts_a_depth_key_and_intensity_key_wins(tmp_path, species, capsys):
    """depth_mk is turned into an intensity; intensity_w_m2 given with it is
    a second light key, which exits 3 instead of winning."""
    # the depth and laser frequency as the CLI forms them from its keys
    depth = 0.5 * 1e-3 * CONST.boltzmann
    omega_l = 2.0 * math.pi * CONST.speed_of_light / (1064.0 * 1e-9)
    cfg = write_config(tmp_path / "cfg.json", n_ions=10, depth_mk=0.5)
    out = tmp_path / "out"
    assert cli.main(["lifetime", "--config", cfg, "--out", str(out)]) == 0
    reported = read_strict_json(out / "lifetime.json")["intensity_w_m2"]
    assert reported == intensity_for_depth(species, omega_l, depth)

    cfg = write_config(tmp_path / "cfg.json", n_ions=10, depth_mk=0.5,
                       intensity_w_m2=1.16e12)
    assert cli.main(["lifetime", "--config", cfg, "--out", str(tmp_path / "two")]) == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ValidationError"
    assert "depth_mk" in diagnostic["message"]
    assert "intensity_w_m2" in diagnostic["message"]
    assert not (tmp_path / "two" / "lifetime.json").exists()


LIGHT_VALUES = dict(depth_mk=0.5, omega_z_mhz=2.0, intensity_w_m2=1.16e12, power_w=0.31)


@pytest.mark.parametrize("task, extra, keys", [
    *(pytest.param("modes", {a: LIGHT_VALUES[a], b: LIGHT_VALUES[b]}, [a, b],
                   id=f"{a}+{b}")
      for a, b in itertools.combinations(LIGHT_VALUES, 2)),
    pytest.param("lifetime", dict(LIGHT_VALUES), list(LIGHT_VALUES), id="all-light"),
    pytest.param("spin", dict(omega_z_mhz=2.0, mu_mhz=1.0, mu_over_max=1.002),
                 ["mu_mhz", "mu_over_max"], id="mu_mhz+mu_over_max"),
    *(pytest.param(task, dict(depth_mk=0.5, mu_mhz=1.0, mu_over_max=1.002),
                   ["mu_mhz", "mu_over_max"], id=f"mu_mhz+mu_over_max-{task}")
      for task in ("lifetime", "equilibrate", "table-one")),
    pytest.param("modes", dict(omega_x_mhz=0.5), ["omega_x_mhz"], id="omega_x_mhz"),
])
def test_exit_3_on_two_alternative_keys(tmp_path, capsys, task, extra, keys):
    """Two keys of one group are an error naming both, not a silent choice;
    omega_x_mhz is no longer a key at all."""
    cfg = write_config(tmp_path / "cfg.json", n_ions=4, n_restarts=2, **extra)
    out = tmp_path / "out"
    assert cli.main([task, "--config", cfg, "--out", str(out)]) == 3
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "ValidationError"
    assert all(key in diagnostic["message"] for key in keys)
    assert not out.exists()


def test_one_alternative_key_with_the_others_null_runs(tmp_path):
    """A null counts as absent, so one given key and nulls is one key."""
    cfg = write_config(tmp_path / "cfg.json", n_ions=10, depth_mk=None,
                       omega_z_mhz=None, power_w=None, intensity_w_m2=1.16e12)
    out = tmp_path / "out"
    assert cli.main(["lifetime", "--config", cfg, "--out", str(out)]) == 0
    assert read_strict_json(out / "lifetime.json")["intensity_w_m2"] == 1.16e12


def test_mu_mhz_sets_the_drive(tmp_path):
    """mu_mhz alone sets the drive frequency that spin_summary.json reports."""
    cfg = write_config(tmp_path / "cfg.json", n_ions=6, omega_z_mhz=2.0,
                       n_restarts=4, mu_mhz=2.1)
    out = tmp_path / "out"
    assert cli.main(["spin", "--config", cfg, "--out", str(out)]) == 0
    summary = read_strict_json(out / "spin_summary.json")
    assert summary["mu_rad_per_s"] == 2.1 * cli.MHZ


@pytest.fixture(scope="module")
def table_one_crystals(bare_trap_100, species):
    """The stable crystals a default table-one run uses (8 restarts, seed 0)."""
    return {n: cv.find_equilibria(n, bare_trap_100, species, n_restarts=8, seed=0)[0]
            for n in cli.TABLE_ONE_N}


def _alpha_ratio(eq, trap, species, w0):
    """alpha_tr at waist w0 over the uniform-waist value."""
    alpha = cv.find_alpha_tr(eq, trap.with_waist(w0), species).alpha_tr
    return alpha / cv.alpha_tr_uniform(eq, trap, species)


@pytest.mark.parametrize("n", cli.TABLE_ONE_N)
def test_waist_rule_returns_its_root(n, table_one_crystals, bare_trap_100, species):
    """The waist meets the 2 % rule to brentq's tolerance, and 1 % less does not."""
    eq = table_one_crystals[n]
    w0 = cli._select_waist(eq, bare_trap_100, species)
    limit = 1.0 + cli.WAIST_RULE_TOL
    assert abs(_alpha_ratio(eq, bare_trap_100, species, w0) - limit) <= 1e-9
    assert _alpha_ratio(eq, bare_trap_100, species, 0.99 * w0) > limit


@pytest.mark.parametrize("n", cli.TABLE_ONE_N)
def test_waist_rule_solves_each_waist_once(n, table_one_crystals, bare_trap_100, species,
                                           monkeypatch):
    """No waist is solved twice, and the waist is the one the rule's loop
    and brentq give without a memo."""
    eq = table_one_crystals[n]
    limit = (1.0 + cli.WAIST_RULE_TOL) * cv.alpha_tr_uniform(eq, bare_trap_100, species)

    def excess(factor):
        w0 = factor * eq.r_max
        return cv.find_alpha_tr(eq, bare_trap_100.with_waist(w0), species).alpha_tr - limit

    lo = hi = 1.5
    while excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    expected = (hi if lo == hi else brentq(excess, lo, hi)) * eq.r_max

    waists = []

    def counted(eq, trap, species):
        waists.append(trap.optical.waist)
        return cv.find_alpha_tr(eq, trap, species)

    monkeypatch.setattr(cli, "find_alpha_tr", counted)
    assert cli._select_waist(eq, bare_trap_100, species) == expected
    assert len(waists) >= 3 and len(set(waists)) == len(waists)


@pytest.mark.parametrize("variant", [cv.NODE_SIN2, cv.ANTINODE_COS2])
def test_waist_rule_ratio_falls_with_waist(variant, table_one_crystals, bare_trap_100,
                                           species):
    """alpha_tr / alpha_tr_uniform falls strictly from 1.5 to 20 r_max, so the
    rule's bracket closes and its root is unique."""
    trap = dataclasses.replace(bare_trap_100, optical=dataclasses.replace(
        bare_trap_100.optical, lattice_variant=variant))
    for eq in table_one_crystals.values():
        ratios = [_alpha_ratio(eq, trap, species, f * eq.r_max)
                  for f in np.linspace(1.5, 20.0, 371)]
        assert np.all(np.diff(ratios) < 0.0)


def test_table_one_writes_the_rule_waists(tmp_path, table_one_crystals, bare_trap_100,
                                          species):
    """Without waists_um the table's waists are the rule's, with no warning."""
    cfg = write_config(tmp_path / "cfg.json", n_restarts=8, seed=0)
    out = tmp_path / "out"
    assert cli.main(["table-one", "--config", cfg, "--out", str(out)]) == 0
    assert read_strict_json(out / "manifest.json")["warnings"] == []
    rows = {row[0]: row[1:] for row in read_csv(out / "table1.csv")}
    assert rows["Trapping beam waist w0 [um]"] == [
        f"{cli._select_waist(table_one_crystals[n], bare_trap_100, species) * 1e6:.3g}"
        for n in cli.TABLE_ONE_N
    ]


def test_ring_ambiguity_is_one_warning(tmp_path):
    """Every minimum with an ambiguous ring label is counted in one warning."""
    cfg = write_config(tmp_path / "cfg.json", n_ions=120, n_restarts=4)
    out = tmp_path / "out"
    assert cli.main(["equilibrate", "--config", cfg, "--out", str(out)]) == 0
    entries = read_strict_json(out / "equilibria.json")
    ambiguous = [e["config_index"] for e in entries if e["ring_ambiguous"]]
    assert len(ambiguous) >= 2
    assert read_strict_json(out / "manifest.json")["warnings"] == [
        f"ring clustering ambiguous in {len(ambiguous)} of {len(entries)} "
        f"configurations: {ambiguous}"
    ]


def test_single_ion_equilibrate_writes_null_spacing(tmp_path):
    """One ion has no pair, so no minimum spacing: null in JSON, nan in CSV."""
    cfg = write_config(tmp_path / "cfg.json", n_ions=1, n_restarts=2)
    out = tmp_path / "out"
    assert cli.main(["equilibrate", "--config", cfg, "--out", str(out)]) == 0
    (entry,) = read_strict_json(out / "equilibria.json")
    assert entry["d_min_m"] is None and entry["r_max_m"] == 0.0
    assert read_csv(out / "equilibria_summary.csv")[1][5] == "nan"


def test_lifetime_without_light_writes_null_tau(tmp_path):
    """No light, no metastable scattering: tau is infinite, written as null."""
    cfg = write_config(tmp_path / "cfg.json", n_ions=10, intensity_w_m2=0.0)
    out = tmp_path / "out"
    assert cli.main(["lifetime", "--config", cfg, "--out", str(out)]) == 0
    payload = read_strict_json(out / "lifetime.json")
    assert payload["tau_s"] is None and payload["gamma_meta_per_s"] == 0.0
    assert read_strict_json(out / "manifest.json")["warnings"] == [
        "tau_s is infinite (no metastable scattering); written as null"
    ]


def test_lifetime_zero_depth_is_no_light(tmp_path):
    """A zero depth_mk writes what a zero intensity writes; only a config
    with no light key at all exits 3."""
    written = []
    for key in ("intensity_w_m2", "depth_mk"):
        cfg = write_config(tmp_path / "cfg.json", n_ions=10, **{key: 0.0})
        out = tmp_path / key
        assert cli.main(["lifetime", "--config", cfg, "--out", str(out)]) == 0
        written.append(((out / "lifetime.json").read_bytes(),
                        read_strict_json(out / "manifest.json")["warnings"]))
    assert written[0] == written[1]
    assert read_strict_json(tmp_path / "depth_mk" / "lifetime.json")["tau_s"] is None


def test_single_ion_modes_writes_no_warning(tmp_path):
    """The label basis of one ion is the uniform pattern alone; nothing is 0/0."""
    cfg = write_config(tmp_path / "cfg.json", n_ions=1, n_restarts=2)
    out = tmp_path / "out"
    proc = run_module(["modes", "--config", cfg, "--out", str(out)], tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert read_csv(out / "modes.csv")[1][4] == "com"


def test_finesse_doubling_doubles_intensity(tmp_path):
    intensities = []
    for finesse in (3000.0, 6000.0):
        cfg = write_config(
            tmp_path / f"cfg_{int(finesse)}.json",
            n_ions=5, power_w=0.31, finesse=finesse, waist_um=21.0,
        )
        out = tmp_path / f"out_{int(finesse)}"
        assert cli.main(["lifetime", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "lifetime.json").read_text())
        intensities.append(payload["intensity_w_m2"])
    assert intensities[1] == pytest.approx(2 * intensities[0], rel=1e-12)


def test_modes_task_and_config_alias(tmp_path):
    """The config's task key, with no task given to run, picks the modes task."""
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        task="modes", n_ions=4, omega_r_mhz=0.5, waist_um=100.0,
        omega_z_mhz=2.0, n_restarts=8, output_dir=str(tmp_path / "out"),
    )
    manifest = cli.run(str(cfg_path))
    out = tmp_path / "out"
    rows = read_csv(out / "modes.csv")
    assert rows[0] == ["mode_index", "partition", "frequency_hz",
                       "imaginary", "label"]
    assert len(rows) == 1 + 12
    labels = {row[4] for row in rows[1:]}
    assert "com" in labels
    assert set(row[1] for row in rows[1:]) == {"in_plane", "out_of_plane"}
    vectors = json.loads((out / "eigenvectors.json").read_text())["vectors"]
    assert len(vectors) == 12 and len(vectors[0]) == 12
    assert any(p.endswith("modes.csv") for p in manifest.outputs)


def test_config_round_trip(tmp_path):
    cfg = dict(task="spin", n_ions=10, omega_z_mhz=2.0, waist_um=21.0,
               mu_over_max_list=[1.01, 1.1, 2.0], seed=7)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    loaded = cli.load_config(str(path))
    assert json.loads(json.dumps(loaded)) == loaded == cfg
    assert cli.config_hash(loaded) == cli.config_hash(cfg)


def test_unknown_task_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, task="Frobnicate", n_ions=4)
    with pytest.raises(cli.ValidationError):
        cli.run(str(cfg_path))


def test_camelcase_task_is_unknown(tmp_path):
    """A task has one spelling: "Equilibrate" is a ValidationError (exit 3)
    naming it, and nothing is written."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", task="Equilibrate", n_ions=4,
                       output_dir=str(out))
    with pytest.raises(cli.ValidationError, match="unknown task 'Equilibrate'"):
        cli.run(cfg)
    assert not out.exists()


def test_console_script_smoke(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", n_ions=2, omega_r_mhz=0.5,
        waist_um=100.0, n_restarts=4,
    )
    out = tmp_path / "out"
    proc = run_module(["equilibrate", "--config", cfg, "--out", str(out)], tmp_path)
    assert proc.returncode == 0
    assert "equilibria_summary.csv" in proc.stdout
    assert (out / "manifest.json").exists()


def test_readme_lists_every_config_key():
    """Every key is in the README, and every key row of its config table is
    a key, so a removed key cannot stay in the docs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [key for key in cli.CONFIG_TABLE if f"`{key}`" not in readme] == []
    table = readme.split("| key | unit | type | default | tasks |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", table, re.M)
    assert len(rows) == len(cli.CONFIG_TABLE)
    assert [key for key in rows if key not in cli.CONFIG_TABLE] == []
