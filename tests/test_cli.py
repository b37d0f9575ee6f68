import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    pytest.param("lifetime", dict(gas=["H2"]), "gas", id="gas-list"),
    pytest.param("lifetime", dict(gas={"a": 1}), "gas", id="gas-object"),
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


def test_lifetime_inverts_a_depth_key_and_intensity_key_wins(tmp_path, species):
    """depth_mk is turned into an intensity; intensity_w_m2, when also
    given, is the one reported, as it always was."""
    # the depth and laser frequency as the CLI forms them from its keys
    depth = 0.5 * 1e-3 * CONST.boltzmann
    omega_l = 2.0 * math.pi * CONST.speed_of_light / (1064.0 * 1e-9)
    reported = []
    for extra in ({}, {"intensity_w_m2": 1.16e12}):
        cfg = write_config(tmp_path / "cfg.json", n_ions=10, depth_mk=0.5, **extra)
        out = tmp_path / f"out_{len(reported)}"
        assert cli.main(["lifetime", "--config", cfg, "--out", str(out)]) == 0
        reported.append(read_strict_json(out / "lifetime.json")["intensity_w_m2"])
    assert reported == [intensity_for_depth(species, omega_l, depth), 1.16e12]


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
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        task="Modes", n_ions=4, omega_r_mhz=0.5, waist_um=100.0,
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


@pytest.mark.parametrize("spelling, task", [
    ("Equilibrate", "equilibrate"),
    ("Modes", "modes"),
    ("TransitionScan", "transition-scan"),
    ("WaistScan", "waist-scan"),
    ("Barrier", "barrier"),
    ("Spin", "spin"),
    ("Lifetime", "lifetime"),
    ("TableOne", "table-one"),
])
def test_camelcase_task_alias_resolves(spelling, task, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "_TASK_IMPL", {
        name: (lambda *args, name=name: ran.append(name) or ([], []))
        for name in cli.TASKS
    })
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, task=spelling, output_dir=str(tmp_path / "out"))
    cli.run(str(cfg_path))
    assert ran == [task]


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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [key for key in cli.CONFIG_TABLE if f"`{key}`" not in readme] == []
