import csv
import json
import subprocess
import sys

import pytest

from cavitrap import cli


def write_config(path, **kwargs):
    path.write_text(json.dumps(kwargs))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


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
    for key in ("config_hash", "code_version", "wall_time_s", "outputs", "warnings"):
        assert key in manifest
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


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        task="equilibrate", n_ions=6, omega_r_mhz=0.5,
        waist_um=100.0, n_restarts=10, seed=3,
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["equilibrate", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("equilibria_summary.csv", "equilibrium_00.csv", "equilibria.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_manifest_hash_covers_task_and_seed(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = dict(task="equilibrate", n_ions=4, omega_r_mhz=0.5,
               waist_um=100.0, n_restarts=6)
    write_config(cfg_path, **cfg)
    hashes = []
    for seed in (0, 5):
        out = tmp_path / f"s{seed}"
        code = cli.main([
            "equilibrate", "--config", str(cfg_path),
            "--seed", str(seed), "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        effective = dict(cfg, task="equilibrate", seed=seed)
        assert manifest["config_hash"] == cli.config_hash(effective)
        hashes.append(manifest["config_hash"])
    assert hashes[0] != hashes[1]


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
    proc = subprocess.run(
        [sys.executable, "-m", "cavitrap.cli", "equilibrate",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "equilibria_summary.csv" in proc.stdout
    assert (out / "manifest.json").exists()
