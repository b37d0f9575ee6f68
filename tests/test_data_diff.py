import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "data_diff", Path(__file__).resolve().parents[1] / "tools" / "data_diff.py")
data_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(data_diff)


def _tree(root, r_m, gas):
    (root / "spin").mkdir(parents=True)
    (root / "spin" / "edges.csv").write_text(
        "i,j,r_m,sign\n0,1,1e-05,AF\n" + f"0,2,{r_m!r},FM\n")
    (root / "spin" / "manifest.json").write_text(f'{{"wall_time_s": {r_m!r}}}\n')
    (root / "lifetime").mkdir()
    (root / "lifetime" / "lifetime.json").write_text(f'{{"gas": "{gas}", "tau_s": 12.5}}\n')


def test_one_ulp_and_text_differences(tmp_path, capsys):
    r_m = 1.7300000000000001e-05
    _tree(tmp_path / "old", r_m, "H2")
    _tree(tmp_path / "new", float(np.nextafter(r_m, 1.0)), "H2")
    assert data_diff.main(tmp_path / "old", tmp_path / "new") == 1
    out = capsys.readouterr().out.splitlines()
    # one field moved by 1 ulp; the manifest and the equal file are not listed
    assert out == ["spin/edges.csv: 1 of 6 numeric fields differ, max rel 2e-16"]

    (tmp_path / "new" / "lifetime" / "lifetime.json").write_text(
        '{"gas": "He", "tau_s": 12.5}\n')
    (tmp_path / "new" / "spin" / "beta_sweep.csv").write_text("mu_hz\n")
    assert data_diff.main(tmp_path / "old", tmp_path / "new") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ['lifetime/lifetime.json: text differs',
                       '  -{"gas": "H2", "tau_s": 12.5}',
                       '  +{"gas": "He", "tau_s": 12.5}']
    assert out[3] == f"spin/beta_sweep.csv: only in {tmp_path / 'new'}"

    assert data_diff.main(tmp_path / "old", tmp_path / "old") == 0
    assert capsys.readouterr().out == ""


def test_data_files_match_the_committed_digest(tmp_path):
    """tools/data_digest.txt pins the bytes of every digest config's data
    files, so a change that moves any shows as a diff of that file.

    Its first line names the environment it was recorded in. Where this run's
    environment (Python, numpy, scipy, their BLAS, the machine) differs, the
    bytes may differ without a code change; the test then still runs, passes
    when every digest matches, and otherwise reports an expected failure that
    names both environments and the files that moved."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "tools/data_digest.py", str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    fresh = done.stdout.splitlines()
    committed = (ROOT / "tools" / "data_digest.txt").read_text().splitlines()
    moved = sorted({line.split()[-1] for line in set(fresh[1:]) ^ set(committed[1:])})
    if moved and fresh[0] != committed[0]:
        pytest.xfail(f"recorded on {committed[0][2:]}, run on {fresh[0][2:]}: "
                     f"{len(moved)} data files differ: {moved}")
    assert fresh[1:] == committed[1:], f"data files moved: {moved}"
