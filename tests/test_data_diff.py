import importlib.util
from pathlib import Path

import numpy as np

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
