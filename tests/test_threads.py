"""cavitrap sets its BLAS and OpenMP pools to one thread unless the
environment says otherwise, and warns when numpy loaded first with nothing
set, since the pool sizes are read once, when numpy loads.

Every check runs in a fresh interpreter, as the policy acts at import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(**set_vars):
    """This environment with the three thread variables removed, then set_vars
    set, and the checkout's src/ first on the path."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(set_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def python(*args, **set_vars):
    """Run a fresh interpreter on args, with warnings turned into errors;
    its stdout."""
    done = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", *args],
        env=child_env(**set_vars), cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


PRINT_VARS = (
    "import json, os; "
    f"print(json.dumps([os.environ.get(v) for v in {THREAD_VARS!r}]))"
)


def test_import_sets_one_thread():
    assert json.loads(python("-c", "import cavitrap; " + PRINT_VARS)) == ["1", "1", "1"]


def test_exported_value_wins():
    out = python("-c", "import cavitrap; " + PRINT_VARS, OPENBLAS_NUM_THREADS="3")
    assert json.loads(out) == ["3", "1", "1"]


RECORD_WARNINGS = (
    "import warnings\n"
    "with warnings.catch_warnings(record=True) as caught:\n"
    "    warnings.simplefilter('always')\n"
    "    {imports}\n"
    "print(len(caught))\n"
    "for w in caught:\n"
    "    print(w.category.__name__, w.message)\n"
)


def caught_warnings(imports, **set_vars):
    out = python("-c", RECORD_WARNINGS.format(imports=imports), **set_vars).splitlines()
    assert int(out[0]) == len(out) - 1
    return out[1:]


def test_numpy_first_with_nothing_set_warns_once():
    (line,) = caught_warnings("import numpy; import cavitrap; import cavitrap.cli")
    assert line.startswith("UserWarning")
    assert "OPENBLAS_NUM_THREADS" in line
    assert "import cavitrap before numpy" in line


@pytest.mark.parametrize("var", THREAD_VARS)
def test_numpy_first_with_a_variable_set_is_silent(var):
    assert caught_warnings("import numpy; import cavitrap", **{var: "2"}) == []


def test_cavitrap_first_is_silent():
    assert caught_warnings("import cavitrap; import numpy") == []


def test_repo_scripts_do_not_warn():
    """A pytest session (which imports conftest), the digest script and the
    benchmark's import sequence each import cavitrap before numpy or with the
    pools set."""
    python("-m", "pytest", "-q", "-p", "no:cacheprovider",
           "tests/test_imports.py::test_checker_flags_an_unused_import")
    python("-c", "import runpy; runpy.run_path('tools/data_digest.py', run_name='digest')")
    python(
        "-c",
        "import sys; sys.path.insert(0, 'perfbench')\n"
        "import env, layers\n"
        "env.pin_threads(1)\n"
        "env.load_cavitrap()\n"
        "import workloads\n"
    )


def run_equilibrate(config, out, **set_vars):
    done = subprocess.run(
        [sys.executable, "-m", "cavitrap.cli", "equilibrate",
         "--config", str(config), "--out", str(out)],
        env=child_env(**set_vars), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "manifest.json"}


def test_default_environment_writes_the_pinned_bytes(tmp_path):
    """On several BLAS threads an N = 120 search can write other data files
    than on one; with nothing set it writes the pinned run's."""
    config = tmp_path / "eq120.json"
    config.write_text(json.dumps({"n_ions": 120, "n_restarts": 4, "seed": 0}))
    default = run_equilibrate(config, tmp_path / "default")
    pinned = run_equilibrate(config, tmp_path / "pinned",
                             **{var: "1" for var in THREAD_VARS})
    assert default and default == pinned
