"""Cold start: scipy.special is imported only by a run that calls into it.

Each check runs in a fresh interpreter, because this test process has
already imported scipy.
"""

import json
import os
import pathlib
import subprocess
import sys

import turbulight
from turbulight.cli import run

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"
# The directory turbulight was imported from, so the child imports the same.
_IMPORT_ROOT = str(pathlib.Path(turbulight.__file__).resolve().parents[1])

# Prints whether scipy was loaded after the given statements ran.
_PROBE = "import sys\n{body}\nprint('scipy' in sys.modules)\n"


def _loads_scipy(body, *args):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": _IMPORT_ROOT + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.strip()
    assert loaded in ("True", "False"), done.stdout
    return loaded == "True"


def _cli_loads_scipy(config, out_dir):
    body = ("from turbulight.cli import main\n"
            "assert main(sys.argv[1:]) == 0")
    return _loads_scipy(body, "--config", str(config), "--out-dir", str(out_dir))


def test_importing_the_package_and_the_cli_leaves_scipy_unloaded():
    assert not _loads_scipy("import turbulight, turbulight.cli")


def test_runs_that_call_no_special_function_leave_scipy_unloaded(tmp_path):
    for name in ("dgcz_domain", "pdt_info_empirical"):
        assert not _cli_loads_scipy(CONFIG_DIR / f"{name}.json", tmp_path / name)


def test_log_normal_run_loads_scipy_and_matches_the_in_process_run(tmp_path):
    config = {
        "scenario": "mandel",
        "pdt": {"family": "lognormal", "mu": -0.4, "sigma": 0.3, "lo": 0.1},
        "q_in": -0.5,
        "n_grid": [0.5, 2.0],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert _cli_loads_scipy(path, tmp_path / "child")
    run(config, str(tmp_path / "in_process"))
    child = (tmp_path / "child" / "mandel.csv").read_bytes()
    assert child == (tmp_path / "in_process" / "mandel.csv").read_bytes()
