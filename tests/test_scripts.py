"""Smoke runs of the experiment scripts: each finishes a two-step run."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_experiment_scripts_run(tmp_path):
    for argv in (["run_trends.py", "--steps", "2"], ["overfit_demo.py", "--max-steps", "2"]):
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / argv[0]), *argv[1:], "--out", str(tmp_path / argv[0])],
            capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, f"{argv[0]}:\n{done.stderr}"
