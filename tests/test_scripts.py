"""Smoke runs of the scripts: each finishes a two-step run."""

import hashlib
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


def test_output_digests_prints_one_sha256_per_output(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_digests.py"), "--steps", "2",
         "--out", str(tmp_path)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    digests = dict(line.split() for line in done.stdout.splitlines())
    files = [f"{mode}.{name}" for mode in ("full", "novq", "tts-only", "vc-only")
             for name in ("ckpt", "trace.csv", "eval-train.csv", "eval-test.csv")]
    inference = ["full.synth-tts-forced", "full.synth-tts-free", "full.convert-vc"]
    assert sorted(digests) == sorted(files + inference)
    for name in files:
        assert digests[name] == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
