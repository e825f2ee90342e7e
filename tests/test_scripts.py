"""The scripts under scripts/ run to the end and report no failure."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPTS = [["run_catalog.py"], ["flatten_sweep.py"],
           ["specseq_audit.py", "--instances", "5"]]


@pytest.mark.parametrize("argv", SCRIPTS, ids=[a[0] for a in SCRIPTS])
def test_script_runs_clean(argv):
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not any(word in line for line in proc.stdout.splitlines()
                   for word in ("FAIL", "MISMATCH"))
