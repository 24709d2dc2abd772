"""Smoke tests of the end-to-end scripts, each run in a subprocess at a small size."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_few_step_sweep(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    proc = run_script("few_step_sweep.py", "--dim", "8", "--chains", "20",
                      "--csv", str(csv_path), tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "conjugate advantage" in proc.stdout
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "method,schedule_kind,w,lambda,tau,mse"
    assert f"wrote {len(rows) - 1} rows" in proc.stdout


def test_posterior_recovery(tmp_path):
    proc = run_script("posterior_recovery.py", "--dim", "8", "--chains", "200",
                      "--nfe", "20", tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    methods = ("conjugate_diffusion", "explicit_diffusion", "conjugate_flow",
               "explicit_flow")
    rows = [line.split()[0] for line in proc.stdout.splitlines()
            if line.split() and line.split()[0] in methods]
    assert sorted(rows) == sorted(methods)
