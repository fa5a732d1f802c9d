"""Smoke tests: the scripts under scripts/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_gadget_demo_finds_its_own_certificate():
    proc = run_script("gadget_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "solver found its own certificate" in proc.stdout


def test_corpus_survey_runs():
    proc = run_script("corpus_survey.py")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "petersen" in proc.stdout


def test_corpus_survey_with_raised_limit_solves_moebius_kantor():
    proc = run_script("corpus_survey.py", "--limit-edges", "24")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines() if line.strip()}
    assert rows["moebius_kantor"][5] == "2"
