"""Smoke runs of the demo scripts: each must exit 0 and print its
headline checks.  witness_hunt.py (several seconds) is left out."""
import os
import subprocess
import sys

import commonality

SRC = os.path.dirname(os.path.dirname(os.path.abspath(commonality.__file__)))
DEMOS = os.path.join(os.path.dirname(SRC), "demos")


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_certificate_walkthrough():
    out = run_demo("certificate_walkthrough.py")
    assert "all 324 entries match" in out
    assert "verdict\tok" in out
    assert "rank A=15 rank B=15, weights recovered=True/True" in out


def test_tour():
    out = run_demo("tour.py")
    assert "tritree:common\ttrue" in out
