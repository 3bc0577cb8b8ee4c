"""Every demo script runs against the package in ``src`` and prints what it did.

Each demo's stdout is pinned by sha256, so a change that alters what a demo
prints fails here.  A change that alters it on purpose updates the digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_segmentation.py": "e1b0c608e214e902eb8bdfb5735bc666ec646a97eeb64afbcd0c3f7346f894dd",
    "02_knowledge_base.py": "0cef7c873b980793ee2321606e8f23fceb7ecc97e043ccb5431b827b4223f520",
    "03_entities_and_attributes.py": "732ed82a14163981bf1c20864e1508cc74e8893b404fbf4b4e0b5b2645ea7a57",
    "04_linking.py": "c0eebf5c0497fc4314b29cf01df3e6167f118071a1d6afc7bfe4a77003638ab0",
    "05_output_and_evaluation.py": "419aa5e13053c60cf904969e2d980621810c3fcd72bb74aeaf03dc19ee32eae6",
}


def test_demos_are_found():
    assert DEMOS
    assert sorted(STDOUT_SHA256) == [p.name for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
