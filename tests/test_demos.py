"""The quick demos run to completion as standalone scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ("01_algebra_walkthrough.py", "02_polar_varieties.py",
               "03_singular_witness.py", "04_meager_families.py")


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
