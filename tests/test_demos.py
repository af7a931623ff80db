"""Every demo script runs to completion against the installed package
and prints what it printed when its output was recorded.

The demos use the public API directly, so a renamed or deleted function
breaks them without any other test noticing, and their printed figures
come from the engine, so a change of output shows in them too. Each
runs from a copy in a temporary directory, where demo 07 writes its CSV.
Each demo's stdout is recorded in tests/demo_stdout/<name>.txt; a change
meant to alter it re-records that file.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).with_name("demo_stdout")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (RECORDED / f"{demo.stem}.txt").read_text(encoding="utf-8")
