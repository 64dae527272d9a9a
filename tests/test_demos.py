"""Each demo script runs to completion against the package in this checkout."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo.name  # a copy: demos may write next to themselves (02 writes dot_out/)
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_dual_graphs_demo_writes_utf8_under_an_ascii_locale(tmp_path):
    script = tmp_path / "02_dual_graphs.py"
    shutil.copy(REPO / "demos" / script.name, script)
    # the C locale with its coercion and UTF-8 mode off: the locale's encoding is ASCII
    env = {"PYTHONPATH": str(REPO / "src"), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "χ=" in (tmp_path / "dot_out" / "t_x.dot").read_text(encoding="utf-8")
