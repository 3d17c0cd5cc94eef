"""The demo scripts run to completion against the library as it stands, so a
renamed or deleted public name cannot break one unnoticed.  Demo 03 trains a
network and is left to be run by hand."""

import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


@pytest.mark.parametrize("script", [
    "01_fast_transform.py", "02_structured_network.py", "04_complexity_tables.py",
])
def test_demo_runs(tmp_path, script):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script)],
        cwd=tmp_path, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout
