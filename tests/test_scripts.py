"""The example scripts run end to end and print their header line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("mixing_table.py", [],
     "theta,t_gd_ones,t_fd_worst,t_tilted,product_bound"),
    ("run_edge_demo.py", ["--chains", "200"], "== structural checks =="),
    ("schedule_scan.py", [], "== random cluster schedules =="),
])
def test_script_runs(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + args, capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
    assert "VIOLATION" not in proc.stdout
