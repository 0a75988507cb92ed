"""The example scripts run end to end and print their header line; the
mixing table prints the columns of the `mixing` command, and the edge demo
prints the stdout pinned by its sha256."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from glauberlab import cli

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + args, capture_output=True, text=True, env=env,
                          timeout=300)


@pytest.mark.parametrize("script, args, header", [
    ("mixing_table.py", [],
     "theta,t_gd_ones,t_fd_worst,t_tilted,product_bound"),
    ("run_edge_demo.py", ["--chains", "200"], "== structural checks =="),
    ("schedule_scan.py", [], "== random cluster schedules =="),
])
def test_script_runs(script, args, header):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
    assert "VIOLATION" not in proc.stdout


def test_edge_demo_stdout_is_pinned():
    # the whole stdout at 200 chains: the exact checks, each state's exact
    # and empirical occupancy, and their TV distance
    proc = run_script("run_edge_demo.py", ["--chains", "200"])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "419b75d2bbf100b61626ddd2b1710d8c47285e95d20def5abd0cbbec4565fd55")


def test_mixing_table_row_equals_the_mixing_command(tmp_path):
    # the script's flipped RC path on 4 vertices, given to `mixing`
    proc = run_script("mixing_table.py", ["--thetas", "0.25"])
    assert proc.returncode == 0, proc.stderr
    head, row = proc.stdout.splitlines()
    graph = tmp_path / "p4.graph"
    graph.write_text("4 3\n0 1\n1 2\n2 3\n")
    params = tmp_path / "rc.params"
    params.write_text("model = rc\np.default = 0.5\nlambda.default = 0.5\n"
                      "theta = 0.25\n")
    out = tmp_path / "mixing.csv"
    assert cli.main(["mixing", "--graph", str(graph), "--params", str(params),
                     "--transform", "flip", "--eps", "0.1",
                     "--out", str(out)]) == 0
    mixing = dict(zip(*(line.split(",")
                        for line in out.read_text().splitlines())))
    assert row == ",".join(["0.25"] + [mixing[c]
                                       for c in head.split(",")[1:]])
