"""The example scripts run end to end and print their header line; the
mixing table prints the columns of the `mixing` command, and the edge demo
prints the stdout pinned by its sha256.  The ceiling runner passes its
cheapest cells and every sampler's pinned output, fails a cell that misses
its pin or bound and gives each command one BLAS thread unless the caller
chose, and no script reads a private name of `exact`.  The mutant table of
`tests/mutants.py` can run: each snippet occurs once and each test it names
exists."""

import ast
import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from glauberlab import cli
from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + args, capture_output=True, text=True,
                          env=src_env(), timeout=300)


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


# runs the named cells of scripts/ceiling.py, each with its fields changed
# as given, and exits as the runner does
CEILING = """import dataclasses, json, runpy, sys
ns = runpy.run_path(sys.argv[1])
cells = {cell.name: cell for cell in ns["CELLS"]}
sys.exit(ns["main"]([dataclasses.replace(cells[name], **change)
                     for name, change in json.loads(sys.argv[2])]))"""


def run_ceiling(cells):
    """(exit code, JSON rows) of the ceiling runner on the cells, in a
    process of its own: on Linux a child's peak RSS counts the RSS of the
    process it was spawned from."""
    proc = subprocess.run([sys.executable, "-c", CEILING,
                           str(ROOT / "scripts" / "ceiling.py"),
                           json.dumps(cells)],
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, [json.loads(line)
                             for line in proc.stdout.splitlines()]


def test_ceiling_cells_pass():
    # the hard-core C9 control is the one cell that takes closure cuts, and
    # the bhc left marginal the one whose tilted stacks take a floor far
    # from 1; the three C16 refusals enumerate 65,536 states each.  The
    # seven sampler cells pin the bytes of every sampler's output, the
    # 10^6-step Glauber trajectory among them, Glauber on a ternary lift,
    # and censored and simulate runs whose odd segments carry a spare half
    # across.
    names = ["kernel-export-c16", "mixing-c16", "verify-c16", "verify-c6",
             "verify-hardcore-c9", "mixing-bhc-lm-k8", "sample-ising-c6",
             "sample-field", "sample-simulate", "sample-censored",
             "sample-lift", "sample-censored-odd", "sample-simulate-odd"]
    code, rows = run_ceiling([(name, {}) for name in names])
    assert code == 0 and [r["name"] for r in rows] == names, rows


@pytest.mark.parametrize("name, change, reason", [
    ("kernel-export-c16", {"want": "error: other\n"},
     "got 'error: a dense kernel over k = 65536 states"),
    ("verify-c6", {"bound": {"wall_s": 0.01}}, "wall_s "),
], ids=["wrong-pin", "over-bound"])
def test_a_cell_that_misses_fails_the_run(name, change, reason):
    code, [row] = run_ceiling([(name, change)])
    assert code == 1
    assert row["name"] == name and row["ok"] is False
    assert row["reason"].startswith(reason)


def test_each_cell_reports_its_own_peak_rss():
    # RUSAGE_CHILDREN would give the refusal after the 10^6-step sampler
    # the sampler's peak
    code, rows = run_ceiling([("sample-ising-c6", {}),
                              ("kernel-export-c16", {})])
    assert code == 0, rows
    assert rows[1]["peak_rss_mb"] < rows[0]["peak_rss_mb"]


@pytest.mark.parametrize("given, want", [(None, "1"), ("3", "3")],
                         ids=["unset", "set"])
def test_ceiling_cells_run_one_blas_thread_unless_set(given, want,
                                                      monkeypatch):
    # as perfbench/run.py: under a concurrent process a second BLAS thread
    # spin-waits, and a cell's wall time measures the scheduler
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if given is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", given)
    env = runpy.run_path(str(ROOT / "scripts" / "ceiling.py"))["child_env"]()
    assert env["OPENBLAS_NUM_THREADS"] == want
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")


def test_no_script_reads_a_private_exact_name():
    # exact.Tables derives every table that cli.py, analysis.py and the
    # scripts use
    paths = [ROOT / "src" / "glauberlab" / "cli.py",
             ROOT / "src" / "glauberlab" / "analysis.py",
             *sorted((ROOT / "scripts").glob("*.py"))]
    assert ROOT / "scripts" / "ceiling.py" in paths
    bad = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "exact"):
                bad.append(f"{path.name}:{node.lineno}: exact.{node.attr}")
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[-1] == "exact"):
                bad += [f"{path.name}:{node.lineno}: from exact import "
                        f"{a.name}" for a in node.names
                        if a.name.startswith("_")]
    assert bad == []


def test_mutant_table_is_well_formed():
    import mutants

    assert mutants.check_table() == []
    for mutant in mutants.MUTANTS:
        for test in mutant.tests:
            file, *names = test.split("::")
            text = (ROOT / file).read_text()
            assert names and all(f"class {name}" in text
                                 or f"def {name}(" in text
                                 for name in names), test
    assert mutants.main(["no-such-mutant"]) == 2
