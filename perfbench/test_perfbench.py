"""Tests of the benchmark itself: the correctness gate rejects doctored
outputs, inputs are reproducible from the seed, and the metric names agree
with BENCHMARK.json.

    python -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

run.import_program()

from glauberlab import cli, exact, models  # noqa: E402


def _op(workload, name, root, seed=0, pass_index=0):
    ops = workloads.make_pass(workload, seed, pass_index, str(root))
    return next(op for op in ops if op["name"] == name)


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- the gate catches wrong results ------------------------------------------


def _rewrite_json(path, edit):
    with open(path) as f:
        doc = json.load(f)
    edit(doc)
    with open(path, "w") as f:
        json.dump(doc, f)


def test_flipped_verdict_fails(tmp_path):
    op = _op("verify-small", "bhc-k12", tmp_path)
    assert gate.check_verify(op, cli.main(op["argv"])) is None

    def flip(doc):
        r = doc["results"][1]
        r["observed"] = not r["observed"]
    _rewrite_json(op["out"], flip)
    assert gate.check_verify(op, 0) is not None


def test_negative_control_must_be_observed_false(tmp_path):
    op = _op("verify-small", "plain-hardcore", tmp_path)
    assert gate.check_verify(op, cli.main(op["argv"])) is None

    def flip(doc):
        for r in doc["results"]:
            r["observed"], r["expected"] = True, True
    _rewrite_json(op["out"], flip)
    assert gate.check_verify(op, 0) is not None

    op = _op("verify-small", "product-comparison", tmp_path)
    cli.main(op["argv"])
    _rewrite_json(op["out"], lambda d: d["results"][0].update(witness=None))
    assert gate.check_verify(op, 0) is not None


def test_wrong_exit_code_fails(tmp_path):
    op = _op("verify-small", "plain-hardcore", tmp_path)
    cli.main(op["argv"])
    assert gate.check_verify(op, 1) is not None


def _mixing_output(path, row):
    head = "config,seed,eps,theta," + ",".join(gate.MIXING_COLUMNS)
    vals = ",".join(str(row[c]) for c in gate.MIXING_COLUMNS)
    with open(path, "w") as f:
        f.write(f"{head}\nabc,1,0.1,0.5,{vals}\n")


def test_mixing_row_off_by_one_fails(tmp_path):
    refs = gate.load_references()
    ref = refs["mixing"]["0/mixing-c8"]
    op = {"out": str(tmp_path / "m.csv")}
    _mixing_output(op["out"], ref)
    assert gate.check_mixing(op, 0, ref) is None
    for col in ("t_gd_ones", "t_fd_ones"):
        _mixing_output(op["out"], dict(ref, **{col: ref[col] + 1}))
        assert gate.check_mixing(op, 0, ref) is not None
    # without a reference the product bound must still hold
    bad = dict(ref, t_gd_ones=ref["product_bound"] + 1)
    _mixing_output(op["out"], bad)
    assert gate.check_mixing(op, 0, None) is not None


def test_mixing_reference_matches_program(tmp_path):
    """The stored row is what the program computes for the default seed."""
    op = _op("exact-large", "mixing-c8", tmp_path, seed=run.DEFAULT_SEED)
    refs = gate.load_references()
    assert gate.check_mixing(op, cli.main(op["argv"]),
                             refs["mixing"]["0/mixing-c8"]) is None


def test_analyze_values_compare_to_reference(tmp_path):
    ref = gate.load_references()["analyze"]["0/analyze-c6"]
    op = {"out": str(tmp_path / "a.json")}
    good = dict(ref, config="0123456789abcdef")
    with open(op["out"], "w") as f:
        json.dump(good, f)
    assert gate.check_analyze(op, 0, ref) is None   # Infinity == Infinity
    for key in ("sinf", "coupling"):
        with open(op["out"], "w") as f:
            json.dump(dict(good, **{key: ref[key] * (1 + 1e-6)}), f)
        assert gate.check_analyze(op, 0, ref) is not None


def test_occupancy_off_by_point_two_fails(tmp_path):
    op = _op("sample", "field-rc-c6", tmp_path)
    rc = cli.main(op["argv"])
    model, _ = run.load_model(op["argv"])
    target = gate.exact_marginals(model)
    assert gate.check_sample(op, rc, target) is None
    for v in range(len(target)):
        shifted = target.copy()
        shifted[v] += 0.2 if shifted[v] < 0.5 else -0.2
        assert "exact marginal" in gate.check_sample(op, rc, shifted)
    # an occupancy file edited away from its trajectory is caught as well
    path = op["out"] + ".occupancy.csv"
    with open(path) as f:
        lines = f.read().splitlines()
    var, frac = lines[2].split(",")
    lines[2] = f"{var},{float(frac) + 0.2}"
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    assert gate.check_sample(op, rc, target) is not None


def test_truncated_trajectory_fails(tmp_path):
    op = _op("sample", "field-rc-c6", tmp_path)
    rc = cli.main(op["argv"])
    model, _ = run.load_model(op["argv"])
    path = op["out"] + ".traj.tsv"
    with open(path) as f:
        lines = f.readlines()
    with open(path, "w") as f:
        f.writelines(lines[:-1])
    assert gate.check_sample(op, rc, gate.exact_marginals(model)) is not None


def test_occupancy_tolerance_leaves_room_for_a_shift_of_point_two():
    # the tolerance plus a generous sampling error stays below 0.2
    assert gate.occupancy_tolerance(6, workloads.FIELD_STEPS, True) < 0.15
    assert gate.occupancy_tolerance(6, workloads.SINGLE_SITE_STEPS,
                                    False) < 0.05


# -- inputs are reproducible from the seed -------------------------------------


def _files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            if n.endswith((".graph", ".params")):
                with open(os.path.join(dirpath, n), "rb") as f:
                    out[os.path.relpath(os.path.join(dirpath, n), root)] = f.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        for p in range(3):
            workloads.make_pass(workload, 7, p, str(root))
    fa = _files(a)
    assert fa and fa == _files(b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_and_passes_give_different_parameters(tmp_path,
                                                              workload):
    seen = {}
    for seed in (7, 8):
        for p in range(2):
            root = tmp_path / f"s{seed}"
            ops = workloads.make_pass(workload, seed, p, str(root))
            for op in ops:
                with open(run._arg(op["argv"], "--params"), "rb") as f:
                    text = f.read()
                key = (seed, p, op["name"])
                assert text not in seen.values(), key
                seen[key] = text


# -- metric names agree with BENCHMARK.json -------------------------------------


def test_benchmark_json_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    for n in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n), n
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= spec["run_seconds"] <= 60


def test_end_to_end_names_match():
    metrics = run.end_to_end([0.5, 0.4, 0.6], {"a": 10.0}, 8, 0)
    assert set(metrics) == set(run.metric_units()[0])


def test_wall_s_is_one_pass_over_the_operation_list():
    metrics = run.end_to_end([0.5, 0.4, 0.6], {"a": 2.5, "b": 1.25}, 6, 0)
    assert metrics["wall_s"] == 3.75
    assert metrics["setup_s"] == 0.5


def test_probe_samples_during_a_call_and_nets_them_out():
    probe = speed.Probe()
    probe.start()
    try:
        _, net = probe.time(time.sleep, 0.3)
    finally:
        probe.stop()
    assert len(probe.samples) > 3
    assert 0.2 < net < 0.3
    assert probe.median_since(1) > 0
    assert speed.scale(2.0, speed.REFERENCE_S) == 2.0
    assert speed.scale(2.0, 2 * speed.REFERENCE_S) < 1.0
    assert 0 < speed.interpreter_start() < 5


def test_per_layer_names_match():
    # the traced run adds the two metrics not derived from spans
    names = set(spans.Tracer().metrics()) | {"dynamics.peak_alloc_mb",
                                             "trace.overhead_ratio"}
    assert names == set(run.metric_units()[1])


def test_tracer_counts_and_restores(tmp_path):
    op = _op("verify-small", "bhc-k12", tmp_path)
    original = exact.stochastic_dominance
    method = models.Model.__dict__["support_iter"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert exact.stochastic_dominance is not original
        assert models.Model.__dict__["support_iter"] is not method
        assert cli.main(op["argv"]) == 0
    finally:
        tracer.remove()
    assert exact.stochastic_dominance is original
    assert models.Model.__dict__["support_iter"] is method
    m = tracer.metrics()
    assert m["ordercore.dominance.calls"] > 0
    assert m["exact.kernel_build.calls"] > 0
    assert m["exact.support.states"] > 0
    assert 0 < m["models.support.yield_ratio"] <= 1
    col = tracer.columns()
    assert (col["end_ns"] >= col["start_ns"]).all()
    assert (col["parent"] < np.arange(len(col["parent"]))).all()


def test_fails_without_program(tmp_path):
    """In a directory holding only the benchmark it exits non-zero and prints
    no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
