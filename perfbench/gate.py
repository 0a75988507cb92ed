"""Correctness gate: every operation's output is checked before its time may
count.  A check returns None when the output is correct and otherwise a
one-line reason."""

from __future__ import annotations

import json
import math
import os

import numpy as np

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")
MIXING_COLUMNS = ("t_gd_ones", "t_fd_ones", "t_fd_worst", "t_tilted",
                  "product_bound")
ANALYZE_REL_TOL = 1e-9
# Bounds on the integrated autocorrelation time, in steps, used for the
# occupancy tolerance.  Measured values on the sample instances are about
# 3.5 * n_vars for single-site dynamics and about 2 for field dynamics; the
# bounds leave a factor of about three.
TAU_PER_SITE = 10
TAU_FIELD = 5
OCCUPANCY_SIGMAS = 5


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def check_verify(op, rc):
    """`verify` exits 0, runs exactly the requested checks, every one passes,
    and each deliberate negative control is observed False with a witness."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    with open(op["out"]) as f:
        report = json.load(f)
    results = report["results"]
    names = tuple(r["check"] for r in results)
    if names != tuple(op["gate"]["checks"]):
        return f"checks run {names}, expected {op['gate']['checks']}"
    if not report["all_pass"]:
        return "all_pass is false"
    negative = set(op["gate"].get("negative", ()))
    for r in results:
        if r["pass"] is not True:
            return f"{r['check']}: pass is {r['pass']}"
        if r["check"] in negative:
            if r["observed"] is not False or r["expected"] is not False:
                return f"{r['check']}: negative control not observed False"
            if r["witness"] is None:
                return f"{r['check']}: negative control without a witness"
        elif r["observed"] is not True:
            return f"{r['check']}: observed {r['observed']}"
    return None


def check_library(op, result):
    """`exact.check_monotone_system` certifies the flipped RC model."""
    if result != (True, None):
        return f"check_monotone_system returned {result!r}"
    return None


def parse_mixing(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    head, row = lines[0].split(","), lines[1].split(",")
    rec = dict(zip(head, row))
    return {c: int(rec[c]) for c in MIXING_COLUMNS}


def check_mixing(op, rc, refs=None):
    """Integers equal the stored reference where one exists (default seed);
    for any seed the product bound holds and dominates Glauber."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    with open(op["out"]) as f:
        got = parse_mixing(f.read())
    if got["product_bound"] != got["t_fd_worst"] * got["t_tilted"]:
        return "product_bound != t_fd_worst * t_tilted"
    if got["t_gd_ones"] > got["product_bound"]:
        return "t_gd_ones exceeds product_bound"
    if not 0 < got["t_fd_ones"] <= got["t_fd_worst"]:
        return "t_fd_ones outside (0, t_fd_worst]"
    if refs is not None and got != refs:
        return f"mixing row {got} != reference {refs}"
    return None


def _close(a, b, rel):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= rel * max(abs(a), abs(b))
    return a == b


ANALYZE_KEYS = {"config", "seed", "sinf", "marginal_stability", "coupling",
                "ei_ratio", "schedule", "t_bound"}


def check_analyze(op, rc, refs=None):
    """Values equal the stored reference to a relative 1e-9 (Infinity equals
    Infinity) where one exists; for any seed the report is complete and its
    constants are in range."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    with open(op["out"]) as f:
        got = json.load(f)
    if set(got) != ANALYZE_KEYS:
        return f"analyze keys {sorted(got)}"
    for key in ("sinf", "coupling", "ei_ratio"):
        if not (math.isfinite(got[key]) and got[key] >= 0):
            return f"{key} = {got[key]} is not a finite non-negative number"
    if not got["marginal_stability"] >= 1:
        return f"marginal_stability = {got['marginal_stability']} < 1"
    if not got["t_bound"] > 0:
        return f"t_bound = {got['t_bound']} is not positive"
    if refs is not None:
        values = {k: v for k, v in got.items() if k != "config"}
        if not _close(values, refs, ANALYZE_REL_TOL):
            return "analyze values differ from the reference"
    return None


def occupancy_tolerance(n_vars, steps, field):
    tau = TAU_FIELD if field else TAU_PER_SITE * n_vars
    return OCCUPANCY_SIGMAS * math.sqrt(0.25 * tau / steps)


def check_sample(op, rc, target):
    """The trajectory parses and has one line per recorded step, the
    occupancy file agrees with it, and each variable's occupancy of value 1
    lies within a run-length tolerance of the exact marginal `target`."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    steps = op["gate"]["steps"]
    n = len(target)
    with open(op["out"] + ".traj.tsv") as f:
        head = f.readline()
        rows = f.read().splitlines()
    if not head.startswith("# config="):
        return "trajectory header missing"
    if len(rows) != steps + 1:
        return f"{len(rows)} trajectory lines, expected {steps + 1}"
    try:
        stamps, states = zip(*(row.split("\t") for row in rows))
    except ValueError:
        return "trajectory line without exactly one tab"
    if list(stamps) != [str(t) for t in range(steps + 1)]:
        return "trajectory time stamps are not 0, 1, 2, ..."
    if any(len(s) != n for s in states):
        return "trajectory state of the wrong length"
    grid = np.frombuffer("".join(states).encode(), dtype=np.uint8)
    ones = (grid.reshape(-1, n) == ord("1")).sum(axis=0)
    count = len(rows)
    with open(op["out"] + ".occupancy.csv") as f:
        rows = [ln.split(",") for ln in f.read().splitlines()[2:]]
    occ = np.array([float(r[1]) for r in rows])
    if occ.shape != (n,) or np.max(np.abs(occ - ones / count)) > 1e-12:
        return "occupancy file disagrees with the trajectory"
    tol = occupancy_tolerance(n, steps, op["name"].startswith("field"))
    err = float(np.max(np.abs(occ - np.asarray(target))))
    if err > tol:
        return f"occupancy off the exact marginal by {err:.4f} > {tol:.4f}"
    return None


def exact_marginals(model, theta=None):
    """P[v = 1] under the model's law; for the lifted chain of `simulate`,
    theta * P[v = 1] (value 1 proper, stars not counted)."""
    from glauberlab import exact
    sup = exact.enumerate_support(model)
    mu = exact.stationary_distribution(model, sup)
    states = np.array(sup.states)
    marg = mu @ (states == 1)
    return marg * theta if theta is not None else marg
