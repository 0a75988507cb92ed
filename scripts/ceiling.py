#!/usr/bin/env python3
"""The verification ceiling: fixed runs near the exact layer's limits.

Each cell runs one `python -m glauberlab` command on a fixed instance as a
subprocess, killed at its timeout, and checks its exit code, its output
against a pinned value, and its bounds on wall time and peak RSS, the
child's own from os.wait4 (RUSAGE_CHILDREN would keep the largest over
every earlier cell).  On Linux that peak starts from the runner's RSS at
the spawn, about 20 MB: the runner imports no numpy.  Prints one JSON line
per cell (k is the support size, the lifted one where verify lifts) and
exits 1 if any cell misses.  Each command runs one OpenBLAS thread
unless OPENBLAS_NUM_THREADS is set:

    python scripts/ceiling.py
"""

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
RC = "model = rc\np.default = 0.5\nlambda.default = 0.5\ntheta = {}\n"
FILES = {
    **{f"c{n}.graph": f"{n} {n}\n" + "".join(
        f"{i} {(i + 1) % n}\n" for i in range(n))
       for n in (6, 7, 9, 10, 11, 16)},
    **{f"k{n}{n}.graph": f"{2 * n} {n * n} bipartite {n}\n" + "".join(
        f"{i} {j}\n" for i in range(n) for j in range(n, 2 * n))
       for n in (3, 8)},
    "rc.params": RC.format(0.5),
    "rc-0.25.params": RC.format(0.25),
    "hardcore.params": "model = hardcore\nlambda = 1.0\n",
    "field.params": RC.format(0.5) + "dynamics = field\n",
    "simulate.params": RC.format(0.5) + "dynamics = simulate\n",
    **{f"censored{suffix}.params": "model = bipartite-hardcore\n"
       f"lambda = 1.0\nbeta = 1.0\ndynamics = censored\nperiod = {period}\n"
       for suffix, period in (("", 10), ("-odd", 7))},
    "bhc.params": "model = bipartite-hardcore\nlambda = 1.0\nbeta = 1.0\n"
                  "theta = 0.5\n",
    "ising.params": "model = ising\nbeta.default = 1.5\n"
                    "lambda.default = 0.5\n",
}


@dataclasses.dataclass(frozen=True)
class Cell:
    """`glauberlab command --graph graph --params params --out name
    [options]` for line = "command graph params [options]", run in the
    instance directory, killed after timeout seconds, with upper bounds on
    its "wall_s" and "peak_rss_mb"; read(output path, stderr), if given,
    must equal want."""
    name: str
    k: int
    line: str
    timeout: float
    bound: dict
    exit: int = 0
    read: Callable = None
    want: object = None


def verdicts(out, err):
    """(check, passes, witness type) per result of a verify report."""
    return [(r["check"], r["pass"] is True, type(r["witness"]).__name__)
            for r in json.loads(out.read_text())["results"]]


# the eight default checks in order, each passing; an order check has a
# null witness, and a value check reports its worst value there, a float
# that is not compared, since another BLAS may move its last digits
VERDICTS = [(check, True, kind) for check, kind in [
    ("detailed-balance", "float"), ("monotone-system", "NoneType"),
    ("stochastic-monotonicity", "NoneType"), ("many-stationary", "float"),
    ("lift-identity", "float"), ("dominance", "NoneType"),
    ("tv-comparison", "float"), ("single-vertex-mc", "NoneType")]]
ANALYZE = {"sinf": 1.1411151021528747, "marginal_stability": 2.0,
           "coupling": 1.1411151021528747, "ei_ratio": 1.1297928914327207}


def near(out, err):
    """The analyze report's pinned values, each within relative 1e-9 of its
    pin replaced by the pin: values, not a digest, since another BLAS may
    move the last digits."""
    got = json.loads(out.read_text())
    return {key: pin if abs(got[key] - pin) <= 1e-9 * abs(pin) else got[key]
            for key, pin in ANALYZE.items()}


def second_line(out, err):
    """The output file's second line: a mixing report's one row."""
    return out.read_text().split("\n")[1]


def digest(out, err):
    """The sha256 of the output file."""
    return hashlib.sha256(out.read_bytes()).hexdigest()


def bodies(*suffixes):
    """The sha256 of each output file past its header line, which carries
    the wall time."""
    def read(out, err):
        return [hashlib.sha256(Path(f"{out}{suffix}").read_bytes()
                               .split(b"\n", 1)[1]).hexdigest()
                for suffix in suffixes]
    return read


GUARD = ("error: a dense kernel over k = 65536 states exceeds the guard of "
         "4096 (32768 MiB per matrix)\n")
CELLS = [
    Cell("verify-dominance-c7", 2187, "verify c7.graph rc.params --transform "
         "flip --check dominance", 60, {"wall_s": 15}),
    Cell("verify-c6", 729, "verify c6.graph rc.params --transform flip", 60,
         {"wall_s": 15}, read=verdicts, want=VERDICTS),
    Cell("verify-c7", 2187, "verify c7.graph rc.params --transform flip", 120,
         {"wall_s": 20}, read=verdicts, want=VERDICTS),
    # the negative control above the up-set cap: its failing
    # stochastic-monotonicity check takes two closure cuts, the only cell
    # that takes any
    Cell("verify-hardcore-c9", 76, "verify c9.graph hardcore.params --check "
         "monotone-system --check stochastic-monotonicity", 60,
         {"wall_s": 10}, read=digest, want=(
         "2b258ce0cdf2d342a0aeef5b3d1db35863d8429ed81e03626bd7eb1d7918596e")),
    Cell("mixing-c11", 2048, "mixing c11.graph rc-0.25.params", 120,
         {"wall_s": 45}, read=second_line,
         want="b25905a30ad17a62,0,0.10000000000000001,0.25,34,9,9,70,630"),
    # the paper's second application: the tilted times (778) of the left
    # marginal take the floor certificate far from 1
    Cell("mixing-bhc-lm-k8", 256, "mixing k88.graph bhc.params --transform "
         "left-marginal", 60, {"wall_s": 10}, read=second_line,
         want="687f2aaa5ae8b18b,0,0.10000000000000001,0.5,283,3,5,778,3890"),
    Cell("analyze-c10", 1024, "analyze c10.graph rc-0.25.params", 60,
         {"wall_s": 10}, read=near, want=ANALYZE),
    *(Cell(f"{command}-c16", 65536, f"{command} c16.graph rc.params", 60,
           {"wall_s": 5, "peak_rss_mb": 128}, exit=2,
           read=lambda out, err: err, want=GUARD)
      for command in ("mixing", "verify", "kernel-export")),
    Cell("sample-ising-c6", 64, "sample c6.graph ising.params --steps "
         "1000000", 120, {"wall_s": 15, "peak_rss_mb": 256},
         read=bodies(".traj.tsv"), want=[
         "d9a6a7bf1682952fb03b2cc7cbf3a0dab7faf291c93461a1706a23f2a915f31c"]),
    *(Cell(f"sample-{name}", k, f"sample {graph} {name}.params {options}",
           120, {}, read=bodies(".traj.tsv", ".occupancy.csv"), want=want)
      for name, k, graph, options, *want in [
        ("field", 64, "c6.graph", "--transform flip --steps 20000",
         "426223975a8baa75d8096706954175a0bb0ef5e4c2517ecc0846af07be96e96b",
         "136e48cb7c903a7da3f3406ed6171092149b144d7b745f57882bd4e5a90298f0"),
        ("simulate", 64, "c6.graph", "--transform flip --t1 2000 --t2 50",
         "3f57f4c5821d5b480cc5df592934e35b565db4d1006ecc03593cbcdd91c87d90",
         "bc58ea7ada58d4dfa80ceea42455945997ffe64f4776ff4a05b4aee9e1340ad4"),
        ("censored", 15, "k33.graph", "--steps 200000",
         "c9d89a65766e3cfd32d4f28faccbd13c144af3420f5bf69100d6a8dfdc1831f2",
         "353f480eea95d40060fc81c782fa653071d8898028679bb7ca2c86c6a6ca3f80")]),
    # Glauber on the ternary lift: every slot has three values
    Cell("sample-lift", 729, "sample c6.graph rc.params --transform flip "
         "--transform lift=0.5 --steps 200000", 120, {},
         read=bodies(".traj.tsv", ".occupancy.csv"), want=[
         "ff42f79aa2599bc772f28fce767a2e4370bebe36295761f5730397dcc939963d",
         "fba6d9db3a3654250a86b537d800e887c12078ee42d60cf348be8b52bc821863"]),
    # odd segments: every other censored block of 7 steps, and every other
    # phase of 49, starts with the spare half the one before it left
    *(Cell(f"sample-{name}-odd", k, f"sample {graph} {params}.params "
           f"{options}", 120, {}, read=bodies(".traj.tsv", ".occupancy.csv"),
           want=want)
      for name, k, graph, params, options, *want in [
        ("censored", 15, "k33.graph", "censored-odd", "--steps 200000",
         "00e2eba666874976e5c9c8487a8c2f64907cf1d5634c5fa3a627cdca52db1c2b",
         "b578b5ee9e8da65bb212cf3a0836d2f83c23c4cf58ae5f962cf8c61c46d43a60"),
        ("simulate", 64, "c6.graph", "simulate",
         "--transform flip --t1 2000 --t2 49",
         "d3bdb840f994ddf63ecb62c2325833c90e10f210adcb7b56a0d4480be47ef807",
         "197fbee356847e913521c09ea10b7a8ef9ad9d69a82f4721fd1cc6ec5ed93a79")]),
]


def child_env():
    """The environment of a cell's command: this one, with src/ first on
    PYTHONPATH and, unless it is set, OPENBLAS_NUM_THREADS=1, as
    perfbench/run.py sets it: a second BLAS thread spin-waits against any
    concurrent process, and the cell's wall time then measures the
    scheduler."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return env


def run(cell, d):
    """One cell's JSON row, its command run in the instance directory d."""
    command, graph, params, *options = cell.line.split()
    argv = [sys.executable, "-m", "glauberlab", command, "--graph", graph,
            "--params", params, "--out", cell.name, *options]
    with tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=d, env=child_env(), stderr=err,
                                stdout=subprocess.DEVNULL)
        # os.kill, not proc.kill, whose poll could reap the child first
        timer = threading.Timer(cell.timeout, os.kill,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    got = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}  # KiB
    if wall >= cell.timeout:
        reasons = [f"killed at {cell.timeout} s"]
    elif code != cell.exit:
        reasons = [f"exit {code}, expected {cell.exit}: {stderr[-500:]!r}"]
    else:
        try:
            out = cell.read(d / cell.name, stderr) if cell.read else None
        except (OSError, ValueError, LookupError, TypeError) as e:
            out = f"unreadable: {e!r}"
        reasons = [] if out == cell.want else [
            f"got {out!r}, expected {cell.want!r}"]
    reasons += [f"{key} {got[key]:.2f} > {limit}"
                for key, limit in cell.bound.items() if got[key] > limit]
    return {"name": cell.name, "k": cell.k, "wall_s": round(wall, 3),
            "peak_rss_mb": round(got["peak_rss_mb"], 1), "exit": code,
            "bound": cell.bound, "ok": not reasons,
            "reason": "; ".join(reasons) or None}


def main(cells=CELLS):
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text)
        for cell in cells:
            row = run(cell, Path(tmp))
            print(json.dumps(row), flush=True)
            ok &= row["ok"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
