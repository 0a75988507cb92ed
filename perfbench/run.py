#!/usr/bin/env python3
"""glauberlab benchmark: time to a verified answer, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 32 --trace 0

Workloads are listed in BENCHMARK.json with the reason each was chosen.  One
closed-loop client in this process calls `glauberlab.cli.main(argv)` (and, for
one operation, `exact.check_monotone_system`) on generated inputs, one
operation after another, in passes over the workload's operation list until
`--seconds` is spent.  Every output is checked against the exact answer
(gate.py); an operation that raises, exits with an unexpected code or fails
its check counts as failed.

`--trace 0` reports the end-to-end metrics, with every time scaled to a fixed
reference speed of the shared host (speed.py).  `--trace 1` runs one untraced
pass, one pass with every public function wrapped (spans.py) and, for
sampling workloads, one pass under tracemalloc, and reports the per-layer
metrics.  Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tomllib
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench"          # under ROOT; inputs, outputs and span files
PASS_CAP = 16                # input sets generated per run
SETUP_REPEATS = 9
DEFAULT_SEED = 0             # the seed the stored references belong to
REFERENCE_PASSES = 4

# One BLAS thread: on a shared 2-core host a second BLAS thread spin-waits
# against the client and the neighbours, and measures the scheduler.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, HERE)
import gate       # noqa: E402
import speed      # noqa: E402
import workloads  # noqa: E402


def import_program():
    """Import glauberlab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "glauberlab", "cli.py")):
        sys.exit("error: no glauberlab sources under src/ next to perfbench/")
    sys.path.insert(0, SRC)
    import glauberlab.cli
    if not os.path.abspath(glauberlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported glauberlab from {glauberlab.__file__}")
    return glauberlab


def metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# -- inputs and one operation -------------------------------------------


def setup(workload, seed):
    """Import the program in a fresh interpreter, as a CLI user pays on every
    command, then write the input files of every pass.  Returns (seconds,
    passes)."""
    t0 = time.perf_counter()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-c", "import glauberlab.cli"],
                   env=env, cwd=ROOT, check=True)
    root = os.path.join(WORK, workload)
    shutil.rmtree(root, ignore_errors=True)
    passes = [workloads.make_pass(workload, seed, p, root)
              for p in range(PASS_CAP)]
    return time.perf_counter() - t0, passes


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def load_model(argv):
    """The model a CLI argv describes, built through the public API."""
    from glauberlab import fileio, models
    graph = models.Graph.from_file(_arg(argv, "--graph"))
    params = fileio.load_params(_arg(argv, "--params"))
    transforms = [argv[i + 1] for i, a in enumerate(argv) if a == "--transform"]
    return fileio.apply_transforms(fileio.build_model(params, graph),
                                   transforms), params


def call(op):
    """Run one operation; returns its result or the exception it raised."""
    from glauberlab import cli, exact
    try:
        if op["gate"]["gate"] == "library":
            model, _ = load_model(op["argv"])
            return exact.check_monotone_system(model)
        return cli.main(op["argv"])
    except (Exception, SystemExit) as e:  # any raise is a failed operation
        traceback.print_exc()
        return e


def run_pass(ops, on_op=None, probe=None):
    """Time each operation; returns [(op, seconds, outcome)].  With a speed
    probe running, seconds are net of its samples."""
    out = []
    for i, op in enumerate(ops):
        if on_op is not None:
            on_op(i)
        gc.collect()  # start every operation from the same heap state
        if probe is None:
            t0 = time.perf_counter()
            outcome = call(op)
            out.append((op, time.perf_counter() - t0, outcome))
        else:
            outcome, seconds = probe.time(call, op)
            out.append((op, seconds, outcome))
    return out


def check(op, outcome, refs, seed):
    """None if the operation's output is correct, else the reason."""
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}"
    kind = op["gate"]["gate"]
    ref = None
    if seed == refs["seed"]:
        ref = refs.get(kind, {}).get(f"{op['pass']}/{op['name']}")
    if kind == "verify":
        return gate.check_verify(op, outcome)
    if kind == "library":
        return gate.check_library(op, outcome)
    if kind == "mixing":
        return gate.check_mixing(op, outcome, ref)
    if kind == "analyze":
        return gate.check_analyze(op, outcome, ref)
    model, params = load_model(op["argv"])
    theta = float(params["theta"]) if op["gate"].get("lifted") else None
    return gate.check_sample(op, outcome, gate.exact_marginals(model, theta))


# -- environment ---------------------------------------------------------


def _blas_threads():
    with open("/proc/self/maps") as f:
        libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, sym, None)
            if get is not None:
                get.restype = ctypes.c_int
                return get()
    return None


def environment(seed):
    import networkx
    import numpy
    import scipy
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        version = tomllib.load(f)["project"]["version"]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "networkx": networkx.__version__,
            "glauberlab": version,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "seed": seed}


# -- reporting -----------------------------------------------------------


def breakdown(ops, seconds):
    """Seconds per operation and per category, and sampling throughput;
    `seconds` maps each operation's name to its time."""
    cats = {}
    steps = 0
    for op in ops:
        dt = seconds[op["name"]]
        cats[f"op.{op['name']}_s"] = dt
        cats[op["category"] + "_s"] = cats.get(op["category"] + "_s", 0.0) + dt
        if op["category"] == "sample":
            steps += op["gate"]["steps"]
    if steps:
        cats["sample_steps_per_s"] = steps / cats["sample_s"]
    return cats


def emit(metrics, units, attempted, failed, report):
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    for name in units:
        print(f"{name:<34} {metrics[name]:>16.6f} {units[name]}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {n: {"value": metrics[n], "unit": units[n]}
                                  for n in units}}))


def gate_all(results, refs, seed):
    """Check every result; returns one line per failed operation."""
    failures = []
    for op, _, outcome in results:
        reason = check(op, outcome, refs, seed)
        if reason is not None:
            failures.append(f"pass {op['pass']} {op['name']}: {reason}")
            print(f"FAILED {failures[-1]}", file=sys.stderr)
    return failures


def end_to_end(setups, per_op, attempted, failed):
    """`setups` are the run's set-up times, `per_op` maps each operation to
    its time; wall_s is the time of one pass over the operation list."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_op.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1.0 - failed / attempted,
    }


def measure(workload, seed, seconds):
    """Untraced run: repeated set-up, then passes until the time is spent.
    Every time is scaled to the reference speed (speed.py), and each
    operation's time is its median over the passes."""
    setups, starts = [], []
    for _ in range(SETUP_REPEATS):
        starts.append(speed.interpreter_start())
        s, passes = setup(workload, seed)
        setups.append(s)
    setup_scale = speed.START_REFERENCE_S / statistics.median(starts)
    probe = speed.Probe()
    refs = gate.load_references()
    op_s, walls, pass_samples, failures, attempted = {}, [], [], [], 0
    t_start = time.perf_counter()
    probe.start()
    try:
        for ops in passes:
            # at least two passes, so every operation has a second sample;
            # then another only if it would end nearer to `seconds`
            if len(walls) >= 2 and (time.perf_counter() - t_start
                                    + statistics.median(walls) / 2 > seconds):
                break
            t0, first = time.perf_counter(), len(probe.samples)
            results = run_pass(ops, probe=probe)
            walls.append(time.perf_counter() - t0)
            sample = probe.median_since(first)
            pass_samples.append(sample)
            for op, dt, _ in results:
                op_s.setdefault(op["name"], []).append(speed.scale(dt, sample))
            attempted += len(results)
            failures += gate_all(results, refs, seed)
    finally:
        probe.stop()
    per_op = {name: statistics.median(ts) for name, ts in op_s.items()}
    metrics = end_to_end([s * setup_scale for s in setups], per_op,
                         attempted, len(failures))
    report = {"workload": workload, "trace": 0,
              "fastest_sample_s": min(probe.samples),
              "median_sample_s": statistics.median(probe.samples),
              "unscaled_setup_s": setups, "interpreter_start_s": starts,
              "pass_wall_s": walls, "pass_sample_s": pass_samples,
              "op_s": op_s,
              "breakdown": breakdown(passes[0], per_op),
              "failures": failures}
    return metrics, attempted, len(failures), report


def measure_traced(workload, seed):
    """Traced run: untraced pass, span-traced pass, then, where the workload
    samples, a pass with tracemalloc inside each sampler call."""
    import spans
    _, passes = setup(workload, seed)
    plain = run_pass(passes[0])
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_pass(passes[1], on_op=lambda i: setattr(tracer, "op", i))
    finally:
        tracer.remove()
    results = plain + traced
    memory = spans.SamplerMemory()
    if any(op["category"] == "sample" for op in passes[2]):
        memory.install()
        try:
            results += run_pass(passes[2])
        finally:
            memory.remove()
    failures = gate_all(results, gate.load_references(), seed)
    wall_plain = sum(dt for _, dt, _ in plain)
    wall_traced = sum(dt for _, dt, _ in traced)
    metrics = tracer.metrics()
    metrics["dynamics.peak_alloc_mb"] = memory.peak / 2 ** 20
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain
    tracer.save(os.path.join(WORK, workload, "spans.npz"))
    report = {"workload": workload, "trace": 1,
              "untraced_wall_s": wall_plain, "traced_wall_s": wall_traced,
              "span_names": tracer.names, "failures": failures}
    return metrics, len(results), len(failures), report


def write_references():
    """Store mixing rows and analyze values of the default seed."""
    refs = {"seed": DEFAULT_SEED, "mixing": {}, "analyze": {}}
    _, passes = setup("exact-large", DEFAULT_SEED)
    for ops in passes[:REFERENCE_PASSES]:
        for op in ops:
            kind = op["gate"]["gate"]
            if kind not in ("mixing", "analyze"):
                continue
            outcome = call(op)
            reason = check(op, outcome, {"seed": None}, DEFAULT_SEED)
            if reason is not None:
                sys.exit(f"error: {op['name']}: {reason}")
            with open(op["out"]) as f:
                text = f.read()
            key = f"{op['pass']}/{op['name']}"
            if kind == "mixing":
                refs["mixing"][key] = gate.parse_mixing(text)
            else:
                refs["analyze"][key] = {k: v for k, v in json.loads(text).items()
                                        if k != "config"}
    with open(gate.REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-references", action="store_true",
                    help="regenerate references.json for the default seed")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    import_program()
    if args.write_references:
        write_references()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    e2e_units, layer_units = metric_units()
    env = environment(args.seed)
    # the client, its set-up interpreters and the speed probe share one CPU,
    # so the probe samples the CPU that does the work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        metrics, attempted, failed, report = measure_traced(args.workload,
                                                            args.seed)
        units = layer_units
    else:
        metrics, attempted, failed, report = measure(args.workload, args.seed,
                                                     args.seconds)
        units = e2e_units
    report["env"] = env
    emit(metrics, units, attempted, failed, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
