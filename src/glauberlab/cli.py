"""Command-line experiment runner.

Subcommands: sample, verify, analyze, mixing, kernel-export.  Exit codes:
0 = everything as expected, 1 = a check failed, 2 = configuration or guard
error, 3 = internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cached_property
from pathlib import Path

import numpy as np

from . import analysis, dynamics, exact, fileio, models
from .ordercore import first_dominance_failure, parse_state


_COMMANDS = ("sample", "verify", "analyze", "mixing", "kernel-export")


def _add_options(parser):
    """Declare on parser the options that every subcommand takes."""
    parser.add_argument("--graph", required=True)
    parser.add_argument("--params", required=True)
    parser.add_argument("--transform", action="append", default=[])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--check", action="append", default=[])
    parser.add_argument("--eps", type=float, default=0.1)
    parser.add_argument("--t1", type=int, default=2)
    parser.add_argument("--t2", type=int, default=3)
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--record", default="")
    return parser


def _build_parser():
    """The parser of every subcommand, each with the options of
    _add_options."""
    ap = argparse.ArgumentParser(prog="glauberlab")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_options(sub.add_parser(name))
    return ap


def _parse_args(argv):
    """The namespace that _build_parser gives argv (default sys.argv[1:]),
    read by the named command's parser alone: _build_parser hands that
    parser every argument after the command and sets `command` first.
    An argv that names no command first, or leaves an argument over, goes
    to _build_parser, which prints its usage, help or error."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _COMMANDS:
        parser = _add_options(argparse.ArgumentParser(
            prog=f"glauberlab {argv[0]}"))
        args, rest = parser.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return _build_parser().parse_args(argv)


def _load(args):
    """Graph, parameters, transformed model and the config hash, which covers
    the text of the graph and pin files rather than their paths."""
    graph_text = Path(args.graph).read_text()
    graph = models.Graph.from_text(graph_text)
    params = fileio.load_params(args.params)
    model = fileio.apply_transforms(fileio.build_model(params, graph),
                                    args.transform)
    if model.n_vars == 0:
        raise ValueError("the model has no variables")
    transforms = ["pin=" + Path(t[4:]).read_text() if t.startswith("pin=")
                  else t for t in args.transform]
    parts = {"command": args.command, "graph": graph_text,
             "params": json.dumps(params, sort_keys=True),
             "transforms": ",".join(transforms), "seed": args.seed,
             "eps": args.eps, "t1": args.t1, "t2": args.t2,
             "steps": args.steps, "record": args.record}
    return graph, params, model, fileio.config_hash(parts)


def _emit(args, text, suffix=""):
    if args.out:
        fileio.atomic_write(args.out + suffix, text)
    else:
        sys.stdout.write(text)


def _start_state(params, model):
    start = params.get("start", "ones")
    if start == "ones":
        return tuple([1] * model.n_vars)
    if start == "zeros":
        return tuple([0] * model.n_vars)
    try:
        return parse_state(start)
    except KeyError:
        raise ValueError(f"start must be ones, zeros or a string over 01*, "
                         f"got {start!r}") from None


def _parse_record(text, steps):
    """The times of --record, each in [0, steps], or every time 0..steps if
    it names none."""
    times = []
    for item in text.split(","):
        if not item:
            continue
        try:
            t = int(item)
        except ValueError:
            raise ValueError(f"--record must be a comma-separated list of "
                             f"integers, got {item!r}") from None
        if not 0 <= t <= steps:
            raise ValueError(f"record time {t} lies outside [0, {steps}]")
        times.append(t)
    return times or range(steps + 1)


def cmd_sample(args):
    graph, params, model, chash = _load(args)
    dyn = params.get("dynamics", "glauber")
    theta = fileio.parse_float("theta", params.get("theta", 0.25))
    if args.steps < 0:
        raise ValueError(f"--steps must be non-negative, got {args.steps}")
    steps = args.t1 * args.t2 if dyn == "simulate" else args.steps
    record = _parse_record(args.record, steps)
    t0 = time.time()
    if dyn == "glauber":
        run = dynamics.glauber_run(model, _start_state(params, model),
                                   steps, args.seed, record_at=record)
    elif dyn == "censored":
        period = fileio.parse_int("period", params.get("period", "10"))
        if graph.bipartite_k is None:
            raise ValueError("censored dynamics needs a bipartite graph")
        sched = dynamics.Schedule.two_level(
            range(graph.bipartite_k), range(graph.bipartite_k, graph.n),
            period, fileio.parse_int("schedule-seed",
                                     params.get("schedule-seed", "1")))
        run = dynamics.censored_glauber(model, _start_state(params, model),
                                        sched, steps, args.seed,
                                        record_at=record)
    elif dyn == "simulate":
        if "start" in params:
            raise ValueError("start does not apply to dynamics = simulate, "
                             "which starts at lift(1_V)")
        run, _ = dynamics.simulate_algorithm(
            model, theta, args.t1, args.t2, args.seed, record_at=record)
    elif dyn == "field":
        run = dynamics.field_run(model, theta, _start_state(params, model),
                                 steps, args.seed, record_at=record)
    else:
        raise ValueError(f"unknown dynamics: {dyn!r}")
    wall = time.time() - t0

    # occupancy of value 1 across recorded states, per variable: integer
    # counts over the number of records
    occ = [c / len(run.times) for c in run.one_counts().tolist()]
    head = f"# config={chash} seed={args.seed} wall={wall:.3f}\n"
    _emit(args, head + run.dump_trajectory(), suffix=".traj.tsv")
    occ_csv = head + "var,frac_one\n" + "".join(
        f"{v},{exact.format_float(x)}\n" for v, x in enumerate(occ))
    _emit(args, occ_csv, suffix=".occupancy.csv")
    return 0


class _VerifyContext(exact.Tables):
    """The tables of the model and its lift, and the propagations the
    checks share over them; each is built on first use, at most once."""

    def __init__(self, model, theta, t1, t2):
        super().__init__(model, theta)
        self.t1, self.t2 = t1, t2
        self.ones = tuple([1] * model.n_vars)
        self.is_plain_hc = (isinstance(model, models.HardcoreModel)
                            and model.graph.m > 0)

    # the lift of the point mass at the all-1 state
    pi0 = cached_property(lambda c: c.lift(exact.point_mass(c.support,
                                                            c.ones)))
    # laws of the simulation run over 2*t1*t2 steps from pi0
    alg = cached_property(lambda c: exact.propagate(
        c.pi0, exact.algorithm_kernel_sequence(
            c.freeze, c.starg, c.t1, c.t2, steps=2 * c.t1 * c.t2)))
    # laws of the lifted Glauber chain from pi0, and of the Glauber chain
    # from the all-1 state, over max(20, 2*t1*t2) steps
    lifted_laws = cached_property(lambda c: exact.propagate(
        c.pi0, [c.lker] * max(20, 2 * c.t1 * c.t2)))
    laws = cached_property(lambda c: exact.propagate(
        exact.point_mass(c.support, c.ones),
        [c.gker] * max(20, 2 * c.t1 * c.t2)))


def _check_detailed_balance(c):
    kers = [c.gker]
    if not c.model.ternary:
        kers += [c.lker, c.freeze, c.starg]
    worst = max(exact.check_detailed_balance(k) for k in kers)
    return worst <= 1e-12, True, worst


def _check_monotone_system(c):
    ok, wit = c.monotone_system()
    return ok, not c.is_plain_hc, None if wit is None else repr(wit)


def _check_stochastic_monotonicity(c):
    if c.is_plain_hc or c.model.ternary:
        ok, wit = exact.check_stochastic_monotonicity(c.gker)
        return ok, not c.is_plain_hc, None if wit is None else repr(wit)
    for ker in (c.lker, c.freeze, c.starg):
        ok, wit = exact.check_stochastic_monotonicity(ker)
        if not ok:
            break
    return ok, True, None if wit is None else repr(wit)


def _check_many_stationary(c):
    worst = max(float(np.abs(nu @ c.freeze.matrix - nu).sum())
                for nu in c.lifted_laws[:20])
    return worst <= 1e-10, True, worst


def _check_lift_identity(c):
    worst = max(exact.tv_distance(c.lift(mu_t), pi_t)
                for mu_t, pi_t in zip(c.laws[1:21], c.lifted_laws[1:21]))
    return worst <= 1e-10, True, worst


def _check_dominance(c):
    fail = first_dominance_failure(zip(c.lifted_laws, c.alg), c.lsup)
    return fail is None, True, None if fail is None else sorted(fail[1])


def _check_tv_comparison(c):
    mu = c.gker.stationary
    worst = max(
        exact.tv_distance(mu_t, mu) - exact.tv_distance(c.contract(nu), mu)
        for mu_t, nu in zip(c.laws, c.alg[:c.t1 * c.t2 + 1]))
    return worst <= 1e-10, True, worst


def _check_single_vertex_mc(c):
    ok, wit = True, None
    for v in range(c.model.n_vars):
        laws = [(succ[:, [v]], prob[:, [v]])
                for succ, prob in (c.larrays, c.sarrays)]
        ok, wit = exact.check_site_mc_leq(c.lifted, laws, v, c.lsup,
                                          c.lmu)
        if not ok:
            break
    return ok, True, None if wit is None else repr(wit)


def _check_product_comparison(c):
    ok, wit = exact.check_mc_leq(c.lker, c.freeze @ c.starg)
    return ok, False, None if wit is None else repr(wit)


# check name -> (function, whether it needs the binary lift of the model);
# each function returns (observed, expected, witness)
_CHECKS = {
    "detailed-balance": (_check_detailed_balance, False),
    "monotone-system": (_check_monotone_system, False),
    "stochastic-monotonicity": (_check_stochastic_monotonicity, False),
    "many-stationary": (_check_many_stationary, True),
    "lift-identity": (_check_lift_identity, True),
    "dominance": (_check_dominance, True),
    "tv-comparison": (_check_tv_comparison, True),
    "single-vertex-mc": (_check_single_vertex_mc, True),
    "product-comparison": (_check_product_comparison, True),
}

# every check but the known counterexample
_DEFAULT_CHECKS = [name for name in _CHECKS if name != "product-comparison"]


def _verify_checks(model, theta, t1, t2, selected):
    """Run the selected structural checks; returns result dicts.

    Expected-negative checks: plain-hardcore monotonicity (conditioning a
    neighbor occupied reverses the order) and the comparison counterexample.
    """
    for name in selected:
        if name not in _CHECKS:
            raise ValueError(f"unknown check: {name!r}")
        if model.ternary and _CHECKS[name][1]:
            raise ValueError(f"check {name!r} needs the binary lift; a "
                             "ternary model takes only non-lift checks")
    ctx = _VerifyContext(model, theta, t1, t2)
    results = []
    for name in selected:
        ok, expected, witness = _CHECKS[name][0](ctx)
        results.append({"check": name, "observed": bool(ok),
                        "expected": expected,
                        "pass": bool(ok) == expected,
                        "witness": witness})
    return results


def cmd_verify(args):
    graph, params, model, chash = _load(args)
    theta = fileio.parse_float("theta", params.get("theta", 0.25))
    for flag, value in (("--t1", args.t1), ("--t2", args.t2)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    selected = args.check or _DEFAULT_CHECKS
    results = _verify_checks(model, theta, args.t1, args.t2, selected)
    report = {"config": chash, "seed": args.seed, "results": results,
              "all_pass": all(r["pass"] for r in results)}
    _emit(args, json.dumps(report, indent=2, default=str) + "\n")
    return 0 if report["all_pass"] else 1


def cmd_analyze(args):
    graph, params, model, chash = _load(args)
    rng = dynamics.make_rng(args.seed, 0, "analyze")
    rep = analysis.independence_report(model, rng=rng)
    out = {"config": chash, "seed": args.seed,
           "sinf": rep.sinf, "marginal_stability": rep.marginal_stability,
           "coupling": rep.coupling, "ei_ratio": rep.ei_ratio}
    kind = params.get("model")
    sched = None
    if kind == "rc":
        theta, sched = analysis.rc_schedule(
            min(fileio._per_item(params, "p", graph.m)),
            max(fileio._per_item(params, "lambda", graph.n)), max(graph.n, 3))
    elif kind == "bipartite-hardcore":
        deg = max(len(graph.neighbors(v)) for v in range(graph.n))
        theta, sched = analysis.bhc_schedule(
            fileio.parse_float("lambda", params["lambda"]), max(deg, 1),
            max(graph.n, 3),
            fileio.parse_float("delta", params.get("delta", 0.5)))
    if sched is not None:
        out["schedule"] = {"theta": theta, "segments": sched.segments,
                          "kappa": analysis.kappa(sched),
                          "log_kappa": analysis.log_kappa(sched)}
        out["t_bound"] = analysis.t_bound(sched, rep.mu_min, args.eps)
    if {"lambda", "d", "beta"} <= params.keys():
        lam, d, beta = (fileio.parse_float(k, params[k])
                        for k in ("lambda", "d", "beta"))
        delta = fileio.parse_float("delta", params.get("delta", 0.0))
        grid = analysis.uniqueness_grid(lam, d, beta, delta)
        out["uniqueness_grid"] = {str(w): g for w, g in grid.items()}
        out["uniqueness_note"] = "heuristic w-grid, not exhaustive"
    _emit(args, json.dumps(out, indent=2, default=str) + "\n")
    return 0


def cmd_mixing(args):
    graph, params, model, chash = _load(args)
    theta = fileio.parse_float("theta", params.get("theta", 0.25))
    t_gd, t_fd_ones, t_fd_worst, t_tilted, bound = exact.comparison_times(
        model, theta, args.eps)
    head = ("config,seed,eps,theta,t_gd_ones,t_fd_ones,t_fd_worst,"
            "t_tilted,product_bound\n")
    row = (f"{chash},{args.seed},{exact.format_float(args.eps)},"
           f"{exact.format_float(theta)},{t_gd},{t_fd_ones},{t_fd_worst},"
           f"{t_tilted},{bound}\n")
    _emit(args, head + row)
    return 0 if t_gd <= bound else 1


def cmd_kernel_export(args):
    graph, params, model, chash = _load(args)
    ker = exact.glauber_kernel(model)
    text = f"# config={chash} seed={args.seed}\n" + exact.kernel_to_csv(ker)
    _emit(args, text)
    return 0


def _check_option_values(args):
    """argparse reads an option written "--opt=--" as an empty list rather
    than as a value; refuse it."""
    for name, value in vars(args).items():
        if (value == [] and name not in ("transform", "check")
                or isinstance(value, list) and [] in value):
            raise ValueError(f"--{name} needs a value")


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _check_option_values(args)
        # each command of _COMMANDS runs its cmd_ function
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, RuntimeError, ArithmeticError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a crash must never read as a failed check (1)
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
