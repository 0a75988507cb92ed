"""Benchmark inputs: graph and parameter files, and the operation list of each
workload.

Instance shapes are fixed.  Parameters are drawn from (seed, pass) in a narrow
band around p = lambda = theta = 0.5, so the work per operation barely moves
with the seed while no two operations of a run see identical inputs.  A cache
kept across calls therefore cannot post a gain that a CLI user, who starts a
fresh process per command, would not see.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("verify-small", "exact-large", "sample")

# every structural check of `verify` except single-vertex-mc, which enumerates
# up-sets and is guarded to 32 states (the lifted C4 has 81)
LARGE_CHECKS = ("detailed-balance", "monotone-system", "stochastic-monotonicity",
                "many-stationary", "lift-identity", "dominance", "tv-comparison")
DEFAULT_CHECKS = LARGE_CHECKS + ("single-vertex-mc",)

SINGLE_SITE_STEPS = 200_000
FIELD_STEPS = 2_000
SIM_T1, SIM_T2 = 4_000, 50


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def complete_bipartite(k, r):
    return [(u, k + v) for u in range(k) for v in range(r)]


def graph_text(n, edges, bipartite_k=None):
    head = f"{n} {len(edges)}" + ("" if bipartite_k is None
                                  else f" bipartite {bipartite_k}")
    return "\n".join([head] + [f"{u} {v}" for u, v in edges]) + "\n"


class _Draw:
    """Parameter draws for one pass; narrow bands keep work per op constant."""

    def __init__(self, seed, pass_index):
        self.rng = random.Random(f"glauberlab-bench:{seed}:{pass_index}")

    def near(self, centre, half=0.05):
        return f"{self.rng.uniform(centre - half, centre + half):.6f}"

    def cli_seed(self):
        return self.rng.randrange(2 ** 31)

    def rc(self, n, m, **extra):
        lines = ["model=rc", f"theta={self.near(0.5)}"]
        lines += [f"p.{i}={self.near(0.5)}" for i in range(m)]
        lines += [f"lambda.{v}={self.near(0.5)}" for v in range(n)]
        lines += [f"{k}={v}" for k, v in extra.items()]
        return "\n".join(lines) + "\n"

    def ising(self, n, m, **extra):
        lines = ["model=ising"]
        lines += [f"beta.{i}={self.near(1.5)}" for i in range(m)]
        lines += [f"lambda.{v}={self.near(0.5)}" for v in range(n)]
        lines += [f"{k}={v}" for k, v in extra.items()]
        return "\n".join(lines) + "\n"

    def bhc(self, **extra):
        lines = ["model=bipartite-hardcore", f"lambda={self.near(1.0)}",
                 f"beta={self.near(1.0)}", f"theta={self.near(0.5)}"]
        lines += [f"{k}={v}" for k, v in extra.items()]
        return "\n".join(lines) + "\n"


def _instances(workload, d: _Draw):
    """(name, category, graph text, params text, extra argv, gate spec)."""
    tri = graph_text(3, cycle(3))
    p4 = graph_text(4, [(0, 1), (1, 2), (2, 3)])
    k12 = graph_text(3, complete_bipartite(1, 2), bipartite_k=1)
    k32 = graph_text(5, complete_bipartite(3, 2), bipartite_k=3)
    if workload == "verify-small":
        default = {"gate": "verify", "checks": DEFAULT_CHECKS}
        return [
            ("rc-triangle", "verify", tri, d.rc(3, 3), ["--transform", "flip"],
             default),
            ("tilted-rc-path", "verify", p4, d.rc(4, 3),
             ["--transform", "flip", "--transform", f"tilt={d.near(0.7)}"],
             default),
            ("bhc-k12", "verify", k12, d.bhc(), [], default),
            ("left-marginal-k32", "verify", k32, d.bhc(),
             ["--transform", "left-marginal"], default),
            ("product-comparison", "verify", p4, d.rc(4, 3),
             ["--transform", "flip", "--check", "product-comparison"],
             {"gate": "verify", "checks": ("product-comparison",),
              "negative": ("product-comparison",)}),
            ("plain-hardcore", "verify", graph_text(3, [(0, 1), (1, 2)]),
             f"model=hardcore\nlambda={d.near(1.0)}\n",
             ["--check", "monotone-system", "--check", "stochastic-monotonicity"],
             {"gate": "verify",
              "checks": ("monotone-system", "stochastic-monotonicity"),
              "negative": ("monotone-system", "stochastic-monotonicity")}),
        ]
    if workload == "exact-large":
        check_args = [a for c in LARGE_CHECKS for a in ("--check", c)]
        return [
            ("verify-c4", "verify", graph_text(4, cycle(4)), d.rc(4, 4),
             ["--transform", "flip"] + check_args,
             {"gate": "verify", "checks": LARGE_CHECKS}),
            ("monotone-system-c8", "verify", graph_text(8, cycle(8)),
             d.rc(8, 8), ["--transform", "flip"], {"gate": "library"}),
            ("mixing-c8", "mixing", graph_text(8, cycle(8)), d.rc(8, 8),
             ["--transform", "flip"], {"gate": "mixing"}),
            ("analyze-c6", "analyze", graph_text(6, cycle(6)), d.rc(6, 6),
             ["--transform", "flip"], {"gate": "analyze"}),
        ]
    if workload == "sample":
        steps = ["--steps", str(SINGLE_SITE_STEPS)]
        return [
            ("glauber-ising-c6", "sample", graph_text(6, cycle(6)),
             d.ising(6, 6, dynamics="glauber"), steps,
             {"gate": "sample", "steps": SINGLE_SITE_STEPS}),
            ("censored-bhc-k33", "sample",
             graph_text(6, complete_bipartite(3, 3), bipartite_k=3),
             d.bhc(dynamics="censored", period=10,
                   **{"schedule-seed": d.cli_seed()}), steps,
             {"gate": "sample", "steps": SINGLE_SITE_STEPS}),
            ("simulate-rc-c6", "sample", graph_text(6, cycle(6)),
             d.rc(6, 6, dynamics="simulate"),
             ["--transform", "flip", "--t1", str(SIM_T1), "--t2", str(SIM_T2)],
             {"gate": "sample", "steps": SIM_T1 * SIM_T2, "lifted": True}),
            ("field-rc-c6", "sample", graph_text(6, cycle(6)),
             d.rc(6, 6, dynamics="field"),
             ["--transform", "flip", "--steps", str(FIELD_STEPS)],
             {"gate": "sample", "steps": FIELD_STEPS}),
        ]
    raise ValueError(f"unknown workload: {workload!r}")


def make_pass(workload, seed, pass_index, root):
    """Write the input files of one pass under root; return its operations.

    Each operation is a dict with name, category (also the CLI command),
    argv, output stem, pass index and the spec of its correctness check.
    """
    d = _Draw(seed, pass_index)
    base = os.path.join(root, f"p{pass_index:03d}")
    os.makedirs(base, exist_ok=True)
    ops = []
    for name, cat, gtext, ptext, extra, gate in _instances(workload, d):
        stem = os.path.join(base, name)
        for suffix, text in ((".graph", gtext), (".params", ptext)):
            with open(stem + suffix, "w") as f:
                f.write(text)
        # the library operation reads the same inputs from a CLI-style argv
        argv = [cat, "--graph", stem + ".graph", "--params",
                stem + ".params", "--seed", str(d.cli_seed()),
                "--out", stem + ".out"] + extra
        ops.append({"name": name, "category": cat, "argv": argv,
                    "out": stem + ".out", "gate": gate,
                    "pass": pass_index})
    return ops
