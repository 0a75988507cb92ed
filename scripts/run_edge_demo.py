#!/usr/bin/env python3
"""Small end-to-end demo on the 2-edge path.

Builds the flipped random cluster model on a 3-vertex path, runs the exact
structural checks, simulates the lift/contract sampler, and prints both the
empirical and exact occupancies, plus the comparison counterexample witness.
"""

import argparse
from collections import Counter

import numpy as np

from glauberlab import dynamics, exact, models
from glauberlab.ordercore import state_str


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--theta", type=float, default=0.5)
    ap.add_argument("--t1", type=int, default=3)
    ap.add_argument("--t2", type=int, default=4)
    ap.add_argument("--chains", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    g = models.Graph(3, [(0, 1), (1, 2)])
    m = models.flip(models.RandomClusterModel(g, [0.5, 0.5], [1.0] * 3))
    tables = exact.Tables(m, args.theta)
    sup, mu = tables.support, tables.mu

    print("== structural checks ==")
    print("detailed balance violation:",
          exact.check_detailed_balance(tables.gker))
    print("monotone system:", tables.monotone_system()[0])

    ok, wit = exact.check_mc_leq(tables.lker, tables.freeze @ tables.starg)
    print("freeze-then-update comparison holds:", ok)
    if not ok:
        u, kind = wit
        names = [state_str(tables.lsup.states[i]) for i in sorted(u)]
        print(f"  failing {kind} up-set: {names}")

    print("== sampler vs exact law ==")
    cnt = Counter()
    for c in range(args.chains):
        _, final = dynamics.simulate_algorithm(m, args.theta, args.t1,
                                               args.t2, seed=args.seed,
                                               chain_index=c)
        cnt[final] += 1
    emp = np.array([cnt[s] / args.chains for s in sup.states])
    print("state  exact      empirical")
    for s, a, b in zip(sup.states, mu, emp):
        print(f"{state_str(s):<6} {a:.6f}  {b:.6f}")
    print("TV(empirical, exact):", exact.tv_distance(emp, mu))


if __name__ == "__main__":
    main()
