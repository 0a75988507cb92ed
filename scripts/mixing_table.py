#!/usr/bin/env python3
"""Exact mixing-time table over a theta sweep.

For a small flipped random cluster instance, prints one CSV row per theta:
the Glauber mixing time from all-ones, the field dynamics mixing time (worst
start), the worst tilted-and-pinned Glauber mixing time, and their product,
which upper-bounds the first column: the columns of `exact.comparison_times`,
which the `mixing` command prints too.
"""

import argparse

from glauberlab import exact, models


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--vertices", type=int, default=4)
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--lam", type=float, default=0.5)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--thetas", default="0.1,0.25,0.5,0.75,0.9")
    args = ap.parse_args()

    n = args.vertices
    edges = [(i, i + 1) for i in range(n - 1)]
    g = models.Graph(n, edges)
    m = models.flip(models.RandomClusterModel(g, [args.p] * g.m,
                                              [args.lam] * n))
    print("theta,t_gd_ones,t_fd_worst,t_tilted,product_bound")
    for tok in args.thetas.split(","):
        theta = float(tok)
        t_gd, _, t_fd, t_tilted, bound = exact.comparison_times(m, theta,
                                                                args.eps)
        flag = "" if t_gd <= bound else "  # VIOLATION"
        print(f"{theta},{t_gd},{t_fd},{t_tilted},{bound}{flag}")


if __name__ == "__main__":
    main()
