"""End-to-end acceptance suite.

Each test covers one numbered claim about the implementation, at fixed
tolerances, and prints a single PASS line when it holds.  Run with -s (or
read the -v test lines) to see one line per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.stats

from glauberlab import analysis, dynamics, exact, models
from glauberlab.models import (BipartiteHardcoreModel, Graph, HardcoreModel,
                               IsingModel, RandomClusterModel, flip, tilt)
from glauberlab.ordercore import STAR, stochastic_dominance
from conftest import (random_bhc, random_bipartite_graph, random_graph,
                      random_hardcore, random_rc, random_monotone_model)
import oracles


def report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def mixed_instance(rng):
    """One of: RC, flipped RC, hardcore, bipartite hardcore; small."""
    kind = int(rng.integers(4))
    if kind == 0:
        return random_rc(rng, random_graph(rng, n_hi=4, m_hi=6))
    if kind == 1:
        return flip(random_rc(rng, random_graph(rng, n_hi=4, m_hi=6)))
    if kind == 2:
        return random_hardcore(rng, random_graph(rng, n_hi=4))
    return random_bhc(rng, random_bipartite_graph(rng, n_hi=4))


def lifted_kernels(model, theta):
    t = exact.Tables(model, theta)
    return t, t.lker, t.freeze, t.starg


def test_01_detailed_balance(rng):
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        m = mixed_instance(rng)
        theta = float(rng.uniform(0.2, 0.8))
        worst = max(worst, exact.check_detailed_balance(
            exact.glauber_kernel(m)))
        _, lker, freeze, starg = lifted_kernels(m, theta)
        for ker in (lker, freeze, starg):
            worst = max(worst, exact.check_detailed_balance(ker))
    assert worst <= 1e-12, worst
    assert time.time() - t0 < 30.0
    report(1, "detailed balance of glauber/freeze/frozen-site kernels")


def test_02_03_lift_identity_and_freeze_stationarity(rng):
    worst_tv = worst_l1 = 0.0
    for _ in range(20):
        m = random_monotone_model(rng, max_vars=4)
        theta = float(rng.uniform(0.2, 0.8))
        t, lker, freeze, _ = lifted_kernels(m, theta)
        gker = t.gker
        ones = tuple([1] * m.n_vars)
        mu_t = exact.point_mass(t.support, ones)
        pi_t = t.lift(mu_t)
        for _ in range(21):
            push = t.lift(mu_t)
            worst_tv = max(worst_tv, exact.tv_distance(push, pi_t))
            worst_l1 = max(worst_l1,
                           float(np.abs(pi_t @ freeze.matrix - pi_t).sum()))
            mu_t = mu_t @ gker.matrix
            pi_t = pi_t @ lker.matrix
    assert worst_tv <= 1e-10, worst_tv
    report(2, "lifted chain from lift(all-ones) tracks the base chain")
    assert worst_l1 <= 1e-10, worst_l1
    report(3, "lifted time-t laws are stationary for the freeze kernel")


@pytest.fixture(scope="module")
def small_monotone_pool():
    rng = np.random.default_rng(31415)
    pool = []
    while len(pool) < 10:
        m = random_monotone_model(rng, max_vars=3)
        pool.append((m, float(rng.uniform(0.2, 0.8))))
    return pool


def test_04_05_dominance_and_tv_comparison(small_monotone_pool):
    t1, t2 = 3, 4
    horizon = 2 * t1 * t2
    worst_slack = -math.inf
    for m, theta in small_monotone_pool:
        tables, lker, freeze, starg = lifted_kernels(m, theta)
        sup, lsup, gker = tables.support, tables.lsup, tables.gker
        mu = gker.stationary
        seq = exact.algorithm_kernel_sequence(freeze, starg, t1, t2,
                                              steps=horizon)
        assert seq[0].support.states == lsup.states
        ones = tuple([1] * m.n_vars)
        pi0 = tables.lift(exact.point_mass(sup, ones))
        alg = exact.propagate(pi0, seq)
        gd = pi0
        mu_t = exact.point_mass(sup, ones)
        for t in range(horizon + 1):
            ok, wit = stochastic_dominance(gd, alg[t], lsup)
            assert ok, (t, wit)
            lhs = exact.tv_distance(mu_t, mu)
            rhs = exact.tv_distance(tables.contract(alg[t]), mu)
            worst_slack = max(worst_slack, lhs - rhs)
            gd = gd @ lker.matrix
            mu_t = mu_t @ gker.matrix
    report(4, "plain lifted chain is dominated by the simulated chain")
    assert worst_slack <= 1e-10, worst_slack
    report(5, "base chain TV to stationarity never exceeds the simulated one")


def test_06_kernel_monotonicity(small_monotone_pool):
    for m, theta in small_monotone_pool:
        _, lker, freeze, starg = lifted_kernels(m, theta)
        for ker in (lker, freeze, starg):
            ok, wit = exact.check_stochastic_monotonicity(ker)
            assert ok, wit
    # negative control: the plain hard-core model on an edge
    hc = HardcoreModel(Graph(2, [(0, 1)]), 1.0)
    ok, wit = exact.check_stochastic_monotonicity(exact.glauber_kernel(hc))
    assert not ok and wit is not None
    report(6, "kernel monotonicity holds, with hard-core negative control")


def test_07_single_vertex_comparison(small_monotone_pool):
    for m, theta in small_monotone_pool:
        t = exact.Tables(m, theta)
        for v in range(m.n_vars):
            ok, wit = exact.check_mc_leq(*oracles.lifted_site_kernels(t, v))
            assert ok, (v, wit)
    report(7, "per-vertex lifted update is comparison-dominated")


def test_08_two_kernel_product_counterexample():
    m = flip(RandomClusterModel(Graph(3, [(0, 1), (1, 2)]),
                                [0.5, 0.5], [1.0, 1.0, 1.0]))
    theta = 0.5
    t, lker, freeze, starg = lifted_kernels(m, theta)
    ok, wit = exact.check_mc_leq(lker, freeze @ starg)
    assert not ok
    u, kind = wit
    assert kind == "extreme-ray"
    all_star = tuple([STAR] * m.n_vars)
    assert u == frozenset({t.lsup.index(all_star)})
    report(8, "freeze-then-update product is not comparison-dominating")


def _sw_rc_pushforward(rc):
    """Exact law of (subgraph-world sample) union (independent extra edges)."""
    sw = oracles.sw_for_rc(rc)
    sup = exact.enumerate_support(sw)
    probs = exact.stationary_distribution(sw, sup)
    mvars = rc.n_vars
    q = [p / (2 - p) for p in rc.p]
    out = {}
    for x, px in zip(sup.states, probs):
        free = [i for i in range(mvars) if x[i] == 0]
        for add in itertools.product((0, 1), repeat=len(free)):
            pr = px
            y = list(x)
            for i, a in zip(free, add):
                pr *= q[i] if a else 1 - q[i]
                y[i] = a
            key = tuple(y)
            out[key] = out.get(key, 0.0) + pr
    return out


def test_09_subgraph_world_coupling(rng):
    # exact pushforward on random instances with at most 5 edges
    for _ in range(10):
        rc = random_rc(rng, random_graph(rng, n_hi=4, m_hi=5))
        push = _sw_rc_pushforward(rc)
        rsup = exact.enumerate_support(rc)
        rmu = exact.stationary_distribution(rc, rsup)
        tv = 0.5 * sum(abs(push.get(s, 0.0) - p)
                       for s, p in zip(rsup.states, rmu))
        assert tv <= 1e-10, tv
    # Monte Carlo on one 4-edge instance at a million samples
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    rc = RandomClusterModel(g, [0.6, 0.4, 0.5, 0.7], [0.8, 0.5, 1.0, 0.3])
    sw = oracles.sw_for_rc(rc)
    ssup = exact.enumerate_support(sw)
    sprobs = exact.stationary_distribution(sw, ssup)
    n = 10 ** 6
    srng = dynamics.make_rng(271828, 0, "sw-coupling")
    idx = srng.choice(len(ssup.states), size=n, p=sprobs)
    xs = np.array(ssup.states)[idx]
    q = np.array([p / (2 - p) for p in rc.p])
    ys = xs | (srng.random((n, 4)) < q)
    codes = ys @ np.array([8, 4, 2, 1])
    counts = np.bincount(codes, minlength=16)
    rsup = exact.enumerate_support(rc)
    rmu = exact.stationary_distribution(rc, rsup)
    expected = np.zeros(16)
    for s, p in zip(rsup.states, rmu):
        expected[int("".join(map(str, s)), 2)] = p * n
    keep = expected > 0
    assert counts[~keep].sum() == 0
    stat, pval = scipy.stats.chisquare(counts[keep], expected[keep])
    assert pval > 1e-4, (stat, pval)
    report(9, "subgraph-world union coupling reproduces the cluster law")


def test_10_cluster_to_spin_transfer():
    for graph in (Graph(2, [(0, 1)]),
                  Graph(3, [(0, 1), (1, 2), (0, 2)])):
        for lam in (0.5, 1.0):
            ising = IsingModel(graph, [2.0] * graph.m, [lam] * graph.n)
            rc = oracles.rc_for_ising(ising)
            rsup = exact.enumerate_support(rc)
            rmu = exact.stationary_distribution(rc, rsup)
            push = {}
            for x, px in zip(rsup.states, rmu):
                present = [graph.edges[i] for i in range(graph.m) if x[i]]
                comps = models.components(graph.n, present)
                choices = []
                for comp in comps:
                    prod = math.prod(ising.lam[v] for v in comp)
                    choices.append((comp, prod / (1 + prod)))
                for bits in itertools.product((0, 1), repeat=len(comps)):
                    pr = px
                    spin = [0] * graph.n
                    for (comp, p1), b in zip(choices, bits):
                        pr *= p1 if b else 1 - p1
                        if b:
                            for v in comp:
                                spin[v] = 1
                    key = tuple(spin)
                    push[key] = push.get(key, 0.0) + pr
            isup = exact.enumerate_support(ising)
            imu = exact.stationary_distribution(ising, isup)
            tv = 0.5 * sum(abs(push.get(s, 0.0) - p)
                           for s, p in zip(isup.states, imu))
            assert tv <= 1e-10, (lam, tv)
    report(10, "cluster-to-spin component colouring reproduces the spin law")


def test_11_independence_inequalities(rng):
    # influence norm is bounded by the coupling constant
    for _ in range(20):
        m = random_monotone_model(rng, max_vars=3)
        d = analysis.Diagnostics(m)
        assert (analysis.max_sinf_norm(d)
                <= analysis.coupling_independence(d) + 1e-9)
    # coupling bound for the tilted flipped random cluster model
    for _ in range(20):
        rc = random_rc(rng, random_graph(rng, n_hi=4, m_hi=4), lam_hi=0.9)
        m = tilt(flip(rc), float(rng.uniform(0.2, 0.9)))
        bound = 2.0 * (1 - max(rc.lam)) ** -2
        assert (analysis.coupling_independence(analysis.Diagnostics(m))
                <= bound + 1e-9)
    # marginal stability bound for the flipped model at high edge weight
    for _ in range(20):
        rc = random_rc(rng, random_graph(rng, n_hi=4, m_hi=4),
                       p_lo=2 / 3, p_hi=0.95)
        assert (analysis.marginal_stability(analysis.Diagnostics(flip(rc)))
                <= 2.0 + 1e-12)
    # the entropic witness never beats the product of the two constants
    # (at least two variables, else the influence norm is vacuous)
    done = 0
    while done < 20:
        m = random_monotone_model(rng, max_vars=3)
        if m.n_vars < 2:
            continue
        done += 1
        d = analysis.Diagnostics(m)
        eta = analysis.max_sinf_norm(d)
        k = analysis.marginal_stability(d)
        r, _ = analysis.ei_witness(d, iterations=100, restarts=2, rng=rng)
        assert r <= 384.0 * eta * k ** 4 + 1e-6, (r, eta, k)
    report(11, "influence/coupling/stability/entropy inequalities hold")


def test_12_product_mixing_bound():
    t0 = time.time()
    rng = np.random.default_rng(606)
    eps = 0.1
    for _ in range(10):
        m = random_monotone_model(rng, max_vars=3)
        theta = float(rng.uniform(0.3, 0.7))
        gker = exact.glauber_kernel(m)
        ones = tuple([1] * m.n_vars)
        t_gd = exact.exact_mixing_time(gker, ones, eps)
        fker = exact.fd_kernel(m, theta)
        t_fd = exact.exact_mixing_time(fker, None, eps / 2)
        delta = eps / (2 * max(t_fd, 1))
        t_tilted = exact.tilted_mixing_time(exact.Tables(m, theta), delta)
        assert t_gd <= max(t_fd, 1) * t_tilted, (t_gd, t_fd, t_tilted)
    assert time.time() - t0 < 120.0
    report(12, "one-shot mixing bound: slow chain <= product of fast pieces")


def test_13_schedules_and_critical_activity():
    rc_settings = [(0.3, 0.5, 50), (0.5, 0.5, 1024), (0.9, 0.1, 10),
                   (0.1, 0.8, 200), (0.6, 0.3, 64)]
    for p_min, lam_max, n in rc_settings:
        _, sched = analysis.rc_schedule(p_min, lam_max, n)
        got = sched.integral()
        assert abs(got - oracles.quadrature(sched)) <= 1e-9 * abs(got)
    bhc_settings = [(0.5, 3, 100, 0.1), (0.2, 2, 50, 0.5), (1.0, 4, 1000, 0.2),
                    (0.8, 1, 10, 0.9), (0.1, 5, 300, 0.05)]
    for lam, dd, n, delta in bhc_settings:
        _, sched = analysis.bhc_schedule(lam, dd, n, delta)
        got = sched.integral()
        assert abs(got - oracles.quadrature(sched)) <= 1e-9 * abs(got)
    assert analysis.lambda_c(3) == 4.0
    assert analysis.lambda_c(4) == 27.0 / 16.0
    report(13, "schedule integrals match quadrature; critical points exact")


def test_14_empirical_occupancy_and_replay():
    m = RandomClusterModel(Graph(2, [(0, 1)]), [0.5], [1.0, 1.0])
    steps = 10 ** 6
    run = dynamics.glauber_run(m, (0,), steps, seed=9001,
                               record_at=[0, steps])
    # single variable: every step resamples from the stationary law, so the
    # step values are iid Bernoulli(1/3)
    frac = sum(val for _, _, val in run.log) / steps
    sigma = math.sqrt((1 / 3) * (2 / 3) / steps)
    assert abs(frac - 1 / 3) <= 3 * sigma, (frac, sigma)
    again = dynamics.glauber_run(m, (0,), steps, seed=9001,
                                 record_at=[0, steps])
    assert run.log == again.log
    assert run.final == again.final
    assert run.replay() == run.recorded
    report(14, "million-step occupancy within 3 sigma; replay bit-exact")
