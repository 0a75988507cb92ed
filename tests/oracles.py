"""Test-only reference implementations of the dominance layer and the
single-site samplers.

These are the slow forms the fast code replaced, kept to compare against:
a Dinic max-flow of their own, which the max-flows below run, and the
closure cut on it that networkx's preflow-push replaced; the max-flow
over the full k x k order network, the max-flow over
supp(nu) x supp(nu_prime) that gave each dominance witness, one such flow
per row of a dominance stack, one flow per comparable
pair in the monotonicity check, one flow per extreme ray in the kernel
comparison, the single-vertex comparison by both site kernels and every
up-set of the support, one flow per ordered pair of keys with two conditional
calls each in the monotone-system check, the per-row worst-start distance
of the exact mixing time, the tilted mixing time that rebuilds and
re-enumerates one pinned model per pinning and the one that runs every
stack by the step loop, the sampler loops that call
the site-update law on every step (or compute each field step's pinned
slice afresh) and log a tuple and store each recorded state as they go,
and censored Glauber and the simulation run by the per-step loop over
raw words, one draw decoded a step,
the trajectory text one formatted line at a time, the up-set enumeration
one frozenset at a time, the up-set test and the up-set cross-check of
stochastic dominance, the covers and height of a poset by their
definitions, and the independence diagnostics that scan the state table
once per pinning and solve one min-cost flow per pair of conditionings,
and the entropic-independence witness search that scores one law at a
time; the greedy monotone coupling that bounds a row's excess, one
source and one sink at a time; the kernel builders that loop over states,
sites and values (site-update laws) or over rows and kept sets (field
dynamics), the freeze kernel and the lift and contract pushforwards that
fan each binary state out over its lifts with one support.index per
entry, and the mixing time of one chain at a time without the refusal by
distance, and the closed-form mixing time of a two-state chain; the tilted
slices over the tilted model's own support and conditional, the
Glauber vs field-dynamics comparison composed from the public calls, and
the CLI parser that declares every option on each subcommand again; and
the law arrays of a site-update law evaluated once per (state, site), which
the exact layer derives from one conditional per fiber instead; and the
fibers of a site numbered by np.unique over the rows with the site deleted,
which the exact layer reads from integer state codes instead; and the
state table's lookups as they were: the dict over state tuples behind
Poset.index and `in`, the extension sorted over tuples, the fibers of each
site found in that dict, and the contraction index by searchsorted on
binary contraction codes, which Poset.lookup over the rows' codes replaced;
and the log
weights, tilted log weights, lifted support and lifted law of a model
evaluated state by state, which the exact layer keeps from the support's
enumeration and derives from it; and the support enumerated one
log_weight call per candidate, the log weights of a support and the
heat-bath table one call per state, which the exact layer evaluates in
one array call per block or per site.  Last, the
couplings between models that only the coupling tests build: the random
cluster model of an Ising model and the subgraph-world model of a random
cluster model; the test that a function on a poset increases, which no
command makes; and the integral of a rate schedule by quadrature.
"""

import argparse
import functools
import itertools
import math
from collections import deque

import networkx as nx
import numpy as np
import scipy.integrate

from glauberlab import dynamics, exact, models, ordercore
from glauberlab.ordercore import contract, leq, lift
from glauberlab.ordercore import PROB_TOL, _FLOW_SCALE, Poset


def is_up_set(poset: Poset, members) -> bool:
    m = poset.leq_matrix()
    for i in members:
        if not all(j in members for j in np.nonzero(m[i])[0]):
            return False
    return True


def is_increasing(values, poset: Poset, tol: float = 0.0):
    """Check f(x) <= f(y) for all comparable pairs x <= y.

    values: sequence aligned with poset.states.
    Returns (True, None) or (False, (i, j)) with a violating index pair.
    """
    m = poset.leq_matrix()
    k = poset.size
    for i in range(k):
        for j in np.nonzero(m[i])[0]:
            if i != j and values[i] > values[j] + tol:
                return False, (i, j)
    return True, None


def up_sets_by_sets(poset: Poset, max_elements: int = 32,
                    max_up_sets: int = 10 ** 6):
    """enumerate_up_sets one set at a time: a list of frozensets of element
    indices, along a reverse linear extension, each partial up-set followed
    by its extension."""
    k = poset.size
    if k > max_elements:
        raise ValueError(
            f"poset has {k} > {max_elements} elements; up-sets are "
            f"enumerated on at most {max_elements} elements")
    order = sorted(range(k), key=lambda i: poset.states[i], reverse=True)
    m = poset.leq_matrix()
    succ = [frozenset(j for j in np.nonzero(m[i])[0] if j != i)
            for i in range(k)]
    partial = [frozenset()]
    for i in order:
        new = []
        for u in partial:
            new.append(u)
            if succ[i] <= u:
                new.append(u | {i})
        if len(new) > max_up_sets:
            raise ValueError(
                f"more than {max_up_sets} up-sets; at most {max_up_sets} "
                "up-sets are enumerated")
        partial = new
    return partial


def _check_dist(p, k):
    p = np.asarray(p, dtype=float)
    if p.shape != (k,):
        raise ValueError("distribution length does not match the poset")
    if np.any(p < -PROB_TOL) or abs(p.sum() - 1.0) > PROB_TOL:
        raise ValueError("input is not a probability vector")
    return np.clip(p, 0.0, None)


def _scale_to_ints(p):
    ints = [int(round(x * _FLOW_SCALE)) for x in p]
    ints[int(np.argmax(p))] += _FLOW_SCALE - sum(ints)
    return ints


class _Dinic:
    """Max-flow on small graphs with exact (Python int) capacities.  After
    max_flow, level[v] >= 0 iff v is on the source side of the final
    residual graph, the least min cut: the last search found no sink."""

    def __init__(self, n):
        self.n = n
        self.adj = [[] for _ in range(n)]

    def add_edge(self, u, v, cap):
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _bfs(self, s, t):
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.adj[u]:
                if e[1] > 0 and self.level[e[0]] < 0:
                    self.level[e[0]] = self.level[u] + 1
                    q.append(e[0])
        return self.level[t] >= 0

    def _dfs(self, u, t, f):
        if u == t:
            return f
        while self.it[u] < len(self.adj[u]):
            e = self.adj[u][self.it[u]]
            if e[1] > 0 and self.level[e[0]] == self.level[u] + 1:
                d = self._dfs(e[0], t, min(f, e[1]))
                if d > 0:
                    e[1] -= d
                    self.adj[e[0]][e[2]][1] += d
                    return d
            self.it[u] += 1
        return 0

    def max_flow(self, s, t):
        total = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                f = self._dfs(s, t, float("inf"))
                if f == 0:
                    break
                total += f
        return total


def full_network_dominance(nu, nu_prime, poset: Poset, tol=PROB_TOL):
    """stochastic_dominance on the full network: every element on both sides
    and an arc for every one of the order pairs."""
    k = poset.size
    left = _scale_to_ints(_check_dist(nu, k))
    right = _scale_to_ints(_check_dist(nu_prime, k))
    m = poset.leq_matrix()
    s, t = 0, 2 * k + 1
    net = _Dinic(2 * k + 2)
    for i in range(k):
        if left[i] > 0:
            net.add_edge(s, 1 + i, left[i])
        if right[i] > 0:
            net.add_edge(1 + k + i, t, right[i])
    for i in range(k):
        for j in np.nonzero(m[i])[0]:
            net.add_edge(1 + i, 1 + k + j, _FLOW_SCALE)
    flow = net.max_flow(s, t)
    slack = int(tol * _FLOW_SCALE) + k + 1
    if flow >= _FLOW_SCALE - slack:
        return True, None
    return False, poset.up_closure([i for i in range(k)
                                    if net.level[1 + i] >= 0])


def flow_dominance(nu, nu_prime, poset: Poset, slack: int):
    """stochastic_dominance of one pair of rows of the poset's length, by
    max-flow on the bipartite graph supp(nu) x supp(nu_prime) with an arc
    x -> y whenever x <= y: the flow may fall short of _FLOW_SCALE by at
    most slack units, and a failing pair's witness is the up-closure of the
    elements of supp(nu) reachable in the residual graph.  Raises if either
    row is not a probability vector."""
    pair = np.array([nu, nu_prime])
    if ordercore._invalid(pair).any():
        raise ValueError("input is not a probability vector")
    left, right = ordercore._scale_to_ints(np.clip(pair, 0.0, None))
    src = np.flatnonzero(left > 0)
    dst = np.flatnonzero(right > 0)
    arcs = poset.leq_matrix()[np.ix_(src, dst)]

    s, t = 0, len(src) + len(dst) + 1
    net = _Dinic(t + 1)
    for a, i in enumerate(src.tolist()):
        net.add_edge(s, 1 + a, int(left[i]))
    for b, j in enumerate(dst.tolist()):
        net.add_edge(1 + len(src) + b, t, int(right[j]))
    for a, b in zip(*np.nonzero(arcs)):
        net.add_edge(1 + int(a), 1 + len(src) + int(b), _FLOW_SCALE)

    if net.max_flow(s, t) >= _FLOW_SCALE - slack:
        return True, None
    return False, poset.up_closure(
        i for a, i in enumerate(src.tolist()) if net.level[1 + a] >= 0)


def per_row_flow_dominance(nu, nu_prime, poset: Poset, tol=PROB_TOL, *,
                           split=1):
    """stochastic_dominance of (b, k) stacks by one flow_dominance per row,
    in row order: raises at an invalid row, returns (False, (r, U)) at the
    first failing row r."""
    nu = np.asarray(nu, dtype=float)
    nu_prime = np.asarray(nu_prime, dtype=float)
    if nu_prime.shape != nu.shape or nu.shape[1] != poset.size:
        raise ValueError("distribution length does not match the poset")
    slack = ordercore._slack(tol, poset.size) // split
    for r in range(len(nu)):
        ok, wit = flow_dominance(nu[r], nu_prime[r], poset, slack)
        if not ok:
            return False, (r, wit)
    return True, None


def greedy_coupling_bound(d, poset: Poset) -> int:
    """ordercore._coupling_bound of one integer row d, one source and one
    sink at a time: the positive entries, along poset.extension, each fill
    what is left of the negative entries above them in increasing
    lexicographic order; returns the supply left unrouted."""
    m = poset.leq_matrix()
    cap = {j: -int(d[j]) for j in range(len(d)) if d[j] < 0}
    sinks = sorted(cap, key=poset.states.__getitem__)
    unrouted = 0
    for i in poset.extension:
        supply = max(int(d[i]), 0)
        for j in sinks:
            if m[i, j]:
                take = min(supply, cap[j])
                cap[j] -= take
                supply -= take
        unrouted += supply
    return unrouted


def dinic_closure_cut(d, poset: Poset):
    """ordercore._closure_cut by _Dinic on the same network: the covers at
    _FLOW_SCALE, source arcs on the positive entries of the integer row d,
    sink arcs on its negative entries.  Returns the source capacity less
    the max flow and the up-closure, as a bool mask, of the positive
    entries on the source side of the final residual graph."""
    pos = np.flatnonzero(d > 0)
    neg = np.flatnonzero(d < 0)
    s, t = 0, poset.size + 1
    net = _Dinic(t + 1)
    for i, j in poset.covers.tolist():
        net.add_edge(i + 1, j + 1, _FLOW_SCALE)
    for i in pos.tolist():
        net.add_edge(s, i + 1, int(d[i]))
    for j in neg.tolist():
        net.add_edge(j + 1, t, -int(d[j]))
    excess = int(d[pos].sum()) - net.max_flow(s, t)
    gens = [i for i in pos.tolist() if net.level[i + 1] >= 0]
    return excess, poset.leq_matrix()[gens].any(axis=0)


def comparable_pairs(poset: Poset):
    """All ordered pairs (i, j), i != j, with states[i] < states[j]."""
    m = poset.leq_matrix()
    k = poset.size
    return [(i, j) for i in range(k) for j in range(k) if i != j and m[i, j]]


def brute_covers(poset):
    """(i, j) with states[i] < states[j] and no state strictly between."""
    k = poset.size
    lt = [[i != j and leq(poset.states[i], poset.states[j]) for j in range(k)]
          for i in range(k)]
    return [(i, j) for i in range(k) for j in range(k)
            if lt[i][j] and not any(lt[i][m] and lt[m][j] for m in range(k))]


def brute_height(poset):
    """Longest strict chain, in steps: the longest chain upward from each
    state, by recursion over every state strictly above it."""
    states = poset.states

    @functools.cache
    def up_from(x):
        return max((1 + up_from(y) for y in states
                    if y != x and leq(x, y)), default=0)

    return max(up_from(x) for x in states)


def per_pair_monotonicity(kernel, tol=PROB_TOL):
    """check_stochastic_monotonicity with one full-network flow per pair."""
    poset = kernel.support
    for i, j in comparable_pairs(poset):
        ok, wit = full_network_dominance(kernel.matrix[i], kernel.matrix[j],
                                         poset, tol=tol)
        if not ok:
            return False, (poset.states[i], poset.states[j], wit)
    return True, None


def pairwise_monotone_system(model, tol=PROB_TOL):
    """check_monotone_system over every ordered pair of keys, computing both
    conditionals for each pair."""
    support = exact.enumerate_support(model)
    chain = Poset(tuple((a,) for a in model.alphabet))
    for v in range(model.n_vars):
        reps = {}
        for s in support.states:
            reps.setdefault(s[:v] + (None,) + s[v + 1:], s)
        keys = list(reps)
        for ka in keys:
            for kb in keys:
                if ka == kb:
                    continue
                if all(a <= b for a, b in zip(ka, kb) if a is not None):
                    pa = model.conditional(reps[ka], v)
                    pb = model.conditional(reps[kb], v)
                    ok, _ = full_network_dominance(pa, pb, chain, tol=tol)
                    if not ok:
                        return False, (v, reps[ka], reps[kb])
    return True, None


def per_ray_mc_leq(p, q, mu=None, tol=PROB_TOL, n_random=0, rng=None):
    """check_mc_leq with one full-network flow per extreme ray and per
    random increasing density, each drawn just before its test."""
    mu = p.stationary if mu is None else np.asarray(mu, float)
    poset = p.support
    for u in up_sets_by_sets(poset):
        mass = sum(mu[i] for i in u)
        if mass <= 0.0:
            continue
        nu = np.zeros(poset.size)
        for i in u:
            nu[i] = mu[i] / mass
        ok, _ = full_network_dominance(nu @ p.matrix, nu @ q.matrix, poset,
                                       tol=tol)
        if not ok:
            return False, (u, "extreme-ray")
    m = poset.leq_matrix()
    for _ in range(n_random):
        dens = np.zeros(poset.size)
        for _ in range(3):
            i = rng.integers(poset.size)
            dens[np.nonzero(m[i])[0]] += rng.random()
        dens += rng.random() * 0.1
        nu = dens * mu
        if nu.sum() == 0:
            continue
        nu /= nu.sum()
        ok, _ = full_network_dominance(nu @ p.matrix, nu @ q.matrix, poset,
                                       tol=tol)
        if not ok:
            return False, (nu, "random-increasing")
    return True, None


def per_site_kernel_mc_leq(model, p_law, q_law, site, support, mu):
    """exact.check_site_mc_leq by the path it replaced: both kernels of one
    step at the site, then check_mc_leq over every up-set of the support."""
    return exact.check_mc_leq(
        *(exact.Kernel(support, loop_law_kernel(model, law, site, support))
          for law in (p_law, q_law)), mu)


def lifted_site_kernels(tables, site):
    """The lifted Glauber and star-frozen Kernels of one step at the site
    over tables.lsup, with stationary law tables.lmu, by loop_law_kernel."""
    lifted, lsup = tables.lifted, tables.lsup
    return [exact.Kernel(lsup, loop_law_kernel(lifted, law, site, lsup),
                         stationary=tables.lmu)
            for law in (models.heat_bath_law(lifted),
                        models.star_frozen_law(lifted))]


def tuple_index(poset: Poset) -> dict:
    """Poset.index and `in` as they were: a dict from each state tuple to
    its row."""
    return {s: i for i, s in enumerate(poset.states)}


def tuple_extension(poset: Poset) -> list:
    """Poset.extension as it was: the rows sorted by decreasing state
    tuple."""
    return sorted(range(poset.size), key=poset.states.__getitem__,
                  reverse=True)


def contraction_index(lifted_support: Poset, bin_support: Poset):
    """Tables.index as it was: each lifted state's contraction code (bit v
    for a 1 or STAR at site v) found by searchsorted among the binary
    support's."""
    def codes(array):
        return (array != 0) @ (1 << np.arange(array.shape[1], dtype=np.int64))

    bcode = codes(bin_support.array)
    order = np.argsort(bcode)
    return order[np.searchsorted(bcode, codes(lifted_support.array),
                                 sorter=order)]


def tuple_site_fibers(support: Poset, a) -> list:
    """exact._site_fibers by the tuple index: per site, each state's fiber
    numbered in the order of the fibers' first states, those first states,
    and per state and value the row of the state with that value at the
    site, or -1."""
    index = tuple_index(support)
    out = []
    for v in range(support.array.shape[1]):
        cand = np.array([[index.get(s[:v] + (c,) + s[v + 1:], -1)
                          for c in range(a)] for s in support.states],
                        dtype=np.intp).reshape(support.size, a)
        heads = {}
        for i in range(support.size):
            heads.setdefault(min(j for j in cand[i] if j >= 0), len(heads))
        fiber = [heads[min(j for j in cand[i] if j >= 0)]
                 for i in range(support.size)]
        out.append((v, np.array(fiber), np.array(list(heads)), cand))
    return out


def row_fibers(support: Poset, site):
    """check_site_mc_leq's numbering of the fibers of a site as it was: the
    inverse of np.unique over the support's rows with the site deleted."""
    _, fiber = np.unique(np.delete(support.array, site, axis=1), axis=0,
                         return_inverse=True)
    return fiber.ravel()


def per_row_mixing_time(kernel, eps, cap=10 ** 6):
    """Worst-start exact_mixing_time with one tv_distance call per row."""
    mu = kernel.stationary
    cur = np.eye(kernel.support.size)
    t = 0
    while max(exact.tv_distance(row, mu) for row in cur) > eps:
        cur = cur @ kernel.matrix
        t += 1
        if t > cap:
            raise RuntimeError(f"mixing time exceeds the cap {cap}")
    return t


def law_arrays(law, support, sites, a):
    """One step of `law` at each of `sites` from every state of the support,
    evaluated once per (state, site), as the law arrays of exact._site_arrays
    (k, n, a): succ, the index of the successor state, and prob, its
    probability, for a law of at most a values.  A value of probability 0,
    and the padding of a law with fewer than a values, is given the state's
    own index and prob 0."""
    k, n = support.size, len(sites)
    succ = np.repeat(np.arange(k), n * a).reshape(k, n, a)
    prob = np.zeros((k, n, a))
    for i, s in enumerate(support.states):
        for j, v in enumerate(sites):
            t = list(s)
            for c, (val, pr) in enumerate(zip(*law(s, v))):
                if pr != 0.0:
                    t[v] = val
                    succ[i, j, c] = support.index(tuple(t))
                    prob[i, j, c] = pr
    return succ, prob


def site_law_arrays(model, laws, site, support):
    """The (k, 1, a) law arrays that exact.check_site_mc_leq takes, of each
    law given as a callable, evaluated at every state by law_arrays."""
    return [law_arrays(law, support, (site,), len(model.alphabet))
            for law in laws]


def loop_law_kernel(model, law, site=None, support=None):
    """Kernel of one step of law at site (uniform if None): a loop over
    states, sites and values adding prob / n at each successor."""
    support = support or exact.enumerate_support(model)
    sites = range(model.n_vars) if site is None else (site,)
    n = len(sites)
    k = support.size
    mat = np.zeros((k, k))
    for i, s in enumerate(support.states):
        for v in sites:
            t = list(s)
            for val, pr in zip(*law(s, v)):
                if pr == 0.0:
                    continue
                t[v] = val
                mat[i, support.index(tuple(t))] += pr / n
    return mat


def loop_fd_kernel(model, theta, support=None):
    """Field-dynamics kernel: a loop over rows and, per row, over its kept
    sets (itertools.product over its 1-sites), with a support mask each."""
    support = support or exact.enumerate_support(model)
    k = support.size
    tilted = models.tilt(model, theta)
    w = np.array([tilted.weight(s) for s in support.states])
    mat = np.zeros((k, k))
    for i, s in enumerate(support.states):
        ones = [v for v in range(model.n_vars) if s[v] == 1]
        for keep in itertools.product((0, 1), repeat=len(ones)):
            pinned = [v for v, kp in zip(ones, keep) if kp]
            pr_s = (theta ** (len(ones) - len(pinned))
                    * (1 - theta) ** len(pinned))
            mask = support.where(dict.fromkeys(pinned, 1))
            z = w[mask].sum()
            if z == 0.0:
                raise ValueError("tilted weights underflow to 0 on a "
                                 "pinned slice")
            mat[i, mask] += pr_s * (w[mask] / z)
    return mat


def lift_fanout(x, theta, mass):
    """The lifts of the binary state x with their masses, starting at mass:
    each 1 stays 1 with weight theta or becomes STAR with weight 1 - theta."""
    ones = [v for v in range(len(x)) if x[v] == 1]
    for choice in itertools.product((1, ordercore.STAR), repeat=len(ones)):
        y = list(x)
        pr = mass
        for v, c in zip(ones, choice):
            y[v] = c
            pr *= theta if c == 1 else 1 - theta
        yield tuple(y), pr


def loop_freeze_kernel(lifted, support):
    """Contract-then-lift kernel: each row fans its contraction out over
    its lifts, one support.index per entry."""
    k = support.size
    mat = np.zeros((k, k))
    for i, s in enumerate(support.states):
        for y, pr in lift_fanout(contract(s), lifted.theta, 1.0):
            mat[i, support.index(y)] += pr
    return mat


def loop_lift_pushforward(probs, bin_support, theta, lifted_support):
    """Lift pushforward: each binary state of nonzero mass fans out over
    its lifts."""
    out = np.zeros(lifted_support.size)
    for i, s in enumerate(bin_support.states):
        if probs[i] != 0.0:
            for y, pr in lift_fanout(s, theta, probs[i]):
                out[lifted_support.index(y)] += pr
    return out


def loop_contract_pushforward(probs, lifted_support, bin_support):
    """Contract pushforward: each lifted state adds its mass at its
    contraction, in support order."""
    out = np.zeros(bin_support.size)
    for i, s in enumerate(lifted_support.states):
        out[bin_support.index(contract(s))] += probs[i]
    return out


def loop_mixing_time(matrix, mu, x0_index=None, eps=0.25, cap=10 ** 6,
                     every=1024):
    """Exact mixing time of one chain by its own propagation loop, refused
    past the cap or once a far row is bit for bit fixed (checked every
    `every` steps)."""
    k = len(mu)
    cur = np.eye(k) if x0_index is None else np.eye(k)[x0_index]
    t = 0
    while (far := 0.5 * np.abs(cur - mu).sum(axis=-1) > eps).any():
        nxt = cur @ matrix
        t += 1
        if t > cap:
            raise RuntimeError(f"mixing time exceeds the cap {cap}")
        if t % every == 0 and (far & (nxt == cur).all(axis=-1)).any():
            raise RuntimeError(f"mixing time exceeds the cap {cap}: the law "
                               f"stopped changing by step {t}")
        cur = nxt
    return t


def two_state_mixing_time(a, b, pi1, x0_is_state1, eps) -> int:
    """Closed-form mixing of a 2-state chain with off-diagonal rates a, b:
    TV after t steps is |1-a-b|^t times the start's TV.  A frozen (a = b =
    0) or periodic (a = b = 1) chain never comes closer, so a start farther
    than eps raises RuntimeError, as exact_mixing_time does."""
    gap = abs(1.0 - a - b)
    d0 = abs((1.0 if x0_is_state1 else 0.0) - pi1)
    if d0 <= eps:
        return 0
    if gap == 0.0:
        return 1
    if gap == 1.0:
        raise RuntimeError(f"the chain never mixes: |1 - a - b| = 1 and "
                           f"the start is {d0} > eps = {eps} away")
    return math.ceil(math.log(eps / d0) / math.log(gap) - 1e-12)


def stepped_tilted_mixing_time(model, theta, eps, cap=10 ** 6):
    """tilted_mixing_time with every stack of _tilted_slices run by the
    step loop, without certificates."""
    return max((int(exact._stepped_times(mats, mus, eps, cap).max())
                for _, _, mats, mus in exact._tilted_slices(
                    exact.Tables(model, theta))),
               default=0)


def evaluated_tilted_slices(model, theta):
    """_tilted_slices over the tilted model's own enumerated support, with
    the tilted conditional evaluated once per (state, site) in place of
    being derived from the model's."""
    tilted = models.tilt(model, theta)
    support = exact.enumerate_support(tilted)
    succ, prob = law_arrays(models.heat_bath_law(tilted), support,
                            range(tilted.n_vars), 2)
    lw = np.array([tilted.log_weight(s) for s in support.states], dtype=float)
    by_size = {}
    for pinned, idx in exact._one_slices(support.array == 1):
        by_size.setdefault(idx.size, []).append((pinned, idx))
    for m, slices in by_size.items():
        per = max(1, support.size ** 2 // (m * m))
        for c in range(0, len(slices), per):
            yield exact._slice_stack(slices[c:c + per], succ, prob, lw)


def composed_comparison(model, theta, eps):
    """exact.comparison_times composed from the public calls, each kernel
    and the tilted slices evaluating their own laws, with its refusals of
    eps, of a support without the all-1 state and of theta after the dense
    guard and before any mixing time."""
    gker = exact.glauber_kernel(model)
    sup = gker.support
    ones = tuple([1] * model.n_vars)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    exact.point_mass(sup, ones)
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0,1)")
    t_gd = exact.exact_mixing_time(gker, ones, eps)
    fker = exact.fd_kernel(model, theta)
    t_fd_ones = exact.exact_mixing_time(fker, ones, eps / 2)
    t_fd = exact.exact_mixing_time(fker, None, eps / 2)
    t_tilted = exact.tilted_mixing_time(exact.Tables(model, theta),
                                        eps / (2 * max(t_fd, 1)))
    return t_gd, t_fd_ones, t_fd, t_tilted, t_fd * t_tilted


def per_pinning_tilted_kernels(model, theta):
    """(pins, Glauber kernel) of every feasible all-1 pinning of the tilted
    model, each built on a rebuilt and re-enumerated pinned model."""
    support = exact.enumerate_support(model)
    tilted = models.tilt(model, theta)
    for pins in exact.pinnings(model.n_vars, model.n_vars, values=(1,)):
        if support.where(pins).any():
            yield pins, exact.glauber_kernel(
                models.pin(tilted, pins) if pins else tilted)


def per_pinning_tilted_mixing_time(model, theta, eps, cap=10 ** 6):
    """tilted_mixing_time over the kernels of per_pinning_tilted_kernels."""
    return max((exact.exact_mixing_time(ker, None, eps, cap=cap)
                for _, ker in per_pinning_tilted_kernels(model, theta)),
               default=0)


def linear_sample_from(probs, rng):
    """The first index whose running sum exceeds a uniform, by linear scan."""
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


class PerStepRun:
    """A run as the per-step loops build it: the assignment log as a list
    of (t, var, value) entries and the recorded states in a dict."""

    def __init__(self, x0):
        self.x0, self.log, self.recorded, self.final = tuple(x0), [], {}, None


def trajectory_text(recorded):
    """`t<TAB>state` lines of the recorded states in time order, one
    formatted line per time; one empty line if nothing was recorded."""
    return "".join(f"{t}\t{ordercore.state_str(recorded[t])}\n"
                   for t in sorted(recorded)) or "\n"


def per_step_site_steps(law, state, rng, t0, steps, run=None, record_at=(),
                        allowed=None):
    """The single-site step loop calling law(tuple(state), v) on every step;
    advances the list state in place, logging into the `PerStepRun` run."""
    n = len(state)
    for t in range(t0 + 1, t0 + steps + 1):
        v = int(rng.integers(n))
        if allowed is None or v in allowed(t - 1):
            values, probs = law(tuple(state), v)
            if len(values) > 1:
                val = values[linear_sample_from(probs, rng)]
                state[v] = val
                if run is not None:
                    run.log.append((t, v, val))
        if t in record_at:
            run.recorded[t] = tuple(state)


def per_block_two_level(left, right, period, seed):
    """Schedule.two_level's rule, building each step's allowed set anew."""
    left, right = tuple(left), frozenset(right)
    rng = dynamics.make_rng(seed, 0, "schedule")
    picks = []

    def rule(t):
        while len(picks) <= t // period:
            picks.append(left[int(rng.integers(len(left)))])
        return frozenset([picks[t // period]]) | right

    return rule


def _per_step_run(model, x0, record_at):
    """An empty `PerStepRun` from the feasible start x0, recorded at time 0
    if asked; returned with the record times as a set."""
    run = PerStepRun(dynamics._check_start(model, x0))
    record_at = set(record_at)
    if 0 in record_at:
        run.recorded[0] = run.x0
    return run, record_at


def per_step_heat_bath_run(model, x0, steps, seed, record_at=(),
                           purpose="glauber", allowed=None):
    """glauber_run (purpose "glauber") or censored_glauber (purpose
    "censored", allowed = the schedule's rule) by the per-step loop."""
    rng = dynamics.make_rng(seed, 0, purpose)
    run, record_at = _per_step_run(model, x0, record_at)
    state = list(run.x0)
    per_step_site_steps(models.heat_bath_law(model), state, rng, 0, steps,
                        run, record_at, allowed)
    run.final = tuple(state)
    return run


def per_step_simulate(model, theta, t1, t2, seed, record_at=()):
    """simulate_algorithm by the per-step loop."""
    rng = dynamics.make_rng(seed, 0, "simulate")
    lifted = models.LiftedModel(model, theta)
    state = list(lift((1,) * model.n_vars, theta, rng))
    run, record_at = _per_step_run(lifted, state, record_at)
    law = models.star_frozen_law(lifted)
    for block in range(t1):
        t = block * t2
        relift = lift(contract(tuple(state)), theta, rng)
        for v in range(model.n_vars):
            if relift[v] != state[v]:
                run.log.append((t + 1, v, relift[v]))
        state = list(relift)
        per_step_site_steps(law, state, rng, t, t2, run, record_at)
    run.final = tuple(state)
    return run, contract(tuple(state))


def site_steps_censored(model, x0, schedule, steps, seed):
    """censored_glauber's (path, state table, final state) by the per-step
    loop `dynamics._site_steps` over every step, as the sampler ran before
    the masked loop."""
    rng = dynamics.make_rng(seed, 0, "censored")
    n, path = len(x0), []
    draws = dynamics._RawDraws(rng.bit_generator, n,
                               dynamics._single_site_words(n, steps))
    with dynamics._site_graph(models.heat_bath_law(model),
                              dynamics._heat_bath_fiber) as graph:
        final = dynamics._site_steps(graph, tuple(x0), draws, 0, steps, path,
                                     schedule)
    return path, list(graph.ids), final


def site_steps_simulate(model, theta, t1, t2, seed):
    """simulate_algorithm's (path, state table, relifts, final state) by
    one per-step loop `dynamics._site_steps` a phase, each after its
    relift, as the sampler ran before the masked loop."""
    rng = dynamics.make_rng(seed, 0, "simulate")
    lifted = models.LiftedModel(model, theta)
    n = model.n_vars
    draws = dynamics._RawDraws(
        rng.bit_generator, n,
        dynamics._single_site_words(n, t1 * t2) + (t1 + 1) * n)
    state = x0 = lift((1,) * n, theta, draws)
    path, relifts = [], []
    with dynamics._site_graph(models.star_frozen_law(lifted),
                              dynamics._star_frozen_fiber) as graph:
        for block in range(t1):
            t = block * t2
            relift = lift(contract(state), theta, draws)
            relifts += [(t + 1, v, relift[v]) for v in range(n)
                        if relift[v] != state[v]]
            state = dynamics._site_steps(graph, relift, draws, t, t2, path)
    graph.ids.setdefault(x0, len(graph.ids))
    return path, list(graph.ids), relifts, state


def per_step_field_run(model, theta, x0, steps, seed, record_at=()):
    """field_run by the per-step loop: each step draws its kept 1-sites by
    one rng.random() each, scans the support for the pinned slice and draws
    from its tilted weights by linear scan, with no table; logs each
    changed coordinate."""
    tables = exact.Tables(model, theta)
    support, weights = tables.support, tables.tilted_weights
    rng = dynamics.make_rng(seed, 0, "field")
    run, record_at = _per_step_run(model, x0, record_at)
    state = run.x0
    for t in range(1, steps + 1):
        kept = {v: 1 for v in range(len(state))
                if state[v] == 1 and rng.random() >= theta}
        idx = np.flatnonzero(support.where(kept))
        if not idx.size:
            raise ValueError("infeasible pin: the slice has empty support")
        w = weights[idx]
        z = w.sum()
        if z == 0.0:
            raise ValueError("tilted weights underflow to 0 on a pinned "
                             "slice")
        nxt = support.states[idx[linear_sample_from(w / z, rng)]]
        run.log.extend((t, v, b) for v, (a, b) in enumerate(zip(state, nxt))
                       if a != b)
        state = nxt
        if t in record_at:
            run.recorded[t] = state
    run.final = state
    return run


def dominance_by_up_sets(nu, nu_prime, poset: Poset, tol=PROB_TOL, **guards):
    """Cross-check: nu(U) <= nu_prime(U) + tol for every up-set U, with the
    input rule of stochastic_dominance."""
    pair = np.asarray([nu, nu_prime], dtype=float)
    if pair.shape != (2, poset.size) or ordercore._invalid(pair).any():
        raise ValueError("input is not a probability vector")
    nu, nu_prime = np.clip(pair, 0.0, None)
    for u in up_sets_by_sets(poset, **guards):
        if sum(nu[i] for i in u) > sum(nu_prime[i] for i in u) + tol:
            return False, u
    return True, None


def _support_data(model):
    sup = exact.enumerate_support(model)
    return sup, exact.stationary_distribution(model, sup)


def marginal_one(sup, probs, pins: dict, v):
    """P[coordinate v = 1 | pins] by a scan of the state table; None if the
    pinning is infeasible."""
    mask = sup.where(pins)
    mass = probs[mask].sum()
    if mass == 0.0:
        return None
    return float(probs[mask & (sup.array[:, v] == 1)].sum() / mass)


def influence(sup, probs, pinning):
    """The influence matrix under one pinning, entry by entry."""
    n = sup.array.shape[1]
    free = [v for v in range(n) if v not in pinning]
    mat = np.zeros((n, n))
    for u in free:
        m_u0 = marginal_one(sup, probs, pinning, u)
        if m_u0 is None or m_u0 in (0.0, 1.0):
            continue  # u is not decisive under this pinning
        for v in free:
            m_v = marginal_one(sup, probs, pinning, v)
            if m_v is None or m_v == 0.0:
                continue
            hi = marginal_one(sup, probs, {**pinning, u: 1}, v)
            lo = marginal_one(sup, probs, {**pinning, u: 0}, v)
            if hi is None or lo is None:
                continue  # u is pinned de facto by the support
            mat[u, v] = hi - lo
    return mat


def influence_matrix(model, pinning=None):
    return influence(*_support_data(model), dict(pinning or {}))


def max_sinf_norm(model, max_pin=None):
    """The largest influence row sum over the feasible pinnings, one pinning
    at a time."""
    n = model.n_vars
    sup, probs = _support_data(model)
    limit = n - 2 if max_pin is None else min(max_pin, n - 2)
    best = 0.0
    for pins in exact.pinnings(n, limit):
        if sup.where(pins).any():
            mat = influence(sup, probs, pins)
            best = max(best, float(np.max(np.abs(mat).sum(axis=1))))
    return best


def marginal_stability(model):
    """Marginal stability over every (pinning, sub-pinning, site) triple."""
    n = model.n_vars
    sup, probs = _support_data(model)
    cache = {}

    def odds_and_p0(pins, v):
        key = (frozenset(pins.items()), v)
        if key not in cache:
            m1 = marginal_one(sup, probs, pins, v)
            cache[key] = None if m1 is None else (m1, 1.0 - m1)
        return cache[key]

    best = 1.0
    for tau in exact.pinnings(n, n - 1):
        for v in range(n):
            if v in tau:
                continue
            got = odds_and_p0(tau, v)
            if got is None:
                continue
            m1, m0 = got
            if m0 == 0.0:
                return math.inf
            best = max(best, 1.0 / m0)
            r_full = m1 / m0
            for k in range(len(tau)):
                for sub in itertools.combinations(tau, k):
                    tau_s = {u: tau[u] for u in sub}
                    s1, s0 = odds_and_p0(tau_s, v)
                    r_sub = s1 / s0 if s0 > 0 else math.inf
                    if r_full > 0:
                        if r_sub == 0.0:
                            return math.inf
                        if r_sub is not math.inf:
                            best = max(best, r_full / r_sub)
    return best


def transport_cost(states_a, pa, states_b, pb, scale=10 ** 12):
    """Exact min-cost transport with Hamming cost, as an integer-scaled
    min-cost flow."""
    ia = [int(round(x * scale)) for x in pa]
    ib = [int(round(x * scale)) for x in pb]
    ia[int(np.argmax(pa))] += scale - sum(ia)
    ib[int(np.argmax(pb))] += scale - sum(ib)
    ham = (states_a[:, None, :] != states_b[None, :, :]).sum(axis=2)
    g = nx.DiGraph()
    for i, m in enumerate(ia):
        g.add_node(("a", i), demand=-m)
    for j, m in enumerate(ib):
        g.add_node(("b", j), demand=m)
    for i in range(len(ia)):
        for j in range(len(ib)):
            g.add_edge(("a", i), ("b", j), weight=int(ham[i, j]))
    flow = nx.min_cost_flow(g)
    return nx.cost_of_flow(g, flow) / scale


def per_pair_coupling(model):
    """Coupling independence with one min-cost flow per pair of single-site
    conditionings."""
    n = model.n_vars
    sup, probs = _support_data(model)
    best = 0.0
    for pins in exact.pinnings(n, n - 1):
        for i in range(n):
            if i in pins:
                continue
            m0, m1 = sup.where({**pins, i: 0}), sup.where({**pins, i: 1})
            mass0, mass1 = probs[m0].sum(), probs[m1].sum()
            if mass0 == 0.0 or mass1 == 0.0:
                continue
            best = max(best, transport_cost(sup.array[m1], probs[m1] / mass1,
                                            sup.array[m0], probs[m0] / mass0))
    return best


def loop_ei_witness(model, iterations=200, rng=None, restarts=4):
    """The entropic-independence witness search scored one law at a time,
    one kl_divergence call for each law and each two-point marginal."""
    rng = rng or np.random.default_rng(0)
    sup, mu = _support_data(model)
    n = model.n_vars
    k = sup.size
    ind = (sup.array == 1).astype(float)
    mu_marg = mu @ ind

    def ratio(nu):
        denom = exact.kl_divergence(nu, mu)
        if not denom or denom < 1e-12 or math.isinf(denom):
            return None
        num = 0.0
        for i in range(n):
            m1 = min(1.0, max(0.0, float(nu @ ind[:, i])))
            num += exact.kl_divergence((1 - m1, m1),
                                       (1 - mu_marg[i], mu_marg[i]))
        return num / denom

    candidates = list(np.eye(k))
    if k <= 22:
        nus = ordercore.enumerate_up_sets(sup) * mu
        mass = nus.sum(axis=1)
        keep = mass > 0.0  # not the empty set, nor a mass lost to underflow
        candidates.extend(nus[keep] / mass[keep, None])
    best_r, best_nu = 0.0, None
    for nu in candidates:
        r = ratio(nu)
        if r is not None and r > best_r:
            best_r, best_nu = r, nu
    for _ in range(restarts):
        nu = rng.dirichlet(np.ones(k))
        cur = ratio(nu)
        for _ in range(iterations):
            cand = nu * np.exp(0.3 * rng.standard_normal(k))
            cand /= cand.sum()
            r = ratio(cand)
            if r is not None and (cur is None or r > cur):
                nu, cur = cand, r
        if cur is not None and cur > best_r:
            best_r, best_nu = cur, nu
    return best_r, best_nu


def quadrature(sched):
    """The integral of a rate schedule's step function over [0, -log
    theta] by scipy.integrate.quad, told where the steps are."""
    def rate(t):
        return next((val for end, val in sched.segments if t <= end),
                    sched.segments[-1][1])

    ends = [end for end, _ in sched.segments]
    val, _ = scipy.integrate.quad(rate, 0.0, -math.log(sched.theta),
                                  points=ends[:-1], limit=200)
    return val


def per_candidate_support(model):
    """(support, log weights) of exact.enumerate_support and Tables.lws,
    one log_weight call per candidate: the candidates in lexicographic
    order that have a log weight, and those log weights."""
    states, lws = [], []
    for s in itertools.product(model.alphabet, repeat=model.n_vars):
        lw = model.log_weight(s)
        if lw is not None:
            states.append(s)
            lws.append(lw)
    return Poset(tuple(states)), np.array(lws, dtype=float)


def per_state_log_weights(model, support):
    """model.log_weight of each support state, one call per state (NaN for
    None), which stationary_distribution and an evaluated Tables.tilted_lws
    take in one call over the support's array."""
    return np.array([model.log_weight(s) for s in support.states],
                    dtype=float)


def per_state_site_conditionals(model, support):
    """exact._site_conditionals with one model.conditional call per (site,
    fiber), at the fiber's first state."""
    states = support.states
    return [(fib, np.array([model.conditional(states[i], fib.site)
                            for i in fib.first], dtype=float))
            for fib in exact._site_fibers(support, len(model.alphabet))]


def per_state_tables(model, theta):
    """The log weights, tilted log weights, lifted support and lifted
    stationary law that exact.Tables derives, each evaluated state by
    state: the model's and its tilt's log_weight at every support state,
    the lift's support enumerated over all 3^n candidates, and its law
    from the lift's own log_weight."""
    support, lws = per_candidate_support(model)
    tilted = models.tilt(model, theta)
    lifted = models.LiftedModel(model, theta)
    lsup, llws = per_candidate_support(lifted)
    lmu = np.exp(llws - llws.max())
    return {"lws": lws, "tilted_lws": per_state_log_weights(tilted, support),
            "lsup": lsup, "lmu": lmu / lmu.sum()}


def per_subcommand_parser():
    """cli._build_parser with the eleven options added to each of the five
    subcommand parsers, 55 add_argument calls."""
    ap = argparse.ArgumentParser(prog="glauberlab")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("sample", "verify", "analyze", "mixing", "kernel-export"):
        p = sub.add_parser(name)
        p.add_argument("--graph", required=True)
        p.add_argument("--params", required=True)
        p.add_argument("--transform", action="append", default=[])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--check", action="append", default=[])
        p.add_argument("--eps", type=float, default=0.1)
        p.add_argument("--t1", type=int, default=2)
        p.add_argument("--t2", type=int, default=3)
        p.add_argument("--steps", type=int, default=1000)
        p.add_argument("--record", default="")
    return ap


def rc_for_ising(ising: models.IsingModel):
    """The random cluster model coupled to an Ising model: p_e = 1 - 1/beta_e."""
    return models.RandomClusterModel(ising.graph,
                                     [1 - 1 / b for b in ising.beta],
                                     ising.lam)


def sw_for_rc(rc: models.RandomClusterModel):
    """Subgraph-world model whose coupling targets rc: p' = p/2,
    eta_v = (1-lambda_v)/(1+lambda_v)."""
    return models.SubgraphWorldModel(rc.graph,
                                     [x / 2 for x in rc.p],
                                     [(1 - l) / (1 + l) for l in rc.lam])
