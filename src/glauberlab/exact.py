"""Exact verification oracle: support enumeration, dense transition kernels,
distribution propagation, divergences, and the structural checks (detailed
balance, stochastic monotonicity, monotone systems, comparison of kernels,
exact mixing times)."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ordercore import (PAIR_BLOCK, PROB_TOL, STAR, Poset, contract,
                        enumerate_up_sets, first_dominance_failure, state_str,
                        stochastic_dominance)
from .models import (ENUM_GUARD, LiftedModel, heat_bath_law, star_frozen_law,
                     tilt)

DRIFT_TOL = 1e-9
TV_TOL = 1e-10


def enumerate_support(model, guard=ENUM_GUARD) -> Poset:
    return Poset(tuple(model.support_iter(guard=guard)))


def pinnings(n, max_size, values=(0, 1)):
    """Partial assignments {site: value} of at most max_size of n sites, by
    size, then site set (combinations order), then values (product order)."""
    for r in range(max_size + 1):
        for sites in itertools.combinations(range(n), r):
            for vals in itertools.product(values, repeat=r):
                yield dict(zip(sites, vals))


def stationary_distribution(model, support: Poset) -> np.ndarray:
    """Normalized weights over the enumerated support (log-stable)."""
    lws = np.array([model.log_weight(s) for s in support.states], dtype=float)
    w = np.exp(lws - lws.max())
    return w / w.sum()


def point_mass(support: Poset, state) -> np.ndarray:
    v = np.zeros(support.size)
    v[support.index(state)] = 1.0
    return v


@dataclass
class Kernel:
    support: Poset
    matrix: np.ndarray
    stationary: np.ndarray | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        k = self.support.size
        if self.matrix.shape != (k, k):
            raise ValueError("kernel shape mismatch")
        if np.any(self.matrix < -PROB_TOL):
            raise ValueError("negative transition probability")
        if not np.max(np.abs(self.matrix.sum(axis=1) - 1)) <= PROB_TOL:
            raise ValueError("rows do not sum to 1")

    def __matmul__(self, other):
        if isinstance(other, Kernel):
            return Kernel(self.support, self.matrix @ other.matrix,
                          stationary=self.stationary)
        return NotImplemented


# ---------------------------------------------------------------------------
# kernels


def _law_kernel(model, law, site, support) -> Kernel:
    """Kernel of one step of `law` at `site`, or at a uniform site if None."""
    support = support or enumerate_support(model)
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
    return Kernel(support, mat, stationary=stationary_distribution(model, support))


def glauber_kernel(model, support=None, site=None) -> Kernel:
    """Single-site heat-bath kernel: uniform site choice (or always `site`),
    conditional resample."""
    return _law_kernel(model, heat_bath_law(model), site, support)


def freeze_kernel(lifted: LiftedModel, support=None) -> Kernel:
    """Contract-then-lift kernel: from X, mass theta^{#1}(1-theta)^{#star} on
    every Y with the same contraction."""
    support = support or enumerate_support(lifted)
    k = support.size
    mat = np.zeros((k, k))
    for i, s in enumerate(support.states):
        for y, pr in _lift_fanout(contract(s), lifted.theta, 1.0):
            mat[i, support.index(y)] += pr
    return Kernel(support, mat, stationary=stationary_distribution(lifted, support))


def star_glauber_kernel(lifted: LiftedModel, support=None, site=None) -> Kernel:
    """Star-frozen single-site kernel: uniform site choice (or always
    `site`); stars stay, other sites follow the tilted base conditional."""
    return _law_kernel(lifted, star_frozen_law(lifted), site, support)


def fd_kernel(model, theta, support=None) -> Kernel:
    """Field dynamics: free every 0-site and each 1-site independently with
    probability theta, then resample the freed set from the tilted conditional.
    Exact sum over all freed sets; guarded to at most 20 variables."""
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0,1)")
    if model.n_vars > 20:
        raise ValueError("field-dynamics kernel is guarded to 20 variables")
    support = support or enumerate_support(model)
    k = support.size
    tilted = tilt(model, theta)
    w = np.array([tilted.weight(s) for s in support.states])
    mat = np.zeros((k, k))
    for i, s in enumerate(support.states):
        ones = [v for v in range(model.n_vars) if s[v] == 1]
        for keep in itertools.product((0, 1), repeat=len(ones)):
            # kept 1-sites stay pinned at 1; everything else is resampled
            pinned = [v for v, kp in zip(ones, keep) if kp]
            pr_s = (theta ** (len(ones) - len(pinned))
                    * (1 - theta) ** len(pinned))
            mask = support.where(dict.fromkeys(pinned, 1))
            z = w[mask].sum()
            if z == 0.0:
                raise ValueError("tilted weights underflow to 0 on a "
                                 "pinned slice")
            mat[i, mask] += pr_s * (w[mask] / z)
    return Kernel(support, mat, stationary=stationary_distribution(model, support))


def _block_kernel_sequence(model, theta, t1, t2, steps, inner):
    lifted = LiftedModel(model, theta)
    support = enumerate_support(lifted)
    p_freeze = freeze_kernel(lifted, support)
    p_inner = inner(lifted, support)
    both = p_freeze @ p_inner
    if steps is None:
        steps = t1 * t2
    seq = [both if t % t2 == 0 else p_inner for t in range(steps)]
    return lifted, support, seq


def algorithm_kernel_sequence(model, theta, t1, t2, steps=None):
    """Time-inhomogeneous kernels of the simulation run: at the start of each
    inner block the contract-then-lift kernel is prefixed.

    Returns (lifted_model, support, [Kernel for step 1..steps]).
    """
    return _block_kernel_sequence(model, theta, t1, t2, steps,
                                  star_glauber_kernel)


def modified_glauber_kernel_sequence(model, theta, t1, t2, steps=None):
    """Same block structure with the lifted Glauber kernel in place of the
    star-frozen one."""
    return _block_kernel_sequence(model, theta, t1, t2, steps, glauber_kernel)


def propagate(nu0: np.ndarray, kernels) -> list:
    """Left-multiply nu0 through the kernel sequence; returns [nu0, nu1, ...].

    Mass drift beyond 1e-9 aborts instead of renormalizing silently.
    """
    out = [np.asarray(nu0, dtype=float)]
    for ker in kernels:
        mat = ker.matrix if isinstance(ker, Kernel) else ker
        nxt = out[-1] @ mat
        if abs(nxt.sum() - 1.0) > DRIFT_TOL:
            raise ArithmeticError("propagation drifted off the simplex")
        out.append(nxt)
    return out


# ---------------------------------------------------------------------------
# pushforwards


def _lift_fanout(x, theta, mass):
    """The lifts of the binary state x with their masses, starting at mass:
    each 1 stays 1 with weight theta or becomes STAR with weight 1 - theta."""
    ones = [v for v in range(len(x)) if x[v] == 1]
    for choice in itertools.product((1, STAR), repeat=len(ones)):
        y = list(x)
        pr = mass
        for v, c in zip(ones, choice):
            y[v] = c
            pr *= theta if c == 1 else 1 - theta
        yield tuple(y), pr


def lift_pushforward(probs, bin_support: Poset, theta,
                     lifted_support: Poset) -> np.ndarray:
    """Analytic pushforward of a binary law under the randomized lift: each
    state fans out over its 1-coordinates with theta/(1-theta) weights."""
    out = np.zeros(lifted_support.size)
    for i, s in enumerate(bin_support.states):
        if probs[i] != 0.0:
            for y, pr in _lift_fanout(s, theta, probs[i]):
                out[lifted_support.index(y)] += pr
    return out


def contract_pushforward(probs, lifted_support: Poset,
                         bin_support: Poset) -> np.ndarray:
    out = np.zeros(bin_support.size)
    for i, s in enumerate(lifted_support.states):
        out[bin_support.index(contract(s))] += probs[i]
    return out


# ---------------------------------------------------------------------------
# divergences and checks


def tv_distance(nu, mu) -> float:
    nu = np.asarray(nu, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return 0.5 * np.abs(nu - mu).sum()


def kl_divergence(nu, mu) -> float:
    """KL(nu || mu) with 0 log 0 = 0; +inf if nu charges a mu-null state."""
    total = 0.0
    for a, b in zip(nu, mu):
        if a == 0.0:
            continue
        if b == 0.0:
            return math.inf
        total += a * math.log(a / b)
    return total


def check_detailed_balance(kernel: Kernel, probs=None) -> float:
    """Max violation of mu(x)P(x,y) = mu(y)P(y,x) over all pairs."""
    mu = kernel.stationary if probs is None else np.asarray(probs, float)
    flux = mu[:, None] * kernel.matrix
    return float(np.max(np.abs(flux - flux.T)))


def _first_unordered(laws, index: Poset, target: Poset, tol):
    """First pair i < j of the poset index, in row-major order, with laws[i]
    not <=_sd laws[j] over target, as (i, j, witness up-set), or None; row i
    of laws is the law at state i of index.

    <=_sd is transitive, so the covers of index are tested first, in stacks
    of PAIR_BLOCK, each at 1/height of the integer slack (stochastic_dominance
    with split), so that every comparable pair passes at tol.  Only if a
    cover fails, or a law is not a probability vector, does the scan over
    every comparable pair run; it alone gives the verdict and the witness,
    or raises."""
    covers = index.covers
    stacks = (laws[covers[c:c + PAIR_BLOCK].T]
              for c in range(0, len(covers), PAIR_BLOCK))
    try:
        if all(stochastic_dominance(*stack, target, tol=tol,
                                    split=index.height)[0]
               for stack in stacks):
            return None
    except ValueError:
        pass
    pairs = np.argwhere(index.leq_matrix()
                        & ~np.eye(index.size, dtype=bool)).tolist()
    fail = first_dominance_failure(((laws[i], laws[j]) for i, j in pairs),
                                   target, tol=tol)
    if fail is None:
        return None
    r, wit = fail
    return (*pairs[r], wit)


def check_stochastic_monotonicity(kernel: Kernel, tol=PROB_TOL):
    """Rows at comparable states must be stochastically ordered; tested
    over covers first by _first_unordered.

    Returns (True, None) or (False, (state_lo, state_hi, up_set))."""
    sup = kernel.support
    fail = _first_unordered(kernel.matrix, sup, sup, tol)
    if fail is None:
        return True, None
    i, j, wit = fail
    return False, (sup.states[i], sup.states[j], wit)


def check_monotone_system(model, tol=PROB_TOL, max_vars=12):
    """Single-site conditionals must be stochastically increasing in the
    conditioning configuration, over all feasible full pinnings of the other
    coordinates (keys), tested per site by _first_unordered.

    Returns (True, None) or (False, (v, state_lo, state_hi))."""
    if model.n_vars > max_vars:
        raise ValueError(f"guarded to {max_vars} variables")
    support = enumerate_support(model)
    chain = Poset(tuple((a,) for a in model.alphabet))
    for v in range(model.n_vars):
        # the first state of each configuration of the other sites, in
        # support order, and its conditional at v (computed once per key)
        _, first = np.unique(np.delete(support.array, v, axis=1), axis=0,
                             return_index=True)
        first = np.sort(first)
        reps = [support.states[i] for i in first]
        conds = np.array([model.conditional(s, v) for s in reps])
        others = support.array[first]
        others[:, v] = 0
        keys = Poset(tuple(map(tuple, others.tolist())))
        fail = _first_unordered(conds, keys, chain, tol)
        if fail is not None:
            return False, (v, reps[fail[0]], reps[fail[1]])
    return True, None


def check_mc_leq(p: Kernel, q: Kernel, mu=None, tol=PROB_TOL, n_random=0,
                 rng=None):
    """Comparison of kernels: nu P <=_sd nu Q for every nu whose density
    against mu is increasing.

    It suffices to test the extreme rays nu_U proportional to mu restricted to
    an up-set U, since every increasing-density nu is a mixture of these and
    dominance is preserved under mixtures.  Optionally cross-checks n_random
    random increasing-density nu as well; all n_random are drawn from rng
    before any is tested.

    Returns (True, None) or (False, (up_set_or_probs, kind)).
    """
    mu = p.stationary if mu is None else np.asarray(mu, float)
    poset = p.support
    rays = [(u, mass) for u in poset.up_sets or enumerate_up_sets(poset)
            if (mass := sum(mu[i] for i in u)) > 0.0]

    def ray_laws():
        for u, mass in rays:
            nu = np.zeros(poset.size)
            for i in u:
                nu[i] = mu[i] / mass
            yield nu

    randoms = []
    m = poset.leq_matrix()
    for _ in range(n_random):
        # random increasing density: positive mixture of up-set indicators
        dens = np.zeros(poset.size)
        for _ in range(3):
            i = rng.integers(poset.size)
            dens[np.nonzero(m[i])[0]] += rng.random()
        dens += rng.random() * 0.1
        nu = dens * mu
        if nu.sum() == 0:
            continue
        randoms.append(nu / nu.sum())

    for kind, labels, nus in (("extreme-ray", [u for u, _ in rays],
                               ray_laws()),
                              ("random-increasing", randoms, randoms)):
        fail = first_dominance_failure(
            ((nu @ p.matrix, nu @ q.matrix) for nu in nus), poset, tol=tol)
        if fail is not None:
            return False, (labels[fail[0]], kind)
    return True, None


# ---------------------------------------------------------------------------
# mixing times


# exact_mixing_time compares a step with the one before it this often
_FIXED_POINT_EVERY = 1024


def exact_mixing_time(kernel: Kernel, x0=None, eps=0.25, cap=10 ** 6) -> int:
    """Smallest t with TV(law at t, stationary) <= eps, by exact propagation.

    x0 is a start state (tuple) or None for the worst case over all starts,
    one row per start.  Past the cap, or once a step leaves some row bit for
    bit unchanged while it is still farther than eps (each row evolves on its
    own, deterministically, so it would reach the cap), raises RuntimeError.
    Steps are compared every _FIXED_POINT_EVERY steps only.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    mu = kernel.stationary
    cur = (np.eye(kernel.support.size) if x0 is None
           else point_mass(kernel.support, x0))
    t = 0
    while (far := 0.5 * np.abs(cur - mu).sum(axis=-1) > eps).any():
        nxt = cur @ kernel.matrix
        t += 1
        if t > cap:
            raise RuntimeError(f"mixing time exceeds the cap {cap}")
        if (t % _FIXED_POINT_EVERY == 0
                and (far & (nxt == cur).all(axis=-1)).any()):
            raise RuntimeError(f"mixing time exceeds the cap {cap}: the law "
                               f"stopped changing by step {t}")
        cur = nxt
    return t


def tilted_mixing_time(model, theta, eps, cap=10 ** 6) -> int:
    """Worst Glauber mixing time of the tilted model over all feasible all-1
    pinnings, maximized over starting states.  Each pinned chain runs on its
    slice of the tilted support, holding the pinned sites at 1 and reading
    the tilted conditional, computed once per (state, site), elsewhere."""
    tilted = tilt(model, theta)
    support = enumerate_support(tilted)
    law = functools.cache(heat_bath_law(tilted))
    best = 0
    for pins in pinnings(model.n_vars, model.n_vars, values=(1,)):
        mask = support.where(pins)
        if mask.any():
            def held(s, v):
                return ((1,), (1.0,)) if v in pins else law(s, v)
            ker = _law_kernel(tilted, held, None, Poset(
                tuple(itertools.compress(support.states, mask))))
            best = max(best, exact_mixing_time(ker, None, eps, cap=cap))
    return best


def two_state_mixing_time(a, b, pi1, x0_is_state1, eps) -> int:
    """Closed-form mixing of a 2-state chain with off-diagonal rates a, b:
    TV after t steps is |1-a-b|^t times the start's TV."""
    gap = abs(1.0 - a - b)
    d0 = abs((1.0 if x0_is_state1 else 0.0) - pi1)
    if d0 <= eps:
        return 0
    if gap == 0.0:
        return 1
    return math.ceil(math.log(eps / d0) / math.log(gap) - 1e-12)


# ---------------------------------------------------------------------------
# CSV export


def format_float(x) -> str:
    return format(float(x), ".17g")


def kernel_to_csv(kernel: Kernel) -> str:
    head = "state," + ",".join(state_str(s) for s in kernel.support.states)
    lines = [head]
    for s, row in zip(kernel.support.states, kernel.matrix):
        lines.append(state_str(s) + "," + ",".join(format_float(x) for x in row))
    return "\n".join(lines) + "\n"


def dist_to_csv(probs, support: Poset) -> str:
    lines = ["state,prob"]
    for s, x in zip(support.states, probs):
        lines.append(state_str(s) + "," + format_float(x))
    return "\n".join(lines) + "\n"
