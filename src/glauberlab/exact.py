"""Exact verification oracle: support enumeration, dense transition kernels,
distribution propagation, divergences, and the structural checks (detailed
balance, stochastic monotonicity, monotone systems, comparison of kernels,
exact mixing times)."""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .ordercore import (_FLOW_SCALE, PAIR_BLOCK, PROB_TOL, STAR, Poset,
                        enumerate_up_sets, first_dominance_failure, state_str,
                        stochastic_dominance, up_set_of_row)
from .models import (ENUM_GUARD, LiftedModel, TiltedModel, heat_bath_law,
                     star_frozen_law, tilt)

DRIFT_TOL = 1e-9
TV_TOL = 1e-10
# the log of the largest finite float
_LOG_MAX = math.log(sys.float_info.max)
# the most states a dense kernel may have: its k x k float matrix is then
# 128 MiB
DENSE_GUARD = 4096
# entries of the largest temporary fd_kernel builds to add one slice
_FD_BLOCK_ENTRIES = 2 ** 16
# the share of tol a fiber certificate of check_site_mc_leq may use; the
# rest of tol is its rounding budget
_FIBER_SHARE = 0.5
# the most elements whose up-sets check_mc_leq enumerates
_RAY_ELEMENTS = 32


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
    return _normalized(np.array([model.log_weight(s) for s in support.states],
                                dtype=float))


def _normalized(lws) -> np.ndarray:
    """The law with log weights lws (1-D), the largest subtracted first."""
    w = np.exp(lws - lws.max())
    return w / w.sum()


def _tilted_weights(model, theta, support: Poset) -> np.ndarray:
    """The unnormalised theta-tilted weights over the support: exp of each
    log weight, less the largest one only when that one, times the support
    size, would not be finite.  Otherwise nothing is subtracted, and each
    weight is `tilt(model, theta).weight` of its state, bit for bit."""
    tilted = tilt(model, theta)
    lws = [tilted.log_weight(s) for s in support.states]
    top = max(lws, default=0.0)
    shift = top if top + math.log(max(len(lws), 1)) >= _LOG_MAX else 0.0
    return np.array([math.exp(lw - shift) for lw in lws])


def _check_dense(k):
    """Refuse a dense kernel over more than DENSE_GUARD states."""
    if k > DENSE_GUARD:
        raise ValueError(f"a dense kernel over k = {k} states exceeds the "
                         f"guard of {DENSE_GUARD} ({8 * k * k >> 20} MiB "
                         "per matrix)")


def point_mass(support: Poset, state) -> np.ndarray:
    if state not in support:
        raise ValueError(f"state {state_str(state)} is not in the support")
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
        _check_rows(self.matrix)

    def __matmul__(self, other):
        if isinstance(other, Kernel):
            return Kernel(self.support, self.matrix @ other.matrix,
                          stationary=self.stationary)
        return NotImplemented


def _check_rows(matrix):
    """Refuse a transition matrix, or a stack of them, with an entry below
    -PROB_TOL or a row sum off 1 by more than PROB_TOL (NaN included)."""
    if np.any(matrix < -PROB_TOL):
        raise ValueError("negative transition probability")
    if not np.max(np.abs(matrix.sum(axis=-1) - 1)) <= PROB_TOL:
        raise ValueError("rows do not sum to 1")


# ---------------------------------------------------------------------------
# kernels


def _law_arrays(law, support: Poset, sites, a):
    """One step of `law` at each of `sites` from every state of the support,
    evaluated once per (state, site), as arrays over (state, site, value):
    succ (k, n, a) int, the index of the successor state, and prob (k, n, a),
    its probability, for a law of at most a values.  A value of probability
    0, and the padding of a law with fewer than a values, is given the
    state's own index and prob 0."""
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


def heat_bath_arrays(model, support: Poset):
    """(succ, prob) of _law_arrays for the heat-bath law at every site."""
    return _law_arrays(heat_bath_law(model), support, range(model.n_vars),
                       len(model.alphabet))


def _law_kernel(model, law, site, support, stationary=None,
                arrays=None) -> Kernel:
    """Kernel of one step of `law` at `site`, or at a uniform site if None,
    from the law arrays of `law` over the support (evaluated unless given)
    and with the model's stationary law (computed unless given).

    Entry (i, j) sums prob / n over the (site, value) pairs of state i that
    lead to j; np.add.at adds in the flattened (state, site, value) order, so
    each entry is the sum a loop over states, sites and values would form,
    in the same order (a zero-probability pair adds 0.0 to the diagonal)."""
    support = support or enumerate_support(model)
    _check_dense(support.size)
    sites = range(model.n_vars) if site is None else (site,)
    succ, prob = arrays or _law_arrays(law, support, sites,
                                       len(model.alphabet))
    k = support.size
    mat = np.zeros(k * k)
    np.add.at(mat, (np.arange(k)[:, None, None] * k + succ).ravel(),
              (prob / len(sites)).ravel())
    return Kernel(support, mat.reshape(k, k),
                  stationary=_stationary(model, support, stationary))


def _stationary(model, support, given):
    """The given stationary law, or the model's over the support."""
    return stationary_distribution(model, support) if given is None else given


def glauber_kernel(model, support=None, site=None, stationary=None,
                   arrays=None) -> Kernel:
    """Single-site heat-bath kernel: uniform site choice (or always `site`),
    conditional resample.  A caller holding the model's stationary law over
    the support, or (for a uniform site) its heat_bath_arrays, passes them
    in."""
    return _law_kernel(model, heat_bath_law(model), site, support,
                       stationary, arrays)


def freeze_kernel(lifted: LiftedModel, support=None,
                  stationary=None) -> Kernel:
    """Contract-then-lift kernel: from X, mass theta^{#1}(1-theta)^{#star} on
    every Y with the same contraction."""
    support = support or enumerate_support(lifted)
    _check_dense(support.size)
    code = _contraction_codes(support.array)
    mat = (code[:, None] == code) * _lift_weights(support, lifted.theta)
    return Kernel(support, mat,
                  stationary=_stationary(lifted, support, stationary))


def star_glauber_kernel(lifted: LiftedModel, support=None, site=None,
                        stationary=None) -> Kernel:
    """Star-frozen single-site kernel: uniform site choice (or always
    `site`); stars stay, other sites follow the tilted base conditional."""
    return _law_kernel(lifted, star_frozen_law(lifted), site, support,
                       stationary)


def fd_kernel(model, theta, support=None, stationary=None) -> Kernel:
    """Field dynamics: free every 0-site and each 1-site independently with
    probability theta, then resample the freed set from the tilted conditional.
    Exact sum over all freed sets; guarded to at most 20 variables.

    Summed kept set by kept set: for each set A of kept (pinned) 1-sites, in
    increasing binary value with site 0 the most significant bit, every state
    that is 1 on A moves with probability theta^(#1s - |A|) (1 - theta)^|A|
    into the slice of A, distributed as the tilted weights there.  A row
    meets its own kept sets in that order (itertools.product over its
    1-sites), so each entry receives the same addends in the same order as
    a loop over rows and kept sets would give it."""
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0,1)")
    if model.n_vars > 20:
        raise ValueError("field-dynamics kernel is guarded to 20 variables")
    support = support or enumerate_support(model)
    k, n = support.size, model.n_vars
    _check_dense(k)
    w = _tilted_weights(model, theta, support)
    ones = support.array == 1
    count = ones.sum(axis=1)
    move = np.array([[theta ** (c - r) * (1 - theta) ** r if r <= c else 0.0
                      for r in range(n + 1)] for c in range(n + 1)])
    mat = np.zeros((k, k))
    for kept, idx in _one_slices(ones):
        z = w[idx].sum()
        if z == 0.0:
            raise ValueError("tilted weights underflow to 0 on a "
                             "pinned slice")
        # in row blocks, so that no temporary exceeds _FD_BLOCK_ENTRIES
        rows, to = move[count[idx], len(kept)], w[idx] / z
        per = max(1, _FD_BLOCK_ENTRIES // idx.size)
        for a in range(0, idx.size, per):
            mat[np.ix_(idx[a:a + per], idx)] += np.outer(rows[a:a + per], to)
    return Kernel(support, mat,
                  stationary=_stationary(model, support, stationary))


def _one_slices(ones):
    """(A, idx_A) for every set A of sites (a tuple) such that some row of
    the boolean table ones (k, n) is True on all of A, with idx_A those rows
    in order; A in increasing binary value with site 0 the most significant
    bit (depth first, leaving a site out before putting it in)."""
    n = ones.shape[1]

    def walk(v, sites, idx):
        if v == n:
            yield sites, idx
            return
        yield from walk(v + 1, sites, idx)
        sub = idx[ones[idx, v]]
        if sub.size:
            yield from walk(v + 1, sites + (v,), sub)

    if len(ones):
        yield from walk(0, (), np.arange(len(ones)))


def algorithm_kernel_sequence(freeze: Kernel, inner: Kernel, t1, t2,
                              steps=None) -> list:
    """Kernels of the simulation run for steps 1..steps (default t1 * t2):
    inner, with the contract-then-lift kernel freeze prefixed at the start
    of each block of t2 steps.  The star-frozen kernel as inner gives the
    algorithm, the lifted Glauber kernel the modified run."""
    both = freeze @ inner
    if steps is None:
        steps = t1 * t2
    return [both if t % t2 == 0 else inner for t in range(steps)]


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


def _lift_weights(support: Poset, theta, mass=1.0) -> np.ndarray:
    """Each state's lift weight theta^{#1}(1-theta)^{#star}, multiplied into
    mass (scalar or per state) column by column in site order, each factor
    looked up by the entry's value (0, 1, STAR): the loop that fans a binary
    state out over its lifts multiplies the same factors in the same order
    (a 0 site here by an exact 1.0).  With one addend per kernel and lifted
    entry, and np.bincount adding in support order, the freeze kernel and
    both pushforwards equal those loops bit for bit."""
    w = mass * np.ones(support.size)
    for col in np.array([1.0, theta, 1 - theta])[support.array].T:
        w = w * col
    return w


def _contraction_codes(array):
    """Each row's contraction code: bit v set where site v is 1 or STAR."""
    if array.shape[1] > 62:
        raise ValueError("contraction codes are guarded to 62 sites")
    return (array != 0) @ (1 << np.arange(array.shape[1], dtype=np.int64))


def _contraction_index(lifted_support: Poset, bin_support: Poset):
    """The index in bin_support of each lifted state's contraction; refused
    unless the lifted support holds exactly the lifts of bin_support."""
    bcode = _contraction_codes(bin_support.array)
    lcode = _contraction_codes(lifted_support.array)
    order = np.argsort(bcode)
    idx = order[np.searchsorted(bcode, lcode, sorter=order) % bcode.size]
    if np.any(bcode[idx] != lcode) or lifted_support.size != np.exp2(
            (bin_support.array == 1).sum(axis=1)).sum():
        raise ValueError("the lifted support is not the lift of the binary "
                         "support")
    return idx


def lift_pushforward(probs, bin_support: Poset, theta,
                     lifted_support: Poset) -> np.ndarray:
    """Pushforward of a binary law under the randomized lift: each lifted
    state gets its contraction's mass times its lift weight (+0.0 if 0)."""
    mass = np.asarray(probs, dtype=float)[
        _contraction_index(lifted_support, bin_support)]
    return np.where(mass == 0, 0.0, _lift_weights(lifted_support, theta, mass))


def contract_pushforward(probs, lifted_support: Poset,
                         bin_support: Poset) -> np.ndarray:
    """Pushforward of a lifted law under the contraction."""
    return np.bincount(_contraction_index(lifted_support, bin_support),
                       probs, minlength=bin_support.size)


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


def check_mc_leq(p: Kernel, q: Kernel, mu=None, tol=PROB_TOL):
    """Comparison of kernels: nu P <=_sd nu Q for every nu whose density
    against mu is increasing.

    It suffices to test the extreme rays nu_U proportional to mu restricted to
    an up-set U, since every increasing-density nu is a mixture of these and
    dominance is preserved under mixtures.  The rays are the rows of mass
    row . mu > 0 of the up-set matrix (above its cap, of enumerate_up_sets),
    tested in blocks of PAIR_BLOCK rows, each one product per kernel and one
    stochastic_dominance stack.

    Returns (True, None) or (False, (up_set, "extreme-ray")).
    """
    mu = p.stationary if mu is None else np.asarray(mu, float)
    poset = p.support
    rows = poset.up_set_matrix
    if rows is None:
        rows = enumerate_up_sets(poset)
    for start in range(0, len(rows), PAIR_BLOCK):
        block = rows[start:start + PAIR_BLOCK]
        mass = block @ mu
        block, mass = block[mass > 0.0], mass[mass > 0.0]
        nus = block * mu / mass[:, None]
        ok, wit = stochastic_dominance(nus @ p.matrix, nus @ q.matrix, poset,
                                       tol=tol)
        if not ok:
            return False, (up_set_of_row(poset, block[wit[0]]), "extreme-ray")
    return True, None


def _site_tails(succ, prob, support: Poset, site, a):
    """tails[x, c] = the probability that one step of a law at `site`, from
    its law arrays (k, 1, a), moves state x to a value >= c at the site.
    The (state, value) table is summed by np.add.at in the order
    _law_kernel sums the kernel, so each entry is the kernel entry of the
    successor with that value, bit for bit."""
    k = support.size
    vals = support.array[succ[:, 0], site]
    table = np.zeros(k * a)
    np.add.at(table, (np.arange(k)[:, None] * a + vals).ravel(),
              prob[:, 0].ravel())
    return np.cumsum(table.reshape(k, a)[:, ::-1], axis=1)[:, ::-1]


def check_site_mc_leq(model, p_law, q_law, site, support: Poset, mu,
                      tol=PROB_TOL):
    """check_mc_leq(P, Q, mu, tol) for the kernels P and Q of one step of
    p_law and q_law at `site` over the support (as _law_kernel builds
    them), decided fiber by fiber in O(k) from the law arrays, without
    either kernel.

    A fiber is one configuration of the other sites.  P and Q move the
    site only, so within fibers, and an up-set meets a fiber f in a suffix
    of the chain of its values at the site.  For a ray U (mu on an up-set,
    of mass mu(U) > 0) and an up-set V meeting f in the suffixes s_f, c_f:

        mu(U) (nu_U P - nu_U Q)(V) = sum_f S(f, s_f, c_f),
        S(f, s, c) = sum of mu(x) T(x, c) over x in f with x_site >= s,

    with T(x, c) = P(x, values >= c) - Q(x, values >= c) the tail
    difference.  The certificate is max_c S(f, s, c) <= h mu(f, s) for
    every fiber f and suffix s, with mu(f, s) the suffix's mass and h =
    _FIBER_SHARE * tol (an empty suffix of V gives 0).  Summed over the
    fibers U meets, every ray and up-set V then have
    (nu_U P - nu_U Q)(V) <= h.

    Proof that a certificate implies check_mc_leq's integer-slack pass.
    Let u = 2^-53 and SC = _FLOW_SCALE units per unit of mass (SC u <
    1/8), and e_P, e_Q the largest |row sum - 1| of P and Q.  The fast path
    applies where every law probability and mu are >= 0, every law sums to
    within PROB_TOL/2 of 1, k <= DENSE_GUARD and tol <= 1e-6; a law's
    (state, value) entry is then the kernel entry (_site_tails), and the
    terms of second order in u, tol, e_P and e_Q below add under a unit.
    (a) The certificate is computed in floats, each tail and suffix sum a
        running sum of at most 3 terms: a computed pass gives the exact
        S(f, s, c) <= (h + 12u) mu(f, s).
    (b) check_mc_leq forms m = row . mu = mu(U)(1 + r), |r| <= k u, and
        nu = mu / m entrywise, within u.  A column of P or Q has at most 3
        nonzero entries, all in one fiber, and an IEEE product with an
        exact 0 or sum with 0 is exact, so each entry of the computed rows
        a = nu P and b = nu Q is within 3u of the exact product of nu.
        With (a): SC (a - b)(V) <= SC h + 19 SC u.
    (c) _scale_to_ints rounds SC a entrywise, off by at most 1/2 + SC u a_y
        per entry, and adds SC less the rounded total at the largest entry
        y*.  So the scaled row sums over V to SC a(V) + (the rounding over
        V) when y* is not in V, and to SC a(V) + SC (1 - sum a) - (the
        rounding over the complement of V) when it is.  For V neither
        empty nor everything (there d(V) = 0), the roundings of both rows
        add up to at most k - 1 + 2 SC u, and the corrections at the two
        y* to at most SC (|1 - sum nu| + e_P + e_Q + 6u), |1 - sum nu| <=
        (k + 1) u: with both y* in V, the 1 - sum nu parts cancel.
    Hence d(V) <= SC h + SC (e_P + e_Q) + k - 1 + SC u (k + 28), and the
    slack is floor(SC tol) + k + 1 >= SC tol + k.  With h = tol/2 a pass
    follows from the rounding budget SC (e_P + e_Q) + (k + 48) / 8 <=
    SC tol / 2, tested with the computed deviations (off by 4u in all).
    Each ray law stays valid: its sum is within (k + 4) u + PROB_TOL/2 <
    PROB_TOL of 1 for k <= DENSE_GUARD.

    Past the certificate, in this order:
    1. laws or mu outside these conditions, or over the budget: both
       kernels and check_mc_leq, which raise as they do for any caller;
    2. an uncertified fiber, on at most _RAY_ELEMENTS elements: the same,
       for the same verdict, witness and messages;
    3. on more: the ray of the up-closure U of the first uncertified
       suffix is tested by stochastic_dominance over every up-set V (the
       up-closures of the fiber's suffixes among them), and (U,
       "extreme-ray") is the witness if it fails;
    4. otherwise a ValueError naming the fiber.

    Returns (True, None) or (False, (up_set, "extreme-ray"))."""
    k, a = support.size, len(model.alphabet)
    mu = np.asarray(mu, dtype=float)
    budget = (1 - _FIBER_SHARE) * tol * _FLOW_SCALE - (k + 48) / 8
    bad = None
    if k <= DENSE_GUARD and tol <= 1e-6 and budget >= 0 and np.all(mu >= 0):
        laws = [_law_arrays(law, support, (site,), a)
                for law in (p_law, q_law)]
        tails = [_site_tails(succ, prob, support, site, a)
                 for succ, prob in laws]
        dev = np.abs(np.array([t[:, 0] for t in tails]) - 1).max(axis=1)
        if (all(np.all(prob >= 0) for _, prob in laws)
                and np.all(dev <= PROB_TOL / 2)
                and _FLOW_SCALE * dev.sum() <= budget):
            arr = support.array
            _, fiber = np.unique(np.delete(arr, site, axis=1), axis=0,
                                 return_inverse=True)
            fiber, at = fiber.ravel(), arr[:, site]
            # mass and tail difference per (fiber, value at the site); the
            # suffix sums run down from the top, so column j is the suffix
            # of the values >= a - 1 - j
            cells = np.zeros((fiber.max() + 1, a))
            cells[fiber, at] = mu
            diff = np.zeros(cells.shape + (a,))
            diff[fiber, at] = tails[0] - tails[1]
            sums = np.cumsum((cells[:, :, None] * diff)[:, ::-1], axis=1)
            mass = np.cumsum(cells[:, ::-1], axis=1)
            bad = sums.max(axis=2) > _FIBER_SHARE * tol * mass
            if not bad.any():
                return True, None
    if bad is None or k <= _RAY_ELEMENTS:
        return check_mc_leq(_law_kernel(model, p_law, site, support),
                            _law_kernel(model, q_law, site, support), mu, tol)
    f, s = np.argwhere(bad)[0]
    seed = np.flatnonzero((fiber == f) & (at >= a - 1 - s))
    row = np.zeros(k)
    row[list(support.up_closure(seed))] = 1.0
    nu = row * mu / (row @ mu)
    images = [np.bincount(succ.ravel(), (nu[:, None, None] * prob).ravel(),
                          minlength=k) for succ, prob in laws]
    if not stochastic_dominance(*images, support, tol=tol)[0]:
        return False, (up_set_of_row(support, row), "extreme-ray")
    x = support.states[seed[0]]
    raise ValueError(
        f"single-vertex-mc at site {site}: fiber "
        f"{state_str(x[:site])}_{state_str(x[site + 1:])} is not certified "
        f"and the ray of its up-closure passes; {k} > {_RAY_ELEMENTS} "
        "elements are too many to enumerate the rays")


# ---------------------------------------------------------------------------
# mixing times


# the mixing loop compares a step with the one before it this often
_FIXED_POINT_EVERY = 1024
# the unit roundoff of a float
_UNIT = sys.float_info.epsilon / 2


def _check_eps(eps):
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")


def _mixing_times(mats, mus, eps, cap, cur=None):
    """Exact mixing times of a stack of chains: for each kernel of mats
    (g, m, m), with stationary law mus (g, m) and start laws cur (g, s, m),
    one row per start (by default one per state: the worst start), the
    smallest t with every row at TV <= eps from stationarity, as the step
    loop _stepped_times gives it, refusals included.

    A worst start goes to _squared_times first; only the chains it cannot
    certify run the step loop.  The loop treats each chain on its own (see
    _stepped_times), and every chain _squared_times certifies has t <= cap
    and t <= _FIXED_POINT_EVERY, past its refusal at step 0, so that chain
    could not raise in the loop: running the rest alone raises the loop's
    first refusal, and gives each of their times."""
    if cur is not None:
        return _stepped_times(mats, mus, eps, cap, cur)
    ts, unsure = _squared_times(mats, mus, eps, cap)
    if unsure.any():
        ts[unsure] = _stepped_times(mats[unsure], mus[unsure], eps, cap)
    return ts


def _stepped_times(mats, mus, eps, cap, cur=None):
    """_mixing_times by the step loop: each chain stops at its own t;
    matmul multiplies a stack slice by slice, so a chain's products, and
    its t, are those of a loop over it alone.

    Raises RuntimeError past the cap, and every _FIXED_POINT_EVERY steps
    (from step 0) when it is already clear that some row would reach the
    cap: when a step has left a row bit for bit unchanged while it is still
    farther than eps (each row evolves on its own, deterministically), or
    when _refuse_unreachable finds a row that cannot come within eps in the
    steps left."""
    g, m = len(mats), mats.shape[-1]
    if cur is None:
        cur = np.zeros((g, m, m))
        cur[:, np.arange(m), np.arange(m)] = 1.0
    else:
        cur = np.array(cur, dtype=float)  # a copy: the steps write into it
    ts = np.zeros(g, dtype=int)
    live = np.arange(g)
    mus = mus[:, None, :]
    # the steps swap two buffers; the free one holds |cur - mu| first
    nxt = np.empty_like(cur)
    t = 0
    while True:
        np.subtract(cur, mus, out=nxt)
        far = 0.5 * np.abs(nxt, out=nxt).sum(axis=-1) > eps
        if not far.all() and not (go := far.any(axis=-1)).all():
            ts[live[~go]] = t
            if not go.any():
                return ts
            nxt = None  # let the free buffer go before the copies
            live, mats, cur, mus, far = (x[go]
                                         for x in (live, mats, cur, mus, far))
            nxt = np.empty_like(cur)
        if t % _FIXED_POINT_EVERY == 0:
            _refuse_unreachable(mats, cur, mus, eps, cap, t)
        np.matmul(cur, mats, out=nxt)
        t += 1
        if t > cap:
            raise RuntimeError(f"mixing time exceeds the cap {cap}")
        if (t % _FIXED_POINT_EVERY == 0
                and (far & (nxt == cur).all(axis=-1)).any()):
            raise RuntimeError(f"mixing time exceeds the cap {cap}: the law "
                               f"stopped changing by step {t}")
        cur, nxt = nxt, cur


def _refuse_unreachable(mats, cur, mus, eps, cap, t):
    """Raise the cap's RuntimeError if at step t some row of the stack
    cannot come within eps of stationarity by step cap.

    Let S be the states where some row of a chain exceeds stationarity.  A
    row's TV is at least its excess nu(S) - pi(S), and a step takes at most
    q * nu(S) out of S: q is the largest P(x, outside S), plus the mass row
    x loses if it sums below 1, over x in S.  So if the excess less
    (cap - t) q is still above eps (with TV_TOL for rounding), the row is
    farther than eps at the cap."""
    over = (cur > mus).any(axis=1)
    inside = over[..., None].astype(float)
    excess = ((cur @ inside)[..., 0] - (mus @ inside)[..., 0]).max(axis=-1)
    leak = (mats @ (1 - inside))[..., 0]
    leak += np.maximum(0.0, 1 - mats.sum(axis=-1))
    q = np.where(over, leak, 0.0).max(axis=-1)
    if np.any(excess - (cap - t) * q > eps + TV_TOL):
        raise RuntimeError(f"mixing time exceeds the cap {cap}: at step {t} "
                           f"a law is too far from stationarity to come "
                           f"within eps by step {cap}")


def _far_at_start(mats, mus, eps, cap):
    """Which chains of the stack have a worst start farther than eps, as
    _stepped_times computes it at step 0, after its refusal at step 0 of
    those chains (the same call on the same arrays)."""
    g, m = len(mats), mats.shape[-1]
    cur = np.zeros((g, m, m))
    cur[:, np.arange(m), np.arange(m)] = 1.0
    far = _worst_tv(cur, mus[:, None, :]) > eps
    if not far.all():
        mats, cur, mus = mats[far], cur[far], mus[far]
    _refuse_unreachable(mats, cur, mus[:, None, :], eps, cap, 0)
    return far


def _worst_tv(power, mus):
    """Each chain's largest row TV to stationarity (mus (g, 1, m)), each
    row's as _stepped_times computes it."""
    dev = power - mus
    return (0.5 * np.abs(dev, out=dev).sum(axis=-1)).max(axis=-1)


def _power(mats, t):
    """mats^t slice by slice (t >= 1), by binary powering from the
    leading bit: per later bit a squaring and, if it is set, a product
    with mats."""
    acc = mats
    for bit in bin(t)[3:]:
        acc = acc @ acc
        if bit == "1":
            acc = acc @ mats
    return acc


def _power_margin(mats, mus, eps, horizon):
    """How far each chain's TV computed from a product of its kernel's
    powers, at any t <= horizon <= _FIXED_POINT_EVERY, must clear eps for
    the step loop to be on the same side of eps at t and, if it is above,
    at every step before t.

    Let P be a chain's (float) kernel taken as exact, u = 2^-53, gamma =
    (m + 2) u / (1 - (m + 2) u), R = max(1, the largest row l1 of |P|),
    pi = the chain's mus and d(t) the exact worst-row TV of P^t.
    (a) A computed product AB adds at most gamma |A||B| entrywise (Higham,
        Accuracy and Stability of Numerical Algorithms, 3.5), in any
        summation order, so with e(X) the largest row l1 error of X against
        the power it stands for, e(AB) <= e(A) R^b + R^a e(B) + gamma R^a
        R^b, up to terms of second order.  By induction every computed
        power, whatever its tree of products (the step loop's C P, or
        squarings), has e <= E = 2 (t - 1) gamma R^t: the factor 2 covers
        the second-order terms while horizon^2 gamma <= 1/16, that is for m
        below 2^29 at horizon 1024.
    (b) A computed TV of a row x is within tau = gamma (|x|_1 + |pi|_1) / 2
        of the exact one, with |x|_1 <= R^t + E.  So the fast path's TV and
        the loop's are each within E/2 + tau of d(t).
    (c) With the drift r = |pi P - pi|_1 / 2, d(t + 1) <= R d(t) + r (one
        step is a contraction in TV when R = 1 and pi is stationary: Levin,
        Peres and Wilmer, Markov Chains and Mixing Times, ch. 4), so d(s)
        >= d(t) / R^h - h r for s <= t, h = horizon.
    A computed TV at most eps - M thus puts the loop's at t within eps; one
    above eps + M puts the loop's at every s <= t above eps, for M =
    (R^h - 1) eps + (R^h + 1)(E/2 + tau) + h r R^h.  The margin is twice
    M, which covers the rounding of M's own arithmetic and of underflow (m
    times the smallest subnormal per entry).  R, |pi|_1 and r are computed
    and rounded up."""
    m = mats.shape[-1]
    gamma = (m + 2) * _UNIT / (1 - (m + 2) * _UNIT)
    up = 1 + 2 * gamma
    rows = np.abs(mats).sum(axis=-1).max(axis=-1) * up
    grow = np.maximum(rows, 1.0) ** horizon
    mass = np.abs(mus).sum(axis=(1, 2)) * up
    drift = (0.5 * np.abs(mus @ mats - mus).sum(axis=(1, 2))
             + gamma * mass * (rows + 2))
    err = 2 * (horizon - 1) * gamma * grow
    tau = 0.5 * gamma * (grow + err + mass)
    return 2 * ((grow - 1) * eps + (grow + 1) * (err / 2 + tau)
                + horizon * drift * grow)


def _squared_times(mats, mus, eps, cap):
    """(ts, unsure): the worst-start times of _stepped_times for the chains
    of the stack that powers of their kernels certify, and a mask of the
    chains they do not.

    After the loop's own test and refusal at step 0 (_far_at_start), each
    chain farther than eps is bracketed: P, P^2, P^4, ... until every chain
    is within eps or the power reaches min(cap, _FIXED_POINT_EVERY).  From
    its last power P^h still farther than eps, a chain then steps on by P,
    and its t is the first step within eps, or 2h.  Every TV compared with
    eps must clear it by _power_margin at the last power, so that the step
    loop's TV at t is within eps, and at t - 1, hence (by the margin's (c))
    at every step before, above it.  A chain not within eps by the limit,
    whose t exceeds the limit, or with a TV inside its margin is unsure.

    Holds the kernels and at most three stacks of the same size."""
    g = len(mats)
    ts, unsure = np.zeros(g, dtype=int), np.zeros(g, dtype=bool)
    live = np.flatnonzero(_far_at_start(mats, mus, eps, cap))
    if not live.size:
        return ts, unsure
    if live.size < g:
        mats, mus = mats[live], mus[live]
    mus = mus[:, None, :]
    limit = min(cap, _FIXED_POINT_EVERY)
    gap = np.full(live.size, np.inf)  # the least |TV - eps| compared
    half = np.zeros(live.size, dtype=int)  # the last power still far
    far = np.ones(live.size, dtype=bool)
    power, last, p = mats, mats, 1
    while True:
        d = _worst_tv(power, mus)
        gap[far] = np.minimum(gap[far], np.abs(d - eps)[far])
        far &= d > eps
        last = power if far.all() else np.where(far[:, None, None], power,
                                                last)
        half[far] = p
        if not far.any() or p >= limit:
            break
        power, p = power @ power, 2 * p
    power = None  # only the last far powers step on
    t = np.where(half > 0, 2 * half, 1)
    stepping = ~far & (half > 1)
    for s in range(1, half.max()):
        stepping &= s < half
        if not stepping.any():
            break
        last = last @ mats
        d = _worst_tv(last, mus)
        gap[stepping] = np.minimum(gap[stepping],
                                   np.abs(d - eps)[stepping])
        done = stepping & (d <= eps)
        t[done] = half[done] + s
        stepping &= ~done
    sure = ~far & (t <= limit) & (gap > _power_margin(mats, mus, eps, p))
    ts[live[sure]] = t[sure]
    unsure[live[~sure]] = True
    return ts, unsure


def _within(mats, mus, eps, cap, t):
    """Which chains of the stack have a worst-start time of at most t (1 <=
    t <= _FIXED_POINT_EVERY) in _stepped_times, certified from P^t alone:
    its worst TV at most eps less _power_margin puts the loop's TV at t
    within eps, so the loop stops by t.  Chains within eps at step 0 pass;
    the loop's refusal at step 0 is raised first.  Since every chain that
    passes has t <= _FIXED_POINT_EVERY, none could raise later in the loop
    (see _mixing_times)."""
    ok = ~_far_at_start(mats, mus, eps, cap)
    live = np.flatnonzero(~ok)
    if live.size:
        if live.size < len(mats):
            mats, mus = mats[live], mus[live]
        mus = mus[:, None, :]
        ok[live] = (_worst_tv(_power(mats, t), mus)
                    <= eps - _power_margin(mats, mus, eps, t))
    return ok


def exact_mixing_time(kernel: Kernel, x0=None, eps=0.25, cap=10 ** 6) -> int:
    """Smallest t with TV(law at t, stationary) <= eps, by exact propagation.

    x0 is a start state (tuple) or None for the worst case over all starts,
    one row per start: _mixing_times of the one-chain stack, with its
    refusals."""
    _check_eps(eps)
    start = None if x0 is None else point_mass(kernel.support, x0)[None, None]
    return int(_mixing_times(kernel.matrix[None], kernel.stationary[None],
                             eps, cap, start)[0])


def _tilted_slices(model, theta, support=None, arrays=None):
    """The Glauber kernels of the tilted model on its feasible all-1 pinned
    slices, as stacks of equal-size slices of at most k^2 matrix entries in
    all (k the support size), built one stack at a time by _slice_stack.
    Yields (pinned, sel, mats, mus): the pinned site sets (tuples), sel
    (g, m) the slices' state indices in the tilted support, mats (g, m, m)
    their row-checked kernels and mus (g, m) their stationary laws.

    The tilted conditional is evaluated once per (state, site), or derived
    by _tilted_arrays from the model's heat_bath_arrays over its support
    when the caller holds them, and the log weights once per state; each
    slice's kernel and stationary law equal those of the pinned tilted
    model bit for bit."""
    tilted = tilt(model, theta)
    if arrays is None:
        support = enumerate_support(tilted)
        succ, prob = heat_bath_arrays(tilted, support)
    else:
        succ, prob = _tilted_arrays(model, tilted, support, arrays)
    k = support.size
    lw = np.array([tilted.log_weight(s) for s in support.states], dtype=float)
    by_size = {}
    for pinned, idx in _one_slices(support.array == 1):
        by_size.setdefault(idx.size, []).append((pinned, idx))
    for m, slices in by_size.items():
        per = max(1, k * k // (m * m))
        for c in range(0, len(slices), per):
            yield _slice_stack(slices[c:c + per], succ, prob, lw)


def _tilted_arrays(model, tilted, support: Poset, arrays):
    """heat_bath_arrays of tilted = tilt(model, theta) over the model's
    support, which the tilt keeps state for state, from the model's own
    arrays.

    Where the tilt wraps the model in a TiltedModel, its conditional's
    arithmetic is applied elementwise: z = q0 + theta q1, then q0 / z and
    theta q1 / z, the same bits.  A probability that underflows to 0 keeps
    the model's successor where an evaluation would point at the state
    itself; either adds +0.0 to a kernel entry, which is never -0.0, so no
    kernel or slice changes.  Other tilts (of a hard-core or an already
    tilted model) are evaluated."""
    if not (isinstance(tilted, TiltedModel) and tilted.base is model):
        return heat_bath_arrays(tilted, support)
    succ, prob = arrays
    q0, q1 = prob[..., 0], tilted.theta * prob[..., 1]
    z = q0 + q1
    if np.any(z == 0.0):
        raise ZeroDivisionError("float division by zero")
    return succ, np.stack([q0 / z, q1 / z], axis=-1)


def _slice_stack(slices, succ, prob, lw):
    """(pinned, sel, mats, mus) of _tilted_slices for the equal-size slices
    [(pinned sites, state indices), ...] of the law arrays succ, prob of a
    support with log weights lw.

    A slice's kernel takes its states' rows of the law arrays, holds each
    pinned site (its own index with prob 1, as the pinned model's
    conditional gives it) and sums them as _law_kernel does; its stationary
    law normalizes its states' log weights as stationary_distribution
    does."""
    pinned, sel = zip(*slices)
    sel = np.array(sel)
    (g, m), (k, n, a) = sel.shape, succ.shape
    held = np.zeros((g, 1, n, 1), dtype=bool)
    for j, sites in enumerate(pinned):
        held[j, 0, list(sites)] = True
    to = np.where(held, sel[:, :, None, None], succ[sel])
    pr = np.where(held, np.arange(a) == 0, prob[sel])
    # local[j, x] is the position of state x in slice j, which holds every
    # successor of its states (a held site stays, the others keep the pins)
    local = np.zeros((g, k), dtype=int)
    local[np.arange(g)[:, None], sel] = np.arange(m)
    cells = (np.arange(g * m).reshape(g, m, 1, 1) * m
             + local[np.arange(g)[:, None, None, None], to])
    mats = np.zeros(g * m * m)
    np.add.at(mats, cells.ravel(), (pr / n).ravel())
    mats = mats.reshape(g, m, m)
    _check_rows(mats)
    return pinned, sel, mats, np.array([_normalized(lw[r]) for r in sel])


def tilted_mixing_time(model, theta, eps, cap=10 ** 6, support=None,
                       arrays=None) -> int:
    """Worst Glauber mixing time of the tilted model over all feasible all-1
    pinnings, maximized over starting states: the largest time
    _mixing_times gives a chain of the stacks of _tilted_slices.  A caller
    holding the model's support and its heat_bath_arrays passes them in.

    Only the largest is needed.  The first stack (the full slice) gives a
    time t; then, while 1 <= t <= _FIXED_POINT_EVERY, a later stack's
    chains that _within certifies from P^t have times <= t and need
    nothing more, and only the others run _mixing_times, which may raise
    t.  Every stack still meets the step loop's refusal at step 0."""
    _check_eps(eps)
    best = 0
    for _, _, mats, mus in _tilted_slices(model, theta, support, arrays):
        if 1 <= best <= _FIXED_POINT_EVERY:
            slow = ~_within(mats, mus, eps, cap, best)
            mats, mus = mats[slow], mus[slow]
        if len(mats):
            best = max(best, int(_mixing_times(mats, mus, eps, cap).max()))
        del mats, mus  # let the stack go before the next one is built
    return best


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
