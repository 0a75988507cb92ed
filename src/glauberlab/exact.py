"""Exact verification oracle: support enumeration, dense transition kernels,
distribution propagation, divergences, and the structural checks (detailed
balance, stochastic monotonicity, monotone systems, comparison of kernels,
exact mixing times)."""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .ordercore import (_FLOW_SCALE, PAIR_BLOCK, PROB_TOL, STAR,
                        UP_SET_ELEMENTS, Poset, enumerate_up_sets,
                        first_dominance_failure, state_codes, state_str,
                        stochastic_dominance, up_set_of_row)
from .models import (LiftedModel, TiltedModel, _check_guard,
                     lift_log_weight, lifted_probs, tilt, tilt_log_weight,
                     tilted_probs)

DRIFT_TOL = 1e-9
TV_TOL = 1e-10
# the log of the largest finite float
_LOG_MAX = math.log(sys.float_info.max)
# the most states a dense kernel may have: its k x k float matrix is then
# 128 MiB
DENSE_GUARD = 4096
# entries of the largest temporary fd_kernel builds to add one slice
_FD_BLOCK_ENTRIES = 2 ** 16
# the share of PROB_TOL a fiber certificate of check_site_mc_leq may use;
# the rest of PROB_TOL is its rounding budget
_FIBER_SHARE = 0.5
# the most variables check_monotone_system takes
_MONOTONE_VARS = 12
# entries of the widest array of a cover stack of _first_unordered: its
# rows, or its sums over the target's up-sets
_COVER_STACK_ENTRIES = 2 ** 16


def enumerate_support(model, *, _log_weights=None) -> Poset:
    """The states of nonzero weight in lexicographic order, from
    model.support_iter (refused past ENUM_GUARD, one log_weight call per
    block of candidates).  Each block's log weights are appended to the
    list _log_weights when one is given."""
    rows = []
    for block, lws in model.support_iter():
        rows.append(block)
        if _log_weights is not None:
            _log_weights.append(lws)
    return Poset.from_array(np.concatenate(rows))


def _weighted_support(model):
    """(enumerate_support(model), the log weight of each of its states):
    each log weight is the one that admitted its state to the support."""
    lws = []
    support = enumerate_support(model, _log_weights=lws)
    return support, np.concatenate(lws)


def pinnings(n, max_size, values=(0, 1)):
    """Partial assignments {site: value} of at most max_size of n sites, by
    size, then site set (combinations order), then values (product order)."""
    for r in range(max_size + 1):
        for sites in itertools.combinations(range(n), r):
            for vals in itertools.product(values, repeat=r):
                yield dict(zip(sites, vals))


def stationary_distribution(model, support: Poset) -> np.ndarray:
    """Normalized weights over the enumerated support (log-stable), from
    one log_weight call over the support's array."""
    return _normalized(model.log_weight(support.array))


def _normalized(lws) -> np.ndarray:
    """The law with log weights lws (1-D), the largest subtracted first."""
    w = np.exp(lws - lws.max())
    return w / w.sum()


def _weights(lws) -> np.ndarray:
    """exp of each log weight, less the largest one only when that one,
    times the number of weights, would not be finite.  Otherwise nothing is
    subtracted, and each weight is the model's `weight` of its state, bit
    for bit."""
    lws = lws.tolist()
    top = max(lws, default=0.0)
    shift = top if top + math.log(max(len(lws), 1)) >= _LOG_MAX else 0.0
    return np.array([math.exp(lw - shift) for lw in lws])


def point_mass(support: Poset, state) -> np.ndarray:
    try:
        i = support.index(state)
    except KeyError:
        raise ValueError(
            f"state {state_str(state)} is not in the support") from None
    v = np.zeros(support.size)
    v[i] = 1.0
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


class _Fibers(NamedTuple):
    """The fibers of one site over a support, a fiber being the states that
    agree off the site: fiber (k,) numbers each state's fiber, in the order
    of the fibers' first states; first (f,) holds those first states; cand
    (k, a) the index of the state of the same fiber with each value at the
    site, or -1 where the support has none."""
    site: int
    fiber: np.ndarray
    first: np.ndarray
    cand: np.ndarray


def _site_fibers(support: Poset, a) -> list:
    """The _Fibers of each site, from the support's codes: the state of a
    fiber with value c, found by support.lookup, has the code less the
    site's digit with c put in.  Every state of a fiber finds the same
    states, so its fiber's first state is the least of them."""
    arr, k = support.array, support.size
    # the code of the state that is 1 at site v alone is site v's place
    place = state_codes(np.eye(arr.shape[1], dtype=np.int8))
    cands = support.lookup((support.codes[:, None] - arr * place)[..., None]
                           + place[:, None] * np.arange(a))
    out = []
    for v, cand in enumerate(cands.transpose(1, 0, 2)):
        lead = np.where(cand < 0, k, cand).min(axis=1)
        head = lead == np.arange(k)
        out.append(_Fibers(v, (np.cumsum(head) - 1)[lead],
                           np.flatnonzero(head), cand))
    return out


def _site_conditionals(model, support: Poset) -> list:
    """The model's heat-bath law at each site over the support, evaluated
    once per (site, fiber): a list of (_Fibers, cond), cond (f, a) holding
    model.conditional at each fiber's first state, from one call per site
    over those states.  A conditional ignores the site's own value, so that
    is the conditional of every state of the fiber."""
    return [(fib, model.conditional(support.array[fib.first], fib.site))
            for fib in _site_fibers(support, len(model.alphabet))]


def _site_arrays(support: Poset, columns):
    """The law arrays (succ, prob) of a single-site law over the support,
    from one (_Fibers, p) pair per site, p (k, a) the probability of each
    value at the site from each state.  Law arrays are over (state, site,
    value), (k, s, a) for s sites and at most a values: succ, int, the
    index of the successor state, and prob its probability.  A value of
    nonzero probability moves to the state of the fiber with that value; a
    value of probability 0, and a value slot the law leaves empty, keeps
    the state's own index and +0.0, as a loop over the law gives them."""
    own = np.arange(support.size)[:, None]
    succ, prob = [], []
    for fib, p in columns:
        moved = p != 0.0
        lost = moved & (fib.cand < 0)
        if lost.any():
            i, c = np.argwhere(lost)[0]
            t = list(support.states[i])
            t[fib.site] = int(c)
            raise ValueError(f"the law at site {fib.site} moves to "
                             f"{state_str(t)}, which is not in the support")
        succ.append(np.where(moved, fib.cand, own))
        prob.append(np.where(moved, p, 0.0))
    return np.stack(succ, axis=1), np.stack(prob, axis=1)


def _heat_bath(support: Poset, table):
    """(succ, prob) of the heat-bath law from its _site_conditionals
    table: each state reads its fiber's conditional."""
    return _site_arrays(support, [(fib, cond[fib.fiber])
                                  for fib, cond in table])


def _lift_sites(lifted_support: Poset, table, index) -> list:
    """Per site of the base model's table (_site_conditionals over the
    binary support), (_Fibers over the lifted support, q0, q1): each lifted
    state's base conditional, read at the fiber of its contraction, whose
    index in the binary support is given.  LiftedModel.conditional and the
    star-frozen law both evaluate the base conditional at the contraction."""
    return [(lfib, *cond[fib.fiber[index]].T)
            for lfib, (fib, cond) in zip(_site_fibers(lifted_support, 3),
                                         table)]


def _lifted_heat_bath(lifted: LiftedModel, lifted_support: Poset, sites):
    """(succ, prob) of the heat-bath law of the lift from its _lift_sites:
    models.lifted_probs of each state's base conditional."""
    return _site_arrays(lifted_support, [
        (fib, np.stack(lifted_probs(lifted.theta, q0, q1), axis=1))
        for fib, q0, q1 in sites])


def _star_frozen(lifted: LiftedModel, lifted_support: Poset, sites):
    """(succ, prob) of models.star_frozen_law(lifted) from its _lift_sites:
    each state follows models.tilted_probs of its base conditional, with
    slot 2 empty.  A star's row is tilted from (1, 0), which gives (1, 0),
    and its value slot 0 holds its own index: it stays with probability 1."""
    columns = []
    own = np.arange(lifted_support.size)[:, None]
    for fib, q0, q1 in sites:
        star = lifted_support.array[:, fib.site] == STAR
        p = tilted_probs(lifted.theta, np.where(star, 1.0, q0),
                         np.where(star, 0.0, q1))
        columns.append((fib._replace(cand=np.where(star[:, None], own,
                                                   fib.cand)),
                        np.stack(p + (np.zeros(len(star)),), axis=1)))
    return _site_arrays(lifted_support, columns)


def _law_kernel(arrays, support: Poset, stationary) -> Kernel:
    """Kernel of one step at a uniform site of the law arrays (succ, prob)
    over the support (_site_arrays), summed by _step_matrices, with the
    given stationary law.  Every caller refused the support past
    DENSE_GUARD first."""
    return Kernel(support, _step_matrices(*arrays), stationary=stationary)


def _step_matrices(to, prob):
    """The matrices (..., m, m) of one step at a uniform site of law arrays
    (..., m, s, a), to giving each successor's position among the m states
    of its matrix.

    Entry (i, j) sums prob / s over the (site, value) pairs of row i that
    lead to j; np.add.at adds in the flattened (matrix, row, site, value)
    order, so each entry is the sum a loop over rows, sites and values
    would form, in the same order (a zero-probability pair adds 0.0 to the
    diagonal)."""
    *lead, m, s, _ = to.shape
    rows = np.arange(math.prod(lead) * m).reshape(*lead, m, 1, 1)
    mats = np.zeros(rows.size * m)
    np.add.at(mats, (rows * m + to).ravel(), (prob / s).ravel())
    return mats.reshape(*lead, m, m)


def _dense_guard(k):
    """Refuse a dense kernel over k states past DENSE_GUARD: the one owner
    of the dense guard."""
    if k > DENSE_GUARD:
        raise ValueError(f"a dense kernel over k = {k} states exceeds the "
                         f"guard of {DENSE_GUARD} ({8 * k * k >> 20} MiB "
                         "per matrix)")


def glauber_kernel(model) -> Kernel:
    """Single-site heat-bath kernel: uniform site choice, conditional
    resample, the law evaluated once per (site, fiber): Tables.gker.  A
    lifted model's is derived from its base's table (Tables.lker of the
    base and theta), the same matrix and stationary law, bit for bit."""
    if isinstance(model, LiftedModel):
        return Tables(model.base, model.theta).lker
    return Tables(model).gker


def freeze_kernel(lifted: LiftedModel, support: Poset,
                  stationary) -> Kernel:
    """Contract-then-lift kernel over the lifted support, with the given
    stationary law: from X, mass theta^{#1}(1-theta)^{#star} on every Y
    with the same contraction.  Tables.freeze builds it over Tables.lsup."""
    _dense_guard(support.size)
    if support.array.shape[1] > 62:  # one int64 bit per site
        raise ValueError("contraction codes are guarded to 62 sites")
    code = (support.array != 0) @ 2 ** np.arange(support.array.shape[1])
    mat = (code[:, None] == code) * _lift_weights(support, lifted.theta)
    return Kernel(support, mat, stationary=stationary)


def fd_kernel(model, theta) -> Kernel:
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
    return Tables(model, theta).fker


def _check_theta(theta):
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0,1)")


def _slice_law(w):
    """A pinned slice's law: w over its sum, refused if that is 0."""
    z = w.sum()
    if z == 0.0:
        raise ValueError("tilted weights underflow to 0 on a pinned slice")
    return w / z


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
        nxt = out[-1] @ ker.matrix
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
    entry, and np.bincount adding in support order, the freeze kernel,
    Tables.lift and Tables.contract equal those loops bit for bit."""
    w = mass * np.ones(support.size)
    for col in np.array([1.0, theta, 1 - theta])[support.array].T:
        w = w * col
    return w


def _lifts(bin_support: Poset) -> Poset:
    """Every lift of every state of the binary support, each 1 kept or
    made a STAR, in the lexicographic order of enumerate_support (0 < 1 <
    STAR): the lifted model's support, whose states are exactly
    the lifts of the base's.  Only dense kernels read it, so it is refused
    past DENSE_GUARD before it is built."""
    arr = bin_support.array
    ones = arr == 1
    fan = 1 << ones.sum(axis=1)
    _dense_guard(int(fan.sum()))
    base = np.repeat(np.arange(bin_support.size), fan)
    # lift j of a state stars the ones whose rank among its ones is a set
    # bit of j
    j = np.arange(base.size) - np.repeat(np.cumsum(fan) - fan, fan)
    rank = np.where(ones, np.cumsum(ones, axis=1) - 1, 0)[base]
    star = ones[base] & ((j[:, None] >> rank) & 1 == 1)
    lifted = np.where(star, STAR, arr[base]).astype(np.int8)
    return Poset.from_array(lifted[np.argsort(state_codes(lifted))])


# ---------------------------------------------------------------------------
# the derived tables of one model


class Tables:
    """What the exact layer derives from one model and, for its lift and
    its tilt, one theta, each table built on first use, at most once, from
    the ones it reads: the model's conditional is evaluated once per (site,
    fiber) of its support, one call per site, and its log weight once per
    candidate state, one call per block, as the support is enumerated; the
    lifted and tilted tables are derived from those.

    `support`, enumerated under ENUM_GUARD, is not refused by size;
    `dense`, which every base kernel reads, is the same support refused
    past DENSE_GUARD before any law is evaluated over it, and the lifted
    support `lsup` is refused as it is taken."""

    def __init__(self, model, theta=None):
        self.model, self.theta = model, theta

    _weighted = cached_property(lambda t: _weighted_support(t.model))
    support = cached_property(lambda t: t._weighted[0])
    # the log weight of each support state, the one its enumeration evaluated
    lws = cached_property(lambda t: t._weighted[1])

    @cached_property
    def dense(self) -> Poset:
        _dense_guard(self.support.size)
        return self.support

    mu = cached_property(lambda t: _normalized(t.lws))
    # the heat-bath law over the support, one conditional per (site, fiber)
    table = cached_property(lambda t: _site_conditionals(t.model, t.support))
    arrays = cached_property(lambda t: _heat_bath(t.dense, t.table))
    gker = cached_property(lambda t: _law_kernel(t.arrays, t.dense, t.mu))

    lifted = cached_property(lambda t: LiftedModel(t.model, t.theta))

    @cached_property
    def lsup(self) -> Poset:
        """The _lifts of the support, the lift's candidates refused past
        ENUM_GUARD first as its own enumeration refuses them.  Refused past
        DENSE_GUARD."""
        _check_guard(self.lifted)
        return _lifts(self.support)

    # the index in the support of each lifted state's contraction
    index = cached_property(lambda t: t.support.lookup(
        state_codes(np.minimum(t.lsup.array, 1))))
    lsites = cached_property(lambda t: _lift_sites(t.lsup, t.table, t.index))
    larrays = cached_property(
        lambda t: _lifted_heat_bath(t.lifted, t.lsup, t.lsites))
    sarrays = cached_property(
        lambda t: _star_frozen(t.lifted, t.lsup, t.lsites))
    lmu = cached_property(lambda t: _normalized(lift_log_weight(
        t.lws[t.index], (t.lsup.array == 1).sum(axis=1),
        (t.lsup.array == STAR).sum(axis=1), t.lifted.theta)))
    lker = cached_property(lambda t: _law_kernel(t.larrays, t.lsup, t.lmu))
    freeze = cached_property(lambda t: freeze_kernel(t.lifted, t.lsup, t.lmu))
    starg = cached_property(lambda t: _law_kernel(t.sarrays, t.lsup, t.lmu))

    def lift(self, probs) -> np.ndarray:
        """Pushforward of a law over the support under the randomized lift:
        each lifted state gets its contraction's mass times its lift weight
        (+0.0 if 0)."""
        mass = np.asarray(probs, dtype=float)[self.index]
        return np.where(mass == 0, 0.0,
                        _lift_weights(self.lsup, self.theta, mass))

    def contract(self, probs) -> np.ndarray:
        """Pushforward of a law over the lifted support under the
        contraction."""
        return np.bincount(self.index, probs, minlength=self.support.size)

    tilted = cached_property(lambda t: tilt(t.model, t.theta))
    # whether the tilt's tables derive from the model's: it is a TiltedModel
    # of the model.  Other tilts (of a hard-core or a tilted model) are
    # evaluated
    derives_tilt = cached_property(lambda t: isinstance(t.tilted, TiltedModel)
                                   and t.tilted.base is t.model)

    @cached_property
    def tilted_lws(self) -> np.ndarray:
        """The tilt's log weight of each support state: tilt_log_weight of
        lws where derives_tilt, else evaluated by one call over the support."""
        if self.derives_tilt:
            return tilt_log_weight(self.lws,
                                   (self.support.array == 1).sum(axis=1),
                                   self.tilted.theta)
        return self.tilted.log_weight(self.support.array)

    tilted_weights = cached_property(lambda t: _weights(t.tilted_lws))
    # the feasible all-1 pinned slices of the dense support, by _one_slices
    one_slices = cached_property(
        lambda t: list(_one_slices(t.dense.array == 1)))

    @cached_property
    def fker(self) -> Kernel:
        """fd_kernel over the support, theta and the variables refused
        first, with the model's stationary law."""
        theta, n = self.theta, self.model.n_vars
        _check_theta(theta)
        if n > 20:
            raise ValueError("field-dynamics kernel is guarded to 20 "
                             "variables")
        support = self.dense
        k, w = support.size, self.tilted_weights
        ones = support.array == 1
        count = ones.sum(axis=1)
        move = np.array([[theta ** (c - r) * (1 - theta) ** r if r <= c
                          else 0.0 for r in range(n + 1)]
                         for c in range(n + 1)])
        mat = np.zeros((k, k))
        for kept, idx in self.one_slices:
            # in row blocks, so that no temporary exceeds _FD_BLOCK_ENTRIES
            rows, to = move[count[idx], len(kept)], _slice_law(w[idx])
            per = max(1, _FD_BLOCK_ENTRIES // idx.size)
            for a in range(0, idx.size, per):
                mat[np.ix_(idx[a:a + per], idx)] += np.outer(rows[a:a + per],
                                                             to)
        return Kernel(support, mat, stationary=self.mu)

    def monotone_system(self):
        """check_monotone_system, refused past _MONOTONE_VARS variables
        first, from the table: the keys of a site are its fibers, in the
        order of their first states, each with its one conditional."""
        model = self.model
        if model.n_vars > _MONOTONE_VARS:
            raise ValueError(f"guarded to {_MONOTONE_VARS} variables")
        chain = Poset(tuple((a,) for a in model.alphabet))
        support = self.support
        for fib, cond in self.table:
            others = support.array[fib.first]
            others[:, fib.site] = 0
            keys = Poset(tuple(map(tuple, others.tolist())))
            fail = _first_unordered(cond, keys, chain)
            if fail is not None:
                lo, hi = fib.first[fail[0]], fib.first[fail[1]]
                return False, (fib.site, support.states[lo],
                               support.states[hi])
        return True, None


# ---------------------------------------------------------------------------
# divergences and checks


def tv_distance(nu, mu) -> float:
    nu = np.asarray(nu, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return 0.5 * np.abs(nu - mu).sum()


def kl_divergence(nu, mu) -> float:
    """KL(nu || mu) with 0 log 0 = 0; +inf if nu charges a mu-null state.
    Each ratio is a float division, which overflows to inf without the
    warning a numpy scalar division prints."""
    total = 0.0
    for a, b in zip(nu, mu):
        if a == 0.0:
            continue
        if b == 0.0:
            return math.inf
        total += a * math.log(float(a) / float(b))
    return total


def check_detailed_balance(kernel: Kernel, probs=None) -> float:
    """Max violation of mu(x)P(x,y) = mu(y)P(y,x) over all pairs."""
    mu = kernel.stationary if probs is None else np.asarray(probs, float)
    flux = mu[:, None] * kernel.matrix
    return float(np.max(np.abs(flux - flux.T)))


def _cover_block(target: Poset):
    """Covers per stack of _first_unordered over target: as many as keep
    the stack's widest array within _COVER_STACK_ENTRIES, and at least
    PAIR_BLOCK."""
    ups = target.up_set_matrix
    width = max(target.size, 0 if ups is None else len(ups))
    return max(PAIR_BLOCK, _COVER_STACK_ENTRIES // width)


def _first_unordered(laws, index: Poset, target: Poset):
    """First pair i < j of the poset index, in row-major order, with laws[i]
    not <=_sd laws[j] over target, as (i, j, witness up-set), or None; row i
    of laws is the law at state i of index.

    <=_sd is transitive, so the covers of index are tested first, each at
    1/height of the integer slack (stochastic_dominance with split), so that
    every comparable pair passes at PROB_TOL.  Only if a cover fails, or a
    law is not a probability vector, does the scan over every comparable
    pair run; it alone gives the verdict and the witness, or raises.  So
    a failing cover stack stops nothing early, and the stacks are as large
    as _cover_block allows."""
    covers = index.covers
    if not len(covers):  # no comparable pair
        return None
    block = _cover_block(target)
    stacks = (laws[covers[c:c + block].T]
              for c in range(0, len(covers), block))
    try:
        if all(stochastic_dominance(*stack, target, split=index.height)[0]
               for stack in stacks):
            return None
    except ValueError:
        pass
    pairs = np.argwhere(index.leq_matrix()
                        & ~np.eye(index.size, dtype=bool)).tolist()
    fail = first_dominance_failure(((laws[i], laws[j]) for i, j in pairs),
                                   target)
    if fail is None:
        return None
    r, wit = fail
    return (*pairs[r], wit)


def check_stochastic_monotonicity(kernel: Kernel):
    """Rows at comparable states must be stochastically ordered; tested
    over covers first by _first_unordered.

    Returns (True, None) or (False, (state_lo, state_hi, up_set))."""
    sup = kernel.support
    fail = _first_unordered(kernel.matrix, sup, sup)
    if fail is None:
        return True, None
    i, j, wit = fail
    return False, (sup.states[i], sup.states[j], wit)


def check_monotone_system(model):
    """Single-site conditionals must be stochastically increasing in the
    conditioning configuration, over all feasible full pinnings of the other
    coordinates (keys), tested per site by _first_unordered
    (Tables.monotone_system).

    Returns (True, None) or (False, (v, state_lo, state_hi))."""
    return Tables(model).monotone_system()


def check_mc_leq(p: Kernel, q: Kernel, mu=None):
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
        ok, wit = stochastic_dominance(nus @ p.matrix, nus @ q.matrix, poset)
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


def check_site_mc_leq(model, laws, site, support: Poset, mu):
    """check_mc_leq(P, Q, mu) for the kernels P and Q of one step at
    `site` over the support of two laws, given as law arrays laws =
    [(succ, prob), (succ, prob)], each (k, 1, a) for the model's a values
    (the site's column of _site_arrays; _law_kernel sums P and Q from
    them), decided fiber by fiber in O(k) without either kernel.  Arrays
    of another shape, or with a successor outside [0, k), are refused.

    A fiber is one configuration of the other sites.  P and Q move the
    site only, so within fibers, and an up-set meets a fiber f in a suffix
    of the chain of its values at the site.  For a ray U (mu on an up-set,
    of mass mu(U) > 0) and an up-set V meeting f in the suffixes s_f, c_f:

        mu(U) (nu_U P - nu_U Q)(V) = sum_f S(f, s_f, c_f),
        S(f, s, c) = sum of mu(x) T(x, c) over x in f with x_site >= s,

    with T(x, c) = P(x, values >= c) - Q(x, values >= c) the tail
    difference.  The certificate is max_c S(f, s, c) <= h mu(f, s) for
    every fiber f and suffix s, with mu(f, s) the suffix's mass and h =
    _FIBER_SHARE * tol, tol = PROB_TOL the tolerance of check_mc_leq (an
    empty suffix of V gives 0).  Summed over the fibers U meets, every ray
    and up-set V then have (nu_U P - nu_U Q)(V) <= h.

    Proof that a certificate implies check_mc_leq's integer-slack pass.
    Let u = 2^-53 and SC = _FLOW_SCALE units per unit of mass (SC u <
    1/8), and e_P, e_Q the largest |row sum - 1| of P and Q.  The fast path
    applies where every law probability and mu are >= 0 and every law
    sums to within PROB_TOL/2 of 1 (k <= DENSE_GUARD, refused first); a
    law's (state, value) entry is then the kernel entry (_site_tails), and,
    as tol = PROB_TOL <= 1e-6, the terms of second order in u, tol, e_P and
    e_Q below add under a unit.
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
    2. an uncertified fiber, on at most UP_SET_ELEMENTS elements (the most
       whose rays check_mc_leq enumerates): the same, for the same
       verdict, witness and messages;
    3. on more: the ray of the up-closure U of the first uncertified
       suffix is tested by stochastic_dominance over every up-set V (the
       up-closures of the fiber's suffixes among them), and (U,
       "extreme-ray") is the witness if it fails;
    4. otherwise a ValueError naming the fiber.

    Returns (True, None) or (False, (up_set, "extreme-ray"))."""
    _dense_guard(support.size)
    k, a = support.size, len(model.alphabet)
    for succ, prob in laws:
        if (succ.shape != (k, 1, a) or prob.shape != (k, 1, a)
                or succ.min() < 0 or succ.max() >= k):
            raise ValueError(
                f"check_site_mc_leq takes law arrays of shape (k, 1, a) = "
                f"{(k, 1, a)} with successors in [0, {k}); got succ of "
                f"shape {succ.shape} and prob of shape {prob.shape}")
    mu = np.asarray(mu, dtype=float)
    budget = (1 - _FIBER_SHARE) * PROB_TOL * _FLOW_SCALE - (k + 48) / 8
    bad = None
    if budget >= 0 and np.all(mu >= 0):
        tails = [_site_tails(succ, prob, support, site, a)
                 for succ, prob in laws]
        dev = np.abs(np.array([t[:, 0] for t in tails]) - 1).max(axis=1)
        if (all(np.all(prob >= 0) for _, prob in laws)
                and np.all(dev <= PROB_TOL / 2)
                and _FLOW_SCALE * dev.sum() <= budget):
            at = support.array[:, site]
            rest = np.delete(support.array, site, axis=1)
            _, fiber = np.unique(state_codes(rest), return_inverse=True)
            # mass and tail difference per (fiber, value at the site); the
            # suffix sums run down from the top, so column j is the suffix
            # of the values >= a - 1 - j
            cells = np.zeros((fiber.max() + 1, a))
            cells[fiber, at] = mu
            diff = np.zeros(cells.shape + (a,))
            diff[fiber, at] = tails[0] - tails[1]
            sums = np.cumsum((cells[:, :, None] * diff)[:, ::-1], axis=1)
            mass = np.cumsum(cells[:, ::-1], axis=1)
            bad = sums.max(axis=2) > _FIBER_SHARE * PROB_TOL * mass
            if not bad.any():
                return True, None
    if bad is None or k <= UP_SET_ELEMENTS:
        return check_mc_leq(*(_law_kernel(law, support, mu) for law in laws),
                            mu)
    f, s = np.argwhere(bad)[0]
    seed = np.flatnonzero((fiber == f) & (at >= a - 1 - s))
    row = np.zeros(k)
    row[list(support.up_closure(seed))] = 1.0
    nu = row * mu / (row @ mu)
    images = [np.bincount(succ.ravel(), (nu[:, None, None] * prob).ravel(),
                          minlength=k) for succ, prob in laws]
    if not stochastic_dominance(*images, support)[0]:
        return False, (up_set_of_row(support, row), "extreme-ray")
    x = support.states[seed[0]]
    raise ValueError(
        f"single-vertex-mc at site {site}: fiber "
        f"{state_str(x[:site])}_{state_str(x[site + 1:])} is not certified "
        f"and the ray of its up-closure passes; {k} > {UP_SET_ELEMENTS} "
        "elements are too many to enumerate the rays")


# ---------------------------------------------------------------------------
# mixing times


# the mixing loop compares a step with the one before it this often
_FIXED_POINT_EVERY = 1024
# the most steps a mixing time runs before it is refused
_MIXING_CAP = 10 ** 6
# the unit roundoff of a float
_UNIT = sys.float_info.epsilon / 2


def _check_eps(eps):
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")


def _mixing_times(mats, mus, eps, cap, floor=0):
    """Worst-start mixing times of a stack of chains: for each kernel of
    mats (g, m, m), with stationary law mus (g, m), the smallest t with
    every row of P^t at TV <= eps from stationarity, as the step loop
    _stepped_times gives it from every state, refusals included; except
    that a chain whose time is at most floor may get floor.

    Step 0 is the loop's own: its test, then its refusal of the chains
    farther than eps.  If 1 <= floor <= min(cap, _FIXED_POINT_EVERY), a
    far chain whose worst TV of P^floor is at most eps less _power_margin
    gets floor (the loop's TV at floor is within eps) and leaves the stack.
    The rest are bracketed: P, P^2, P^4, ... until every chain is within
    eps or the power reaches min(cap, _FIXED_POINT_EVERY).  From its last
    power P^h still farther than eps, a chain then steps on by P, and its t
    is the first step within eps, or 2h.  Every TV compared with eps must
    clear it by _power_margin at the last power, so that the step loop's TV
    at t is within eps, and at t - 1, hence (by the margin's (c)) at every
    step before, above it.

    A chain not within eps by the limit, whose t exceeds the limit, or with
    a TV inside its margin runs the step loop.  Every other chain has t <=
    cap and t <= _FIXED_POINT_EVERY, past its refusal at step 0, so it
    could not raise in the loop: running the rest alone raises the loop's
    first refusal, and gives each of their times.

    Holds the kernels and at most three stacks of the same size."""
    g, m = len(mats), mats.shape[-1]
    ts = np.zeros(g, dtype=int)
    mus, eye = mus[:, None, :], np.eye(m)
    live = np.flatnonzero(_worst_tv(eye, mus) > eps)
    if live.size < g:
        mats, mus = mats[live], mus[live]
    _refuse_unreachable(mats, eye, mus, eps, cap, 0)
    limit = min(cap, _FIXED_POINT_EVERY)
    if live.size and 1 <= floor <= limit:
        ok = (_worst_tv(_power(mats, floor), mus)
              <= eps - _power_margin(mats, mus, eps, floor))
        ts[live[ok]] = floor
        if ok.any():
            live, mats, mus = live[~ok], mats[~ok], mus[~ok]
    if not live.size:
        return ts
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
    last = None
    sure = ~far & (t <= limit) & (gap > _power_margin(mats, mus, eps, p))
    ts[live[sure]] = t[sure]
    if not sure.all():
        ts[live[~sure]] = _stepped_times(mats[~sure], mus[~sure, 0], eps, cap)
    return ts


def _stepped_times(mats, mus, eps, cap, cur=None):
    """Exact mixing times of a stack of chains by the step loop: for each
    kernel of mats (g, m, m), with stationary law mus (g, m) and start laws
    cur (g, s, m), one row per start (by default one per state: the worst
    start), the smallest t with every row at TV <= eps from stationarity.
    Each chain stops at its own t; matmul multiplies a stack slice by
    slice, so a chain's products, and its t, are those of a loop over it
    alone.

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
    at every step before t.  _mixing_times is its one caller: at horizon
    floor for its floor certificate, and at its last power for its
    bracket.

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
        of the exact one, with |x|_1 <= R^t + E.  So _mixing_times's TV and
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


def exact_mixing_time(kernel: Kernel, x0=None, eps=0.25,
                      cap=_MIXING_CAP) -> int:
    """Smallest t with TV(law at t, stationary) <= eps, by exact propagation.

    x0 is a start state (tuple), whose time the step loop _stepped_times
    gives, or None for the worst case over all starts, which _mixing_times
    gives; both with their refusals."""
    _check_eps(eps)
    mats, mus = kernel.matrix[None], kernel.stationary[None]
    if x0 is None:
        return int(_mixing_times(mats, mus, eps, cap)[0])
    start = point_mass(kernel.support, x0)[None, None]
    return int(_stepped_times(mats, mus, eps, cap, start)[0])


def _tilted_slices(tables: Tables):
    """The Glauber kernels of the tilted model on its feasible all-1 pinned
    slices, as stacks of equal-size slices of at most k^2 matrix entries in
    all (k the support size), built one stack at a time by _slice_stack.
    Yields (pinned, sel, mats, mus): the pinned site sets (tuples), sel
    (g, m) the slices' state indices in the support, mats (g, m, m) their
    row-checked kernels and mus (g, m) their stationary laws.

    The tilt is made (and refused) first, then the support is taken as
    Tables.dense.  The slices are Tables.one_slices of the model's
    support, which the tilt keeps state for state, and read the tilted log
    weights.  Where Tables.derives_tilt, models.tilted_probs tilts each
    fiber's conditional of the model's table; other tilts are evaluated.
    Each slice's kernel and stationary law equal the pinned tilted model's
    bit for bit."""
    tilted, support = tables.tilted, tables.dense
    if tables.derives_tilt:
        succ, prob = _heat_bath(support, [
            (fib, np.stack(tilted_probs(tilted.theta, *cond.T), axis=-1))
            for fib, cond in tables.table])
    else:
        succ, prob = _heat_bath(support, _site_conditionals(tilted, support))
    k, lws = support.size, tables.tilted_lws
    by_size = {}
    for pinned, idx in tables.one_slices:
        by_size.setdefault(idx.size, []).append((pinned, idx))
    for m, slices in by_size.items():
        per = max(1, k * k // (m * m))
        for c in range(0, len(slices), per):
            yield _slice_stack(slices[c:c + per], succ, prob, lws)


def _slice_stack(slices, succ, prob, lw):
    """(pinned, sel, mats, mus) of _tilted_slices for the equal-size slices
    [(pinned sites, state indices), ...] of the law arrays succ, prob of a
    support with log weights lw.

    A slice's kernel takes its states' rows of the law arrays, holds each
    pinned site (its own index with prob 1, as the pinned model's
    conditional gives it) and sums them by _step_matrices; its stationary
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
    mats = _step_matrices(local[np.arange(g)[:, None, None, None], to], pr)
    _check_rows(mats)
    return pinned, sel, mats, np.array([_normalized(lw[r]) for r in sel])


def tilted_mixing_time(tables: Tables, eps) -> int:
    """Worst Glauber mixing time of the tilt of the tables' model by their
    theta over all feasible all-1 pinnings, maximized over starting states:
    the largest time _mixing_times gives a chain of the stacks of
    _tilted_slices.

    Only the largest time is needed, so each stack runs _mixing_times with
    the largest time so far as its floor: the first stack (the full slice)
    gives a time, and a later stack's chain certified at the floor needs
    nothing more."""
    _check_eps(eps)
    best = 0
    for _, _, mats, mus in _tilted_slices(tables):
        best = max(best, int(_mixing_times(mats, mus, eps, _MIXING_CAP,
                                           best).max()))
        del mats, mus  # let the stack go before the next one is built
    return best


def comparison_times(model, theta, eps):
    """(t_gd_ones, t_fd_ones, t_fd_worst, t_tilted, product_bound) of the
    comparison t_gd <= t_fd * t_tilted of Glauber with field dynamics (Chen,
    Liu and Yin, FOCS'23): Glauber from the all-1 state at eps, field
    dynamics from the all-1 state and the worst start at eps / 2, the
    tilted-and-pinned time at eps / (2 max(t_fd_worst, 1)) and the bound
    t_fd_worst * t_tilted.  The support is refused past DENSE_GUARD, then
    eps, a support without the all-1 state and theta, before any law is
    evaluated; the laws are those of one Tables."""
    tables = Tables(model, theta)
    sup = tables.dense
    _check_eps(eps)
    ones = tuple([1] * model.n_vars)
    point_mass(sup, ones)
    _check_theta(theta)
    t_gd = exact_mixing_time(tables.gker, ones, eps)
    t_fd_ones = exact_mixing_time(tables.fker, ones, eps / 2)
    t_fd = exact_mixing_time(tables.fker, None, eps / 2)
    t_tilted = tilted_mixing_time(tables, eps / (2 * max(t_fd, 1)))
    return t_gd, t_fd_ones, t_fd, t_tilted, t_fd * t_tilted


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
