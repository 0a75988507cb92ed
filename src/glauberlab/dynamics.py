"""Monte Carlo samplers: single-site Glauber, field dynamics, the
lift/contract simulation run, and censored Glauber, with deterministic
replayable trajectories."""

from __future__ import annotations

import math
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .exact import _tilted_weights, enumerate_support
from .ordercore import contract, lift, state_str
from .models import LiftedModel, heat_bath_law, star_frozen_law


def make_rng(seed, chain_index=0, purpose=""):
    """Derive an independent substream from (seed, chain index, purpose tag)."""
    tag = zlib.crc32(purpose.encode())
    ss = np.random.SeedSequence([int(seed) & (2 ** 64 - 1), int(chain_index), tag])
    return np.random.Generator(np.random.PCG64(ss))


# filled site slots of a run's state graph; beyond it the graph is dropped
_SITE_TABLE_SIZE = 2 ** 14


def _cumulative(probs):
    """Running sums of probs, added left to right from 0.0, with the last
    one replaced by infinity: bisecting a uniform to the right then gives
    the first index whose sum exceeds it, or the last index if none does."""
    acc, out = 0.0, []
    for p in probs:
        acc += p
        out.append(acc)
    out[-1] = math.inf
    return tuple(out)


def _sample_from(probs, rng):
    return bisect_right(_cumulative(probs), rng.random())


@dataclass
class ChainRun:
    """A completed run: initial state, per-step assignment log, and the states
    recorded at requested times.  Replaying the log reproduces every recorded
    state exactly."""

    model: object
    x0: tuple
    seed: int
    steps: int
    recorded: dict = field(default_factory=dict)
    log: list = field(default_factory=list)  # entries (t, var, value)
    final: tuple = None

    def replay(self):
        """Recompute the recorded states from the assignment log alone."""
        state = list(self.x0)
        out = {}
        by_time = {}
        for t, v, val in self.log:
            by_time.setdefault(t, []).append((v, val))
        done = 0
        for t in sorted(self.recorded):
            for u in range(done + 1, t + 1):
                for v, val in by_time.get(u, ()):
                    state[v] = val
            done = max(done, t)
            out[t] = tuple(state)
        return out

    def dump_trajectory(self) -> str:
        """`t<TAB>state` lines in time order.  Each distinct state is
        rendered once, and the text is one join over interleaved time and
        state pieces; a run with no recorded state gives one empty line."""
        rec = self.recorded
        text = {s: f"\t{state_str(s)}\n" for s in set(rec.values())}
        times = sorted(rec)
        parts = [""] * (2 * len(times))
        parts[0::2] = map(str, times)
        parts[1::2] = map(text.__getitem__, map(rec.__getitem__, times))
        return "".join(parts) or "\n"


def _new_run(model, x0, seed, steps, record_at):
    """An empty run from the feasible start x0, recorded at time 0 if asked;
    returned with the record times as a set."""
    x0 = tuple(x0)
    if not set(x0) <= set(model.alphabet):
        raise ValueError("infeasible start: values outside the model alphabet")
    if len(x0) != model.n_vars or model.log_weight(x0) is None:
        raise ValueError("infeasible start: the start state has weight 0")
    record_at = set(record_at)
    run = ChainRun(model, x0, seed, steps)
    if 0 in record_at:
        run.recorded[0] = x0
    return run, record_at


class _SiteGraph:
    """A run's site-update law as a graph over the states it visits, held
    as its nodes by state tuple and its count of filled slots.

    A node is a list: n site slots, then its state tuple.  The first use of
    slot v calls the law once and fills the slot with (values, cumulative
    probabilities (`_cumulative`), successor nodes, whether there is more
    than one value); a step then follows a pointer and hashes no tuple.
    Beyond _SITE_TABLE_SIZE filled slots, the next fill drops the whole
    graph and starts again at a fresh node for the current state, so no old
    node stays reachable.  The law is deterministic, so dropping changes no
    draw."""

    def __init__(self, law):
        self.law = law
        self.nodes, self.filled = {}, 0

    def node(self, state):
        """The node of the state tuple, new if the graph has none."""
        node = self.nodes.get(state)
        if node is None:
            node = self.nodes[state] = [None] * len(state) + [state]
        return node

    def fill(self, node, v):
        """Fill slot v of node; returns (node, slot), with node the fresh
        one for the same state if the graph was dropped."""
        if self.filled >= _SITE_TABLE_SIZE:
            self.nodes, self.filled = {}, 0
            node = self.node(node[-1])
        state = node[-1]
        values, probs = self.law(state, v)
        succ = [self.node(state[:v] + (val,) + state[v + 1:])
                for val in values]
        node[v] = slot = (values, _cumulative(probs), succ, len(values) > 1)
        self.filled += 1
        return node, slot


# raw words the single-site loop draws at most at once, and the uniform's
# scale 2^-53
_RAW_BLOCK = 2 ** 10
_TWO_TO_MINUS_53 = 2.0 ** -53


def _draw_block(bits, steps, n, reject_below):
    """Raw words for at most `steps` more steps (one uniform and, for n > 1,
    one site half each), capped at _RAW_BLOCK, decoded once into lists:
    (low-half sites, high-half sites, high halves, uniforms).  A half draws
    the site (half * n) >> 32 by Lemire's method, or -1 if the low word of
    half * n falls below 2^32 mod n (a rejection)."""
    words = bits.random_raw(
        min(_RAW_BLOCK, steps + (n > 1) * (steps + 1) // 2))
    unif = ((words >> 11) * _TWO_TO_MINUS_53).tolist()
    if n == 1:
        return (), (), (), unif
    high, low = np.divmod(words, 1 << 32)
    m = np.concatenate((low, high)) * n
    sites = (m >> 32).astype(np.int64)
    sites[(m & 0xFFFFFFFF) < reject_below] = -1
    sites = sites.tolist()
    return sites[:len(words)], sites[len(words):], high.tolist(), unif


def _site_steps(graph, state, rng, t0, steps, run=None, record_at=(),
                allowed=None):
    """Advance the state tuple by single-site steps t0+1..t0+steps and return
    it: pick a uniform site and, if `allowed(step - 1)` contains it, redraw it
    from the state `graph` (`_SiteGraph`).  A law with a single outcome
    draws no uniform and writes no log entry.  With a run, each redraw is
    logged and the states at record_at are recorded.

    rng must be a `make_rng` generator (numpy's PCG64): the raw PCG64 stream
    defines the draws.  They are decoded from raw 64-bit words of its
    `bit_generator.random_raw` the way `rng.integers(n)` draws the site and
    `rng.random()` the uniform, one call each per step:

    - site: Lemire's method on 32-bit halves (n < 2^32, as for any state
      tuple).  A word gives its low half first and keeps the high half as
      the spare, carried in the generator's `has_uint32` / `uinteger`; a
      low product below 2^32 mod n is rejected and drawn again.  n = 1
      draws nothing.
    - uniform: `(w >> 11) * 2^-53` of the next word.

    Words are drawn in blocks of at most what the remaining steps can use
    (one uniform and one site half per step), capped at _RAW_BLOCK, and
    each block is decoded once in numpy (`_draw_block`) into lists of
    low-half sites, high-half sites, high halves and uniforms that the loop
    only indexes.  On return the unused words of the last block are handed
    back by `bit_generator.advance(2**128 - unused)`; then `has_uint32` and
    `uinteger` are written (advance clears both, and numpy keeps the last
    high half in `uinteger` after using it), so the generator is the one
    the per-call draws leave."""
    n = len(state)
    bits = rng.bit_generator
    entry = bits.state
    has, spare = entry["has_uint32"], entry["uinteger"]
    sites = n > 1
    reject_below = (1 << 32) % n
    if sites and has:
        m = spare * n
        spare_site = m >> 32 if (m & 0xFFFFFFFF) >= reject_below else -1
    lo, hi, high, unif, i, nw = (), (), (), (), 0, 0
    node = graph.node(state)
    log = run.log.append if run is not None else None
    recorded = run.recorded if run is not None else None
    end = t0 + steps
    v = 0
    for t in range(t0 + 1, end + 1):
        if sites:
            v = -1
            while v < 0:
                if has:
                    has, v = 0, spare_site
                    continue
                if i == nw:
                    lo, hi, high, unif = _draw_block(bits, end - t + 1, n,
                                                     reject_below)
                    i, nw = 0, len(unif)
                v = lo[i]
                spare_site = hi[i]
                spare = high[i]
                has = 1
                i += 1
        if allowed is None or v in allowed(t - 1):
            slot = node[v]
            if slot is None:
                node, slot = graph.fill(node, v)
            values, cum, succ, multi = slot
            if multi:
                if i == nw:
                    lo, hi, high, unif = _draw_block(bits, end - t + 1, n,
                                                     reject_below)
                    i, nw = 0, len(unif)
                j = bisect_right(cum, unif[i])
                i += 1
                node = succ[j]
                if log is not None:
                    log((t, v, values[j]))
        if t in record_at:
            recorded[t] = node[n]
    if nw > i:
        bits.advance(2 ** 128 - (nw - i))
    if nw > i or (has, spare) != (entry["has_uint32"], entry["uinteger"]):
        st = bits.state
        st["has_uint32"], st["uinteger"] = has, spare
        bits.state = st
    return node[n]


def _heat_bath_run(model, x0, steps, seed, record_at, rng, allowed=None):
    run, record_at = _new_run(model, x0, seed, steps, record_at)
    run.final = _site_steps(_SiteGraph(heat_bath_law(model)), run.x0, rng, 0,
                            steps, run, record_at, allowed)
    return run


def glauber_run(model, x0, steps, seed, record_at=(), chain_index=0) -> ChainRun:
    """Heat-bath run: uniform site choice, exact conditional resample."""
    return _heat_bath_run(model, x0, steps, seed, record_at,
                          make_rng(seed, chain_index, "glauber"))


def _kept_ones(x, theta, rng):
    """Pins at 1 for the 1-sites of x, each kept with probability 1 - theta."""
    return {v: 1 for v in range(len(x)) if x[v] == 1 and rng.random() >= theta}


def _field_sampler(model, theta):
    """The exact field-dynamics step (x, rng) -> next state, drawing from the
    support table of model and its unnormalized theta-tilted weights
    (`exact._tilted_weights`)."""
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0,1)")
    support = enumerate_support(model)
    weights = _tilted_weights(model, theta, support)

    def step(x, rng):
        idx = np.flatnonzero(support.where(_kept_ones(x, theta, rng)))
        if not idx.size:
            raise ValueError("infeasible pin: the slice has empty support")
        w = weights[idx]
        z = w.sum()
        if z == 0.0:
            raise ValueError("tilted weights underflow to 0 on a pinned "
                             "slice")
        return support.states[idx[_sample_from(w / z, rng)]]

    return step


def field_dynamics_step(model, theta, x, rng):
    """One field-dynamics transition: every 0-site is freed, each 1-site is
    freed independently with probability theta; the freed set is resampled
    exactly from the tilted conditional."""
    return _field_sampler(model, theta)(x, rng)


def field_run(model, theta, x0, steps, seed, record_at=(),
              chain_index=0) -> ChainRun:
    """Field-dynamics run with exact inner resampling.  The log holds the
    coordinates each step changes."""
    step = _field_sampler(model, theta)
    rng = make_rng(seed, chain_index, "field")
    run, record_at = _new_run(model, x0, seed, steps, record_at)
    state = run.x0
    for t in range(1, steps + 1):
        nxt = step(state, rng)
        run.log.extend((t, v, b) for v, (a, b) in enumerate(zip(state, nxt))
                       if a != b)
        state = nxt
        if t in record_at:
            run.recorded[t] = state
    run.final = state
    return run


def simulate_algorithm(model, theta, t1, t2, seed, record_at=(),
                       chain_index=0):
    """The lift/contract simulation run.

    Start at lift(1_V).  Each of the t1 phases contracts, re-lifts, freezes
    the star set, and performs t2 single-site steps: a uniformly chosen
    star site is left alone (the step is still consumed), any other site is
    resampled from the theta-tilted base conditional.  Returns
    (ChainRun over ternary states, final contracted sample).
    """
    if t1 < 1 or t2 < 1:
        raise ValueError("t1 and t2 must be at least 1")
    rng = make_rng(seed, chain_index, "simulate")
    lifted = LiftedModel(model, theta)
    state = lift((1,) * model.n_vars, theta, rng)
    run, record_at = _new_run(lifted, state, seed, t1 * t2, record_at)
    table = _SiteGraph(star_frozen_law(lifted))
    for block in range(t1):
        t = block * t2
        # the relift belongs to the next step, so recorded states at block
        # boundaries are the pre-relift ones; the log timestamps reflect that
        relift = lift(contract(state), theta, rng)
        for v in range(model.n_vars):
            if relift[v] != state[v]:
                run.log.append((t + 1, v, relift[v]))
        state = _site_steps(table, relift, rng, t, t2, run, record_at)
    run.final = state
    return run, contract(state)


@dataclass(frozen=True)
class Schedule:
    """State-independent censoring rule: step index -> allowed update set."""

    rule: object  # callable t -> frozenset of variable indices
    name: str = "custom"

    def allowed(self, t) -> frozenset:
        return self.rule(t)

    @classmethod
    def always(cls, n):
        full = frozenset(range(n))
        return cls(lambda t: full, name="always")

    @classmethod
    def never(cls):
        empty = frozenset()
        return cls(lambda t: empty, name="never")

    @classmethod
    def two_level(cls, left, right, period, seed):
        """Bipartite two-level schedule: for each block of `period` steps an
        outer left vertex is drawn (from the schedule's own stream, so the
        rule depends only on (t, seed)); the allowed set is that vertex plus
        the whole right side."""
        if period < 1:
            raise ValueError(f"period must be at least 1, got {period}")
        left = tuple(left)
        right = frozenset(right)
        rng = make_rng(seed, 0, "schedule")
        cache = []  # the allowed set of each block drawn so far

        def rule(t):
            block = t // period
            while len(cache) <= block:
                cache.append(right | {left[int(rng.integers(len(left)))]})
            return cache[block]

        return cls(rule, name="two-level")


def censored_glauber(model, x0, schedule: Schedule, steps, seed,
                     record_at=(), chain_index=0) -> ChainRun:
    """Glauber with censoring: the chosen site is resampled only when the
    schedule allows it at that step; disallowed picks leave the state as is."""
    return _heat_bath_run(model, x0, steps, seed, record_at,
                          make_rng(seed, chain_index, "censored"),
                          schedule.rule)
