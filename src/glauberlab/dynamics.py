"""Monte Carlo samplers: single-site Glauber, field dynamics, the
lift/contract simulation run, and censored Glauber, with deterministic
replayable trajectories."""

from __future__ import annotations

import functools
import math
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .exact import enumerate_support
from .ordercore import contract, lift, state_str
from .models import LiftedModel, heat_bath_law, pin, star_frozen_law, tilt


def make_rng(seed, chain_index=0, purpose=""):
    """Derive an independent substream from (seed, chain index, purpose tag)."""
    tag = zlib.crc32(purpose.encode())
    ss = np.random.SeedSequence([int(seed) & (2 ** 64 - 1), int(chain_index), tag])
    return np.random.Generator(np.random.PCG64(ss))


# entries of a run's site-law table; beyond it the least recently used go
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
        text = {s: state_str(s) for s in set(self.recorded.values())}
        lines = [f"{t}\t{text[s]}" for t, s in sorted(self.recorded.items())]
        return "\n".join(lines) + "\n"


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


def _site_table(law):
    """The site-update law as a bounded table (state, v) -> (values,
    cumulative probabilities, successor state for each value); each entry
    calls the law once."""

    @functools.lru_cache(maxsize=_SITE_TABLE_SIZE)
    def lookup(state, v):
        values, probs = law(state, v)
        nxt = tuple(state[:v] + (val,) + state[v + 1:] for val in values)
        return values, _cumulative(probs), nxt

    return lookup


def _site_steps(table, state, rng, t0, steps, run=None, record_at=(),
                allowed=None):
    """Advance the state tuple by single-site steps t0+1..t0+steps and return
    it: pick a uniform site and, if `allowed(step - 1)` contains it, redraw it
    from the site-law `table`.  A law with a single outcome draws no uniform
    and writes no log entry.  With a run, each redraw is logged and the states
    at record_at are recorded."""
    n = len(state)
    integers, uniform = rng.integers, rng.random
    for t in range(t0 + 1, t0 + steps + 1):
        v = int(integers(n))
        if allowed is None or v in allowed(t - 1):
            values, cum, nxt = table(state, v)
            if len(values) > 1:
                i = bisect_right(cum, uniform())
                state = nxt[i]
                if run is not None:
                    run.log.append((t, v, values[i]))
        if t in record_at:
            run.recorded[t] = state
    return state


def _heat_bath_run(model, x0, steps, seed, record_at, rng, allowed=None):
    run, record_at = _new_run(model, x0, seed, steps, record_at)
    run.final = _site_steps(_site_table(heat_bath_law(model)), run.x0, rng, 0,
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
    support table of model and its unnormalized theta-tilted weights."""
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0,1)")
    support = enumerate_support(model)
    tilted = tilt(model, theta)
    weights = np.array([tilted.weight(s) for s in support.states])

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


def field_dynamics_step(model, theta, x, rng, inner="exact"):
    """One field-dynamics transition: every 0-site is freed, each 1-site is
    freed independently with probability theta; the freed set is resampled
    from the tilted conditional, exactly or by inner Glauber steps."""
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0,1)")
    if inner == "exact":
        return _field_sampler(model, theta)(x, rng)
    kind, t2 = inner
    if kind != "glauber":
        raise ValueError("inner mode must be 'exact' or ('glauber', steps)")
    m = pin(tilt(model, theta), _kept_ones(x, theta, rng))
    return _site_steps(_site_table(heat_bath_law(m)), tuple(x), rng, 0, t2)


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
    table = _site_table(star_frozen_law(lifted))
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
                          schedule.allowed)
