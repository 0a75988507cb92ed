"""Monte Carlo samplers: single-site Glauber, field dynamics, the
lift/contract simulation run, and censored Glauber, with deterministic
replayable trajectories.

A run is stored as columns: one int per step (the edge a single-site step
took, or the state a field step reached) over a table of the states the
run visited.  The assignment log, the recorded states and the trajectory
text are derived from them on first use."""

from __future__ import annotations

import gc
import math
import zlib
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain

import numpy as np

from .exact import Tables, _check_theta, _slice_law
from .ordercore import STAR, contract, lift, state_str
from .models import LiftedModel, heat_bath_law, star_frozen_law


def make_rng(seed, chain_index=0, purpose=""):
    """Derive an independent substream from (seed, chain index, purpose tag)."""
    tag = zlib.crc32(purpose.encode())
    ss = np.random.SeedSequence([int(seed) & (2 ** 64 - 1), int(chain_index), tag])
    return np.random.Generator(np.random.PCG64(ss))


# filled site slots of a run's state graph; beyond it the graph is dropped
_SITE_TABLE_SIZE = 2 ** 14
# slice entries a field run's table of pinned slices holds; beyond it the
# table is dropped
_FIELD_TABLE_SIZE = 2 ** 16


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


_NO_TIMES = np.zeros(0, np.int64)


def _record_times(record_at, steps):
    """The times of record_at in [0, steps], sorted and distinct, as an int64
    array.  A range is cut to [0, steps] before numpy expands it; any other
    iterable of ints is read once into a set."""
    if isinstance(record_at, range):
        r = record_at if record_at.step > 0 else record_at[::-1]
        r = r[max(0, -(r.start // r.step)):max(0, (steps - r.start) // r.step
                                                + 1)]
        return np.arange(r.start, r.stop, r.step, dtype=np.int64)
    times = sorted({t for t in record_at if 0 <= t <= steps})
    return np.array(times, np.int64) if times else _NO_TIMES


class ChainRun:
    """A completed run, held as columns.

    `path` holds one int per step.  For a single-site run it is the id of
    the edge the step took (`_SiteGraph`): on n sites, s (n + 1) + v + 1
    for a redraw of site v into the state of id s, or s (n + 1) for a step
    that left the state s as it was.  For a field run (`field`) it is the
    id of the state the step reached.  `states` holds the state tuples by
    id, with the start x0 at `start_id`; `relifts` holds the simulation
    run's relift entries (t, var, value) and `times` the record times,
    sorted and distinct in [0, steps].

    The assignment log, the recorded states, the trajectory text and the
    recorded state rows are derived on first use, so a run pays for none of
    them until they are read.  Replaying the log reproduces every recorded
    state exactly."""

    def __init__(self, model, x0, seed, steps, times, states, path,
                 field=False, relifts=(), start_id=0, final=None):
        self.model, self.x0, self.seed, self.steps = model, x0, seed, steps
        self.times, self.states, self.path = times, states, path
        self.field, self.relifts, self.start_id = field, relifts, start_id
        self.final = final

    @cached_property
    def _columns(self):
        """(ids, site): the state id at every time 0..steps and, for a
        single-site run, the site each step redrew (-1: none), as int64
        arrays; site is None for a field run."""
        ids = np.fromiter(chain((self.start_id,), self.path), np.int64,
                          len(self.path) + 1)
        site = None
        if not self.field:
            site = np.empty(len(self.path), np.int64)
            np.divmod(ids[1:], len(self.x0) + 1, out=(ids[1:], site))
            site -= 1
        return ids, site

    @cached_property
    def _table(self):
        """The state table as int8 rows, one per state id (STAR = 2)."""
        return np.array(self.states, np.int8).reshape(len(self.states),
                                                      len(self.x0))

    @cached_property
    def log(self):
        """Assignment entries (t, var, value) in time order: one per
        single-site redraw, after the relift entries of the same time, or
        one per coordinate a field step changes."""
        ids, site = self._columns
        if site is None:
            rows = self._table[ids]
            t, v = np.nonzero(rows[1:] != rows[:-1])
        else:
            t = np.flatnonzero(site >= 0)
            v = site[t]
        t += 1
        val = self._table[ids[t], v]
        if self.relifts:
            rt, rv, rval = np.array(self.relifts, np.int64).T
            order = np.argsort(np.concatenate((2 * rt, 2 * t + 1)),
                               kind="stable")
            t, v, val = (np.concatenate(pair)[order]
                         for pair in ((rt, t), (rv, v), (rval, val)))
        return list(zip(t.tolist(), v.tolist(), val.tolist()))

    @cached_property
    def recorded(self):
        """The recorded states by time."""
        ids = self._columns[0][self.times]
        return dict(zip(self.times.tolist(),
                        map(self.states.__getitem__, ids.tolist())))

    def one_counts(self):
        """How many recorded states have value 1 at each variable, as an
        int64 array: the count of each state id among the records times the
        state table's 1-entries."""
        ids = self._columns[0][self.times]
        return np.bincount(ids, minlength=len(self.states)) @ (
            self._table == 1)

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
        """`t<TAB>state` lines in time order, written into one byte array
        that is decoded once.  Each distinct recorded state is rendered once,
        as one `S{n + 2}` item (tab, state, newline).  Each run of times of
        one digit count w is one block of fixed-width records
        (`_line_record`): the time's digits in fields of at most four, read
        from `_digits`, then the gathered state item.  A run with no
        recorded state gives one empty line."""
        times = self.times
        if not times.size:
            return "\n"
        ids = self._columns[0][times]
        used = np.zeros(len(self.states), bool)
        used[ids] = True
        used = np.flatnonzero(used)
        row = np.zeros(len(self.states), np.intp)
        row[used] = np.arange(len(used))
        rows = row[ids]  # each recorded time's item of `rendered`
        text = "".join(f"\t{state_str(self.states[i])}\n"
                       for i in used.tolist())
        width = len(self.x0) + 2
        rendered = np.frombuffer(text.encode(), f"S{width}")
        digits = len(str(times[-1]))
        cuts = [0, *np.searchsorted(times, 10 ** np.arange(1, digits)),
                len(times)]
        out = np.empty(len(times) * width + sum(
            w * (cuts[w] - cuts[w - 1]) for w in range(1, digits + 1)),
            np.uint8)
        start = 0
        for w in range(1, digits + 1):
            a, b = cuts[w - 1], cuts[w]
            rec = _line_record(w, width)
            block = out[start:start + (b - a) * rec.itemsize].view(rec)
            rest = times[a:b]
            *low, high = rec.names[-2::-1]  # time fields, lowest first
            for name in low:
                rest, four = np.divmod(rest, 10_000)
                block[name] = _digits(4)[four]
            block[high] = _digits(rec[high].itemsize)[rest]
            block["state"] = rendered[rows[a:b]]
            start += block.nbytes
        return str(out, "ascii")


@cache
def _digits(d):
    """The d-digit decimal text, zero-padded, of each of 0 .. 10^d - 1, as
    one `S{d}` item each (d <= 4).  The table is allocated before its
    temporaries, so the allocator can hand their memory back."""
    text = np.empty((10 ** d, d), np.uint8)
    r = np.arange(10 ** d)
    for k in range(d):
        text[:, d - 1 - k] = r // 10 ** k % 10 + 48
    return text.view(f"S{d}").ravel()


def _line_record(w, width):
    """The fixed-width record of a trajectory line whose time has w digits:
    the time's digits in `S` fields of four, the first field holding the
    (w - 1) % 4 + 1 leading ones, then the `S{width}` state item."""
    first = (w - 1) % 4 + 1
    sizes = [first] + [4] * ((w - first) // 4)
    return np.dtype([(f"t{i}", f"S{d}") for i, d in enumerate(sizes)]
                    + [("state", f"S{width}")])


def _check_start(model, x0):
    """x0 as a tuple, if it is a feasible start of model."""
    x0 = tuple(x0)
    if len(x0) != model.n_vars:
        raise ValueError(f"infeasible start: the start state has {len(x0)} "
                         f"values for {model.n_vars} variables")
    if not set(x0) <= set(model.alphabet):
        raise ValueError("infeasible start: values outside the model alphabet")
    if model.log_weight(x0) is None:
        raise ValueError("infeasible start: the start state has weight 0")
    return x0


class _SiteGraph:
    """A run's site-update law as a graph over the states it visits, held
    as its nodes by state tuple and its count of filled slots, plus the
    run's state table `ids`: each state met, in the order met, to its state
    id.  The state table outlives every drop.

    Edge ids are arithmetic, so the edge table takes no storage: on n
    sites, the edge that redraws site v into the state of id s has id
    s (n + 1) + v + 1, which gives its site, its target state and so its
    value; the stay edge of state s, for a step that changes nothing, has
    id s (n + 1).

    A node is a list: n site slots, its state tuple, its stay edge id and
    its state id.  The first use of slot v fills it with (the edge id of
    each value, cumulative probabilities (`_cumulative`), successor nodes,
    whether there is more than one value); a step then follows a pointer
    and hashes no tuple.  `fiber(state, v)` names a fiber on which the
    law's answer at v is constant: the law is called once per fiber, and
    the fiber table `fibers` keeps its values and cumulative probabilities
    for every slot of that fiber.  Beyond _SITE_TABLE_SIZE filled slots,
    the next fill drops the nodes and the fiber table and starts again at a
    fresh node for the current state, so no old node stays reachable.  The
    law is deterministic, so dropping changes no draw.  Nodes hold each
    other in cycles; `drop` clears them, so that reference counting frees
    them without the cyclic collector."""

    def __init__(self, law, fiber):
        self.law, self.fiber = law, fiber
        self.nodes, self.fibers, self.filled, self.ids = {}, {}, 0, {}

    def node(self, state):
        """The node of the state tuple, new if the graph has none; a state
        new to the run gets the next state id."""
        node = self.nodes.get(state)
        if node is None:
            sid = self.ids.get(state)
            if sid is None:
                sid = self.ids[state] = len(self.ids)
            node = self.nodes[state] = [None] * len(state) + [
                state, sid * (len(state) + 1), sid]
        return node

    def fill(self, node, v):
        """Fill slot v of node; returns (node, slot), with node the fresh
        one for the same state if the graph was dropped."""
        state = node[-3]
        if self.filled >= _SITE_TABLE_SIZE:
            self.drop()
            node = self.node(state)
        key = self.fiber(state, v)
        if key not in self.fibers:
            values, probs = self.law(state, v)
            self.fibers[key] = values, _cumulative(probs)
        values, cum = self.fibers[key]
        succ = [node if val == state[v]
                else self.node(state[:v] + (val,) + state[v + 1:])
                for val in values]
        node[v] = slot = (tuple([nxt[-2] + v + 1 for nxt in succ]),
                          cum, succ, len(values) > 1)
        self.filled += 1
        return node, slot

    def drop(self):
        """Empty the graph but its state table, each node cleared."""
        for node in self.nodes.values():
            node.clear()
        self.nodes, self.fibers, self.filled = {}, {}, 0


@contextmanager
def _site_graph(law, fiber):
    """A _SiteGraph for the length of one run, with the cyclic collector
    held off: a fill allocates a node's containers, and the collections
    they trigger walk the whole graph (a quarter of a fill-heavy run's
    time).  On exit the graph is dropped and the collector restored to its
    previous state."""
    enabled = gc.isenabled()
    gc.disable()
    graph = _SiteGraph(law, fiber)
    try:
        yield graph
    finally:
        graph.drop()
        if enabled:
            gc.enable()


def _heat_bath_fiber(state, v):
    """The fiber of a heat-bath update at v: the rest of the state."""
    return v, state[:v] + state[v + 1:]


def _star_frozen_fiber(state, v):
    """The fiber of a star-frozen update at v: the rest of the contracted
    state; STAR at every star, whose law is its own value."""
    if state[v] == STAR:
        return STAR
    c = contract(state)
    return v, c[:v] + c[v + 1:]


# raw words the single-site loop draws at most at once, and the uniform's
# scale 2^-53
_RAW_BLOCK = 2 ** 10
_TWO_TO_MINUS_53 = 2.0 ** -53


class _RawDraws:
    """Site and uniform draws decoded from the raw 64-bit words of a
    `make_rng` bit generator (numpy's PCG64), the way `rng.integers(n)`
    draws a site and `rng.random()` a uniform, one call each:

    - site: Lemire's method on 32-bit halves (n < 2^32, as for any state
      tuple).  A word gives its low half first and keeps the high half as
      the spare; a low product below 2^32 mod n is rejected and drawn
      again.  The generator's own spare half (`has_uint32` / `uinteger`) is
      read once, at entry, and used first.  n = 1 draws nothing.
    - uniform: `(w >> 11) * 2^-53` of the next word; the spare half stays.

    `words` bounds the words the run can use without rejections.  Words are
    drawn in blocks of at most what is left of it (at least one), capped
    at _RAW_BLOCK, and each block is decoded once, in numpy, into lists of
    low-half sites, high-half sites and uniforms (a rejected half has site
    -1) that the step loop and `random` only index.  The bit generator's
    state is never written: the generator belongs to the run."""

    def __init__(self, bits, n, words):
        self.bits, self.n, self.left = bits, n, words
        self.reject_below = (1 << 32) % n
        self.lo = self.hi = self.unif = ()
        self.i = self.nw = 0
        st = bits.state
        self.has, m = st["has_uint32"], st["uinteger"] * n
        self.spare_site = (m >> 32 if (m & 0xFFFFFFFF) >= self.reject_below
                           else -1)

    def refill(self):
        """Draw and decode the next block; returns its three lists."""
        k = max(1, min(_RAW_BLOCK, self.left))
        words = self.bits.random_raw(k)
        self.left -= k
        self.i, self.nw = 0, k
        self.unif = ((words >> 11) * _TWO_TO_MINUS_53).tolist()
        if self.n > 1:
            high, low = np.divmod(words, 1 << 32)
            m = np.concatenate((low, high)) * self.n
            sites = (m >> 32).astype(np.int64)
            sites[(m & 0xFFFFFFFF) < self.reject_below] = -1
            sites = sites.tolist()
            self.lo, self.hi = sites[:k], sites[k:]
        return self.lo, self.hi, self.unif

    def random(self):
        """The next uniform, as `Generator.random` draws it."""
        if self.i == self.nw:
            self.refill()
        self.i += 1
        return self.unif[self.i - 1]


def _single_site_words(n, steps):
    """The most raw words `steps` single-site steps on n sites draw without
    rejections: one uniform each and, for n > 1, one site half each."""
    return steps + (n > 1) * (steps + 1) // 2


def _site_steps(graph, state, draws, t0, steps, path, allowed=None):
    """Advance the state tuple by single-site steps t0+1..t0+steps and return
    it: pick a uniform site from draws (`_RawDraws`) and, if the schedule
    `allowed` (a `Schedule`, or None for every site) allows it at step - 1,
    redraw it from the state `graph` (`_SiteGraph`).  Each step appends one
    edge id to path: the edge of the redraw, or the state's stay edge if
    the site was not allowed or its law has a single outcome, which draws
    no uniform.  The schedule's rule is called once per `allowed.period`
    block of steps."""
    n = len(state)
    n1 = n + 1
    sites = n > 1
    lo, hi, unif = draws.lo, draws.hi, draws.unif
    i, nw = draws.i, draws.nw
    has, spare_site = draws.has, draws.spare_site
    node = graph.node(state)
    append = path.append
    v = 0
    t, end = t0, t0 + steps
    while t < end:
        keep, stop = None, end
        if allowed is not None:
            keep = allowed.rule(t)
            if allowed.period is not None:
                stop = min(end, (t // allowed.period + 1) * allowed.period)
        for t in range(t + 1, stop + 1):
            if sites:
                v = -1
                while v < 0:
                    if has:
                        has, v = 0, spare_site
                        continue
                    if i == nw:
                        lo, hi, unif = draws.refill()
                        i, nw = 0, len(unif)
                    v = lo[i]
                    spare_site = hi[i]
                    has = 1
                    i += 1
            if keep is None or v in keep:
                slot = node[v]
                if slot is None:
                    node, slot = graph.fill(node, v)
                edges, cum, succ, multi = slot
                if multi:
                    if i == nw:
                        lo, hi, unif = draws.refill()
                        i, nw = 0, len(unif)
                    j = bisect_right(cum, unif[i])
                    i += 1
                    node = succ[j]
                    append(edges[j])
                    continue
            append(node[n1])
    draws.i, draws.nw = i, nw
    draws.has, draws.spare_site = has, spare_site
    return node[n]


def _heat_bath_run(model, x0, steps, seed, record_at, rng, allowed=None):
    x0 = _check_start(model, x0)
    draws = _RawDraws(rng.bit_generator, len(x0),
                      _single_site_words(len(x0), steps))
    path = []
    with _site_graph(heat_bath_law(model), _heat_bath_fiber) as graph:
        final = _site_steps(graph, x0, draws, 0, steps, path, allowed)
    return ChainRun(model, x0, seed, steps, _record_times(record_at, steps),
                    list(graph.ids), path, final=final)


def glauber_run(model, x0, steps, seed, record_at=(), chain_index=0) -> ChainRun:
    """Heat-bath run: uniform site choice, exact conditional resample."""
    return _heat_bath_run(model, x0, steps, seed, record_at,
                          make_rng(seed, chain_index, "glauber"))


def _field_sampler(model, theta):
    """The support table of model and the exact field-dynamics step
    (x, random) -> index of the next state in it, drawing its uniforms by
    calling random() and its state from the unnormalized theta-tilted
    weights (`exact.Tables.tilted_weights`).

    Each 1-site of x is kept pinned at 1 when its uniform is at least
    theta; the kept set, as a bitmask, looks up its slice in the sampler's
    table: the slice's support indices and the `_cumulative` sums of its
    law (`exact._slice_law`, as fd_kernel reads it), computed at the first
    step that keeps that set.  When an entry would take the table past
    _FIELD_TABLE_SIZE slice entries, the table is dropped first."""
    _check_theta(theta)
    tables = Tables(model, theta)
    support, weights = tables.support, tables.tilted_weights
    table, held = {}, 0

    def pinned_slice(kept):
        nonlocal held
        idx = np.flatnonzero(support.where(
            {v: 1 for v in range(kept.bit_length()) if kept >> v & 1}))
        if not idx.size:
            raise ValueError("infeasible pin: the slice has empty support")
        law = _slice_law(weights[idx])
        if held + idx.size > _FIELD_TABLE_SIZE:
            table.clear()
            held = 0
        held += idx.size
        entry = table[kept] = idx.tolist(), _cumulative(law.tolist())
        return entry

    def step(x, random):
        kept = 0
        for v, b in enumerate(x):
            if b == 1 and random() >= theta:
                kept |= 1 << v
        idx, cum = table.get(kept) or pinned_slice(kept)
        return idx[bisect_right(cum, random())]

    return support, step


def field_dynamics_step(model, theta, x, rng):
    """One field-dynamics transition: every 0-site is freed, each 1-site is
    freed independently with probability theta; the freed set is resampled
    exactly from the tilted conditional.  Draws by `rng.random()`."""
    support, step = _field_sampler(model, theta)
    return support.states[step(x, rng.random)]


def field_run(model, theta, x0, steps, seed, record_at=(),
              chain_index=0) -> ChainRun:
    """Field-dynamics run with exact inner resampling, the step of
    `field_dynamics_step` on one table of slices, with its uniforms decoded
    from raw words (`_RawDraws.random`).  The path holds the support index
    of each step's state; the log holds the coordinates each step changes."""
    support, step = _field_sampler(model, theta)
    rng = make_rng(seed, chain_index, "field")
    x0 = _check_start(model, x0)
    # at most one uniform per 1-site and one for the draw, per step
    random = _RawDraws(rng.bit_generator, 1, steps * (len(x0) + 1)).random
    states, path = support.states, []
    state = x0
    for _ in range(steps):
        i = step(state, random)
        path.append(i)
        state = states[i]
    return ChainRun(model, x0, seed, steps, _record_times(record_at, steps),
                    states, path, field=True, start_id=support.index(x0),
                    final=state)


def simulate_algorithm(model, theta, t1, t2, seed, record_at=(),
                       chain_index=0):
    """The lift/contract simulation run.

    Start at lift(1_V).  Each of the t1 phases contracts, re-lifts, freezes
    the star set, and performs t2 single-site steps: a uniformly chosen
    star site is left alone (the step is still consumed), any other site is
    resampled from the theta-tilted base conditional.  The lifts draw their
    uniforms from the same raw words as the steps.  Returns (ChainRun over
    ternary states, final contracted sample).
    """
    if t1 < 1 or t2 < 1:
        raise ValueError("t1 and t2 must be at least 1")
    rng = make_rng(seed, chain_index, "simulate")
    lifted = LiftedModel(model, theta)
    n, steps = model.n_vars, t1 * t2
    draws = _RawDraws(rng.bit_generator, n,
                      _single_site_words(n, steps) + (t1 + 1) * n)
    state = _check_start(lifted, lift((1,) * n, theta, draws))
    x0 = state
    path, relifts = [], []
    with _site_graph(star_frozen_law(lifted), _star_frozen_fiber) as graph:
        for block in range(t1):
            t = block * t2
            # the relift belongs to the next step, so recorded states at
            # block boundaries are the pre-relift ones; the log timestamps
            # reflect that
            relift = lift(contract(state), theta, draws)
            for v in range(n):
                if relift[v] != state[v]:
                    relifts.append((t + 1, v, relift[v]))
            state = _site_steps(graph, relift, draws, t, t2, path)
    start_id = graph.ids.setdefault(x0, len(graph.ids))
    run = ChainRun(lifted, x0, seed, steps, _record_times(record_at, steps),
                   list(graph.ids), path, relifts=relifts, start_id=start_id,
                   final=state)
    return run, contract(state)


@dataclass(frozen=True)
class Schedule:
    """State-independent censoring rule: step index -> allowed update set.
    The rule's value is constant on each block of `period` steps (t //
    period), or on every step if period is None."""

    rule: object  # callable t -> frozenset of variable indices
    period: int | None = 1

    def __post_init__(self):
        if self.period is not None and self.period < 1:
            raise ValueError(f"period must be at least 1, got {self.period}")

    @classmethod
    def always(cls, n):
        full = frozenset(range(n))
        return cls(lambda t: full, period=None)

    @classmethod
    def never(cls):
        empty = frozenset()
        return cls(lambda t: empty, period=None)

    @classmethod
    def two_level(cls, left, right, period, seed):
        """Bipartite two-level schedule: for each block of `period` steps an
        outer left vertex is drawn (from the schedule's own stream, so the
        rule depends only on (t, seed)); the allowed set is that vertex plus
        the whole right side.

        The draws are made ahead in chunks that double in size: PCG64
        keeps the spare half of a 64-bit output in the bit generator, so
        rng.integers(n, size=c) gives the values of c calls
        rng.integers(n), in order."""
        right = frozenset(right)
        allowed = [right | {v} for v in left]
        if not allowed:
            raise ValueError("a two-level schedule needs at least one left "
                             "vertex")
        rng = make_rng(seed, 0, "schedule")
        picks = []  # the index into left drawn for each block so far

        def rule(t):
            block = t // period
            while len(picks) <= block:
                picks.extend(rng.integers(len(allowed),
                                          size=max(1, len(picks))).tolist())
            return allowed[picks[block]]

        return cls(rule, period=period)


def censored_glauber(model, x0, schedule: Schedule, steps, seed,
                     record_at=(), chain_index=0) -> ChainRun:
    """Glauber with censoring: the chosen site is resampled only when the
    schedule allows it at that step; disallowed picks leave the state as is."""
    return _heat_bath_run(model, x0, steps, seed, record_at,
                          make_rng(seed, chain_index, "censored"), schedule)
