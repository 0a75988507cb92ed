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
from itertools import chain, islice, repeat

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
    its state id.  The first use of slot v fills it with a 6-tuple
    (p0, edge0, node0, edge1, node1, more), from the law's values and
    cumulative probabilities (`_cumulative`):

    - two values: p0 the first one's cumulative probability, the edge id
      and successor node of each value, and more None.  A step with
      uniform u takes the first if u < p0 and the second otherwise, which
      is bisect_right((p0, inf), u), ties and NaN included;
    - three or more: p0 -inf, so that no uniform is below it, and more
      (cumulative probabilities, edge ids, successor nodes), bisected;
    - one value: more (), and a step takes the stay edge without a draw.

    A step then follows a pointer and hashes no tuple.  `fiber(state, v)`
    names a fiber on which the law's answer at v is constant: the law is
    called once per fiber, and the fiber table `fibers` keeps its values
    and cumulative probabilities for every slot of that fiber.  Beyond
    _SITE_TABLE_SIZE filled slots, the next fill drops the nodes and the
    fiber table and starts again at a fresh node for the current state, so
    no old node stays reachable.  The law is deterministic, so dropping
    changes no draw.  Nodes hold each other in cycles; `drop` clears them,
    so that reference counting frees them without the cyclic collector."""

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
        edges = [nxt[-2] + v + 1 for nxt in succ]
        if len(values) == 2:
            slot = (cum[0], edges[0], succ[0], edges[1], succ[1], None)
        elif len(values) > 2:
            slot = (-math.inf, None, None, None, None, (cum, edges, succ))
        else:
            slot = (None, None, None, None, None, ())
        node[v] = slot
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


# raw words the single-site loop draws at most at once, steps a heat-bath
# run decodes at once, and the uniform's scale 2^-53
_RAW_BLOCK = 2 ** 10
_BULK_STEPS = 2 ** 11
_TWO_TO_MINUS_53 = 2.0 ** -53
# the most allowed sets a censored run keeps a mask of, and the blocks a
# chunk of its masks covers (`_censored_phase`)
_CENSORED_MASKS = 16
_MASK_CHUNK = 2 ** 6
# blocks whose picks Schedule.two_level draws at once
_PICK_CHUNK = 2 ** 10


class _RawDraws:
    """Site and uniform draws decoded from the raw 64-bit words of a
    `make_rng` bit generator (numpy's PCG64), the way `rng.integers(n)`
    draws a site and `rng.random()` a uniform, one call each:

    - site: Lemire's method on 32-bit halves (n < 2^32, as for any state
      tuple).  A word gives its low half first and keeps the high half as
      the spare; a low product below 2^32 mod n is rejected and drawn
      again.  The generator's own spare half (`has_uint32` / `uinteger`) is
      read once, at entry, and used first.  n = 1 draws nothing and
      ignores the spare.
    - uniform: `(w >> 11) * 2^-53` of the next word; the spare half stays.

    `words` bounds the words the run can use without rejections.  Words are
    drawn in blocks of at most what is left of it (at least one), capped
    at _RAW_BLOCK, and each block is decoded once, in numpy, into lists of
    low-half sites, high-half sites and uniforms (a rejected half has site
    -1), and whether it holds no rejected half (`clean`).  The step loops
    and `random` only index these lists; the per-step loop (`_site_steps`)
    reads each word as a site or a uniform as it comes, and the masked loop
    (`_masked_steps`) reads a clean block two steps a site word.  A refill
    decodes the unread words of the last block again ahead of the new
    ones, so a loop may refill before it runs out.  `uniforms` chains the
    uniform lists of such blocks.

    A run whose every step draws a uniform reads its words in a fixed
    order, so `steps_block` decodes a block of its steps up front, into its
    sites and its uniforms, from exactly the words the block reads.  The
    bit generator's state is never written: the generator belongs to the
    run."""

    def __init__(self, bits, n, words):
        self.bits, self.n, self.left = bits, n, words
        self.reject_below = (1 << 32) % n
        self.words, self.clean = None, True
        self.lo = self.hi = self.unif = ()
        self.i = self.nw = 0
        st = bits.state
        self.has, m = st["has_uint32"] * (n > 1), st["uinteger"] * n
        self.spare_site = (m >> 32 if (m & 0xFFFFFFFF) >= self.reject_below
                           else -1)

    def load(self, words):
        """Decode the raw words as the next block, dropping the last one
        first; returns its three lists."""
        self.lo = self.hi = self.unif = ()
        k = len(words)
        self.words, self.i, self.nw = words, 0, k
        self.unif = ((words >> 11) * _TWO_TO_MINUS_53).tolist()
        if self.n > 1:
            high, low = np.divmod(words, 1 << 32)
            m = np.concatenate((low, high)) * self.n
            sites = (m >> 32).astype(np.int64)
            rejected = (m & 0xFFFFFFFF) < self.reject_below
            self.clean = not rejected.any()
            sites[rejected] = -1
            sites = sites.tolist()
            self.lo, self.hi = sites[:k], sites[k:]
        return self.lo, self.hi, self.unif

    def draw(self):
        """The next block of raw words, of at most what is left of the
        budget (at least one word), capped at _RAW_BLOCK."""
        k = max(1, min(_RAW_BLOCK, self.left))
        self.left -= k
        return self.bits.random_raw(k)

    def refill(self, i):
        """Draw the next block and decode it after the words of this one
        from index i on, the unread ones; returns its three lists."""
        words = self.draw()
        if i < self.nw:
            words = np.concatenate((self.words[i:], words))
        return self.load(words)

    def random(self):
        """The next uniform, as `Generator.random` draws it."""
        if self.i == self.nw:
            self.refill(self.i)
        self.i += 1
        return self.unif[self.i - 1]

    def uniforms(self):
        """An iterator over the uniforms of every block from here on, each
        block drawn when the last one runs out; the draws must have no
        decoded word left unread, and belong to the iterator from then
        on."""
        return chain.from_iterable(iter(lambda: self.load(self.draw())[2],
                                        None))

    def steps_block(self, c):
        """(sites, uniforms) of the next c single-site steps when every step
        draws a uniform, as iterables of ints and floats, or None.  With no
        spare half carried, every two steps read their words as site,
        uniform, uniform: the site word's low half picks the first step's
        site and its high half the second's.  So the block reads exactly
        c + ceil(c / 2) words (c for n = 1, whose site is always 0), decoded
        in one numpy pass; an odd c leaves the last high half as the spare.
        The uniforms are a memoryview of their array, which makes each float
        as the loop reads it.  If a site half the block reads is rejected,
        it returns None with its words loaded (`load`) for the per-step
        loop, which reads them in the same order."""
        n = self.n
        if n == 1:
            words = self.bits.random_raw(c)
            return repeat(0, c), memoryview((words >> 11) * _TWO_TO_MINUS_53)
        words = self.bits.random_raw(c + (c + 1) // 2)
        m = words[::3].astype("<u8").view("<u4").astype(np.uint64) * n
        if self.reject_below and (
                (m[:c] & 0xFFFFFFFF) < self.reject_below).any():
            self.load(words)
            return None
        if c % 2:
            self.has, self.spare_site = 1, (
                int(m[c] >> 32) if (m[c] & 0xFFFFFFFF) >= self.reject_below
                else -1)
        sites = m[:c] >> 32
        unif = np.delete(words, np.s_[::3]) >> 11
        return (sites.astype(np.uint8).tobytes() if n <= 256
                else sites.tolist(), memoryview(unif * _TWO_TO_MINUS_53))


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
                        lo, hi, unif = draws.refill(i)
                        i, nw = 0, len(unif)
                    v = lo[i]
                    spare_site = hi[i]
                    has = 1
                    i += 1
            if keep is None or v in keep:
                slot = node[v]
                if slot is None:
                    node, slot = graph.fill(node, v)
                more = slot[5]
                if more is None or more:
                    if i == nw:
                        lo, hi, unif = draws.refill(i)
                        i, nw = 0, len(unif)
                    u = unif[i]
                    i += 1
                    if u < slot[0]:
                        append(slot[1])
                        node = slot[2]
                    elif more is None:
                        append(slot[3])
                        node = slot[4]
                    else:
                        cum, edges, succ = more
                        j = bisect_right(cum, u)
                        append(edges[j])
                        node = succ[j]
                    continue
            append(node[n1])
    draws.i, draws.nw = i, nw
    draws.has, draws.spare_site = has, spare_site
    return node[n]


def _walk(graph, node, sites, unif, path):
    """Take one redraw per (site, uniform) pair from node, appending its
    edge id to path; returns the last node.  Every slot has more than one
    value: a step takes the first of two values if its uniform is below
    the slot's p0 and the second otherwise, and bisects a slot of three or
    more (`_SiteGraph`)."""
    append = path.append
    for v, u in zip(sites, unif):
        slot = node[v]
        if slot is None:
            node, slot = graph.fill(node, v)
        if u < slot[0]:
            append(slot[1])
            node = slot[2]
        elif slot[5] is None:
            append(slot[3])
            node = slot[4]
        else:
            cum, edges, succ = slot[5]
            j = bisect_right(cum, u)
            append(edges[j])
            node = succ[j]
    return node


def _bulk_site_steps(graph, state, draws, steps, path):
    """`_site_steps` with no schedule, for a law with more than one value
    at every slot, so that every step draws a uniform: the steps go in
    blocks of at most _BULK_STEPS, each decoded up front
    (`_RawDraws.steps_block`) and walked by `_walk`, one block held at a
    time.  A step that starts with a carried spare half, and a block that
    reads a rejected half, go to `_site_steps` on the same words.  draws
    must have no decoded word left unread and a budget of 0, so that those
    steps draw one word at a time and leave none unread."""
    n = len(state)
    t = 0
    while t < steps:
        if draws.has:
            state = _site_steps(graph, state, draws, t, 1, path)
            t += 1
            continue
        c = min(_BULK_STEPS, steps - t)
        block = draws.steps_block(c)
        if block is None:
            state = _site_steps(graph, state, draws, t, c, path)
        else:
            state = _walk(graph, graph.node(state), *block, path)[n]
            del block
        t += c
    return state


def _masked_steps(graph, state, draws, steps, path, period, phase):
    """`_site_steps` over blocks of `period` steps from t = 0 (one block if
    None), on each of which the sites whose step draws a uniform are fixed.
    The phase function gives them a chunk of blocks at a time: at a chunk's
    start t, phase(blocks, state), with blocks the range of the start times
    of the run's blocks from t on, gives the chunk's start state and, as
    lists of bools by site, the masks of its first blocks, one each and at
    least one, drawing any uniforms it needs from draws.  Every slot of a
    masked site must have more than one value; a step at any other site
    takes the stay edge and draws no uniform.  So two steps read one site
    word, the first its low half and the second its high half, and each
    step that draws a uniform reads the next word as it.

    The loop reads the block of decoded words of draws (`_RawDraws`) by
    index, two steps a site word.  Its pair loop runs on across the
    chunk's blocks with one check of the decoded block's end per block;
    short of words, it decodes a new block after the unread ones
    (`_RawDraws.refill`), so one block of words is held at a time and the
    run's word budget holds.  A block of odd length ends with a lone step
    that keeps its word's high half as the spare, which the next block's
    first step takes.  Steps on one site, a spare that Lemire's method
    rejects and a block of words that holds a rejected half go to
    `_site_steps` on the same words."""
    n = len(state)
    n1 = n + 1
    append = path.append
    period = period or steps
    node = None
    i, has, spare = draws.i, draws.has, draws.spare_site
    t = 0
    while t < steps:
        # the phase may draw: hold no decoded block of draws across it
        draws.i = i
        lo = hi = unif = ()
        if node is not None:
            state = node[n]
        start, masks = phase(range(t, steps, period), state)
        if node is None or start is not state:
            node = graph.node(start)
        t0, end = t, min(steps, t + len(masks) * period)
        lo, hi, unif, i, nw = (draws.lo, draws.hi, draws.unif, draws.i,
                               draws.nw)
        ok = n > 1 and draws.clean  # the pair loop may read the block
        while t < end:
            b = (t - t0) // period  # t's block of the chunk, up to stop
            stop = t0 + (b + 1) * period
            if stop > end:
                stop = end
            if ok and not has and stop - t > 1 and nw - i > 2:
                for mask in islice(masks, b, None):
                    pairs = (stop - t) >> 1
                    if 3 * pairs > nw - i:
                        pairs = (nw - i) // 3
                    t += 2 * pairs
                    for _ in range(pairs):
                        v, w = lo[i], hi[i]
                        i += 1
                        if mask[v]:
                            slot = node[v]
                            if slot is None:
                                node, slot = graph.fill(node, v)
                            u = unif[i]
                            i += 1
                            if u < slot[0]:
                                append(slot[1])
                                node = slot[2]
                            elif slot[5] is None:
                                append(slot[3])
                                node = slot[4]
                            else:
                                cum, edges, succ = slot[5]
                                j = bisect_right(cum, u)
                                append(edges[j])
                                node = succ[j]
                        else:
                            append(node[n1])
                        if mask[w]:
                            slot = node[w]
                            if slot is None:
                                node, slot = graph.fill(node, w)
                            u = unif[i]
                            i += 1
                            if u < slot[0]:
                                append(slot[1])
                                node = slot[2]
                            elif slot[5] is None:
                                append(slot[3])
                                node = slot[4]
                            else:
                                cum, edges, succ = slot[5]
                                j = bisect_right(cum, u)
                                append(edges[j])
                                node = succ[j]
                        else:
                            append(node[n1])
                    if t < stop:  # a lone step is left, or the words ran out
                        break
                    stop += period
                    if stop > end:
                        stop = end
                continue
            mask = masks[b]
            if n > 1 and nw - i < (1 if has else 2 if stop - t == 1 else 3):
                lo = hi = unif = ()
                lo, hi, unif = draws.refill(i)
                i, nw, ok = 0, draws.nw, draws.clean
            elif not ok or spare < 0 < has:
                # the per-step loop, over at least the rest of the block
                c = 1 if has else min(stop - t, 2 * (nw - i) + 1)
                draws.i, draws.has, draws.spare_site = i, has, spare
                lo = hi = unif = ()
                keep = frozenset(v for v in range(n) if mask[v])
                node = graph.node(_site_steps(graph, node[n], draws, t, c,
                                              path, Schedule(lambda _: keep,
                                                             None)))
                lo, hi, unif, i, nw = (draws.lo, draws.hi, draws.unif,
                                       draws.i, draws.nw)
                has, spare = draws.has, draws.spare_site
                ok = n > 1 and draws.clean
                t += c
            else:  # a lone step
                if has:
                    v, has = spare, 0
                else:
                    v, spare, has = lo[i], hi[i], 1
                    i += 1
                if mask[v]:
                    slot = node[v]
                    if slot is None:
                        node, slot = graph.fill(node, v)
                    u = unif[i]
                    i += 1
                    if u < slot[0]:
                        append(slot[1])
                        node = slot[2]
                    elif slot[5] is None:
                        append(slot[3])
                        node = slot[4]
                    else:
                        cum, edges, succ = slot[5]
                        j = bisect_right(cum, u)
                        append(edges[j])
                        node = succ[j]
                else:
                    append(node[n1])
                t += 1
    draws.i, draws.has, draws.spare_site = i, has, spare
    return state if node is None else node[n]


def _heat_bath_run(model, x0, steps, seed, record_at, rng, allowed=None):
    x0 = _check_start(model, x0)
    n = len(x0)
    path = []
    with _site_graph(heat_bath_law(model), _heat_bath_fiber) as graph:
        graph.node(x0)  # the start state's id is 0, also with no step
        if allowed is None:
            # the law gives the whole alphabet, two values at least
            final = _bulk_site_steps(graph, x0,
                                     _RawDraws(rng.bit_generator, n, 0),
                                     steps, path)
        else:
            final = _masked_steps(graph, x0,
                                  _RawDraws(rng.bit_generator, n,
                                            _single_site_words(n, steps)),
                                  steps, path, allowed.period,
                                  _censored_phase(allowed.rule, n))
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
    from raw words (`_RawDraws.uniforms`).  The path holds the support
    index of each step's state; the log holds the coordinates each step
    changes."""
    support, step = _field_sampler(model, theta)
    rng = make_rng(seed, chain_index, "field")
    x0 = _check_start(model, x0)
    # at most one uniform per 1-site and one for the draw, per step
    random = _RawDraws(rng.bit_generator, 1,
                       steps * (len(x0) + 1)).uniforms().__next__
    states, path = support.states, []
    state = x0
    for _ in range(steps):
        i = step(state, random)
        path.append(i)
        state = states[i]
    return ChainRun(model, x0, seed, steps, _record_times(record_at, steps),
                    states, path, field=True, start_id=support.index(x0),
                    final=state)


def _censored_phase(rule, n):
    """The phase function (`_masked_steps`) of a censored run on n sites:
    the state as it is, and the masks of the schedule's allowed sets on
    the next _MASK_CHUNK blocks, or on the rest of the run if fewer, read
    by the rule's `sets` if it has one (`Schedule.two_level`).  It keeps
    the masks of at most _CENSORED_MASKS sets, and starts afresh when a new
    set would pass that, so a rule that gives ever new sets holds no more
    masks than those and the chunk's."""
    masks = {}
    sets = getattr(rule, "sets", None) or (lambda times: map(rule, times))

    def new(keep):
        if len(masks) == _CENSORED_MASKS:
            masks.clear()
        mask = masks[keep] = [v in keep for v in range(n)]
        return mask

    def phase(blocks, state):
        return state, [masks.get(keep) or new(keep)
                       for keep in sets(blocks[:_MASK_CHUNK])]

    return phase


def _relift_phase(theta, draws, relifts):
    """The phase function (`_masked_steps`) of the simulation run's
    phases: at the first time t of blocks, contract the state and lift it
    again by uniforms from draws, append a relift entry (t + 1, var, value)
    to relifts for each site it changes, and give the relift with the mask
    of its non-star sites, the ones whose step draws a uniform, for one
    block: a chunk is one phase.  The relift belongs to the next step, so a
    state recorded at a phase boundary is the one before it."""
    def phase(blocks, state):
        # lift(contract(state)): lift reads only which values are 0
        relift = lift(state, theta, draws)
        t = blocks[0]
        for v in range(len(state)):
            if relift[v] != state[v]:
                relifts.append((t + 1, v, relift[v]))
        return relift, [[b != STAR for b in relift]]

    return phase


def simulate_algorithm(model, theta, t1, t2, seed, record_at=(),
                       chain_index=0):
    """The lift/contract simulation run.

    Start at lift(1_V).  Each of the t1 phases contracts, re-lifts, freezes
    the star set, and performs t2 single-site steps: a uniformly chosen
    star site is left alone (the step is still consumed), any other site is
    resampled from the theta-tilted base conditional.  Returns (ChainRun
    over ternary states, final contracted sample).

    A star never moves and every other slot has two values, so within a
    phase the sites that draw a uniform are the relift's non-stars: the
    masked loop (`_masked_steps`) takes the steps, two a site word, one
    phase a block, and the relifts (`_relift_phase`) read their uniforms
    from the same decoded words.
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
        state = _masked_steps(graph, state, draws, steps, path, t2,
                              _relift_phase(theta, draws, relifts))
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
    def two_level(cls, left, right, period, seed):
        """Bipartite two-level schedule: for each block of `period` steps an
        outer left vertex is drawn (from the schedule's own stream, so the
        rule depends only on (t, seed)); the allowed set is that vertex plus
        the whole right side.

        The draws come in chunks of _PICK_CHUNK blocks, and only the last
        one read is kept (an earlier one restarts the stream): PCG64 keeps
        the spare half of a 64-bit output in the bit generator, so
        rng.integers(n, size=c) gives the values of c calls rng.integers(n).
        The rule's `sets(times)` gives its sets at each time of a range
        (`_censored_phase`); at the start times of consecutive blocks it
        reads their picks a chunk at a time."""
        right = frozenset(right)
        allowed = [right | {v} for v in left]
        if not allowed:
            raise ValueError("a two-level schedule needs at least one left "
                             "vertex")
        # the picks (indices into allowed) of the blocks from start on
        rng, start, picks = make_rng(seed, 0, "schedule"), 0, ()

        def chunk(b):
            """Block b's index into picks, its chunk drawn."""
            nonlocal rng, start, picks
            at = b - start
            if at < 0:  # an earlier chunk: restart the stream
                rng, start, picks = make_rng(seed, 0, "schedule"), 0, ()
                at = b
            while at >= len(picks):
                start, at = start + len(picks), at - len(picks)
                picks = rng.integers(len(allowed), size=_PICK_CHUNK)
            return at

        def rule(t):
            at = chunk(t // period)
            return allowed[picks.item(at)]

        def sets(times):
            # each index read after chunk has drawn the chunk holding it
            if times.step != period or times.start % period:
                return [allowed[picks.item(at)]
                        for at in map(chunk, (t // period for t in times))]
            out, first = [], times.start // period
            while len(out) < len(times):
                at = chunk(first + len(out))
                out += map(allowed.__getitem__,
                           picks[at:at + len(times) - len(out)].tolist())
            return out

        rule.sets = sets
        return cls(rule, period=period)


def censored_glauber(model, x0, schedule: Schedule, steps, seed,
                     record_at=(), chain_index=0) -> ChainRun:
    """Glauber with censoring: the chosen site is resampled only when the
    schedule allows it at that step; disallowed picks leave the state as is.

    The allowed set is fixed on each block of `schedule.period` steps, and
    the heat-bath law has two values at least, so the masked loop
    (`_masked_steps`) takes the steps, two a site word, with the block's
    allowed set as the sites that draw a uniform, the masks of a chunk of
    blocks at a time (`_censored_phase`); with period 1 every step is a
    lone one."""
    return _heat_bath_run(model, x0, steps, seed, record_at,
                          make_rng(seed, chain_index, "censored"), schedule)
