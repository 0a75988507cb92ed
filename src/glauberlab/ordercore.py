"""Componentwise partial orders on binary and ternary configurations.

States are tuples over {0, 1} or {0, 1, STAR}.  The ternary chain order is
0 < 1 < STAR, so plain integer comparison (STAR = 2) realizes both orders.
Provides up-set enumeration, the covering pairs and height of a poset, and
two exact tests for stochastic dominance: sums over enumerated up-sets for
many row pairs at once, and a max-flow feasibility test with a violating
up-set as its witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections import deque
from functools import cached_property

import numpy as np

STAR = 2

PROB_TOL = 1e-12

# integer scale for exact flow arithmetic; 1e-12 tolerance maps to 1000 units
_FLOW_SCALE = 10 ** 15

# posets with at most this many up-sets decide dominance by up-set sums; the
# up-set matrix of such a poset is at most _UP_SET_CAP x 32 floats (1 MB)
_UP_SET_CAP = 4096
# row pairs per stack in first_dominance_failure and in the cover stage of
# the order checks; a stack's up-set sums are PAIR_BLOCK x (#up-sets)
PAIR_BLOCK = 64

_CHARS = "01*"
_CHAR_TO_VAL = {"0": 0, "1": 1, "*": STAR}


def state_str(x) -> str:
    """Render a configuration as a string over {0,1,*}."""
    return "".join(_CHARS[v] for v in x)


def parse_state(s: str) -> tuple:
    return tuple(_CHAR_TO_VAL[c] for c in s)


def leq(x, y) -> bool:
    """Componentwise order; ternary entries follow the chain 0 < 1 < STAR."""
    if len(x) != len(y):
        raise ValueError("configurations have different lengths")
    return all(a <= b for a, b in zip(x, y))


def num_ones(x) -> int:
    return sum(1 for v in x if v == 1)


def num_stars(x) -> int:
    return sum(1 for v in x if v == STAR)


def lift(x, theta: float, rng) -> tuple:
    """Randomized lift: 0 stays 0; each 1 becomes STAR w.p. 1-theta else 1."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0,1)")
    out = []
    for v in x:
        if v == 0:
            out.append(0)
        else:
            out.append(1 if rng.random() < theta else STAR)
    return tuple(out)


def contract(y) -> tuple:
    """Deterministic contraction 0 -> 0, 1 -> 1, STAR -> 1."""
    return tuple(0 if v == 0 else 1 for v in y)


@dataclass(frozen=True)
class Poset:
    """The state table: an enumerated set of equal-length configurations
    under leq, with index lookup, also held as a (k, n) int8 array (STAR =
    2), one row per state."""

    states: tuple

    def __post_init__(self):
        if len(self.states) == 0:
            raise ValueError("empty poset")
        n = len(self.states[0])
        if any(len(e) != n for e in self.states):
            raise ValueError("mixed configuration lengths")
        object.__setattr__(self, "_index",
                           {s: i for i, s in enumerate(self.states)})
        if len(self._index) != len(self.states):
            raise ValueError("duplicate elements")

    @property
    def size(self) -> int:
        return len(self.states)

    def index(self, state) -> int:
        return self._index[state]

    def __contains__(self, state):
        return state in self._index

    @cached_property
    def array(self) -> np.ndarray:
        return np.array(self.states, dtype=np.int8)

    def where(self, pins: dict) -> np.ndarray:
        """Boolean mask of the states that agree with the partial assignment
        pins (site -> value)."""
        return (self.array[:, list(pins)] == list(pins.values())).all(axis=1)

    def leq_matrix(self) -> np.ndarray:
        """Boolean matrix M[i,j] = states[i] <= states[j], computed once and
        read-only, since every caller shares it."""
        return self._leq

    @cached_property
    def _leq(self) -> np.ndarray:
        k = self.size
        arr = self.array
        m = np.ones((k, k), dtype=bool)
        for c in range(arr.shape[1]):
            m &= arr[:, c][:, None] <= arr[:, c][None, :]
        m.flags.writeable = False
        return m

    @cached_property
    def up_sets(self) -> tuple | None:
        """Every up-set (as enumerate_up_sets lists them), computed once, or
        None when there are more than _UP_SET_CAP of them or more than 32
        elements."""
        try:
            return tuple(enumerate_up_sets(self, max_up_sets=_UP_SET_CAP))
        except ValueError:
            return None

    @cached_property
    def up_set_matrix(self) -> np.ndarray | None:
        """Read-only indicator rows (float 0/1) of up_sets, or None."""
        if self.up_sets is None:
            return None
        ind = np.zeros((len(self.up_sets), self.size))
        for r, u in enumerate(self.up_sets):
            ind[r, list(u)] = 1.0
        ind.flags.writeable = False
        return ind

    @cached_property
    def _less(self) -> np.ndarray:
        """Strict order: M[i,j] = states[i] < states[j]."""
        less = self._leq.copy()
        np.fill_diagonal(less, False)
        return less

    @cached_property
    def covers(self) -> np.ndarray:
        """Read-only (c, 2) index pairs (i, j), in row-major order, with
        states[i] covered by states[j]: strictly below it with no state of
        the poset in between.  The count of states between each pair comes
        from one float32 matrix product of the strict order; every count and
        partial sum is an integer below k, so the product is exact for
        k < 2**24."""
        strict = self._less.astype(np.float32)
        out = np.argwhere(self._less & (strict @ strict == 0))
        out.flags.writeable = False
        return out

    @cached_property
    def height(self) -> int:
        """Number of covers on a longest chain (0 without comparable pairs).
        A strictly larger state has a strictly larger coordinate sum, so the
        sum levels, taken in increasing order, form a linear extension whose
        levels are antichains."""
        sums = self.array.sum(axis=1, dtype=np.int64)
        depth = np.zeros(self.size, dtype=np.int64)
        for s in range(int(sums.max()) + 1):
            level = np.flatnonzero(sums == s)
            below = self._less[:, level]
            depth[level] = np.where(below, depth[:, None] + 1, 0).max(axis=0)
        return int(depth.max())

    def up_closure(self, indices) -> frozenset:
        m = self.leq_matrix()
        out = set()
        for i in indices:
            out.update(np.nonzero(m[i])[0].tolist())
        return frozenset(out)


def is_up_set(poset: Poset, members: frozenset) -> bool:
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


def enumerate_up_sets(poset: Poset, max_elements: int = 32,
                      max_up_sets: int = 10 ** 6):
    """All upward-closed subsets, as frozensets of element indices.

    Processes elements along a reverse linear extension; an element may join
    a partial up-set only once all of its strict successors are present.
    """
    k = poset.size
    if k > max_elements:
        raise ValueError(
            f"poset has {k} > {max_elements} elements; "
            "use the flow-based dominance check instead")
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
                f"more than {max_up_sets} up-sets; "
                "use the flow-based dominance check instead")
        partial = new
    return partial


def _scale_to_ints(p: np.ndarray) -> np.ndarray:
    """Rows of p rounded to integers at _FLOW_SCALE (int64, exact: every
    value and partial sum stays below 2**53)."""
    ints = np.rint(p * _FLOW_SCALE).astype(np.int64)
    # pin each total exactly to the scale so both sides of the flow agree
    rows = ints.reshape(-1, ints.shape[-1])
    rows[np.arange(len(rows)), p.reshape(rows.shape).argmax(axis=1)] += (
        _FLOW_SCALE - rows.sum(axis=1))
    return ints


class _Dinic:
    """Max-flow on small graphs with exact (Python int) capacities."""

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

    def reachable_in_residual(self, s):
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.adj[u]:
                if e[1] > 0 and e[0] not in seen:
                    seen.add(e[0])
                    q.append(e[0])
        return seen


def _invalid(p: np.ndarray):
    """Per row of p: not a probability vector (a negative entry beyond
    PROB_TOL, a total off 1 by more than PROB_TOL, or a NaN)."""
    return ((p < -PROB_TOL).any(axis=-1)
            | ~(np.abs(p.sum(axis=-1) - 1.0) <= PROB_TOL))


def _check_dist(p, k):
    p = np.asarray(p, dtype=float)
    if p.shape != (k,):
        raise ValueError("distribution length does not match the poset")
    if _invalid(p):
        raise ValueError("input is not a probability vector")
    return np.clip(p, 0.0, None)


def _slack(tol, k) -> int:
    """Flow units a pass may fall short by: tol plus one unit of rounding per
    element."""
    return int(tol * _FLOW_SCALE) + k + 1


def _flow_dominance(nu, nu_prime, poset: Poset, slack: int):
    """stochastic_dominance of one pair of distributions, by max-flow: the
    flow may fall short of _FLOW_SCALE by at most slack units."""
    k = poset.size
    left = _scale_to_ints(_check_dist(nu, k))
    right = _scale_to_ints(_check_dist(nu_prime, k))
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
    reach = net.reachable_in_residual(s)
    return False, poset.up_closure(
        i for a, i in enumerate(src.tolist()) if 1 + a in reach)


def _first_violation(nus, nus_prime, up_sets: np.ndarray, slack: int):
    """First row r with nus[r](U) > nus_prime[r](U) + slack for some up-set U
    (a row of the indicator matrix up_sets) or with an invalid row on either
    side, or None."""
    bad = _invalid(nus) | _invalid(nus_prime)
    with np.errstate(invalid="ignore"):  # non-finite rows are bad already
        diff = (_scale_to_ints(np.clip(nus, 0.0, None))
                - _scale_to_ints(np.clip(nus_prime, 0.0, None)))
    fail = bad | ((diff @ up_sets.T) > slack).any(axis=1)
    return int(fail.argmax()) if fail.any() else None


def stochastic_dominance(nu, nu_prime, poset: Poset, tol: float = PROB_TOL,
                         *, split: int = 1):
    """Test nu <=_sd nu_prime over the poset.

    Feasibility of a monotone coupling is decided by max-flow on the bipartite
    graph with an arc x -> y whenever x <= y, over supp(nu) x supp(nu_prime)
    only: elements of mass zero carry no flow and are never reachable in the
    residual graph, so the flow value and the witness are those of the full
    graph.  Returns (True, None) on success, else (False, witness) where
    witness is an up-set U (frozenset of element indices) with
    nu(U) > nu_prime(U).

    nu and nu_prime may also be (b, k) stacks, tested row by row; the witness
    is then (r, U) for the first failing row r.  When the poset has an
    up_set_matrix, the stack is decided by sums over its up-sets: the rows
    are validated, scaled to integers and given the same slack as for the
    flow, so each row's verdict is the flow's (max-flow = min-cut), and the
    sums are exact in float64, every partial sum being an integer of
    magnitude at most _FLOW_SCALE < 2**53.  Only the first failing row then
    goes through the flow, which gives its witness.

    split > 1 tests each pair at the integer slack s = _slack(tol, k) //
    split instead.  Rows are scaled to integers the same way whatever they
    are paired with, so over a chain nu_0, ..., nu_m of m <= split pairs
    that each pass at s, every up-set's deficits add up exactly to at most
    m * s <= _slack(tol, k): the pair (nu_0, nu_m) passes at tol.
    """
    if split < 1:
        raise ValueError("split must be a positive integer")
    slack = _slack(tol, poset.size) // split
    assert split * slack <= _slack(tol, poset.size)
    nu = np.asarray(nu, dtype=float)
    nu_prime = np.asarray(nu_prime, dtype=float)
    if nu.ndim != 2:
        return _flow_dominance(nu, nu_prime, poset, slack)
    if nu_prime.shape != nu.shape or nu.shape[1] != poset.size:
        raise ValueError("distribution length does not match the poset")
    if poset.up_set_matrix is None:
        rows = range(len(nu))
    else:
        # the flow confirms the first failing row, or raises if it is invalid
        r = _first_violation(nu, nu_prime, poset.up_set_matrix, slack)
        rows = [] if r is None else [r]
    for r in rows:
        ok, wit = _flow_dominance(nu[r], nu_prime[r], poset, slack)
        if not ok:
            return False, (r, wit)
    return True, None


def first_dominance_failure(pairs, poset: Poset, tol: float = PROB_TOL):
    """(index, witness up-set) of the first pair (nu, nu_prime) of the
    iterable pairs with nu not <=_sd nu_prime, or None.  Pairs are drawn and
    tested in stacks of PAIR_BLOCK."""
    it = iter(pairs)
    for start in itertools.count(0, PAIR_BLOCK):
        block = list(itertools.islice(it, PAIR_BLOCK))
        if not block:
            return None
        ok, wit = stochastic_dominance([a for a, _ in block],
                                       [b for _, b in block], poset, tol=tol)
        if not ok:
            return start + wit[0], wit[1]

