"""Componentwise partial orders on binary and ternary configurations.

States are tuples over {0, 1} or {0, 1, STAR}.  The ternary chain order is
0 < 1 < STAR, so plain integer comparison (STAR = 2) realizes both orders.
Provides up-set enumeration, as one indicator matrix with a row per up-set,
the covering pairs and height of a poset, and exact tests for stochastic
dominance, all on the same integers and slack: every pair or stack of pairs
is decided by sums over the rows of the up-set matrix (small posets) or
by a greedy monotone coupling and closure min cuts (larger posets), and the
same sums or a closure cut give the first failing row's witness: its least
up-set of largest excess.  The coupling only passes rows: for every up-set
U the flow leaving the positive entries in U lands in U, so the mass it
leaves unrouted bounds the row's excess; each row it does not pass takes
one cut, which decides its excess exactly.  The cut is networkx's
preflow-push on the covers network, its least min cut read as what the
residual graph reaches from the source; networkx is imported by the first
cut, not with the module.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

STAR = 2

PROB_TOL = 1e-12

# integer scale for exact flow arithmetic; 1e-12 tolerance maps to 1000 units
_FLOW_SCALE = 10 ** 15

# the most elements whose up-sets enumerate_up_sets enumerates
UP_SET_ELEMENTS = 32
# posets with at most this many up-sets decide dominance by up-set sums; the
# up-set matrix of such a poset is at most _UP_SET_CAP x UP_SET_ELEMENTS
# floats (1 MB)
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


def state_codes(array) -> np.ndarray:
    """Each row's int64 code: its value at site v (0, 1 or STAR) as digit v
    in base 3, site 0 the most significant, so code order is lexicographic
    order.  Refused past 39 sites, where 3^n passes int64."""
    if array.shape[-1] > 39:
        raise ValueError("state codes are guarded to 39 sites")
    return array.astype(np.int64) @ 3 ** np.arange(array.shape[-1])[::-1]


class Poset:
    """The state table: an enumerated set of equal-length configurations
    under leq, held as a (k, n) int8 array (STAR = 2), one row per state,
    found by the rows' state_codes.  The state tuples are built when
    `states` is first read."""

    def __init__(self, states):
        if len(states) == 0:
            raise ValueError("empty poset")
        if len({len(e) for e in states}) > 1:
            raise ValueError("mixed configuration lengths")
        if len(set(states)) != len(states):
            raise ValueError("duplicate elements")
        self.states = tuple(states)

    @classmethod
    def from_array(cls, array):
        """The poset of the rows of an int8 array (k, n), which it holds as
        its array."""
        poset = cls.__new__(cls)
        poset.array = array
        if not len(array):
            raise ValueError("empty poset")
        ranked = poset.codes[poset._order]
        if (ranked[1:] == ranked[:-1]).any():
            raise ValueError("duplicate elements")
        return poset

    states = cached_property(lambda p: tuple(map(tuple, p.array.tolist())))
    array = cached_property(lambda p: np.array(p.states, dtype=np.int8))
    codes = cached_property(lambda p: state_codes(p.array))
    _order = cached_property(lambda p: np.argsort(p.codes))
    size = property(lambda p: len(p.array))

    def lookup(self, codes) -> np.ndarray:
        """The row with each code (an array of any shape), -1 for none."""
        order, k = self._order, self.size
        at = order[np.searchsorted(self.codes, codes, sorter=order) % k]
        return np.where(self.codes[at] == codes, at, -1)

    def index(self, state) -> int:
        """The state's row; KeyError for a state not in the poset, a tuple
        of another length or with a value outside {0, 1, STAR} included."""
        if len(state) == self.array.shape[1] and {*state} <= {0, 1, STAR}:
            i = int(self.lookup(state_codes(np.array(state, np.int8))))
            if i >= 0:
                return i
        raise KeyError(state)

    def __contains__(self, state):
        try:
            return self.index(state) >= 0
        except KeyError:
            return False

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
    def up_set_matrix(self) -> np.ndarray | None:
        """Read-only float 0/1 rows of enumerate_up_sets, computed once, or
        None when there are more than _UP_SET_CAP up-sets or more than
        UP_SET_ELEMENTS elements."""
        try:
            ind = enumerate_up_sets(self, max_up_sets=_UP_SET_CAP) * 1.0
        except ValueError:
            return None
        ind.flags.writeable = False
        return ind

    @cached_property
    def extension(self) -> list:
        """Element indices by decreasing state in lexicographic order: a
        reverse linear extension."""
        return np.lexsort(self.array.T[::-1])[::-1].tolist()

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


def enumerate_up_sets(poset: Poset, max_elements: int = UP_SET_ELEMENTS,
                      max_up_sets: int = 10 ** 6) -> np.ndarray:
    """All upward-closed subsets, as a read-only (r, k) bool matrix with one
    indicator row per up-set.

    Processes elements along poset.extension, doubling a matrix of partial
    up-sets: an element joins a partial up-set only once all of its strict
    successors are present, and each extended row follows the row it
    extends.
    """
    k = poset.size
    if k > max_elements:
        raise ValueError(
            f"poset has {k} > {max_elements} elements; up-sets are "
            f"enumerated on at most {max_elements} elements")
    less = poset._less
    rows = np.zeros((1, k), dtype=bool)
    for i in poset.extension:
        grows = rows[:, less[i]].all(axis=1)
        if len(rows) + grows.sum() > max_up_sets:
            raise ValueError(
                f"more than {max_up_sets} up-sets; at most {max_up_sets} "
                "up-sets are enumerated")
        rows = rows[np.repeat(np.arange(len(rows)), 1 + grows)]
        rows[np.flatnonzero(grows) + np.arange(1, grows.sum() + 1), i] = True
    rows.flags.writeable = False
    return rows


def up_set_of_row(poset: Poset, row) -> frozenset:
    """The up-set of an indicator row, its members added one at a time along
    poset.extension: a frozenset prints its members in an order that depends
    on how it was built, and this fixes that order by the row alone."""
    u = frozenset()
    for i in poset.extension:
        if row[i]:
            u |= {i}
    return u


def _scale_to_ints(p: np.ndarray) -> np.ndarray:
    """Rows of p rounded to integers at _FLOW_SCALE (int64, exact: every
    value and partial sum stays below 2**53)."""
    ints = np.rint(p * _FLOW_SCALE).astype(np.int64)
    # pin each total exactly to the scale so both sides of the flow agree
    rows = ints.reshape(-1, ints.shape[-1])
    rows[np.arange(len(rows)), p.reshape(rows.shape).argmax(axis=1)] += (
        _FLOW_SCALE - rows.sum(axis=1))
    return ints


def _invalid(p: np.ndarray):
    """Per row of p: not a probability vector (a negative entry beyond
    PROB_TOL, a total off 1 by more than PROB_TOL, or a NaN)."""
    return ((p < -PROB_TOL).any(axis=-1)
            | ~(np.abs(p.sum(axis=-1) - 1.0) <= PROB_TOL))


def _slack(tol, k) -> int:
    """Flow units a pass may fall short by: tol plus one unit of rounding per
    element."""
    return int(tol * _FLOW_SCALE) + k + 1


def _packed(mask: np.ndarray):
    """(cols, real): per row of mask, the columns of its True entries in
    increasing order, left-aligned in a (rows, most per row) array padded
    with column 0, and the bool mask of the entries that are not padding."""
    n = mask.sum(axis=1)
    rows, cols = np.nonzero(mask)
    out = np.zeros((len(mask), int(n.max(initial=0))), dtype=np.intp)
    out[rows, (np.cumsum(mask, axis=1) - 1)[rows, cols]] = cols
    return out, np.arange(out.shape[1]) < n[:, None]


def _coupling_bound(diff: np.ndarray, poset: Poset) -> np.ndarray:
    """Per integer row d of diff: the mass of its positive entries P that a
    greedy monotone coupling leaves unrouted, an upper bound on max_U d(U).
    The sources in P are taken along poset.extension, each filling, in
    increasing lexicographic order, what remains of the capacity -d of the
    negative entries N above it.  For every up-set U, the flow leaving
    P ∩ U lands in N ∩ U, so d(U) <= d(P ∩ U) - flow(P ∩ U) <= the
    unrouted mass.  Vectorised over the rows, one pass per source rank, over
    the rows with that many sources."""
    ext = np.array(poset.extension, dtype=np.intp)
    # the columns where a row is nonzero, in extension order, and the rows
    # by decreasing source count, so that pass t reads a prefix of the rows
    ext = ext[diff[:, ext].any(axis=0)]
    d = diff[:, ext]
    order = np.argsort(-(d > 0).sum(axis=1), kind="stable")
    d = d[order]
    src, real = _packed(d > 0)
    supply = np.where(real, np.take_along_axis(d, src, 1), 0)
    # sinks in reverse extension order: increasing lexicographic order
    snk, sink = _packed(d[:, ::-1] < 0)
    cap = np.where(sink, -np.take_along_axis(d[:, ::-1], snk, 1), 0)
    src, snk = ext[src], ext[::-1][snk]
    routed = cap.sum(axis=1)
    leq = poset.leq_matrix()
    for t, a in enumerate(real.sum(axis=0).tolist()):
        c = cap[:a] * leq[src[:a, t, None], snk[:a]]
        # the supply left over when the source reaches each sink
        left = supply[:a, t, None] - np.cumsum(c, axis=1) + c
        cap[:a] -= np.minimum(c, np.maximum(left, 0))
    routed -= cap.sum(axis=1)
    out = np.empty(len(d), dtype=np.int64)
    out[order] = supply.sum(axis=1) - routed
    return out


def _closure_cut(d: np.ndarray, poset: Poset):
    """(max over up-sets U of d(U), the least U reaching it) for an integer
    row d of total 0, by one min cut (Picard) on every element of the
    poset, solved by networkx's preflow-push on Python int capacities:
    source arcs carry d on its positive entries P, sink arcs carry -d on
    its negative entries N, and the order arcs, of capacity _FLOW_SCALE
    (no less than the whole source capacity), are the covers of the
    poset.  The excess is the source capacity less the max flow; U, a
    bool mask, is the up-closure of the elements of P reachable from the
    source in the residual graph, over arcs whose capacity exceeds their
    flow: the least min cut, the same for every max flow.  (The source
    side of nx.minimum_cut is the greatest min cut.)  Only the rows that
    the greedy coupling leaves come here: none of a passing default verify
    on flipped RC C4, C6 or C7, which never imports networkx."""
    import networkx as nx  # only a closure cut needs it
    from networkx.algorithms.flow import preflow_push

    pos = np.flatnonzero(d > 0)
    neg = np.flatnonzero(d < 0)
    # nodes: the source 0, element i at i + 1, the sink k + 1
    s, t = 0, poset.size + 1
    net = nx.DiGraph()
    net.add_nodes_from((s, t))  # also where d is 0
    net.add_edges_from(((i + 1, j + 1) for i, j in poset.covers.tolist()),
                       capacity=_FLOW_SCALE)
    net.add_edges_from((s, i + 1, {"capacity": int(d[i])})
                       for i in pos.tolist())
    net.add_edges_from((j + 1, t, {"capacity": -int(d[j])})
                       for j in neg.tolist())
    res = preflow_push(net, s, t)

    def residual(u, v):
        return res[u][v]["flow"] < res[u][v]["capacity"]

    side = nx.descendants(nx.subgraph_view(res, filter_edge=residual), s)
    excess = int(d[pos].sum()) - res.graph["flow_value"]
    gens = [i for i in pos.tolist() if i + 1 in side]
    return excess, poset.leq_matrix()[gens].any(axis=0)


def _first_violation(nus, nus_prime, poset: Poset, slack: int):
    """(r, U) for the first row r with nus[r](U) > nus_prime[r](U) + slack
    for some up-set U, in integers at the scale, U then the least up-set of
    largest excess as a bool mask, or (r, None) for a first row r invalid
    on either side, or None.  With an up_set_matrix, by the sums over its
    up-sets.  Else each valid row before the first invalid row passes if
    the greedy monotone coupling of _coupling_bound leaves at most slack
    units unrouted (sound: the unrouted mass bounds every up-set's excess);
    the rest take one closure cut each, in row order up to the first
    failure."""
    bad = _invalid(nus) | _invalid(nus_prime)
    with np.errstate(invalid="ignore"):  # non-finite rows are bad already
        diff = (_scale_to_ints(np.clip(nus, 0.0, None))
                - _scale_to_ints(np.clip(nus_prime, 0.0, None)))
    ups = poset.up_set_matrix
    if ups is not None:
        sums = diff @ ups.T
        fail = bad | (sums > slack).any(axis=1)
        if not fail.any():
            return None
        r = int(fail.argmax())
        return r, None if bad[r] else ups[sums[r] == sums[r].max()].all(0)
    first = int(bad.argmax()) if bad.any() else len(bad)
    rows = np.flatnonzero(_coupling_bound(diff[:first], poset) > slack)
    for r in rows.tolist():
        excess, least = _closure_cut(diff[r], poset)
        if excess > slack:
            return r, least
    return None if first == len(bad) else (first, None)


def stochastic_dominance(nu, nu_prime, poset: Poset, tol: float = PROB_TOL,
                         *, split: int = 1):
    """Test nu <=_sd nu_prime over the poset.

    A monotone coupling exists iff nu(U) <= nu_prime(U) for every up-set U
    (Strassen).  Both laws are scaled to integers at _FLOW_SCALE, and a pair
    fails iff its excess max_U d(U), d the integer difference of nu and
    nu_prime, is above the slack _slack(tol, k).  Returns (True, None) on
    success, else (False, witness) where witness is an up-set U (frozenset
    of element indices) with nu(U) > nu_prime(U).

    nu and nu_prime may also be (b, k) stacks, tested row by row; the witness
    is then (r, U) for the first failing row r.  One pair is a one-row stack.
    A stack is validated and scaled to integers once; if its first invalid
    or failing row is invalid, it raises.  The excess comes from the first
    of these that applies:

    1. the poset's up_set_matrix: one product over every up-set, exact in
       float64, every partial sum being an integer of magnitude at most
       _FLOW_SCALE < 2**53;
    2. a greedy monotone coupling (_coupling_bound), which only passes: the
       positive entries P of d, along poset.extension, fill the negative
       entries N above them in increasing lexicographic order, and the row
       passes if at most the slack is left unrouted.  The flow leaving
       P ∩ U lands in N ∩ U for every up-set U, so d(U) <= the unrouted
       mass;
    3. one min cut (Picard) on the covers, by _closure_cut: for A = U ∩ P,
       the up-closure of A lies in U and holds A, so d(up(A)) >= d(U), and
       the maximum is a max-weight closure.

    The witness is the least up-set U* of largest excess: d is modular,
    d(U ∩ V) + d(U ∪ V) = d(U) + d(V), so those up-sets are closed under ∩.
    On path 1 it is the AND of the up-sets at the largest sum, else the
    least min cut of the closure cut that path 3 runs on the row.
    It is also the witness of the coupling's max-flow on supp(nu) x
    supp(nu_prime), arcs x -> y for x <= y: a cut with sources S costs at
    least _FLOW_SCALE - d(up(S)), with equality at S = U ∩ supp(nu) for an
    up-set U (cutting an order arc costs no less than U = {}).  So the
    sources L of the least min cut, within those of every min cut, lie in
    U* ∩ supp(nu) and generate an up-set of largest excess: up(L) = U*,
    and L = U* ∩ supp(nu), as no element of supp(nu) has mass 0.  The flow
    returned up_closure(L) in index order, as this does, and a frozenset
    prints in the order it was built.

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
    stack = nu.ndim == 2
    if not stack:  # one pair: a one-row stack
        nu, nu_prime = nu[None], nu_prime[None]
    if (nu.ndim != 2 or nu_prime.shape != nu.shape
            or nu.shape[1] != poset.size):
        raise ValueError("distribution length does not match the poset")
    found = _first_violation(nu, nu_prime, poset, slack)
    if found is None:
        return True, None
    r, least = found
    if least is None:
        raise ValueError("input is not a probability vector")
    gens = least & (_scale_to_ints(np.clip(nu[r], 0.0, None)) > 0)
    wit = poset.up_closure(np.flatnonzero(gens).tolist())
    return False, (r, wit) if stack else wit


def first_dominance_failure(pairs, poset: Poset):
    """(index, witness up-set) of the first pair (nu, nu_prime) of the
    iterable pairs with nu not <=_sd nu_prime, or None.  Pairs are drawn and
    tested in stacks of PAIR_BLOCK."""
    it = iter(pairs)
    for start in itertools.count(0, PAIR_BLOCK):
        block = list(itertools.islice(it, PAIR_BLOCK))
        if not block:
            return None
        ok, wit = stochastic_dominance([a for a, _ in block],
                                       [b for _, b in block], poset)
        if not ok:
            return start + wit[0], wit[1]

