"""Spin-system models over binary (and lifted ternary) configurations.

Every model exposes an unnormalized weight (kept in log space, with None as
the explicit "impossible" marker) and exact single-site conditionals.  Models
are closed under tilting, flipping, pinning, lifting and (for the bipartite
hardcore model) taking the left marginal.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .ordercore import STAR, contract, num_ones, num_stars

ENUM_GUARD = 2 ** 20


class Graph:
    """Simple undirected graph; optionally bipartite with V_L = 0..k-1."""

    def __init__(self, n, edges, bipartite_k=None):
        self.n = int(n)
        self.edges = [tuple(sorted(e)) for e in edges]
        self.bipartite_k = bipartite_k
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if bipartite_k is not None and not 0 <= bipartite_k <= self.n:
            raise ValueError("bipartition size out of range")
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range")
            if bipartite_k is not None and not (u < bipartite_k <= v):
                raise ValueError("edge does not cross the bipartition")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges are not allowed")
        self.m = len(self.edges)

    def neighbors(self, v):
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return out

    @classmethod
    def from_text(cls, text):
        """Parse "n m [bipartite k]" header plus m "u v" lines."""
        lines = [ln.split("#")[0].strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines:
            raise ValueError("empty graph text")
        head = lines[0].split()
        k = None
        if len(head) == 4 and head[2] == "bipartite":
            k = int(head[3])
        elif len(head) != 2:
            raise ValueError(f"bad graph header: {lines[0]!r}")
        n, m = int(head[0]), int(head[1])
        edges = []
        for ln in lines[1:]:
            u, v = ln.split()
            edges.append((int(u), int(v)))
        if len(edges) != m:
            raise ValueError("edge count does not match header")
        return cls(n, edges, bipartite_k=k)

    @classmethod
    def from_file(cls, path):
        with open(path) as f:
            return cls.from_text(f.read())


def components(n, edges):
    """Connected components of (V, edges) by union-find; list of sorted lists."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


class Model:
    """Base interface: log_weight, weight, conditional."""

    n_vars: int
    ternary: bool = False

    @property
    def alphabet(self):
        return (0, 1, STAR) if self.ternary else (0, 1)

    def log_weight(self, state):
        raise NotImplementedError

    def weight(self, state):
        lw = self.log_weight(state)
        return 0.0 if lw is None else math.exp(lw)

    def conditional(self, state, v):
        """Exact conditional law at v given the other coordinates of state.

        Returns a probability tuple aligned with self.alphabet.  The value of
        state[v] itself is ignored.
        """
        return self._conditional_generic(state, v)

    def _conditional_generic(self, state, v):
        s = list(state)
        lws = []
        for val in self.alphabet:
            s[v] = val
            lws.append(self.log_weight(tuple(s)))
        finite = [x for x in lws if x is not None]
        if not finite:
            raise ValueError("infeasible pinning: no completion has weight")
        mx = max(finite)
        ws = [0.0 if x is None else math.exp(x - mx) for x in lws]
        z = sum(ws)
        return tuple(w / z for w in ws)

    def support_iter(self, *, _log_weights=None):
        """Yield support states in lexicographic order (guarded): one
        log_weight call per candidate, and each yielded state's log weight
        appended to the list _log_weights when one is given."""
        _check_guard(self)
        for s in itertools.product(self.alphabet, repeat=self.n_vars):
            lw = self.log_weight(s)
            if lw is not None:
                if _log_weights is not None:
                    _log_weights.append(lw)
                yield s


def _check_guard(model):
    """Refuse to enumerate the model's candidates past ENUM_GUARD."""
    total = len(model.alphabet) ** model.n_vars
    if total > ENUM_GUARD:
        raise ValueError(
            f"state space of size {total} exceeds the guard {ENUM_GUARD}")


# ---------------------------------------------------------------------------
# concrete models


class IsingModel(Model):
    """Vertex spins; weight = prod(beta_e over monochromatic e) * prod(lambda_v over 1s)."""

    def __init__(self, graph, beta, lam):
        self.graph = graph
        self.n_vars = graph.n
        self.beta = list(beta)
        self.lam = list(lam)
        if len(self.beta) != graph.m or len(self.lam) != graph.n:
            raise ValueError("parameter length mismatch")
        if any(b <= 1 for b in self.beta):
            raise ValueError("beta entries must exceed 1")
        if any(not 0 <= l <= 1 for l in self.lam):
            raise ValueError("lambda entries must lie in [0,1]")

    def log_weight(self, state):
        lw = 0.0
        for (u, v), b in zip(self.graph.edges, self.beta):
            if state[u] == state[v]:
                lw += math.log(b)
        for v in range(self.n_vars):
            if state[v] == 1:
                l = self.lam[v]
                if l == 0:
                    return None
                lw += math.log(l)
        return lw


class RandomClusterModel(Model):
    """Edge subsets; weight = prod(p/(1-p)) * prod over components (1 + prod lambda)."""

    def __init__(self, graph, p, lam):
        self.graph = graph
        self.n_vars = graph.m
        self.p = list(p)
        self.lam = list(lam)
        if len(self.p) != graph.m or len(self.lam) != graph.n:
            raise ValueError("parameter length mismatch")
        if any(not 0 < x < 1 for x in self.p):
            raise ValueError("p entries must lie in (0,1)")
        if any(not 0 <= l <= 1 for l in self.lam):
            raise ValueError("lambda entries must lie in [0,1]")
        self._comp_cache = {}

    def _components(self, edge_idx):
        """Components of the edge subset, cached; the cache is emptied
        before it would pass 4096 entries."""
        key = frozenset(edge_idx)
        comps = self._comp_cache.get(key)
        if comps is None:
            comps = components(self.graph.n, [self.graph.edges[i] for i in key])
            if len(self._comp_cache) >= 4096:
                self._comp_cache.clear()
            self._comp_cache[key] = comps
        return comps

    def log_weight(self, state):
        lw = 0.0
        present = [i for i in range(self.n_vars) if state[i] == 1]
        for i in present:
            lw += math.log(self.p[i] / (1 - self.p[i]))
        for comp in self._components(present):
            prod = 1.0
            for v in comp:
                prod *= self.lam[v]
            lw += math.log1p(prod)
        return lw

    def conditional(self, state, v):
        r = rc_marginal_ratio(self, [i for i in range(self.n_vars)
                                     if state[i] == 1], v)
        return (1.0 / (1.0 + r), r / (1.0 + r))


def rc_marginal_ratio(rc: RandomClusterModel, present, e) -> float:
    """Ratio weight(S + e) / weight(S - e) for an RC model.

    If the endpoints of e are already connected by S - e the component factor
    cancels and the ratio is p/(1-p); otherwise the merge contributes
    (1 + D_u D_v) / ((1 + D_u)(1 + D_v)) with D the lambda-products of the two
    components being joined.
    """
    if not 0 <= e < rc.n_vars:
        raise ValueError("edge index out of range")
    rest = [i for i in present if i != e]
    base = rc.p[e] / (1 - rc.p[e])
    u, v = rc.graph.edges[e]
    comps = rc._components(rest)
    cu = next(c for c in comps if u in c)
    if v in cu:
        return base
    cv = next(c for c in comps if v in c)
    du = math.prod(rc.lam[x] for x in cu)
    dv = math.prod(rc.lam[x] for x in cv)
    return base * (1 + du * dv) / ((1 + du) * (1 + dv))


class SubgraphWorldModel(Model):
    """Edge subsets; weight = prod(p/(1-p)) * prod(eta_v over odd-degree v)."""

    def __init__(self, graph, p, eta):
        self.graph = graph
        self.n_vars = graph.m
        self.p = list(p)
        self.eta = list(eta)
        if len(self.p) != graph.m or len(self.eta) != graph.n:
            raise ValueError("parameter length mismatch")
        if any(not 0 < x < 1 for x in self.p):
            raise ValueError("p entries must lie in (0,1)")
        if any(not 0 <= x <= 1 for x in self.eta):
            raise ValueError("eta entries must lie in [0,1]")

    def log_weight(self, state):
        lw = 0.0
        deg = [0] * self.graph.n
        for i, (u, v) in enumerate(self.graph.edges):
            if state[i] == 1:
                lw += math.log(self.p[i] / (1 - self.p[i]))
                deg[u] += 1
                deg[v] += 1
        for v in range(self.graph.n):
            if deg[v] % 2 == 1:
                if self.eta[v] == 0:
                    return None
                lw += math.log(self.eta[v])
        return lw

    def conditional(self, state, e):
        if any(x == 0 for x in self.eta):
            return self._conditional_generic(state, e)
        u, v = self.graph.edges[e]
        deg = [0, 0]
        for i, (a, b) in enumerate(self.graph.edges):
            if i != e and state[i] == 1:
                for j, w in enumerate((u, v)):
                    if w in (a, b):
                        deg[j] += 1
        # adding e toggles the parity of both endpoints
        r = self.p[e] / (1 - self.p[e])
        for j, w in enumerate((u, v)):
            r *= self.eta[w] if deg[j] % 2 == 0 else 1.0 / self.eta[w]
        return (1.0 / (1.0 + r), r / (1.0 + r))


class HardcoreModel(Model):
    """Plain occupancy encoding (1 = in the independent set); weight lambda^|S|."""

    def __init__(self, graph, lam):
        self.graph = graph
        self.n_vars = graph.n
        self.lam = float(lam)
        if self.lam <= 0:
            raise ValueError("lambda must be positive")

    def log_weight(self, state):
        for u, v in self.graph.edges:
            if state[u] == 1 and state[v] == 1:
                return None
        return num_ones(state) * math.log(self.lam)

    def conditional(self, state, v):
        for u in self.graph.neighbors(v):
            if state[u] == 1:
                return (1.0, 0.0)
        return (1.0 / (1.0 + self.lam), self.lam / (1.0 + self.lam))


def lambda_c(delta: int) -> float:
    """Hardcore uniqueness threshold (delta-1)^(delta-1) / (delta-2)^delta."""
    if delta < 3:
        raise ValueError("defined for degree bounds >= 3")
    return (delta - 1) ** (delta - 1) / (delta - 2) ** delta


class BipartiteHardcoreModel(Model):
    """Bipartite hardcore with fields lambda (left), beta (right).

    Encoding: a left vertex has value 1 iff it is NOT in the independent set;
    a right vertex has value 1 iff it is in it.  Under this encoding the model
    is a monotone system.
    """

    def __init__(self, graph, lam, beta):
        if graph.bipartite_k is None:
            raise ValueError("graph must carry a bipartition")
        self.graph = graph
        self.n_vars = graph.n
        self.k = graph.bipartite_k
        self.lam = float(lam)
        self.beta = float(beta)
        if self.lam <= 0 or self.beta <= 0:
            raise ValueError("fields must be positive")

    def occupied(self, state):
        """The independent set encoded by state."""
        return [v for v in range(self.n_vars)
                if (state[v] == 0) == (v < self.k)]

    def log_weight(self, state):
        occ = set(self.occupied(state))
        for u, v in self.graph.edges:
            if u in occ and v in occ:
                return None
        n_left = sum(1 for v in occ if v < self.k)
        return n_left * math.log(self.lam) + (len(occ) - n_left) * math.log(self.beta)


class LeftMarginalModel(Model):
    """Marginal of a bipartite hardcore model on its left side.

    With the right side summed out, weight(sigma) =
    lambda^{#occupied left} * (1+beta)^{#right vertices with no occupied left
    neighbor}.
    """

    def __init__(self, base: BipartiteHardcoreModel):
        self.base = base
        self.n_vars = base.k
        self.lam = base.lam
        self.beta = base.beta
        g = base.graph
        self._right_nbrs = {v: frozenset(g.neighbors(v))
                            for v in range(base.k)}
        self._n_right = g.n - base.k

    def log_weight(self, state):
        blocked = set()
        occ = 0
        for v in range(self.n_vars):
            if state[v] == 0:
                occ += 1
                blocked |= self._right_nbrs[v]
        free = self._n_right - len(blocked)
        return occ * math.log(self.lam) + free * math.log1p(self.beta)

    def conditional(self, state, v):
        blocked = set()
        for u in range(self.n_vars):
            if u != v and state[u] == 0:
                blocked |= self._right_nbrs[u]
        newly = len(self._right_nbrs[v] - blocked)
        p0 = self.lam / (self.lam + (1 + self.beta) ** newly)
        return (p0, 1.0 - p0)


# ---------------------------------------------------------------------------
# transforms


class TiltedModel(Model):
    """weight(sigma) = base weight * theta^{number of 1s}."""

    def __init__(self, base, theta):
        if theta <= 0:
            raise ValueError("tilt parameter must be positive")
        if base.ternary:
            raise ValueError("tilting is defined for binary models")
        self.base = base
        self.theta = float(theta)
        self.n_vars = base.n_vars

    def log_weight(self, state):
        lw = self.base.log_weight(state)
        if lw is None:
            return None
        return tilt_log_weight(lw, num_ones(state), self.theta)

    def conditional(self, state, v):
        return tilted_probs(self.theta, *self.base.conditional(state, v))


class FlippedModel(Model):
    """weight(sigma) = base weight at the bitwise complement of sigma."""

    def __init__(self, base):
        if base.ternary:
            raise ValueError("flipping is defined for binary models")
        self.base = base
        self.n_vars = base.n_vars

    def log_weight(self, state):
        return self.base.log_weight(tuple(1 - v for v in state))

    def conditional(self, state, v):
        q0, q1 = self.base.conditional(tuple(1 - x for x in state), v)
        return (q1, q0)


class PinnedModel(Model):
    """Support restricted to states agreeing with a partial assignment."""

    def __init__(self, base, pins: dict):
        self.base = base
        self.pins = dict(pins)
        self.n_vars = base.n_vars
        self.ternary = base.ternary
        for v, val in self.pins.items():
            if not (0 <= v < base.n_vars) or val not in base.alphabet:
                raise ValueError("bad pin")
        if not self._feasible():
            raise ValueError("infeasible pin: the slice has empty support")

    def _feasible(self):
        free = [v for v in range(self.n_vars) if v not in self.pins]
        if len(self.base.alphabet) ** len(free) > ENUM_GUARD:
            return True  # too large to verify eagerly; trust the caller
        s = [0] * self.n_vars
        for v, val in self.pins.items():
            s[v] = val
        for vals in itertools.product(self.base.alphabet, repeat=len(free)):
            for v, val in zip(free, vals):
                s[v] = val
            if self.base.log_weight(tuple(s)) is not None:
                return True
        return False

    def log_weight(self, state):
        for v, val in self.pins.items():
            if state[v] != val:
                return None
        return self.base.log_weight(state)

    def conditional(self, state, v):
        if v in self.pins:
            out = [0.0] * len(self.alphabet)
            out[self.alphabet.index(self.pins[v])] = 1.0
            return tuple(out)
        s = list(state)
        for u, val in self.pins.items():
            s[u] = val
        return self.base.conditional(tuple(s), v)


class LiftedModel(Model):
    """Ternary pushforward: weight(sigma) =
    base(contract(sigma)) * theta^{#1s} * (1-theta)^{#stars}."""

    ternary = True

    def __init__(self, base, theta):
        if not 0 < theta < 1:
            raise ValueError("lift parameter must lie in (0,1)")
        if base.ternary:
            raise ValueError("base model must be binary")
        self.base = base
        self.theta = float(theta)
        self.n_vars = base.n_vars

    def log_weight(self, state):
        lw = self.base.log_weight(contract(state))
        if lw is None:
            return None
        return lift_log_weight(lw, num_ones(state), num_stars(state),
                               self.theta)

    def conditional(self, state, v):
        return lifted_probs(self.theta,
                            *self.base.conditional(contract(state), v))


def _divisor(z):
    """z; an array with an entry 0 is refused as a float division by 0 is."""
    if isinstance(z, np.ndarray) and not z.all():
        raise ZeroDivisionError("float division by zero")
    return z


def tilted_probs(theta, q0, q1):
    """(q0 / z, theta q1 / z), z = q0 + theta q1: the theta-tilt of the
    conditional (q0, q1), of floats or elementwise of arrays."""
    t1 = theta * q1
    z = _divisor(q0 + t1)
    return q0 / z, t1 / z


def lifted_probs(theta, q0, q1):
    """(q0 / z, theta q1 / z, (1 - theta) q1 / z), z = q0 + q1: the lift of
    the conditional (q0, q1) to the values 0, 1, STAR, as tilted_probs."""
    z = _divisor(q0 + q1)
    return q0 / z, theta * q1 / z, (1 - theta) * q1 / z


def tilt_log_weight(lw, ones, theta):
    """A tilt's log weight from lw, its base's, and its number of 1s."""
    return lw + ones * math.log(theta)


def lift_log_weight(lw, ones, stars, theta):
    """A lift's log weight from lw, its contraction's, and its 1s and stars."""
    return lw + ones * math.log(theta) + stars * math.log1p(-theta)


def tilt(model, theta):
    """Tilted model; a hardcore model is rewritten in place of wrapping, and
    a tilted model's base is tilted by the product of the two parameters."""
    if isinstance(model, HardcoreModel):
        return HardcoreModel(model.graph,
                             _tilt_product("lambda", model.lam, theta))
    if isinstance(model, TiltedModel):
        return TiltedModel(model.base, _tilt_product(
            "tilt parameter", model.theta, theta))
    return TiltedModel(model, theta)


def _tilt_product(name, value, theta):
    """value * theta, refused by name when a positive theta underflows it
    to 0 (value is positive, as its model checked)."""
    product = value * theta
    if product == 0 and theta > 0:
        raise ValueError(f"{name} {float(value)!r} * {float(theta)!r} "
                         "underflows to 0")
    return product


def flip(model):
    if isinstance(model, FlippedModel):
        return model.base
    return FlippedModel(model)


def pin(model, pins: dict):
    if isinstance(model, PinnedModel):
        merged = dict(model.pins)
        for v, val in pins.items():
            if v in merged and merged[v] != val:
                raise ValueError("contradictory pins")
            merged[v] = val
        return PinnedModel(model.base, merged)
    return PinnedModel(model, pins)


def lift_model(model, theta):
    return LiftedModel(model, theta)


# ---------------------------------------------------------------------------
# site-update laws (state, v) -> (values, probs), for kernels and samplers


def heat_bath_law(model):
    """Resample site v from its exact conditional over the model's alphabet."""
    alpha = model.alphabet
    return lambda state, v: (alpha, model.conditional(state, v))


def star_frozen_law(lifted: LiftedModel):
    """The star-frozen dynamics on a lifted model: a star never moves; any
    other site is resampled from the theta-tilted base conditional."""
    def law(state, v):
        if state[v] == STAR:
            return (STAR,), (1.0,)
        q = lifted.base.conditional(contract(state), v)
        return (0, 1), tilted_probs(lifted.theta, *q)

    return law
