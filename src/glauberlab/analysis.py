"""Quantitative independence diagnostics and bound formulas: influence
matrices, marginal stability, coupling independence (exact optimal transport
with Hamming cost), an entropic-independence witness search, piecewise
schedules with their exponential-decay constant, and fixed-point uniqueness
checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import Tables, kl_divergence, pinnings
from .models import lambda_c  # noqa: F401  (re-exported)
from .ordercore import enumerate_up_sets

_TRANSPORT_SCALE = 10 ** 12
_FREE = 2  # index of "free" on each axis of a pinned-mass table
_EI_BLOCK_ENTRIES = 1 << 20  # candidate entries ei_witness scores at once


def _pinned_masses(sup, probs) -> np.ndarray:
    """The pinned-mass table: T[tau] = mass of the states that agree with the
    partial assignment tau.  Built over (a+1)^n cells (a the alphabet size,
    the last index on each axis meaning "free") by scattering probs into the
    cells and summing each axis into its free index (Yates' wildcard
    transform); returned on the values 0, 1 and free (index _FREE), the only
    cells the diagnostics read, as a 3^n array."""
    n = sup.array.shape[1]
    a = max(2, int(sup.array.max()) + 1)
    table = np.zeros((a + 1,) * n)
    table[tuple(sup.array.T)] = probs
    for axis in range(n):
        cell = [slice(None)] * n
        cell[axis] = a
        table[tuple(cell)] = table.take(range(a), axis=axis).sum(axis=axis)
    return table[np.ix_(*[(0, 1, a)] * n)]


def _marginals(table) -> np.ndarray:
    """P[v=1 | tau] for every site v and cell tau of a pinned-mass table, as
    an array of shape (n,) + table.shape: T[tau, v=1] / T[tau] where tau
    leaves v free, exactly 1.0 or 0.0 where tau pins v, NaN where T[tau] = 0.
    Both sides of each ratio are cells of one table, so a slice with all its
    mass at v = 1 gives exactly 1.0."""
    n = table.ndim
    out = np.empty((n,) + table.shape)
    with np.errstate(invalid="ignore"):
        for v in range(n):
            one = table.take([1], axis=v)
            num = np.concatenate([np.zeros_like(one), one, one], axis=v)
            out[v] = num / table
    return out


def _influence_rows(marg, u, include_diagonal=True) -> np.ndarray:
    """Row u of the influence matrix of every pinning tau that leaves u free,
    as an array over those pinnings (axis u of the table dropped) by column:
    entry v is P[v=1 | tau, u=1] - P[v=1 | tau, u=0], and 0 when u is not
    decisive (infeasible, or P[u=1 | tau] in {0, 1}), when P[v=1 | tau] = 0,
    when either u-pinning has no mass, or when tau pins v."""
    hi, lo = marg.take(1, axis=1 + u), marg.take(0, axis=1 + u)
    given = marg.take(_FREE, axis=1 + u)
    m_u = given[u]
    ok = (m_u > 0.0) & (m_u < 1.0) & (given != 0.0) & ~np.isnan(hi - lo)
    if not include_diagonal:
        ok[u] = False
    # C order: each row then sums exactly as a row of a single matrix does
    return np.moveaxis(np.where(ok, hi - lo, 0.0), 0, -1).copy()


@dataclass
class InfluenceMatrix:
    matrix: np.ndarray
    pinning: dict
    include_diagonal: bool = True


def influence_matrix(model, pinning=None, include_diagonal=True) -> InfluenceMatrix:
    """Entry (u,v) = P[v=1 | pins, u=1] - P[v=1 | pins, u=0], set to 0 when
    either u-pinning is infeasible or v cannot take value 1.  The literal
    definition gives diagonal entries equal to 1; a flag drops them."""
    pinning = dict(pinning or {})
    n = model.n_vars
    if len(pinning) > n - 2:
        raise ValueError("pinning must leave at least two free variables")
    tables = Tables(model)
    marg = _marginals(_pinned_masses(tables.support, tables.mu))
    cell = [pinning.get(v, _FREE) for v in range(n)]
    mat = np.zeros((n, n))
    for u in range(n):
        if u not in pinning:
            mat[u] = _influence_rows(marg, u, include_diagonal)[
                tuple(cell[:u] + cell[u + 1:])]
    return InfluenceMatrix(mat, pinning, include_diagonal)


def sinf_norm(psi: InfluenceMatrix) -> float:
    return float(np.max(np.abs(psi.matrix).sum(axis=1)))


def max_sinf_norm(model, max_pin=None) -> float:
    """Max influence-matrix norm over all feasible pinnings leaving at least
    two free variables: every pinning is a cell of the pinned-mass table, so
    each row u is computed for all of them at once."""
    tables = Tables(model)
    return _max_sinf_norm(_marginals(_pinned_masses(tables.support,
                                                    tables.mu)), max_pin)


def _max_sinf_norm(marg, max_pin=None) -> float:
    """max_sinf_norm, read from the model's _marginals table."""
    n = len(marg)
    limit = n - 2 if max_pin is None else min(max_pin, n - 2)
    if limit < 0:
        return 0.0
    norms = np.zeros((3,) * n)
    for u in range(n):
        cell = [slice(None)] * n
        cell[u] = _FREE
        rows = np.abs(_influence_rows(marg, u)).sum(axis=-1)
        norms[tuple(cell)] = np.maximum(norms[tuple(cell)], rows)
    pinned = sum(np.ix_(*[(1, 1, 0)] * n))
    return max(0.0, float(norms[pinned <= limit].max()))


def _strict_sub_min(x) -> np.ndarray:
    """For every cell tau of an array over pinnings (index _FREE = free), the
    minimum of x over the pinnings obtained from tau by freeing at least one
    pinned site; +inf where tau pins nothing."""
    axes = [((slice(None),) * axis + (slice(0, _FREE),),
             (slice(None),) * axis + (slice(_FREE, None),))
            for axis in range(x.ndim)]
    below = x.copy()  # min over the sub-pinnings of tau, tau included
    for pinned, free in axes:
        below[pinned] = np.minimum(below[pinned], below[free])
    out = np.full(x.shape, np.inf)
    for pinned, free in axes:
        out[pinned] = np.minimum(out[pinned], below[free])
    return out


def marginal_stability(model, max_vars=10) -> float:
    """Smallest K such that, for every feasible pinning tau on Lambda, every
    sub-pinning tau_S and every free v: odds(v | tau) <= K * odds(v | tau_S)
    and P[v=0 | tau] >= 1/K.  Returns math.inf when some conditional forces
    v to 1.  Every pinning leaving v free is a cell of one odds array per v,
    and the sub-pinning side is one minimum over sub-cells."""
    _check_stability_guard(model, max_vars)
    tables = Tables(model)
    return _marginal_stability(
        _marginals(_pinned_masses(tables.support, tables.mu)))


def _check_stability_guard(model, max_vars=10):
    """Refuse marginal_stability past max_vars variables, before any table
    is built."""
    if model.n_vars > max_vars:
        raise ValueError(f"guarded to {max_vars} variables")


def _marginal_stability(marg) -> float:
    """marginal_stability, read from the model's _marginals table."""
    n = len(marg)
    best = 1.0
    for v in range(n):
        m1 = marg[v].take(_FREE, axis=v)
        feasible = ~np.isnan(m1)
        m0 = 1.0 - m1
        if (m0[feasible] == 0.0).any():
            return math.inf
        best = max(best, float((1.0 / m0[feasible]).max()))
        with np.errstate(divide="ignore"):
            odds = np.where(feasible, m1 / m0, np.inf)
        low = _strict_sub_min(odds)
        live = feasible & (odds > 0.0)
        if (low[live] == 0.0).any():
            return math.inf
        live &= np.isfinite(low)
        if live.any():
            best = max(best, float((odds[live] / low[live]).max()))
    return best


def _transport_cost(states_a, pa, states_b, pb) -> float:
    """Exact min-cost transport between two laws over full configurations
    (rows of int arrays), with Hamming cost; integer-scaled min-cost flow."""
    import networkx as nx  # only the flow fallback needs it

    ia = [int(round(x * _TRANSPORT_SCALE)) for x in pa]
    ib = [int(round(x * _TRANSPORT_SCALE)) for x in pb]
    ia[int(np.argmax(pa))] += _TRANSPORT_SCALE - sum(ia)
    ib[int(np.argmax(pb))] += _TRANSPORT_SCALE - sum(ib)
    ham = (states_a[:, None, :] != states_b[None, :, :]).sum(axis=2)
    g = nx.DiGraph()
    for i, m in enumerate(ia):
        g.add_node(("a", i), demand=-m)
    for j, m in enumerate(ib):
        g.add_node(("b", j), demand=m)
    for i in range(len(ia)):
        for j in range(len(ib)):
            g.add_edge(("a", i), ("b", j), weight=int(ham[i, j]))
    flow = nx.min_cost_flow(g)
    cost = nx.cost_of_flow(g, flow)
    return cost / _TRANSPORT_SCALE


def _certified_monotone(tables: Tables) -> bool:
    """Whether every pair of conditionings law(.|tau, i=1), law(.|tau, i=0)
    is ordered by stochastic dominance, certified once for the model.

    For a positive law on {0,1}^n, single-site conditionals that increase
    with the other coordinates are equivalent to the FKG lattice condition
    mu(x v y) mu(x ^ y) >= mu(x) mu(y), which pinning preserves; Holley's
    inequality (1974) then gives law(.|tau, i=1) >=_sd law(.|tau, i=0) for
    every pinning tau.  So the certificate is a binary alphabet, full product
    support with mu > 0, and check_monotone_system, which decides monotone
    conditionals up to PROB_TOL; the ordering holds up to the same
    tolerance."""
    model = tables.model
    if (tuple(model.alphabet) != (0, 1)
            or tables.support.size != 2 ** model.n_vars):
        return False
    if not (tables.mu > 0.0).all():
        return False
    try:
        return tables.monotone_system()[0]
    except ValueError:  # guarded out of the check
        return False


def coupling_independence(model, max_states=512) -> float:
    """Exact optimal value C: the worst (over pinnings and a discrepancy
    coordinate) expected Hamming distance of the best coupling between the
    two single-site conditionings.

    On a certified monotone model (_certified_monotone) the two
    conditionings are ordered, so a monotone coupling exists (Strassen 1965)
    and attains the lower bound sum_j |P[j=1 | tau, i=1] - P[j=1 | tau, i=0]|
    that every coupling obeys; the j = i term is 1.  C is then the largest
    influence-matrix row sum (diagonal included) over pinnings of up to n-1
    sites, read from the pinned-mass table with no flow.  Every other model
    solves one min-cost flow per pair of conditionings, each guarded to
    max_states states."""
    return _coupling_independence(Tables(model), max_states)


def _coupling_independence(tables: Tables, max_states=512,
                           marg=None) -> float:
    """coupling_independence over the model's Tables; marg, the _marginals
    table of its law, is built if needed and not given."""
    n, sup, probs = tables.model.n_vars, tables.support, tables.mu
    if _certified_monotone(tables):
        if marg is None:
            marg = _marginals(_pinned_masses(sup, probs))
        return max(float(np.abs(marg.take(1, axis=1 + i)
                                - marg.take(0, axis=1 + i)).sum(axis=0).max())
                   for i in range(n))
    best = 0.0
    for pins in pinnings(n, n - 1):
        for i in range(n):
            if i in pins:
                continue
            m0, m1 = sup.where({**pins, i: 0}), sup.where({**pins, i: 1})
            mass0, mass1 = probs[m0].sum(), probs[m1].sum()
            if mass0 == 0.0 or mass1 == 0.0:
                continue
            if max(m0.sum(), m1.sum()) > max_states:
                raise ValueError("conditional support exceeds the guard")
            best = max(best, _transport_cost(sup.array[m1], probs[m1] / mass1,
                                             sup.array[m0], probs[m0] / mass0))
    return best


def ei_witness(model, iterations=200, rng=None, restarts=4):
    """Search for a distribution nu maximizing
    sum_i KL(nu_i || mu_i) / KL(nu || mu): a constructive lower bound on the
    entropic-independence constant (never a certificate).

    The candidates, the k point masses and (when k <= 22) the normalized
    laws of mu on the up-sets of positive mass, are scored as matrices, in
    row blocks of at most _EI_BLOCK_ENTRIES entries (_ei_ratios), with the
    arithmetic of a loop over them: every KL adds its terms left to right
    with math.log, as exact.kl_divergence does, each site marginal is one
    dot product, and the numerator adds the n two-point KLs in site order.
    A law whose KL(nu || mu) is below 1e-12 or infinite has no ratio (NaN,
    which never wins).  The witness is the first candidate that attains the
    largest positive ratio: a later tie, even to the last bit, does not
    replace it.  Then each restart climbs from a Dirichlet draw by
    multiplicative log-normal proposals, one at a time, keeping a proposal
    whose ratio is larger (_climb_ratio), and replaces the witness if it
    ends strictly higher.

    Returns (best ratio, best nu as an array over the support)."""
    tables = Tables(model)
    return _ei_witness(tables.support, tables.mu, iterations, rng, restarts)


def _log(x) -> np.ndarray:
    """math.log of every entry of the 1-D array x, the libm log that
    exact.kl_divergence takes (np.log may round the last bit otherwise)."""
    return np.fromiter(map(math.log, x.tolist()), float, count=len(x))


def _site_marginals(nus, ind) -> np.ndarray:
    """P[v=1] of every row of nus (c, k): one dot product per row and
    column of the 0/1 table ind (k, n), the additions of a loop over rows
    and sites (a matrix product may add in another order)."""
    cols = list(ind.T)
    return np.array([[row.dot(col) for col in cols] for row in nus],
                    dtype=float).reshape(len(nus), len(cols))


def _kl_rows(nus, mu) -> np.ndarray:
    """KL(nu || mu) for every law nu along the last axis of nus, mu
    broadcast against it, the terms added left to right as
    exact.kl_divergence adds them: 0 log 0 = 0, and +inf where nu charges a
    mu-null state."""
    mu = np.broadcast_to(mu, nus.shape)
    charged = nus > 0.0
    live = charged & (mu > 0.0)
    terms = np.zeros(nus.shape)
    a = nus[live]
    with np.errstate(over="ignore"):  # a / mu overflows to inf, as in floats
        terms[live] = a * _log(a / mu[live])
    kl = np.add.accumulate(terms, axis=-1)[..., -1]
    kl[(charged & ~live).any(axis=-1)] = np.inf
    return kl


def _ei_ratios(nus, mu, marg, pair_mu) -> np.ndarray:
    """The ei_witness ratio of every row of nus (c, k), NaN where a row has
    none; marg (c, n) holds the rows' site marginals P[v=1] and pair_mu
    (n, 2) the two-point laws (1 - mu_v, mu_v)."""
    denom = _kl_rows(nus, mu)
    m1 = np.clip(marg, 0.0, 1.0)
    pair_kl = _kl_rows(np.stack([1.0 - m1, m1], axis=-1), pair_mu)
    num = np.add.accumulate(pair_kl, axis=-1)[:, -1]
    out = np.full(len(nus), np.nan)
    ok = (denom >= 1e-12) & (denom < math.inf)
    np.divide(num, denom, out=out, where=ok)
    return out


def _climb_ratio(mu, ind, pair_mu):
    """The ei_witness ratio of one law nu, None where it has none.  Above
    one variable, where mu and nu are positive everywhere, KL(nu || mu) is
    one accumulated array under np.log, which may differ from math.log in
    the last bit: the climb compares continuous proposals, where a last bit
    decides nothing.  On one variable every law has ratio 1, so the last
    bit decides which proposal the climb keeps, and KL is
    exact.kl_divergence, as everywhere else.  Each site marginal is one
    dot product with a column of ind, as in a loop over sites."""
    lean = ind.shape[1] > 1 and bool((mu > 0.0).all())
    sites = list(zip(ind.T, pair_mu.tolist()))

    def ratio(nu):
        if lean and nu.all():
            denom = float(np.add.accumulate(nu * np.log(nu / mu))[-1])
        else:
            denom = kl_divergence(nu, mu)
        if not denom or denom < 1e-12 or math.isinf(denom):
            return None
        num = 0.0
        for col, q in sites:
            m1 = min(1.0, max(0.0, float(nu.dot(col))))
            num += kl_divergence((1 - m1, m1), q)
        return num / denom

    return ratio


def _ei_candidates(sup, mu):
    """The ei_witness candidates in order, as blocks of rows of at most
    _EI_BLOCK_ENTRIES entries: the k point masses, then (when k <= 22) the
    normalized laws of mu on the up-sets of positive mass."""
    k = sup.size
    per = max(1, _EI_BLOCK_ENTRIES // k)
    for a in range(0, k, per):
        yield np.eye(min(per, k - a), k, a)
    if k <= 22:
        nus = enumerate_up_sets(sup) * mu
        mass = nus.sum(axis=1)
        keep = mass > 0.0  # not the empty set, nor a mass lost to underflow
        nus = nus[keep] / mass[keep, None]
        for a in range(0, len(nus), per):
            yield nus[a:a + per]


def _ei_witness(sup, mu, iterations=200, rng=None, restarts=4):
    """ei_witness over the model's support and law."""
    rng = rng or np.random.default_rng(0)
    k = sup.size
    ind = (sup.array == 1).astype(float)
    mu_marg = mu @ ind
    pair_mu = np.stack([1 - mu_marg, mu_marg], axis=-1)
    best_r, best_nu = 0.0, None
    for block in _ei_candidates(sup, mu):
        ratios = _ei_ratios(block, mu, _site_marginals(block, ind), pair_mu)
        # the first maximum among the positive ratios (NaN is not positive);
        # a tie with an earlier block keeps the earlier candidate
        scores = np.where(ratios > 0.0, ratios, 0.0)
        first = int(np.argmax(scores))
        if scores[first] > best_r:
            best_r, best_nu = float(ratios[first]), block[first].copy()
    ratio = _climb_ratio(mu, ind, pair_mu)
    # the climb stays sequential: it keeps about 40 % of its proposals, so
    # each proposal depends on the one before
    for _ in range(restarts):
        nu = rng.dirichlet(np.ones(k))
        steps = np.exp(0.3 * rng.standard_normal((iterations, k)))
        cur = ratio(nu)
        for step in steps:
            cand = nu * step
            cand /= cand.sum()
            r = ratio(cand)
            if r is not None and (cur is None or r > cur):
                nu, cur = cand, r
        if cur is not None and cur > best_r:
            best_r, best_nu = cur, nu
    return best_r, best_nu


# ---------------------------------------------------------------------------
# schedules and bound formulas


@dataclass(frozen=True)
class AlphaSchedule:
    """Piecewise-constant rate on [0, -log theta]: segments as (end, value)
    pairs with strictly increasing ends, the last end equal to -log theta."""

    theta: float
    segments: tuple  # ((t_end, value), ...)

    def __post_init__(self):
        if not 0 < self.theta < 1:
            raise ValueError("theta must lie in (0,1)")
        length = -math.log(self.theta)
        prev = 0.0
        if not self.segments:
            raise ValueError("empty schedule")
        for end, val in self.segments:
            if val <= 0:
                raise ValueError("rate values must be positive")
            if end <= prev:
                raise ValueError("segment ends must increase")
            prev = end
        if abs(prev - length) > 1e-9 * max(1.0, length):
            raise ValueError("segments must cover [0, -log theta] exactly")

    def value_at(self, t):
        for end, val in self.segments:
            if t <= end:
                return val
        return self.segments[-1][1]

    def integral(self) -> float:
        total, start = 0.0, 0.0
        for end, val in self.segments:
            total += val * (end - start)
            start = end
        return total

    def breakpoints(self):
        return [end for end, _ in self.segments[:-1]]


def log_kappa(schedule: AlphaSchedule) -> float:
    """log of the decay constant: -4 * integral of the rate."""
    return -4.0 * schedule.integral()


def kappa(schedule: AlphaSchedule) -> float:
    try:
        return math.exp(log_kappa(schedule))
    except OverflowError:  # pragma: no cover - log_kappa is negative
        return 0.0


def t_bound(schedule: AlphaSchedule, mu_min: float, eps: float) -> float:
    """Step bound kappa^{-1} (log log 1/mu_min + log 1/(2 eps^2)) + 1;
    +inf if the exponential overflows."""
    if not 0 < mu_min < 1 or not 0 < eps < 1:
        raise ValueError("mu_min and eps must lie in (0,1)")
    try:
        inv = math.exp(-log_kappa(schedule))
    except OverflowError:
        return math.inf
    return inv * (math.log(math.log(1 / mu_min)) + math.log(1 / (2 * eps * eps))) + 1


def _clipped_two_piece(theta, t0_break, val_lo, val_hi):
    length = -math.log(theta)
    if t0_break <= 0:
        return AlphaSchedule(theta, ((length, val_hi),))
    if t0_break >= length:
        return AlphaSchedule(theta, ((length, val_lo),))
    return AlphaSchedule(theta, ((t0_break, val_lo), (length, val_hi)))


def rc_schedule(p_min, lambda_max, n):
    """Rate schedule for the flipped random cluster model:
    theta = p_min min(1e-7, (1-lambda_max)/27) / log n;
    rate 3(1-lambda_max)^-2 up to log(1/theta_0), then 5e4,
    with theta_0 = p_min (1-lambda_max)^2 / 2."""
    if not 0 < p_min < 1 or not 0 <= lambda_max < 1 or n < 2:
        raise ValueError("need p_min in (0,1), lambda_max in [0,1), n >= 2")
    theta = p_min * min(1e-7, (1 - lambda_max) / 27) / math.log(n)
    theta0 = 0.5 * p_min * (1 - lambda_max) ** 2
    sched = _clipped_two_piece(theta, -math.log(theta0),
                               3.0 * (1 - lambda_max) ** -2, 5e4)
    return theta, sched


def bhc_schedule(lam, delta_deg, n, delta):
    """Rate schedule for the bipartite hardcore left marginal:
    theta = lam / (e^9 (1+lam)^Delta Delta log n); rate 1e4 (1+lam)^{5 Delta}
    / delta up to log(1/theta_0) with theta_0 = lam e^{-e^9}, then twice 2e4
    (1+lam)^{5 Delta}."""
    if lam <= 0 or delta_deg < 1 or n < 2 or delta <= 0:
        raise ValueError("need lam > 0, delta_deg >= 1, n >= 2, delta > 0")
    theta = lam / (math.exp(9) * (1 + lam) ** delta_deg
                   * delta_deg * math.log(n))
    t0_break = math.exp(9) - math.log(lam)
    s5 = (1 + lam) ** (5 * delta_deg)
    sched = _clipped_two_piece(theta, t0_break, 1e4 * s5 / delta, 2e4 * s5)
    return theta, sched


def uniqueness_check(lam, d, beta, w, delta):
    """Contraction test for F(x) = lam (1 + beta (1+x)^w)^(-d): F is strictly
    decreasing, so its fixed point on [0, lam] is unique; bisect to 1e-12 and
    require |F'(xhat)| <= 1 - delta.

    Returns (ok, xhat, fprime)."""
    if min(lam, d, beta, w) <= 0 or not 0 <= delta < 1:
        raise ValueError("bad parameters")

    def log_inner(x):
        # log(1 + beta (1+x)^w), stable for large w
        t = math.log(beta) + w * math.log1p(x)
        return t if t > 700 else math.log1p(math.exp(t))

    def safe_exp(t):
        if t > 700:
            return math.inf
        return 0.0 if t < -745 else math.exp(t)

    def f(x):
        return lam * safe_exp(-d * log_inner(x))

    lo, hi = 0.0, lam
    if f(lo) - lo < 0:
        raise RuntimeError("no sign change; cannot bisect")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    xhat = 0.5 * (lo + hi)
    log_abs_fp = (math.log(lam * d * beta * w) + (w - 1) * math.log1p(xhat)
                  - (d + 1) * log_inner(xhat))
    fp = -safe_exp(log_abs_fp)
    return abs(fp) <= 1 - delta, xhat, fp


def uniqueness_grid(lam, d, beta, delta, exps=range(-6, 13)):
    """Heuristic sweep: the contraction test on w in {2^k}; not exhaustive."""
    out = {}
    for k in exps:
        w = 2.0 ** k
        ok, xhat, fp = uniqueness_check(lam, d, beta, w, delta)
        out[w] = {"ok": ok, "fixed_point": xhat, "derivative": fp}
    return out


@dataclass
class IndependenceReport:
    sinf: float = None
    marginal_stability: float = None
    coupling: float = None
    ei_ratio: float = None
    ei_nu: list = None
    mu_min: float = None  # the smallest stationary probability (t_bound)


def independence_report(model, rng=None) -> IndependenceReport:
    """The four diagnostics at their defaults, from one Tables (one
    support, law and heat-bath table) and one pinned-mass table, built once
    and shared."""
    # first: the variable guard refuses a model before any n 3^n table is built
    _check_stability_guard(model)
    tables = Tables(model)
    sup, probs = tables.support, tables.mu
    marg = _marginals(_pinned_masses(sup, probs))
    rep = IndependenceReport()
    rep.marginal_stability = _marginal_stability(marg)
    rep.sinf = _max_sinf_norm(marg)
    rep.coupling = _coupling_independence(tables, marg=marg)
    r, nu = _ei_witness(sup, probs, rng=rng)
    rep.ei_ratio = r
    rep.ei_nu = None if nu is None else [float(x) for x in nu]
    rep.mu_min = float(probs.min())
    return rep
