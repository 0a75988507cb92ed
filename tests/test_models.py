import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from glauberlab import dynamics, exact, models
from glauberlab.models import (BipartiteHardcoreModel, Graph, HardcoreModel,
                               IsingModel, LeftMarginalModel,
                               RandomClusterModel, SubgraphWorldModel,
                               components, flip, lambda_c, lift_model, pin,
                               rc_marginal_ratio, tilt)
from conftest import (random_bhc, random_graph, random_hardcore,
                      random_monotone_model, random_rc)
import oracles
from oracles import rc_for_ising, sw_for_rc

K2 = Graph(2, [(0, 1)])
TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])


class TestGraph:
    def test_parse(self):
        g = Graph.from_text("3 2\n0 1\n1 2\n")
        assert g.n == 3 and g.edges == [(0, 1), (1, 2)]

    def test_parse_bipartite(self):
        g = Graph.from_text("3 2 bipartite 1\n0 1\n0 2\n")
        assert g.bipartite_k == 1

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n", "3\n0 1\n", "3 1\n0 1\n1 2\n",
        "3 2\n0 1\n1 0\n", "3 1\n0\n", "3 1 extra\n0 1\n",
        "3 2 bipartite 1 junk\n0 1\n0 2\n", "3 0 bipartite 4\n",
        "3 0 bipartite -1\n"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            Graph.from_text(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123 \n#-bipartite", max_size=40) | st.text())
    def test_parse_returns_graph_or_value_error(self, text):
        try:
            g = Graph.from_text(text)
        except ValueError:
            return
        assert isinstance(g, Graph)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_rejects_non_crossing_edge(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1)], bipartite_k=2)

    def test_components(self):
        comps = components(4, [(0, 1)])
        assert sorted(map(sorted, comps)) == [[0, 1], [2], [3]]


class TestWeights:
    def test_rc_k2(self):
        rc = RandomClusterModel(K2, [0.5], [1.0, 1.0])
        assert rc.weight((0,)) == pytest.approx(4.0)
        assert rc.weight((1,)) == pytest.approx(2.0)

    def test_ising_k2(self):
        ising = IsingModel(K2, [2.0], [1.0, 1.0])
        want = {(0, 0): 2.0, (1, 1): 2.0, (0, 1): 1.0, (1, 0): 1.0}
        for s, w in want.items():
            assert ising.weight(s) == pytest.approx(w)

    def test_hardcore_blocked(self):
        hc = HardcoreModel(K2, 1.5)
        assert hc.log_weight((1, 1)) is None
        assert hc.weight((1, 0)) == pytest.approx(1.5)

    def test_subgraph_world(self):
        sw = SubgraphWorldModel(TRIANGLE, [0.25] * 3, [0.5, 0.5, 0.5])
        # one edge present: both endpoints odd
        assert sw.weight((1, 0, 0)) == pytest.approx((0.25 / 0.75) * 0.25)
        # full triangle: all degrees even
        assert sw.weight((1, 1, 1)) == pytest.approx((0.25 / 0.75) ** 3)

    def test_bipartite_hardcore_encoding(self):
        g = Graph(2, [(0, 1)], bipartite_k=1)
        m = BipartiteHardcoreModel(g, 2.0, 3.0)
        # left value 0 = occupied, right value 1 = occupied
        assert m.weight((1, 0)) == pytest.approx(1.0)   # empty set
        assert m.weight((0, 0)) == pytest.approx(2.0)   # left occupied
        assert m.weight((1, 1)) == pytest.approx(3.0)   # right occupied
        assert m.log_weight((0, 1)) is None             # both: blocked

    def test_normalization(self, rng):
        for _ in range(10):
            m = random_monotone_model(rng)
            sup = exact.enumerate_support(m)
            assert abs(exact.stationary_distribution(m, sup).sum() - 1) < 1e-12


class TestConditionals:
    def test_hardcore_isolated(self):
        hc = HardcoreModel(Graph(1, []), 1.0)
        assert hc.conditional((0,), 0)[1] == pytest.approx(0.5)

    def test_hardcore_neighbor_occupied(self):
        hc = HardcoreModel(K2, 1.0)
        assert hc.conditional((1, 0), 1) == (1.0, 0.0)

    def test_lifted_triple(self):
        # base marginal 1/2 and theta = 1/2 splits as (1/2, 1/4, 1/4)
        base = HardcoreModel(Graph(1, []), 1.0)
        lm = lift_model(base, 0.5)
        assert lm.conditional((0,), 0) == pytest.approx((0.5, 0.25, 0.25))

    def test_fast_paths_match_generic(self, rng):
        for _ in range(15):
            g = random_graph(rng)
            m = rng.choice([
                random_rc(rng, g),
                random_hardcore(rng, g),
                SubgraphWorldModel(g, rng.uniform(0.1, 0.9, g.m).tolist(),
                                   rng.uniform(0.05, 1.0, g.n).tolist()),
            ])
            for s in exact.enumerate_support(m).states:
                for v in range(m.n_vars):
                    fast = m.conditional(s, v)
                    slow = models.Model._conditional_generic(m, s, v)
                    assert fast == pytest.approx(slow, abs=1e-12)

    def test_left_marginal_closed_form(self, rng):
        for _ in range(10):
            bhc = random_bhc(rng)
            lm = LeftMarginalModel(bhc)
            for s in itertools.product((0, 1), repeat=lm.n_vars):
                # weight must equal the base summed over the right side
                total = 0.0
                for r in itertools.product((0, 1), repeat=bhc.n_vars - bhc.k):
                    total += bhc.weight(s + r)
                assert lm.weight(s) == pytest.approx(total, rel=1e-12)
                for v in range(lm.n_vars):
                    fast = lm.conditional(s, v)
                    slow = models.Model._conditional_generic(lm, s, v)
                    assert fast == pytest.approx(slow, abs=1e-12)

    def test_lifted_matches_generic(self, rng):
        for _ in range(5):
            m = lift_model(random_monotone_model(rng, max_vars=3),
                           float(rng.uniform(0.2, 0.8)))
            for s in exact.enumerate_support(m).states:
                for v in range(m.n_vars):
                    assert m.conditional(s, v) == pytest.approx(
                        models.Model._conditional_generic(m, s, v), abs=1e-12)

    def test_infeasible_pinning_raises(self):
        hc = HardcoreModel(K2, 1.0)
        m = pin(hc, {0: 0})
        # the conditioning state contradicts the pin, so no completion exists
        with pytest.raises(ValueError):
            models.Model._conditional_generic(m, (1, 0), 1)


class TestRcMarginalRatio:
    def test_k2_empty(self):
        rc = RandomClusterModel(K2, [0.5], [1.0, 1.0])
        assert rc_marginal_ratio(rc, [], 0) == pytest.approx(0.5)
        p1 = rc.conditional((0,), 0)[1]
        assert p1 == pytest.approx(1 / 3)

    def test_triangle_same_component(self):
        rc = RandomClusterModel(TRIANGLE, [0.3] * 3, [0.7, 0.2, 0.9])
        # other two edges already connect the endpoints
        assert rc_marginal_ratio(rc, [1, 2], 0) == pytest.approx(0.3 / 0.7)

    def test_all_lambda_zero(self):
        rc = RandomClusterModel(TRIANGLE, [0.4] * 3, [0.0, 0.0, 0.0])
        for e in range(3):
            assert rc_marginal_ratio(rc, [], e) == pytest.approx(0.4 / 0.6)

    def test_matches_weights(self, rng):
        for _ in range(10):
            rc = random_rc(rng)
            state = tuple(int(rng.integers(2)) for _ in range(rc.n_vars))
            e = int(rng.integers(rc.n_vars))
            s_in = state[:e] + (1,) + state[e + 1:]
            s_out = state[:e] + (0,) + state[e + 1:]
            assert rc_marginal_ratio(
                rc, [i for i in range(rc.n_vars) if state[i] == 1], e
            ) == pytest.approx(rc.weight(s_in) / rc.weight(s_out), rel=1e-12)

    def test_out_of_range(self):
        rc = RandomClusterModel(K2, [0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            rc_marginal_ratio(rc, [], 3)


CYCLE16 = Graph(16, [(i, (i + 1) % 16) for i in range(16)])


class _CountingDict(dict):
    clears = 0

    def clear(self):
        self.clears += 1
        super().clear()


class TestComponentCache:
    """RandomClusterModel caches the components of each edge set and empties
    the cache before it would pass 4096 entries; a key that arrives as the
    cache is emptied used to raise KeyError."""

    def test_more_keys_than_the_cache_holds(self):
        rc = RandomClusterModel(CYCLE16, [0.5] * 16, [0.5] * 16)
        rc._comp_cache = _CountingDict()
        for key in itertools.islice(itertools.combinations(range(16), 5),
                                    4097):
            assert rc._components(key) == components(
                16, [CYCLE16.edges[i] for i in key])
        assert rc._comp_cache.clears == 1
        assert len(rc._comp_cache) == 1

    def test_long_run_matches_uncached_components(self):
        rc = RandomClusterModel(CYCLE16, [0.5] * 16, [0.5] * 16)
        rc._comp_cache = _CountingDict()
        run = dynamics.glauber_run(rc, (0,) * 16, 200_000, 1)
        assert rc._comp_cache.clears >= 1
        plain = RandomClusterModel(CYCLE16, [0.5] * 16, [0.5] * 16)
        plain._components = lambda idx: components(
            16, [CYCLE16.edges[i] for i in idx])
        # the first 20,000 steps of the cached run empty its cache twice
        short = dynamics.glauber_run(plain, (0,) * 16, 20_000, 1)
        assert run.log[:len(short.log)] == short.log
        assert run.log[len(short.log)][0] > 20_000


def _same_distribution(a, b, tol=1e-12):
    sup_a = exact.enumerate_support(a)
    sup_b = exact.enumerate_support(b)
    if sup_a.states != sup_b.states:
        return False
    pa = exact.stationary_distribution(a, sup_a)
    pb = exact.stationary_distribution(b, sup_b)
    return bool(np.max(np.abs(pa - pb)) < tol)


class TestTransforms:
    def test_tilt_hardcore_rewrites(self):
        hc = HardcoreModel(K2, 2.0)
        t = tilt(hc, 0.25)
        assert isinstance(t, HardcoreModel)
        assert t.lam == pytest.approx(0.5)

    def test_tilt_one_is_identity(self, rng):
        m = random_rc(rng)
        assert _same_distribution(m, tilt(m, 1.0))

    def test_tilt_composes(self, rng):
        m = flip(random_rc(rng))
        assert _same_distribution(tilt(tilt(m, 0.5), 0.4), tilt(m, 0.2))

    @pytest.mark.parametrize("model, name", [
        (models.TiltedModel(HardcoreModel(K2, 0.3), 0.3), "tilt parameter"),
        (HardcoreModel(K2, 0.3), "lambda")])
    def test_tilt_names_an_underflowing_product(self, model, name):
        # both factors are positive; their product is not
        with pytest.raises(ValueError, match=f"^{name} 0.3 \\* 5e-324 "
                                             "underflows to 0$"):
            tilt(model, 5e-324)
        # a parameter that is not positive is refused as before
        with pytest.raises(ValueError, match="must be positive$"):
            tilt(model, 0.0)

    @pytest.mark.parametrize("model, name", [
        (models.TiltedModel(HardcoreModel(K2, 0.3), 1e308), "tilt parameter"),
        (HardcoreModel(K2, 1e308), "lambda")])
    def test_tilt_names_an_overflowing_product(self, model, name):
        with pytest.raises(ValueError, match=f"^{name} 1e\\+308 \\* 1e\\+308 "
                                             "overflows to inf$"):
            tilt(model, 1e308)

    def test_flip_involution(self, rng):
        m = random_rc(rng)
        assert flip(flip(m)) is m
        sup = exact.enumerate_support(m)
        for s in sup.states:
            flipped = tuple(1 - v for v in s)
            assert flip(m).weight(flipped) == pytest.approx(m.weight(s))

    def test_pin_restricts_support(self):
        hc = HardcoreModel(K2, 1.0)
        m = pin(hc, {0: 1})
        assert exact.enumerate_support(m).states == ((1, 0),)

    def test_infeasible_pin_raises(self):
        hc = HardcoreModel(K2, 1.0)
        with pytest.raises(ValueError, match="infeasible"):
            pin(hc, {0: 1, 1: 1})

    def test_lifted_weight_formula(self, rng):
        m = flip(random_rc(rng))
        theta = 0.3
        lm = lift_model(m, theta)
        for s in exact.enumerate_support(lm).states:
            want = (m.weight(models.contract(s))
                    * theta ** models.num_ones(s)
                    * (1 - theta) ** models.num_stars(s))
            assert lm.weight(s) == pytest.approx(want, rel=1e-12)


class TestMonotoneFacts:
    def test_flipped_rc_monotone(self, rng):
        for _ in range(5):
            ok, wit = exact.check_monotone_system(flip(random_rc(rng)))
            assert ok, wit

    def test_bhc_and_left_marginal_monotone(self, rng):
        for _ in range(5):
            bhc = random_bhc(rng)
            assert exact.check_monotone_system(bhc)[0]
            assert exact.check_monotone_system(LeftMarginalModel(bhc))[0]

    def test_lifted_monotone(self, rng):
        for _ in range(3):
            m = random_monotone_model(rng, max_vars=3)
            assert exact.check_monotone_system(lift_model(m, 0.4))[0]

    def test_tilted_monotone(self, rng):
        for _ in range(3):
            m = tilt(random_monotone_model(rng, max_vars=3), 0.6)
            assert exact.check_monotone_system(m)[0]

    def test_plain_hardcore_not_monotone(self):
        ok, wit = exact.check_monotone_system(HardcoreModel(K2, 1.0))
        assert not ok
        v, lo, hi = wit
        assert lo != hi


class TestCouplingConstructors:
    def test_sw_parameters(self):
        rc = RandomClusterModel(K2, [0.5], [0.0, 0.0])
        sw = sw_for_rc(rc)
        assert sw.p == [0.25]
        assert sw.eta == [1.0, 1.0]

    def test_rc_for_ising(self):
        ising = IsingModel(K2, [2.0], [1.0, 1.0])
        rc = rc_for_ising(ising)
        assert rc.p == [0.5]


class TestLambdaC:
    def test_values(self):
        assert lambda_c(3) == 4.0
        assert lambda_c(4) == 27 / 16

    def test_guard(self):
        with pytest.raises(ValueError):
            lambda_c(2)


class TestParameterValidation:
    def test_rc_bad_p(self):
        with pytest.raises(ValueError):
            RandomClusterModel(K2, [1.5], [1.0, 1.0])

    def test_ising_bad_beta(self):
        with pytest.raises(ValueError):
            IsingModel(K2, [0.5], [1.0, 1.0])

    def test_bhc_needs_bipartition(self):
        with pytest.raises(ValueError):
            BipartiteHardcoreModel(K2, 1.0, 1.0)

    def test_tilt_rejects_ternary(self):
        lm = lift_model(HardcoreModel(K2, 1.0), 0.5)
        with pytest.raises(ValueError):
            models.TiltedModel(lm, 0.5)


# a site field: 0, 1 or any value between
FIELD = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
UNIT = st.floats(0.01, 0.99)


@st.composite
def any_models(draw):
    """A model of every family with 1 to 8 variables (drawn uniformly),
    fields 0, 1 or between, under up to three transforms (flip, tilt, pin,
    a lift of at most 5 variables)."""
    family = draw(st.sampled_from(["rc", "ising", "sw", "hardcore", "bhc",
                                   "left-marginal"]))
    size = draw(st.sampled_from(range(1, 9)))
    if family in ("bhc", "left-marginal"):
        # bhc: size vertices; left marginal: size left vertices
        if size == 1 and family == "bhc" or size == 8 and family != "bhc":
            reject()
        n = size if family == "bhc" else draw(
            st.sampled_from(range(size + 1, 9)))
        k = (draw(st.sampled_from(range(1, n))) if family == "bhc"
             else size)
        pairs = [(u, v) for u in range(k) for v in range(k, n)]
    else:
        # rc, sw: size edges; ising, hard-core: size vertices
        n = size if family in ("ising", "hardcore") else draw(st.sampled_from(
            [n for n in range(2, 7) if n * (n - 1) >= 2 * size]))
        k = None
        pairs = list(itertools.combinations(range(n), 2))
    if family in ("rc", "sw"):
        m = size
    else:
        m = draw(st.sampled_from(range(min(8, len(pairs)) + 1)))
    g = Graph(n, draw(st.permutations(pairs))[:m], bipartite_k=k)
    fields = draw(st.lists(FIELD, min_size=g.n, max_size=g.n))
    if family in ("rc", "sw"):
        p = draw(st.lists(UNIT, min_size=g.m, max_size=g.m))
        m = (RandomClusterModel if family == "rc" else SubgraphWorldModel)(
            g, p, fields)
    elif family == "ising":
        m = IsingModel(g, draw(st.lists(st.floats(1.01, 4.0), min_size=g.m,
                                        max_size=g.m)), fields)
    elif family == "hardcore":
        m = HardcoreModel(g, draw(st.floats(0.05, 3.0)))
    else:
        m = BipartiteHardcoreModel(g, draw(st.floats(0.05, 3.0)),
                                   draw(st.floats(0.05, 3.0)))
        if family == "left-marginal":
            m = LeftMarginalModel(m)
    for kind in draw(st.lists(st.sampled_from(["flip", "tilt", "pin",
                                               "lift"]), max_size=3)):
        if kind == "pin":
            v = draw(st.integers(0, m.n_vars - 1))
            try:
                m = pin(m, {v: draw(st.sampled_from(m.alphabet))})
            except ValueError:  # an infeasible or contradictory pin
                reject()
        elif m.ternary:
            continue
        elif kind == "flip":
            m = flip(m)
        elif kind == "tilt":
            try:
                m = tilt(m, draw(st.floats(0.05, 3.0)))
            except ValueError:  # a tilt of lambda that underflows
                reject()
        elif m.n_vars <= 5:
            m = lift_model(m, draw(UNIT))
    return m


def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError or
    ZeroDivisionError it raises."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as e:
        return type(e), str(e)


def same_outcome(batch, per_state):
    """The array form's outcome equals the per-state outcomes: the first
    raising state's error, or the per-state values bit for bit (NaN for
    None)."""
    raised = [o for o in per_state if isinstance(o, tuple)
              and isinstance(o[0], type)]
    if raised:
        assert batch == raised[0]
        return
    want = np.array(per_state, dtype=float)
    assert batch.dtype == np.float64 and batch.shape == want.shape
    assert batch.tobytes() == want.tobytes()


class TestArrayForms:
    """log_weight and conditional over an array of states equal their
    per-state forms at every row, bit for bit, and the tables the exact
    layer evaluates with them equal the per-state oracles."""

    @settings(max_examples=150, deadline=None)
    @given(any_models())
    def test_array_forms_equal_the_per_state_forms(self, m):
        # each family's array form, and the row loop that takes arrays of
        # at most _ROW_LOOP rows
        states = list(itertools.product(m.alphabet, repeat=m.n_vars))
        rows = np.array(states, dtype=np.int8)
        per = [m.log_weight(s) for s in states]
        laws = [[outcome(m.conditional, s, v) for s in states]
                for v in range(m.n_vars)]
        for row_loop in (0, models._ROW_LOOP, len(rows)):
            with mock.patch.object(models, "_ROW_LOOP", row_loop):
                lws = m.log_weight(rows)
                same_outcome(lws, per)
                assert np.isnan(lws).tolist() == [lw is None for lw in per]
                for v in range(m.n_vars):
                    same_outcome(outcome(m.conditional, rows, v), laws[v])
                # a one-row array and an empty one
                assert m.log_weight(rows[:1]).tobytes() == lws[:1].tobytes()
                assert m.log_weight(rows[:0]).shape == (0,)
                assert m.conditional(rows[:0], 0).shape == (
                    0, len(m.alphabet))

    @settings(max_examples=100, deadline=None)
    @given(any_models(), UNIT)
    def test_tables_equal_the_oracles(self, m, theta):
        support, lws = oracles.per_candidate_support(m)
        mu = np.exp(lws - lws.max())
        table = outcome(oracles.per_state_site_conditionals, m, support)
        tilted = None if m.ternary else outcome(
            oracles.per_state_log_weights, tilt(m, theta), support)
        for row_loop in (0, models._ROW_LOOP):
            with mock.patch.object(models, "_ROW_LOOP", row_loop):
                t = exact.Tables(m, theta)
                assert t.support.states == support.states
                assert t.support.array.tobytes() == support.array.tobytes()
                assert t.lws.tobytes() == lws.tobytes()
                assert t.mu.tobytes() == (mu / mu.sum()).tobytes()
                assert exact.stationary_distribution(
                    m, support).tobytes() == t.mu.tobytes()
                got = outcome(lambda: t.table)
                if isinstance(table, tuple):
                    assert got == table
                else:
                    assert [(fib.site, cond.tobytes()) for fib, cond in got
                            ] == [(fib.site, cond.tobytes())
                                  for fib, cond in table]
                if tilted is not None:
                    got = outcome(lambda: t.tilted_lws)
                    assert (got == tilted if isinstance(tilted, tuple)
                            else got.tobytes() == tilted.tobytes())

    def test_support_iter_yields_one_evaluated_block_at_a_time(self):
        # 8 candidates in blocks of 3: one log_weight call per block, and
        # the kept rows and log weights are the per-candidate oracle's
        m = HardcoreModel(Graph(3, [(0, 1), (1, 2)]), 1.5)
        seen = []
        log_weight = models.Model.log_weight

        def spy(self, state):
            seen.append(state.tolist())
            return log_weight(self, state)

        with mock.patch.object(models, "_ENUM_BLOCK", 3), \
                mock.patch.object(models.Model, "log_weight", spy):
            blocks = list(m.support_iter())
        assert seen == [[[0, 0, 0], [0, 0, 1], [0, 1, 0]],
                        [[0, 1, 1], [1, 0, 0], [1, 0, 1]],
                        [[1, 1, 0], [1, 1, 1]]]
        support, lws = oracles.per_candidate_support(m)
        assert [rows.tolist() for rows, _ in blocks] == [
            [[0, 0, 0], [0, 0, 1], [0, 1, 0]], [[1, 0, 0], [1, 0, 1]], []]
        assert np.concatenate([rows for rows, _ in blocks]).tobytes() == (
            support.array.tobytes())
        assert np.concatenate([w for _, w in blocks]).tobytes() == (
            lws.tobytes())

    def test_a_1d_array_is_one_state(self):
        # a 1-D array takes the per-state form, as a tuple does, with as
        # many sites as a row loop takes and with more
        for n in (3, models._ROW_LOOP + 1):
            g = Graph(n + 1, [(i, i + 1) for i in range(n)])
            rc = RandomClusterModel(g, [0.4] * n, [0.5] * (n + 1))
            family = (rc, flip(rc), pin(rc, {0: 1}), HardcoreModel(g, 1.5),
                      lift_model(rc, 0.3))
            for m in family:
                for s in ((0,) * m.n_vars, (1,) * m.n_vars,
                          tuple(i % 2 for i in range(m.n_vars))):
                    a = np.array(s, dtype=np.int8)
                    assert m.log_weight(a) == m.log_weight(s)
                    for v in (0, m.n_vars - 1):
                        assert m.conditional(a, v) == m.conditional(s, v)

    def test_messages(self, monkeypatch):
        # the guard refuses before any log weight; a conditional with no
        # feasible completion, and a pin that leaves none, are refused by
        # name in both forms
        big = RandomClusterModel(Graph(21, [(i, i + 1) for i in range(20)]
                                       + [(0, 20)]), [0.5] * 21, [0.5] * 21)
        calls = []
        monkeypatch.setattr(RandomClusterModel, "log_weight",
                            lambda self, s: calls.append(s))
        with pytest.raises(ValueError, match="^state space of size 2097152 "
                                             "exceeds the guard 1048576$"):
            exact.enumerate_support(big)
        assert calls == []
        ising = IsingModel(K2, [2.0], [0.0, 0.5])
        message = "^infeasible pinning: no completion has weight$"
        rows = np.array([[0, 0], [1, 0]], dtype=np.int8)
        for row_loop in (0, models._ROW_LOOP):
            with mock.patch.object(models, "_ROW_LOOP", row_loop):
                for state in ((1, 0), rows):
                    with pytest.raises(ValueError, match=message):
                        ising.conditional(state, 1)
        with pytest.raises(ValueError, match="^infeasible pin: the slice "
                                             "has empty support$"):
            pin(ising, {0: 1})
