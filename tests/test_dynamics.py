import gc
import hashlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glauberlab import dynamics, exact, models
from glauberlab.dynamics import (ChainRun, Schedule, censored_glauber,
                                 field_dynamics_step, field_run, glauber_run,
                                 make_rng, simulate_algorithm)
from glauberlab.models import Graph, HardcoreModel, RandomClusterModel, flip
from glauberlab.ordercore import Poset
from conftest import random_hardcore, random_monotone_model
import oracles

K2 = Graph(2, [(0, 1)])


def k2_flipped_rc():
    return flip(RandomClusterModel(K2, [0.5], [1.0, 1.0]))


def algorithm_sequence(m, theta, t1, t2):
    """The Tables of m at theta and the kernels of its simulation run."""
    t = exact.Tables(m, theta)
    return t, exact.algorithm_kernel_sequence(t.freeze, t.starg, t1, t2)


class TestRng:
    def test_streams_differ_by_purpose(self):
        a = make_rng(1, 0, "x").random(4)
        b = make_rng(1, 0, "y").random(4)
        assert not np.allclose(a, b)

    def test_streams_differ_by_chain(self):
        a = make_rng(1, 0, "x").random(4)
        b = make_rng(1, 1, "x").random(4)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        assert np.array_equal(make_rng(9, 2, "z").random(8),
                              make_rng(9, 2, "z").random(8))


class TestGlauberRun:
    def test_same_seed_same_trajectory(self):
        m = k2_flipped_rc()
        a = glauber_run(m, (1,), 200, seed=5, record_at=range(201))
        b = glauber_run(m, (1,), 200, seed=5, record_at=range(201))
        assert a.recorded == b.recorded
        assert a.log == b.log

    def test_replay_matches(self):
        m = k2_flipped_rc()
        run = glauber_run(m, (1,), 300, seed=11, record_at=[0, 7, 150, 300])
        assert run.replay() == run.recorded

    def test_infeasible_start(self):
        hc = HardcoreModel(K2, 1.0)
        with pytest.raises(ValueError, match="infeasible start: the start "
                           "state has weight 0"):
            glauber_run(hc, (1, 1), 10, seed=0)
        for x0 in ((0,), (0, 0, 0)):
            with pytest.raises(ValueError, match=f"infeasible start: the "
                               f"start state has {len(x0)} values for 2 "
                               "variables"):
                glauber_run(hc, x0, 10, seed=0)

    def test_start_outside_the_alphabet(self):
        rc = RandomClusterModel(Graph(3, [(0, 1), (1, 2), (0, 2)]),
                                [0.5] * 3, [0.5] * 3)
        assert rc.log_weight((2, 1, 1)) is not None
        with pytest.raises(ValueError, match="infeasible start: values "
                           "outside the model alphabet"):
            glauber_run(rc, (2, 1, 1), 10, seed=0)

    def test_support_closure_hardcore(self):
        hc = HardcoreModel(Graph(3, [(0, 1), (1, 2)]), 2.0)
        run = glauber_run(hc, (0, 0, 0), 500, seed=3, record_at=range(501))
        for s in run.recorded.values():
            assert hc.log_weight(s) is not None

    def test_single_variable_one_step_is_mu(self):
        m = k2_flipped_rc()
        sup = exact.enumerate_support(m)
        mu = exact.stationary_distribution(m, sup)
        cnt = Counter(glauber_run(m, (0,), 1, seed=s).final
                      for s in range(40000))
        emp = np.array([cnt[s] / 40000 for s in sup.states])
        assert exact.tv_distance(emp, mu) < 0.01


class TestFieldDynamics:
    def test_theta_range(self):
        with pytest.raises(ValueError):
            field_dynamics_step(k2_flipped_rc(), 1.5, (1,),
                               np.random.default_rng(0))

    def test_one_step_law_matches_kernel(self, rng):
        theta = 0.4
        m = random_monotone_model(rng, max_vars=2)
        ker = exact.fd_kernel(m, theta)
        sup = ker.support
        x0 = sup.states[-1]
        i = sup.index(x0)
        stream = make_rng(17, 0, "fd-test")
        cnt = Counter(field_dynamics_step(m, theta, x0, stream)
                      for _ in range(40000))
        emp = np.array([cnt[s] / 40000 for s in sup.states])
        assert exact.tv_distance(emp, ker.matrix[i]) < 0.015

    def test_empty_slice_is_rejected(self):
        # both 1-sites of an infeasible hard-core state stay pinned
        with pytest.raises(ValueError, match="infeasible"):
            field_dynamics_step(HardcoreModel(K2, 1.0), 1e-9, (1, 1),
                                make_rng(0, 0, "fd"))


class TestFieldRun:
    def test_replay_matches(self):
        m = flip(RandomClusterModel(Graph(3, [(0, 1), (1, 2)]),
                                    [0.4, 0.6], [0.5, 1.0, 0.8]))
        run = field_run(m, 0.4, (1, 1), 60, seed=4, record_at=[0, 5, 31, 60])
        assert run.log
        assert run.replay() == run.recorded
        assert run.recorded[60] == run.final

    def test_infeasible_start(self):
        hc = HardcoreModel(K2, 1.0)
        with pytest.raises(ValueError):
            field_run(hc, 0.5, (1, 1), 10, seed=0)

    def test_theta_range(self):
        with pytest.raises(ValueError):
            field_run(k2_flipped_rc(), 1.5, (1,), 0, seed=0)

    def test_underflowed_slice_is_refused(self):
        # as fd_kernel does: no draw from the NaN law of a zero-weight slice
        m = flip(RandomClusterModel(Graph(3, [(0, 1), (0, 2)]), [0.5, 0.5],
                                    [0.5, 0.5, 0.5]))
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="underflow"):
                field_run(m, 1e-300, (1, 1), 10, seed=0)

    def test_first_step_is_field_dynamics_step(self, rng):
        # field_run draws from its table what field_dynamics_step draws from
        # a fresh one, on the same stream
        for seed in range(6):
            m = random_monotone_model(rng)
            x0 = (1,) * m.n_vars
            run = field_run(m, 0.4, x0, 1, seed)
            step = field_dynamics_step(m, 0.4, x0, make_rng(seed, 0, "field"))
            assert run.final == step


class TestSimulateAlgorithm:
    def test_infeasible_start(self):
        hc = HardcoreModel(K2, 1.0)  # all-1 is not an independent set
        with pytest.raises(ValueError, match="infeasible"):
            simulate_algorithm(hc, 0.5, 1, 1, seed=0)

    def test_replay(self):
        m = flip(RandomClusterModel(Graph(3, [(0, 1), (1, 2)]),
                                    [0.4, 0.6], [0.5, 1.0, 0.8]))
        run, final = simulate_algorithm(m, 0.5, 3, 4, seed=21,
                                        record_at=range(13))
        assert run.replay() == run.recorded
        assert final == models.contract(run.final)

    def test_recorded_states_contract_into_support(self):
        m = k2_flipped_rc()
        run, final = simulate_algorithm(m, 0.5, 2, 3, seed=2,
                                        record_at=range(7))
        for s in run.recorded.values():
            assert m.log_weight(models.contract(s)) is not None
        assert m.log_weight(final) is not None

    def test_one_step_law_matches_kernel_product(self):
        m = k2_flipped_rc()
        theta, t1, t2 = 0.5, 1, 1
        t, seq = algorithm_sequence(m, theta, t1, t2)
        pi0 = t.lift(exact.point_mass(t.support, (1,)))
        want = exact.propagate(pi0, seq)[-1]
        cnt = Counter()
        n = 40000
        for s in range(n):
            run, _ = simulate_algorithm(m, theta, t1, t2, seed=s)
            cnt[run.final] += 1
        emp = np.array([cnt[s] / n for s in t.lsup.states])
        assert exact.tv_distance(emp, want) < 0.015

    def test_final_tv_decreases_in_t2(self):
        # more inner steps bring the output closer to the stationary law
        m = k2_flipped_rc()
        theta = 0.5
        sup = exact.enumerate_support(m)
        mu = exact.stationary_distribution(m, sup)
        tvs = []
        for t2 in (1, 4, 16):
            t, seq = algorithm_sequence(m, theta, 2, t2)
            pi0 = t.lift(exact.point_mass(sup, (1,)))
            out = t.contract(exact.propagate(pi0, seq)[-1])
            tvs.append(exact.tv_distance(out, mu))
        assert tvs[0] >= tvs[1] >= tvs[2]


class TestCensored:
    def test_never_schedule_constant(self):
        m = k2_flipped_rc()
        run = censored_glauber(m, (1,), Schedule.never(), 50, seed=0)
        assert run.final == (1,)
        assert run.log == []

    def test_always_schedule_moves(self):
        m = k2_flipped_rc()
        run = censored_glauber(m, (1,), Schedule.always(1), 200, seed=0)
        assert len(run.log) == 200

    def test_always_matches_glauber_law(self):
        m = k2_flipped_rc()
        sup = exact.enumerate_support(m)
        mu = exact.stationary_distribution(m, sup)
        cnt = Counter(censored_glauber(m, (1,), Schedule.always(1), 3,
                                       seed=s).final for s in range(30000))
        emp = np.array([cnt[s] / 30000 for s in sup.states])
        assert exact.tv_distance(emp, mu) < 0.015

    def test_two_level_schedule_state_independent(self):
        sched = Schedule.two_level([0, 1], [2, 3], period=4, seed=9)
        first = [sched.rule(t) for t in range(40)]
        again = [sched.rule(t) for t in range(40)]
        assert first == again
        for t, allowed in enumerate(first):
            assert {2, 3} <= allowed
            outer = allowed - {2, 3}
            assert len(outer) == 1 and outer <= {0, 1}
            assert allowed == first[(t // 4) * 4]

    def test_two_level_allowed_set_built_once_per_block(self):
        sched = Schedule.two_level([0, 1], [2, 3], period=4, seed=9)
        assert sched.rule(4) is sched.rule(7)
        assert sched.rule(4) == oracles.per_block_two_level(
            [0, 1], [2, 3], 4, 9)(4)

    @pytest.mark.parametrize("n_left", [1, 2, 3, 5, 6])
    def test_two_level_draws_ahead_in_chunks(self, n_left):
        # the draws come in chunks of 1, 1, 2, 4, ... blocks; reading block
        # 100 first and then every block crosses each chunk boundary
        left, right = range(n_left), range(n_left, n_left + 2)
        sched = Schedule.two_level(left, right, 3, 11)
        want = oracles.per_block_two_level(left, right, 3, 11)
        assert sched.rule(300) == want(300)
        assert ([sched.rule(t) for t in range(0, 400, 3)]
                == [want(t) for t in range(0, 400, 3)])

    @pytest.mark.parametrize("period", [0, -1])
    def test_two_level_period_below_one(self, period):
        with pytest.raises(ValueError, match="period must be at least 1"):
            Schedule.two_level([0], [1], period, 0)

    def test_two_level_empty_left_side(self):
        # numpy's rng.integers(0) raised "high <= 0" at the first step
        with pytest.raises(ValueError, match="^a two-level schedule needs at "
                                             "least one left vertex$"):
            Schedule.two_level([], [0, 1], 3, 0)

    @pytest.mark.parametrize("period, calls", [(1, 40), (7, 6), (None, 1)])
    def test_rule_read_once_per_block(self, period, calls):
        # a rule constant on blocks of 7 steps, read where a block starts;
        # the run equals the per-step loop asking it at every step
        read = []

        def rule(t):
            read.append(t)
            return frozenset({t // 7 % 3} if period else {0, 2})

        m = models.BipartiteHardcoreModel(Graph(3, [(0, 2), (1, 2)],
                                                bipartite_k=2), 1.3, 0.7)
        run = censored_glauber(m, (0,) * 3, Schedule(rule, period=period), 40,
                               5, record_at=range(41))
        assert len(read) == calls
        assert read == sorted(set(read))
        ref = oracles.per_step_heat_bath_run(
            m, (0,) * 3, 40, 5, record_at=range(41), purpose="censored",
            allowed=lambda t: frozenset({t // 7 % 3} if period else {0, 2}))
        assert same_run(run, ref)

    def test_schedule_periods(self):
        assert Schedule.always(3).period is Schedule.never().period is None
        assert Schedule.two_level([0], [1], 4, 0).period == 4
        assert Schedule(lambda t: frozenset()).period == 1
        with pytest.raises(ValueError, match="period must be at least 1"):
            Schedule(lambda t: frozenset(), period=0)

    def test_censoring_slows_convergence(self):
        # censoring a monotone chain from the top state cannot help: exact
        # one-block TV vs stationarity is no smaller than uncensored
        g = Graph(2, [(0, 1)], bipartite_k=1)
        m = models.BipartiteHardcoreModel(g, 1.3, 0.7)
        sup = exact.enumerate_support(m)
        mu = exact.stationary_distribution(m, sup)
        ker = exact.glauber_kernel(m)
        # censored one-step kernel allowing only {v} + right side, v = 0
        allowed = {0, 1}
        n = m.n_vars
        mat = np.zeros((sup.size, sup.size))
        for i, s in enumerate(sup.states):
            for v in range(n):
                if v in allowed:
                    probs = m.conditional(s, v)
                    for val, pr in zip((0, 1), probs):
                        if pr == 0:
                            continue
                        t = list(s)
                        t[v] = val
                        mat[i, sup.index(tuple(t))] += pr / n
                else:
                    mat[i, i] += 1 / n
        top = exact.point_mass(sup, (1, 1))
        steps = 6
        cen = top.copy()
        unc = top.copy()
        for _ in range(steps):
            cen = cen @ mat
            unc = unc @ ker.matrix
        assert exact.tv_distance(unc, mu) <= exact.tv_distance(cen, mu) + 1e-12


class TestTrajectoryDump:
    def test_format(self):
        m = k2_flipped_rc()
        run, _ = simulate_algorithm(m, 0.5, 1, 2, seed=0, record_at=[0, 1, 2])
        text = run.dump_trajectory()
        for ln in text.strip().split("\n"):
            t, s = ln.split("\t")
            assert t.isdigit()
            assert set(s) <= set("01*")

    def test_dump_renders_each_state_once(self, monkeypatch):
        m = k2_flipped_rc()
        run = glauber_run(m, (1,), 100, 0, record_at=range(101))
        rendered = []
        state_str = dynamics.state_str
        monkeypatch.setattr(dynamics, "state_str",
                            lambda s: rendered.append(s) or state_str(s))
        text = run.dump_trajectory()
        assert len(rendered) == len(set(run.recorded.values())) == 2
        assert text.count("\n") == 101


class TestTrajectoryDigests:
    """sha256 of each sampler's trajectory (and log) for seed 0 on the flipped
    random cluster model of a triangle; a change of the site-update law, the
    step loop or the RNG use changes these."""

    M3 = flip(RandomClusterModel(Graph(3, [(0, 1), (1, 2), (0, 2)]),
                                 [0.5] * 3, [0.5] * 3))

    @staticmethod
    def digest(run, with_log=True):
        text = run.dump_trajectory() + (repr(run.log) if with_log else "")
        return hashlib.sha256(text.encode()).hexdigest()

    def test_glauber(self):
        run = glauber_run(self.M3, (1, 1, 1), 200, 0, record_at=range(201))
        assert self.digest(run) == (
            "351f30ac8af98a017d1f0564b369a2b3d387d67c7b902d74e11bd8862c91d201")
        # longer than one block of raw words
        run = glauber_run(self.M3, (1, 1, 1), 3000, 0, record_at=range(3001))
        assert self.digest(run) == (
            "08a69ff8ee3b946da5f96c007e4754cb013dc78267eb86dcf1b0e1ad40843297")

    def test_censored(self):
        sched = Schedule.two_level((0,), (1, 2), 3, 1)
        run = censored_glauber(self.M3, (1, 1, 1), sched, 200, 0,
                               record_at=range(201))
        assert self.digest(run) == (
            "a8f2a9a4db5d39cf01779d1b176feb28102cb90ad2549c44f9c2b78be12966e2")

    def test_simulate(self):
        run, _ = simulate_algorithm(self.M3, 0.5, 4, 5, 0, record_at=range(21))
        assert self.digest(run) == (
            "33c8ff528174200aa7a7636bf062184f696e38c0330103b1ca45b9528abea265")
        # longer than one block of raw words
        run, _ = simulate_algorithm(self.M3, 0.5, 60, 50, 0,
                                    record_at=range(3001))
        assert self.digest(run) == (
            "62f3990a0c250ac8a76e1bfd6020ebdb0f15d9908a6f0f8796faed413691c3aa")

    def test_field(self):
        # the trajectory only: field runs carry a log since field_run
        run = field_run(self.M3, 0.5, (1, 1, 1), 50, 0, record_at=range(51))
        assert self.digest(run, with_log=False) == (
            "b85766e845d0ab7e5ef9892614fce2c0ec495ebecd0ccb846f3cd2892b92deaa")


def table_cases(rng):
    """(model, feasible start) pairs: random monotone models from all-1,
    hard-core models from all-0, and ternary lifts from all-1."""
    cases = []
    for _ in range(4):
        m = random_monotone_model(rng)
        cases.append((m, (1,) * m.n_vars))
        hc = random_hardcore(rng)
        cases.append((hc, (0,) * hc.n_vars))
        lm = models.lift_model(random_monotone_model(rng, max_vars=3),
                               float(rng.uniform(0.2, 0.8)))
        cases.append((lm, (1,) * lm.n_vars))
    return cases


def same_run(a, b):
    return (a.log, a.recorded, a.final) == (b.log, b.recorded, b.final)


def count_calls(monkeypatch, model):
    """Count the calls of model.conditional; returns a one-item list."""
    calls = [0]
    conditional = model.conditional

    def counted(state, v):
        calls[0] += 1
        return conditional(state, v)

    monkeypatch.setattr(model, "conditional", counted)
    return calls


class TestSiteTable:
    """The table-driven samplers give the per-step loop's log, recorded
    states and final state for every seed."""

    def test_glauber_equals_per_step_loop(self, rng):
        for m, x0 in table_cases(rng):
            for seed in range(3):
                run = glauber_run(m, x0, 300, seed, record_at=range(0, 301, 7))
                ref = oracles.per_step_heat_bath_run(
                    m, x0, 300, seed, record_at=range(0, 301, 7))
                assert same_run(run, ref)

    def test_censored_equals_per_step_loop(self, rng):
        for m, x0 in table_cases(rng):
            n = m.n_vars
            for k, period, sched_seed in ((1, 1, 0), (1, 3, 5),
                                          (n // 2 or 1, 7, 2)):
                left, right = range(k), range(k, n)
                for seed in range(2):
                    sched = Schedule.two_level(left, right, period, sched_seed)
                    run = censored_glauber(m, x0, sched, 300, seed,
                                           record_at=range(301))
                    ref = oracles.per_step_heat_bath_run(
                        m, x0, 300, seed, record_at=range(301),
                        purpose="censored",
                        allowed=oracles.per_block_two_level(
                            left, right, period, sched_seed))
                    assert same_run(run, ref)

    def test_simulate_equals_per_step_loop(self, rng):
        for _ in range(6):
            m = random_monotone_model(rng)
            theta = float(rng.uniform(0.2, 0.8))
            for seed in range(3):
                run, out = simulate_algorithm(m, theta, 5, 9, seed,
                                              record_at=range(0, 46, 4))
                ref, ref_out = oracles.per_step_simulate(
                    m, theta, 5, 9, seed, record_at=range(0, 46, 4))
                assert same_run(run, ref) and out == ref_out

    def test_bounded_table_equals_per_step_loop(self, monkeypatch):
        # a two-entry table must evict and recompute, with the same draws
        monkeypatch.setattr(dynamics, "_SITE_TABLE_SIZE", 2)
        m = flip(RandomClusterModel(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
                                    [0.5] * 4, [0.5] * 4))
        calls = count_calls(monkeypatch, m)
        run = glauber_run(m, (1,) * 4, 500, 3, record_at=range(501))
        pairs = {(s, v) for s in run.recorded.values() for v in range(4)}
        assert calls[0] > len(pairs)
        ref = oracles.per_step_heat_bath_run(m, (1,) * 4, 500, 3,
                                             record_at=range(501))
        assert same_run(run, ref)

    def test_dropped_graph_is_left_behind(self):
        # a one-slot graph is dropped at each fill; the loop goes on from a
        # fresh node, so a site picked again after another one calls the
        # law again.  Every site keeps its value, so the state stays put.
        calls = []

        def law(state, v):
            calls.append(v)
            return (state[v],), (1.0,)

        with mock.patch.object(dynamics, "_SITE_TABLE_SIZE", 1):
            steps_vs_per_call(law, (0,) * 4, 200)
        ours, picked = calls[:-200], calls[-200:]  # the oracle calls per step
        assert ours == [v for i, v in enumerate(picked)
                        if i == 0 or v != picked[i - 1]]

    def test_conditional_calls_bounded_by_states_times_sites(self, rng,
                                                            monkeypatch):
        for m, x0 in table_cases(rng):
            calls = count_calls(monkeypatch, m)
            run = glauber_run(m, x0, 2000, 1, record_at=range(2001))
            assert 0 < calls[0] <= len(set(run.recorded.values())) * m.n_vars

    def test_simulate_conditional_calls_bounded(self, rng, monkeypatch):
        # the relift states are not recorded; every state the log passes
        # through (one entry at a time) covers them
        for _ in range(4):
            m = random_monotone_model(rng, max_vars=3)
            calls = count_calls(monkeypatch, m)
            run, _ = simulate_algorithm(m, 0.5, 40, 50, 2)
            state, seen = list(run.x0), {run.x0}
            for _, v, val in run.log:
                state[v] = val
                seen.add(tuple(state))
            assert 0 < calls[0] <= len(seen) * m.n_vars < 2000


class TestCollectorHeldOff:
    """A single-site run holds the cyclic collector off while its state
    graph lives, and gives it back as it found it, also when the run
    raises; reference counting frees the graph's nodes."""

    def test_no_collection_while_the_steps_run(self, monkeypatch):
        # flipped RC on C10 visits hundreds of states, each fill allocating
        # a node's containers; none of them sets off a collection
        steps, inside, started = dynamics._site_steps, [False], []

        def counted(*args, **kwargs):
            inside[0] = True
            try:
                return steps(*args, **kwargs)
            finally:
                inside[0] = False

        def count(phase, info):
            if phase == "start" and inside[0]:
                started.append(info["generation"])

        monkeypatch.setattr(dynamics, "_site_steps", counted)
        c10 = Graph(10, [(i, (i + 1) % 10) for i in range(10)])
        m = flip(RandomClusterModel(c10, [0.5] * 10, [0.5] * 10))
        gc.callbacks.append(count)
        try:
            glauber_run(m, (1,) * 10, 20_000, 0)
            censored_glauber(m, (1,) * 10, Schedule.always(10), 5_000, 0)
            simulate_algorithm(m, 0.5, 50, 100, 0)
        finally:
            gc.callbacks.remove(count)
        assert started == []
        assert gc.isenabled()

    def test_collector_state_is_restored(self, monkeypatch):
        m = path_hardcore(4)
        gc.disable()
        try:
            glauber_run(m, (0,) * 4, 100, 0)
            assert not gc.isenabled()
        finally:
            gc.enable()

        def fail(self, state, v):
            raise RuntimeError("law failed")

        monkeypatch.setattr(HardcoreModel, "conditional", fail)
        with pytest.raises(RuntimeError, match="law failed"):
            glauber_run(m, (0,) * 4, 100, 0)
        assert gc.isenabled()

    def test_a_drop_clears_every_node(self, monkeypatch):
        # a cleared node holds no other, so no cycle is left to collect
        monkeypatch.setattr(dynamics, "_SITE_TABLE_SIZE", 4)
        graph = dynamics._SiteGraph(models.heat_bath_law(path_hardcore(4)),
                                    dynamics._heat_bath_fiber)
        node = graph.node((0,) * 4)
        for v in range(4):
            node, slot = graph.fill(node, v)
        old = list(graph.nodes.values())
        assert len(old) > 1
        node, slot = graph.fill(node, 0)  # the fifth fill drops the graph
        assert all(n == [] for n in old)
        assert node is not old[0] and node[4] == (0,) * 4


def path_hardcore(n):
    """Hard-core (lambda = 1.3) on the path of n vertices; all-0 is a
    feasible start."""
    return HardcoreModel(Graph(n, [(u, u + 1) for u in range(n - 1)]), 1.3)


def rng_copies(seed, spare=None):
    """Two generators in one state; with `spare`, both carry that spare
    32-bit half (as a generator does after an odd number of site draws)."""
    a, b = make_rng(seed, 0, "block"), make_rng(seed, 0, "block")
    if spare is not None:
        st = a.bit_generator.state
        st["has_uint32"], st["uinteger"] = 1, spare
        a.bit_generator.state = b.bit_generator.state = st
    return a, b


def steps_vs_per_call(law, x0, steps, seed=0, spare=None, allowed=None, t0=5):
    """The single-site loop on the raw words of one generator against the
    per-call oracle loop on a copy of it: log, recorded states (the
    oracle's, shifted back by t0) and final state."""
    a, b = rng_copies(seed, spare)
    x0 = tuple(x0)
    # every slot its own fiber, so the law is called once per (state, site)
    graph = dynamics._SiteGraph(law, lambda state, v: (state, v))
    draws = dynamics._RawDraws(a.bit_generator, len(x0),
                               dynamics._single_site_words(len(x0), steps))
    path = []
    schedule = None if allowed is None else Schedule(allowed)
    final = dynamics._site_steps(graph, x0, draws, t0, steps, path, schedule)
    assert len(path) == steps
    run = ChainRun(None, x0, seed, steps,
                   dynamics._record_times(range(3, steps + 1, 3), steps),
                   list(graph.ids), path, final=final)
    ref, state = oracles.PerStepRun(x0), list(x0)
    oracles.per_step_site_steps(law, state, b, t0, steps, ref,
                                set(range(t0, t0 + steps + 1, 3)), allowed)
    assert (run.log, run.recorded, final) == (
        [(t - t0, v, val) for t, v, val in ref.log],
        {t - t0: s for t, s in ref.recorded.items()}, tuple(state))
    return run


class BitGeneratorOnly:
    """A generator that hands out its bit generator and nothing else."""

    def __init__(self, bits):
        self.bit_generator = bits

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} called")


def handing_out(monkeypatch, gen):
    """Make every sampler (and oracle) draw from gen."""
    monkeypatch.setattr(dynamics, "make_rng", lambda *args: gen)


class CountingBits:
    """A bit generator that counts its raw draws; its state can be read,
    not written, and it has no other method."""

    def __init__(self, bits):
        self.bits, self.draws = bits, 0

    def random_raw(self, size):
        self.draws += 1
        return self.bits.random_raw(size)

    state = property(lambda self: self.bits.state)


class TestBlockDraws:
    """The single-site loop decodes raw words on PCG64; every run equals
    the per-call draws on a copy of its generator."""

    def test_glauber_censored_and_simulate(self, rng, monkeypatch):
        for m, x0 in table_cases(rng)[:6]:
            n = m.n_vars
            rule = Schedule.two_level(range(n // 2 or 1), range(n // 2 or 1, n),
                                      3, 4).rule
            calls = (
                (lambda: glauber_run(m, x0, 400, 0, record_at=range(401)),
                 lambda: oracles.per_step_heat_bath_run(
                     m, x0, 400, 0, record_at=range(401))),
                (lambda: censored_glauber(m, x0, Schedule(rule), 400, 0,
                                          record_at=range(401)),
                 lambda: oracles.per_step_heat_bath_run(
                     m, x0, 400, 0, record_at=range(401), allowed=rule)))
            if x0 == (1,) * n and not m.ternary:
                # the lift draws between blocks share the stream
                calls += ((
                    lambda: simulate_algorithm(m, 0.4, 6, 13, 0,
                                               record_at=range(79))[0],
                    lambda: oracles.per_step_simulate(
                        m, 0.4, 6, 13, 0, record_at=range(79))[0]),)
            for sampler, oracle in calls:
                for seed in range(2):
                    a, b = rng_copies(seed)
                    handing_out(monkeypatch, a)
                    run = sampler()
                    handing_out(monkeypatch, b)
                    assert same_run(run, oracle())

    def test_simulate_draws_few_blocks(self, monkeypatch):
        # 300 blocks of 7 steps on one stream of words: the lifts read it
        # between the steps, and the words come in a few large blocks
        m = flip(RandomClusterModel(Graph(4, [(0, 1), (1, 2), (2, 3)]),
                                    [0.5] * 3, [0.5] * 4))
        for seed in range(3):
            a, b = rng_copies(seed)
            counted = CountingBits(a.bit_generator)
            handing_out(monkeypatch, BitGeneratorOnly(counted))
            run, out = simulate_algorithm(m, 0.4, 300, 7, 0,
                                          record_at=range(2101))
            handing_out(monkeypatch, b)
            ref, ref_out = oracles.per_step_simulate(m, 0.4, 300, 7, 0,
                                                     record_at=range(2101))
            assert same_run(run, ref) and out == ref_out
            assert counted.draws <= 4

    def test_one_site_draws_no_site(self):
        law = models.heat_bath_law(k2_flipped_rc())
        for spare in (None, 7):
            run = steps_vs_per_call(law, (1,), 50, spare=spare)
            assert len(run.log) == 50

    def test_single_outcome_laws_draw_no_uniform(self):
        # a star never moves: all stars draw sites only, one free site
        # draws a uniform when it is picked
        path = Graph(5, [(u, u + 1) for u in range(4)])
        lifted = models.LiftedModel(
            flip(RandomClusterModel(path, [0.5] * 4, [0.5] * 5)), 0.5)
        law = models.star_frozen_law(lifted)
        star = models.STAR
        assert steps_vs_per_call(law, (star,) * 4, 100).log == []
        run = steps_vs_per_call(law, (star, 0, star, star), 200)
        assert 0 < len(run.log) < 200

    def test_censored_skip(self):
        law = models.heat_bath_law(path_hardcore(4))
        for allowed in (lambda t: frozenset(), lambda t: frozenset({t % 4}),
                        lambda t: frozenset({0, 3})):
            for spare in (None, 1 << 31):
                steps_vs_per_call(law, (0,) * 4, 120, spare=spare,
                                  allowed=allowed)

    def test_run_longer_than_one_block(self):
        steps = 3 * dynamics._RAW_BLOCK
        m = flip(RandomClusterModel(Graph(4, [(0, 1), (1, 2), (2, 3),
                                              (0, 3)]), [0.5] * 4, [0.5] * 4))
        run = steps_vs_per_call(models.heat_bath_law(m), (1,) * 4, steps)
        assert len(run.log) > steps // 2

    @pytest.mark.parametrize("n", [3, 6, 7])
    def test_lemire_rejection(self, n):
        # a carried spare half 0 gives the low product 0 < 2^32 mod n
        assert (1 << 32) % n
        law = models.heat_bath_law(path_hardcore(n))
        for steps in (1, 2, 40):
            steps_vs_per_call(law, (0,) * n, steps, seed=n, spare=0)

    def test_short_runs(self):
        law = models.heat_bath_law(path_hardcore(3))
        for steps in range(6):
            for spare in (None, 0, 12345):
                steps_vs_per_call(law, (0,) * 3, steps, seed=steps,
                                  spare=spare)

    def test_draws_read_only_the_bit_generator(self, monkeypatch):
        # the raw PCG64 stream defines the draws: no Generator method runs,
        # and the bit generator's state is read, never written
        m = flip(RandomClusterModel(Graph(3, [(0, 1), (1, 2), (0, 2)]),
                                    [0.5] * 3, [0.5] * 3))
        x0 = (1,) * 3
        rule = Schedule.two_level((0,), (1, 2), 3, 1).rule
        calls = (
            (lambda: glauber_run(m, x0, 300, 0, record_at=range(301)),
             lambda: oracles.per_step_heat_bath_run(
                 m, x0, 300, 0, record_at=range(301))),
            (lambda: censored_glauber(m, x0, Schedule(rule), 300, 0,
                                      record_at=range(301)),
             lambda: oracles.per_step_heat_bath_run(
                 m, x0, 300, 0, record_at=range(301), allowed=rule)),
            (lambda: simulate_algorithm(m, 0.5, 20, 15, 0,
                                        record_at=range(301))[0],
             lambda: oracles.per_step_simulate(m, 0.5, 20, 15, 0,
                                               record_at=range(301))[0]))
        for sampler, oracle in calls:
            for spare in (None, 0):
                a, b = rng_copies(3, spare)
                handing_out(monkeypatch,
                            BitGeneratorOnly(CountingBits(a.bit_generator)))
                run = sampler()
                handing_out(monkeypatch, b)
                assert same_run(run, oracle())


def frozen_at(law, stars):
    """law, except that each site of stars keeps its value: a single
    outcome, as a star of a lifted state has."""
    return lambda state, v: (((state[v],), (1.0,)) if v in stars
                             else law(state, v))


class TestBlockDrawProperties:
    """Random site-step runs equal the per-call draws: log, recorded
    states and final state."""

    @pytest.mark.parametrize("n", range(1, 14))
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_matches_per_call_draws(self, n, data):
        # n = 3, 6, 7 and 13 reject some halves (2^32 mod n > 0); a carried
        # spare 0 is always rejected.  A two-slot graph is dropped again and
        # again mid-run.
        sites = st.integers(0, n - 1)
        stars = data.draw(st.frozensets(sites), label="stars")
        spare = data.draw(st.one_of(st.none(), st.just(0),
                                    st.integers(0, 2 ** 32 - 1)),
                          label="spare")
        sets = data.draw(st.one_of(st.none(), st.lists(
            st.frozensets(sites), min_size=1, max_size=6)), label="allowed")
        steps = data.draw(st.integers(0, 3 * dynamics._RAW_BLOCK + 1),
                          label="steps")
        slots = data.draw(st.sampled_from([2, dynamics._SITE_TABLE_SIZE]),
                          label="slots")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        allowed = None if sets is None else (lambda t: sets[t % len(sets)])
        law = frozen_at(models.heat_bath_law(path_hardcore(n)), stars)
        with mock.patch.object(dynamics, "_SITE_TABLE_SIZE", slots):
            steps_vs_per_call(law, (0,) * n, steps, seed=seed, spare=spare,
                              allowed=allowed)


def record_times(steps):
    """Strategy: record_at as a list (sparse, duplicated, out of range,
    with the digit-width boundaries 9, 10, 99 and 100), a range (either
    direction, possibly reaching outside [0, steps]) or nothing."""
    times = st.one_of(st.integers(-3, steps + 3),
                      st.sampled_from([0, 9, 10, 99, 100, steps]))
    return st.one_of(
        st.lists(times, max_size=12),
        st.builds(range, st.integers(-5, 5), st.integers(0, steps + 5),
                  st.integers(1, 7)),
        st.builds(lambda a, b, s: range(b, a, -s), st.integers(-5, 5),
                  st.integers(0, steps + 5), st.integers(1, 7)),
        st.just(()))


def row_sum_occupancy(recorded, n):
    """How many recorded states have value 1 at each of n variables, by a
    sum over the recorded states."""
    return [sum(s[v] == 1 for s in recorded.values()) for v in range(n)]


def same_columns(run, ref):
    """The run's derived log, recorded states, final state, trajectory text
    and occupancy counts against the per-step loop's run."""
    assert run.log == ref.log
    assert run.recorded == ref.recorded
    assert run.final == ref.final
    assert run.dump_trajectory() == oracles.trajectory_text(ref.recorded)
    assert run.one_counts().tolist() == row_sum_occupancy(ref.recorded,
                                                          len(run.x0))


class TestColumnsMatchPerStepLoops:
    """A run is stored as one int per step; the log, recorded states and
    trajectory derived from those columns equal what the per-step loops
    build directly, for every sampler."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_sampler(self, data):
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        m = random_monotone_model(np.random.default_rng(seed), max_vars=3)
        kind = data.draw(st.sampled_from(
            ["glauber", "lifted", "censored", "simulate", "field"]),
            label="kind")
        if kind == "simulate":
            t1 = data.draw(st.integers(1, 4), label="t1")
            t2 = data.draw(st.integers(1, 30), label="t2")
            record_at = data.draw(record_times(t1 * t2), label="record_at")
            run, out = simulate_algorithm(m, 0.5, t1, t2, seed, record_at)
            ref, ref_out = oracles.per_step_simulate(m, 0.5, t1, t2, seed,
                                                     record_at)
            assert out == ref_out
        else:
            steps = data.draw(st.integers(0, 120), label="steps")
            record_at = data.draw(record_times(steps), label="record_at")
            x0 = (1,) * m.n_vars
            if kind == "field":
                run = field_run(m, 0.5, x0, steps, seed, record_at)
                ref = oracles.per_step_field_run(m, 0.5, x0, steps, seed,
                                                 record_at)
            elif kind == "censored":
                k = data.draw(st.integers(1, m.n_vars), label="k")
                period = data.draw(st.integers(1, 9), label="period")
                left, right = range(k), range(k, m.n_vars)
                run = censored_glauber(
                    m, x0, Schedule.two_level(left, right, period, seed),
                    steps, seed, record_at)
                ref = oracles.per_step_heat_bath_run(
                    m, x0, steps, seed, record_at, purpose="censored",
                    allowed=oracles.per_block_two_level(left, right, period,
                                                        seed))
            else:
                if kind == "lifted":  # states over 0, 1 and *
                    m = models.lift_model(m, 0.5)
                run = glauber_run(m, x0, steps, seed, record_at)
                ref = oracles.per_step_heat_bath_run(m, x0, steps, seed,
                                                     record_at)
        same_columns(run, ref)

    def test_times_past_five_digits(self):
        # time stamps 99,999 and 100,000 on either side of a width change;
        # replay is the log's own check of the recorded states
        m = models.lift_model(k2_flipped_rc(), 0.5)
        run = glauber_run(m, (models.STAR,), 100_001, 3,
                          record_at=[0, 9, 10, 99_999, 100_000, 100_001])
        assert run.dump_trajectory() == oracles.trajectory_text(run.recorded)
        assert run.replay() == run.recorded
        assert run.dump_trajectory().splitlines()[-2].startswith("100000\t")

    def test_nothing_recorded(self):
        run = glauber_run(k2_flipped_rc(), (1,), 10, 0, record_at=[-1, 11])
        assert run.recorded == {} and run.dump_trajectory() == "\n"
        assert run.one_counts().tolist() == [0]


def slices_computed(run):
    """Call run() and return its result with the pinned sites of each
    Poset.where call it made, in order."""
    with mock.patch.object(Poset, "where", autospec=True,
                           side_effect=Poset.where) as where:
        out = run()
    return out, [tuple(c.args[1]) for c in where.call_args_list]


class TestFieldTable:
    """field_run looks each kept set's slice up in a bounded table; every
    bound gives the per-step loop's run, which computes each slice afresh."""

    @pytest.mark.parametrize("bound", [1, 2, None])
    def test_equals_per_step_loop(self, rng, monkeypatch, bound):
        if bound is not None:
            monkeypatch.setattr(dynamics, "_FIELD_TABLE_SIZE", bound)
        recomputed = False
        for _ in range(6):
            m = random_monotone_model(rng)
            x0 = (1,) * m.n_vars
            for seed in range(2):
                run, calls = slices_computed(lambda: field_run(
                    m, 0.4, x0, 150, seed, record_at=range(0, 151, 3)))
                ref = oracles.per_step_field_run(m, 0.4, x0, 150, seed,
                                                 record_at=range(0, 151, 3))
                assert same_run(run, ref)
                recomputed |= len(calls) > len(set(calls))
        # the default table computes each kept set's slice once; a small one
        # drops entries and computes them again
        assert recomputed == (bound is not None)

    @pytest.mark.parametrize("bound", [1, 2])
    def test_underflow_refused_by_name(self, rng, monkeypatch, bound):
        # at theta = 1e-300 a step from all-1 keeps every 1-site pinned with
        # probability 1 - 1e-300; the all-1 slice's tilted weight theta^n
        # underflows to 0 for n >= 2
        monkeypatch.setattr(dynamics, "_FIELD_TABLE_SIZE", bound)
        for seed in range(4):
            m = random_monotone_model(rng)
            while m.n_vars < 2:
                m = random_monotone_model(rng)
            x0 = (1,) * m.n_vars
            with pytest.raises(ValueError, match="underflow") as ours:
                field_run(m, 1e-300, x0, 5, seed)
            with pytest.raises(ValueError, match="underflow") as ref:
                oracles.per_step_field_run(m, 1e-300, x0, 5, seed)
            assert str(ours.value) == str(ref.value)

    def test_field_dynamics_step_draws_from_the_generator(self):
        # the one-step form reads rng.random and nothing of the bit
        # generator, so a stand-in generator with only `random` will do
        m = flip(RandomClusterModel(Graph(3, [(0, 1), (1, 2)]), [0.5] * 2,
                                    [0.5] * 3))
        gen = make_rng(3, 0, "field")

        class RandomOnly:
            random = gen.random

        assert field_dynamics_step(m, 0.4, (1, 1), RandomOnly()) == (
            field_dynamics_step(m, 0.4, (1, 1), make_rng(3, 0, "field")))


def fiber_spy(monkeypatch, law_name):
    """Wrap dynamics.<law_name> so each call of the law it builds is
    recorded as (state, v); returns the list."""
    calls = []
    build = getattr(dynamics, law_name)

    def spied(model):
        law = build(model)

        def counted(state, v):
            calls.append((state, v))
            return law(state, v)
        return counted

    monkeypatch.setattr(dynamics, law_name, spied)
    return calls


class TestFiberKey:
    """The state graph calls a law once per (site, fiber) between drops."""

    def test_heat_bath_once_per_fiber(self, rng, monkeypatch):
        calls = fiber_spy(monkeypatch, "heat_bath_law")
        for m, x0 in table_cases(rng):
            del calls[:]
            run = glauber_run(m, x0, 3000, 1, record_at=range(3001))
            ref = oracles.per_step_heat_bath_run(m, x0, 3000, 1,
                                                 record_at=range(3001))
            assert same_run(run, ref)
            keys = [dynamics._heat_bath_fiber(s, v) for s, v in calls]
            assert calls and len(keys) == len(set(keys))
            # states that differ only at the updated site share the call
            slots = {(s, v) for s in set(run.recorded.values())
                     for v in range(m.n_vars)}
            assert len(calls) <= len({dynamics._heat_bath_fiber(s, v)
                                      for s, v in slots})

    def test_simulate_once_per_fiber(self, rng, monkeypatch):
        calls = fiber_spy(monkeypatch, "star_frozen_law")
        for _ in range(4):
            m = random_monotone_model(rng, max_vars=4)
            del calls[:]
            run, out = simulate_algorithm(m, 0.5, 60, 40, 2)
            ref, ref_out = oracles.per_step_simulate(m, 0.5, 60, 40, 2)
            assert same_run(run, ref) and out == ref_out
            keys = [dynamics._star_frozen_fiber(s, v) for s, v in calls
                    if s[v] != models.STAR]
            assert keys and len(keys) == len(set(keys))
            # one call per (site, base fiber): at most n 2^(n-1)
            assert len(keys) <= m.n_vars * 2 ** (m.n_vars - 1)

    def test_every_star_shares_one_key(self):
        # a star and a 1 contract alike, but only the 1 is redrawn; every
        # star has the one law that keeps it, under the key STAR
        assert dynamics._star_frozen_fiber((models.STAR, 1), 0) == models.STAR
        assert dynamics._star_frozen_fiber((0, models.STAR), 1) == models.STAR
        assert dynamics._star_frozen_fiber((1, models.STAR), 0) == (0, (1,))
        assert dynamics._star_frozen_fiber((0, models.STAR), 0) == (0, (1,))

    @pytest.mark.parametrize("slots, calls", [(2 ** 14, 1), (1, 2)])
    def test_fiber_table_dropped_with_the_nodes(self, monkeypatch, slots,
                                                calls):
        # (0, 0) and (1, 0) share the fiber of site 0; a drop between the
        # two fills forgets it
        monkeypatch.setattr(dynamics, "_SITE_TABLE_SIZE", slots)
        seen = []

        def law(state, v):
            seen.append((state, v))
            return (0, 1), (0.5, 0.5)

        graph = dynamics._SiteGraph(law, dynamics._heat_bath_fiber)
        node, slot = graph.fill(graph.node((0, 0)), 0)
        other, again = graph.fill(graph.node((1, 0)), 0)
        assert len(seen) == calls
        assert again[:2] == slot[:2]  # the same two edges, one law
        assert len(graph.fibers) == 1


def columns_run(states, ids, times):
    """A field-style run over the state table `states` whose state id at
    time t is ids[t], recorded at `times`."""
    return ChainRun(None, states[ids[0]], 0, len(ids) - 1,
                    np.array(times, np.int64), states, ids[1:].tolist(),
                    field=True, start_id=int(ids[0]))


class TestRecordWriter:
    """dump_trajectory writes fixed-width records; its text equals the
    per-line formatting at every digit boundary."""

    BOUNDARIES = [0, 9, 10, 99, 100, 999, 1000, 9999, 10_000, 99_999,
                  100_000, 999_999, 1_000_000]

    def ternary_states(self, gen, n, k):
        return sorted({tuple(gen.integers(0, 3, n).tolist())
                       for _ in range(k)})

    def test_every_digit_boundary(self):
        gen = np.random.default_rng(5)
        states = self.ternary_states(gen, 4, 12)
        ids = gen.integers(0, len(states), 1_000_001)
        times = sorted(set(self.BOUNDARIES)
                       | set(range(0, 1_000_001, 9_973)))
        for chosen in (times, self.BOUNDARIES):
            run = columns_run(states, ids, chosen)
            recorded = {t: states[ids[t]] for t in chosen}
            assert run.dump_trajectory() == oracles.trajectory_text(recorded)
            assert run.one_counts().tolist() == row_sum_occupancy(recorded, 4)

    @pytest.mark.parametrize("t", BOUNDARIES)
    def test_single_time(self, t):
        states = [(0, 1, models.STAR), (models.STAR, 0, 0)]
        ids = np.arange(t + 1) % 2
        run = columns_run(states, ids, [t])
        assert run.dump_trajectory() == oracles.trajectory_text(
            {t: states[t % 2]})
        assert run.one_counts().tolist() == row_sum_occupancy(
            {t: states[t % 2]}, 3)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
           sparse=st.booleans())
    def test_random_ternary_runs(self, n, seed, sparse):
        gen = np.random.default_rng(seed)
        states = self.ternary_states(gen, n, 20)
        steps = int(gen.integers(0, 20_000))
        ids = gen.integers(0, len(states), steps + 1)
        times = (sorted(set(gen.integers(0, steps + 1, 7).tolist()))
                 if sparse else list(range(steps + 1)))
        run = columns_run(states, ids, times)
        recorded = {t: states[ids[t]] for t in times}
        assert run.dump_trajectory() == oracles.trajectory_text(recorded)
        assert run.one_counts().tolist() == row_sum_occupancy(recorded, n)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_digit_tables(self, d):
        assert dynamics._digits(d).tolist() == [
            f"{i:0{d}d}".encode() for i in range(10 ** d)]
