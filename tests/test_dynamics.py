import gc
import hashlib
import tracemalloc
import zlib
from collections import Counter, deque
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


def every_site(n):
    """The schedule that allows every one of n sites on every step."""
    full = frozenset(range(n))
    return Schedule(lambda t: full, period=None)


class TestCensored:
    def test_never_schedule_constant(self):
        m = k2_flipped_rc()
        empty = Schedule(lambda t: frozenset(), period=None)
        run = censored_glauber(m, (1,), empty, 50, seed=0)
        assert run.final == (1,)
        assert run.log == []

    def test_always_schedule_moves(self):
        m = k2_flipped_rc()
        run = censored_glauber(m, (1,), every_site(1), 200, seed=0)
        assert len(run.log) == 200

    def test_always_matches_glauber_law(self):
        m = k2_flipped_rc()
        sup = exact.enumerate_support(m)
        mu = exact.stationary_distribution(m, sup)
        cnt = Counter(censored_glauber(m, (1,), every_site(1), 3,
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
        # the draws come in chunks of _PICK_CHUNK blocks; reading block
        # 2500 first and then every block crosses each chunk boundary
        left, right = range(n_left), range(n_left, n_left + 2)
        sched = Schedule.two_level(left, right, 3, 11)
        want = oracles.per_block_two_level(left, right, 3, 11)
        assert dynamics._PICK_CHUNK < 2500
        assert sched.rule(3 * 2500) == want(3 * 2500)
        assert ([sched.rule(t) for t in range(0, 3 * 3000, 3)]
                == [want(t) for t in range(0, 3 * 3000, 3)])

    @pytest.mark.parametrize("n_left", [2, 5])
    def test_two_level_reads_backward(self, n_left):
        # a block before the kept chunk restarts the stream from the seed;
        # one inside it is read from the chunk
        left, right = range(n_left), range(n_left, n_left + 2)
        sched = Schedule.two_level(left, right, 3, 11)
        want = oracles.per_block_two_level(left, right, 3, 11)
        chunk = dynamics._PICK_CHUNK
        blocks = [3 * chunk + 7, chunk + 2, 2 * chunk - 1, 2 * chunk - 5,
                  5, 4 * chunk, 3 * chunk, 0]
        assert ([sched.rule(3 * b) for b in blocks]
                == [want(3 * b) for b in blocks])

    @pytest.mark.parametrize("n_left", [1, 3])
    def test_two_level_sets_read_as_the_rule(self, n_left):
        # the sets of consecutive blocks come from the kept chunk, across
        # its edges and backward; any other range of times reads the rule
        left, right = range(n_left), range(n_left, n_left + 2)
        sched = Schedule.two_level(left, right, 3, 11)
        want = oracles.per_block_two_level(left, right, 3, 11)
        chunk = dynamics._PICK_CHUNK
        for times in (range(0, 3 * 64, 3),
                      range(3 * (chunk - 3), 3 * (chunk + 67), 3),
                      range(3 * (3 * chunk + 1), 3 * (5 * chunk + 6), 3),
                      range(15, 15 + 3 * 40, 3), range(16, 100, 3),
                      range(3 * chunk - 20, 3 * chunk + 30),
                      range(0, 300, 300), range(30, 30, 3)):
            assert sched.rule.sets(times) == [want(t) for t in times]

    def test_two_level_holds_one_chunk(self):
        # reading 10^5 blocks in order peaks no higher than reading 10^3,
        # plus one chunk: its int64 picks and as much again for the draw
        def peak(blocks):
            sched = Schedule.two_level(range(5), range(5, 8), 3, 11)
            tracemalloc.start()
            try:
                for t in range(0, 3 * blocks, 3):
                    sched.rule(t)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # numpy's first draw allocates what it keeps
        assert peak(10 ** 5) <= peak(10 ** 3) + 16 * dynamics._PICK_CHUNK

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
        assert every_site(3).period is None
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
        # a node's containers; none of them sets off a collection, in the
        # bulk walk, the masked loop or the per-step loop, and each sampler
        # is seen stepping in its own one: `entered` holds the loops
        # entered from outside any other
        depth, started, entered = [0], [], []

        def spy(name):
            steps = getattr(dynamics, name)

            def counted(*args, **kwargs):
                if not depth[0]:
                    entered.append(name)
                depth[0] += 1
                try:
                    return steps(*args, **kwargs)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(dynamics, name, counted)

        def count(phase, info):
            if phase == "start" and depth[0]:
                started.append(info["generation"])

        for name in ("_walk", "_site_steps", "_masked_steps"):
            spy(name)
        c10 = Graph(10, [(i, (i + 1) % 10) for i in range(10)])
        m = flip(RandomClusterModel(c10, [0.5] * 10, [0.5] * 10))
        gc.callbacks.append(count)
        try:
            glauber_run(m, (1,) * 10, 20_000, 0)
            assert set(entered) == {"_walk"}
            entered.clear()
            censored_glauber(m, (1,) * 10, every_site(10), 5_000, 0)
            simulate_algorithm(m, 0.5, 50, 100, 0)
            assert entered == ["_masked_steps"] * 2
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
    """A bit generator that counts its raw draws and the words they hold;
    its state can be read, not written, and it has no other method."""

    def __init__(self, bits):
        self.bits, self.draws, self.words = bits, 0, 0

    def random_raw(self, size):
        self.draws += 1
        self.words += size
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


class WordBits:
    """A bit generator over a fixed list of raw 64-bit words, carrying no
    spare half; `at` counts the words drawn."""

    def __init__(self, words):
        self.words, self.at = words, 0

    def random_raw(self, size):
        self.at += size
        assert self.at <= len(self.words), "ran out of words"
        return np.array(self.words[self.at - size:self.at], np.uint64)

    state = property(lambda self: {"has_uint32": 0, "uinteger": 0})


class PerCallWords:
    """`Generator.integers(n)` and `Generator.random()`, one call each, on
    a fixed list of raw words, as numpy draws them on PCG64: Lemire's
    method on 32-bit halves (low half first, the high half kept as the
    spare; a low product below 2^32 mod n is drawn again) and
    (w >> 11) * 2^-53 of a whole word."""

    def __init__(self, words):
        self.bit_generator = WordBits(words)
        self.spare = None

    def word(self):
        return int(self.bit_generator.random_raw(1)[0])

    def integers(self, n):
        while n > 1:
            if self.spare is None:
                w = self.word()
                half, self.spare = w & 0xFFFFFFFF, w >> 32
            else:
                half, self.spare = self.spare, None
            m = half * n
            if m & 0xFFFFFFFF >= (1 << 32) % n:
                return m >> 32
        return 0

    def random(self):
        return (self.word() >> 11) * 2.0 ** -53


def bulk_vs_per_call(monkeypatch, n, steps, seed=0, spare=None):
    """glauber_run on path_hardcore(n) from one generator against the
    per-call oracle on a copy of it: log, recorded states, final state and
    the words each drew."""
    m, x0 = path_hardcore(n), (0,) * n
    a, b = rng_copies(seed, spare)
    handing_out(monkeypatch, BitGeneratorOnly(CountingBits(a.bit_generator)))
    run = glauber_run(m, x0, steps, seed, record_at=range(steps + 1))
    handing_out(monkeypatch, b)
    ref = oracles.per_step_heat_bath_run(m, x0, steps, seed,
                                         record_at=range(steps + 1))
    assert same_run(run, ref)
    assert a.bit_generator.state["state"] == b.bit_generator.state["state"]
    return run


class TestBulkDraws:
    """glauber_run decodes each block of its steps up front
    (`_RawDraws.steps_block`); every run equals the per-call draws on a
    copy of its generator and draws exactly the words they draw."""

    @pytest.mark.parametrize("block", [7, 8])
    @pytest.mark.parametrize("n", [1, 3, 6, 7, 13, 300])
    def test_block_edges_and_carried_spares(self, n, block, monkeypatch):
        # n = 3, 6, 7, 13 and 300 reject some halves, and a carried spare 0
        # is then rejected; 300 sites are more than a byte holds.  A small
        # block puts every edge within a few steps; an odd one leaves a
        # spare half to the next block.
        monkeypatch.setattr(dynamics, "_BULK_STEPS", block)
        for steps in (0, 1, 2, block - 1, block, block + 1, 2 * block,
                      2 * block + 1):
            for spare in (None, 0, 0x9E3779B9):
                bulk_vs_per_call(monkeypatch, n, steps, seed=steps,
                                 spare=spare)

    @pytest.mark.parametrize("spare", [None, 0, 12345])
    def test_full_size_blocks(self, spare, monkeypatch):
        block = dynamics._BULK_STEPS
        for steps in (block - 1, block, block + 1, 2 * block + 1):
            bulk_vs_per_call(monkeypatch, 6, steps, seed=steps, spare=spare)

    def test_per_call_words_are_numpy_draws(self):
        # the oracle of the crafted-word test draws as numpy does
        gen = make_rng(5, 0, "words")
        words = make_rng(5, 0, "words").bit_generator.random_raw(300).tolist()
        ref = PerCallWords(words)
        for k in range(150):
            n = k % 13 + 1
            assert ref.integers(n) == gen.integers(n)
            if k % 3:
                assert ref.random() == gen.random()

    @pytest.mark.parametrize("block", [15, 16])
    @pytest.mark.parametrize("at, mask", [
        (0, 0xFFFFFFFF00000000), (15, 0xFFFFFFFF00000000),
        (15, 0x00000000FFFFFFFF), (21, 0x00000000FFFFFFFF),
        (24, 0xFFFFFFFF00000000), (15, 0)])
    def test_rejected_half_in_a_block(self, at, mask, block, monkeypatch):
        # n = 3 rejects a half 0 (2^32 mod 3 = 1); the word at `at` keeps
        # only the bits of mask: a zero low or high half, or both.  With
        # 16-step blocks, words 0, 15 and 21 are site words of the first
        # block (its first, one in the middle and its last) and 24 the first
        # of the next; with 15-step blocks the high half of word 21 is the
        # spare the first block leaves to the second.  A block that reads a
        # rejected half goes to the per-step loop, and the bulk walk takes
        # over again after it.
        monkeypatch.setattr(dynamics, "_BULK_STEPS", block)
        words = make_rng(at, 0, "words").bit_generator.random_raw(200)
        words[at] &= np.uint64(mask)
        words = words.tolist()
        for name in ("_walk", "_site_steps"):
            monkeypatch.setattr(dynamics, name,
                                mock.Mock(wraps=getattr(dynamics, name)))
        m, x0, steps = path_hardcore(3), (0,) * 3, 90
        ours = WordBits(words)
        handing_out(monkeypatch, BitGeneratorOnly(ours))
        run = glauber_run(m, x0, steps, 0, record_at=range(steps + 1))
        ref_gen = PerCallWords(words)
        handing_out(monkeypatch, ref_gen)
        ref = oracles.per_step_heat_bath_run(m, x0, steps, 0,
                                             record_at=range(steps + 1))
        assert same_run(run, ref)
        assert ours.at == ref_gen.bit_generator.at
        assert dynamics._walk.call_count >= 4
        assert dynamics._site_steps.call_count >= 1

    def test_one_raw_call_per_block(self, monkeypatch):
        # a carried spare costs one word of its own; one site draws none
        block = dynamics._BULK_STEPS
        for n, steps, spare, calls in ((6, 0, None, 0), (6, 1, None, 1),
                                       (6, 5 * block, None, 5),
                                       (6, 5 * block + 1, None, 6),
                                       (6, 5 * block, 12345, 6),
                                       (1, 5 * block, 12345, 5)):
            a, _ = rng_copies(1, spare)
            counted = CountingBits(a.bit_generator)
            handing_out(monkeypatch, BitGeneratorOnly(counted))
            glauber_run(path_hardcore(n), (0,) * n, steps, 0)
            assert counted.draws == calls

    def test_a_long_run_holds_one_block(self):
        # 10^6 steps on a filled graph, their edges dropped as they come:
        # the peak is that of one block's run, less than one block of
        # uniforms above it
        m, x0 = path_hardcore(6), (0,) * 6
        block = dynamics._BULK_STEPS

        def peak(graph, steps):
            draws = dynamics._RawDraws(make_rng(2).bit_generator, 6, 0)
            tracemalloc.start()
            try:
                dynamics._bulk_site_steps(graph, x0, draws, steps,
                                          deque(maxlen=0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with dynamics._site_graph(models.heat_bath_law(m),
                                  dynamics._heat_bath_fiber) as graph:
            peak(graph, 10 ** 5)  # fills every slot the runs reach
            one = peak(graph, block)
            assert peak(graph, 10 ** 6) < one + 8 * block


def two_level(n, period, seed=0):
    """A two-level schedule on n sites: left the first half, right the
    rest; with period None, a schedule that allows the right side and
    site 0 on every step.  It starts on its own stream also where a test
    hands out another generator (`handing_out`)."""
    left, right = range(n // 2 or 1), range(n // 2 or 1, n)
    if period is None:
        keep = frozenset(right) | {0}
        return Schedule(lambda t: keep, period=None)
    with mock.patch.object(dynamics, "make_rng", make_rng):
        return Schedule.two_level(left, right, period, seed)


def censored_vs_references(monkeypatch, m, x0, schedule, steps, seed=0,
                           spare=None, again=None):
    """censored_glauber from one generator against the per-call oracle
    (log, recorded states, final state) and the per-step loop (path, state
    table, final state) on copies of it; it draws no more words than its
    budget.  again, if given, makes an equal schedule for each reference:
    a reference that reads a two-level stream from t = 0 after the run read
    it past its first chunk would restart it from the patched make_rng."""
    n = len(x0)
    refs = [again(), again()] if again else [schedule] * 2
    a, b = rng_copies(seed, spare)
    counted = CountingBits(a.bit_generator)
    handing_out(monkeypatch, BitGeneratorOnly(counted))
    run = censored_glauber(m, x0, schedule, steps, seed,
                           record_at=range(steps + 1))
    handing_out(monkeypatch, b)
    ref = oracles.per_step_heat_bath_run(m, x0, steps, seed,
                                         record_at=range(steps + 1),
                                         purpose="censored",
                                         allowed=refs[0].rule)
    assert same_run(run, ref)
    handing_out(monkeypatch, rng_copies(seed, spare)[0])
    assert (run.path, run.states, run.final) == oracles.site_steps_censored(
        m, x0, refs[1], steps, seed)
    assert counted.words <= dynamics._single_site_words(n, steps)


def simulate_vs_references(monkeypatch, m, theta, t1, t2, seed=0,
                           spare=None):
    """simulate_algorithm from one generator against the per-call oracle
    (log, recorded states, final state, sample) and the per-step loop
    (path, state table, relifts, final state) on copies of it; it draws no
    more words than its budget."""
    n, steps = m.n_vars, t1 * t2
    a, b = rng_copies(seed, spare)
    counted = CountingBits(a.bit_generator)
    handing_out(monkeypatch, BitGeneratorOnly(counted))
    run, out = simulate_algorithm(m, theta, t1, t2, seed,
                                  record_at=range(steps + 1))
    handing_out(monkeypatch, b)
    ref, ref_out = oracles.per_step_simulate(m, theta, t1, t2, seed,
                                             record_at=range(steps + 1))
    assert same_run(run, ref) and out == ref_out
    handing_out(monkeypatch, rng_copies(seed, spare)[0])
    assert (run.path, run.states, run.relifts, run.final) == (
        oracles.site_steps_simulate(m, theta, t1, t2, seed))
    assert counted.words <= (dynamics._single_site_words(n, steps)
                             + (t1 + 1) * n)


def flipped_rc_path(edges):
    """Flipped random cluster (p = lambda = 0.5) on the path with the given
    number of edges, one variable each."""
    return flip(RandomClusterModel(
        Graph(edges + 1, [(u, u + 1) for u in range(edges)]),
        [0.5] * edges, [0.5] * (edges + 1)))


class TestMaskedSteps:
    """censored_glauber and simulate_algorithm step in `_masked_steps`:
    two steps a site word, over segments on which the sites that draw a
    uniform are fixed.  Every run equals the per-call draws and the
    per-step loop on copies of its generator, and draws no more words
    than its budget."""

    @pytest.mark.parametrize("raw_block", [5, 8])
    @pytest.mark.parametrize("period", [1, 2, 3, 7, 10, None])
    def test_censored_periods(self, period, raw_block, monkeypatch):
        # 6 sites reject some halves, so a carried spare 0 is rejected; a
        # small raw block puts its edges every few steps, at every offset
        # of a segment, and an odd period ends every other segment with a
        # lone step that leaves a spare to the next (period 1: every
        # segment is one lone step)
        monkeypatch.setattr(dynamics, "_RAW_BLOCK", raw_block)
        m, x0 = path_hardcore(6), (0,) * 6
        p, b = period or 9, raw_block
        for steps in sorted({0, 1, 2, p - 1, p, p + 1, 3 * p - 1, 3 * p + 1,
                             b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1,
                             60}):
            for spare in (None, 0, 0x9E3779B9):
                censored_vs_references(monkeypatch, m, x0,
                                       two_level(6, period, seed=steps),
                                       steps, seed=steps, spare=spare)

    @pytest.mark.parametrize("raw_block", [5, 8])
    @pytest.mark.parametrize("t2", [1, 2, 7, 8, 49, 50])
    def test_simulate_phases(self, t2, raw_block, monkeypatch):
        # the relifts read their uniforms from the blocks the steps read;
        # an odd t2 leaves a spare half across the relift to the next
        # phase
        monkeypatch.setattr(dynamics, "_RAW_BLOCK", raw_block)
        m = flipped_rc_path(6)
        for t1 in (1, 2, 5):
            for spare in (None, 0, 0x9E3779B9):
                simulate_vs_references(monkeypatch, m, 0.4, t1, t2,
                                       seed=t1 * t2, spare=spare)

    @pytest.mark.parametrize("spare", [None, 0, 12345])
    def test_full_size_blocks(self, spare, monkeypatch):
        # runs of a few real blocks, ending on either side of an edge
        block = dynamics._RAW_BLOCK
        m, x0 = path_hardcore(7), (0,) * 7
        for steps in (block - 1, block, block + 1, 2 * block + 1):
            censored_vs_references(monkeypatch, m, x0, two_level(7, 10),
                                   steps, seed=steps, spare=spare)
        for t2 in (49, 50):
            simulate_vs_references(monkeypatch, flipped_rc_path(7), 0.5,
                                   2 * block // t2 + 1, t2, spare=spare)

    def test_more_sites_than_a_byte(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_RAW_BLOCK", 64)
        for spare in (None, 0):
            for period in (7, 10, None):
                censored_vs_references(monkeypatch, path_hardcore(300),
                                       (0,) * 300, two_level(300, period),
                                       500, seed=period or 1, spare=spare)
            simulate_vs_references(monkeypatch, flipped_rc_path(300), 0.5,
                                   5, 49, spare=spare)

    @pytest.mark.parametrize("kind", ["censored", "simulate"])
    @pytest.mark.parametrize("at, mask", [
        (0, 0xFFFFFFFF00000000), (0, 0x00000000FFFFFFFF),
        (8, 0xFFFFFFFF00000000), (8, 0x00000000FFFFFFFF), (8, 0),
        (15, 0xFFFFFFFF00000000), (15, 0x00000000FFFFFFFF),
        (16, 0xFFFFFFFF00000000), (40, 0)])
    def test_rejected_half_in_a_block(self, kind, at, mask, monkeypatch):
        # 6 and 3 sites reject a half 0 (2^32 mod n > 0); the word at `at`
        # keeps only the bits of mask: a zero low or high half, or both, at
        # the start, middle and end of the first 16-word block, the start
        # of the next, and later.  A block that holds a rejected half goes
        # to the per-step loop, and the masked loop takes over again after
        # it.  A rejected half costs at most one word past the budget.
        monkeypatch.setattr(dynamics, "_RAW_BLOCK", 16)
        words = make_rng(at, 0, "words").bit_generator.random_raw(400)
        words[at] &= np.uint64(mask)
        words = words.tolist()
        for name in ("_masked_steps", "_site_steps"):
            monkeypatch.setattr(dynamics, name,
                                mock.Mock(wraps=getattr(dynamics, name)))
        ours, ref_gen = WordBits(words), PerCallWords(words)
        if kind == "censored":
            m, x0, steps = path_hardcore(6), (0,) * 6, 90
            schedule = two_level(6, 7)
            handing_out(monkeypatch, BitGeneratorOnly(ours))
            run = censored_glauber(m, x0, schedule, steps, 0,
                                   record_at=range(steps + 1))
            handing_out(monkeypatch, ref_gen)
            ref = oracles.per_step_heat_bath_run(
                m, x0, steps, 0, record_at=range(steps + 1),
                purpose="censored", allowed=schedule.rule)
            budget = dynamics._single_site_words(6, steps)
        else:
            m, t1, t2 = flipped_rc_path(3), 6, 15
            handing_out(monkeypatch, BitGeneratorOnly(ours))
            run = simulate_algorithm(m, 0.5, t1, t2, 0,
                                     record_at=range(t1 * t2 + 1))[0]
            handing_out(monkeypatch, ref_gen)
            ref = oracles.per_step_simulate(m, 0.5, t1, t2, 0,
                                            record_at=range(t1 * t2 + 1))[0]
            budget = dynamics._single_site_words(3, t1 * t2) + (t1 + 1) * 3
        assert same_run(run, ref)
        assert ref_gen.bit_generator.at <= ours.at <= budget + 1
        assert dynamics._masked_steps.call_count == 1
        assert dynamics._site_steps.call_count >= 1

    @pytest.mark.parametrize("raw_block", [5, 16])
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("period", [1, 4, 7])
    def test_chunks_end_inside_a_block_of_words(self, period, chunk,
                                                raw_block, monkeypatch):
        # a chunk of 1 to 3 blocks of masks ends every few steps, at every
        # offset of a block of decoded words, and a chunk of odd length
        # leaves a spare half to the next; picks drawn 5 blocks at a time
        # put the schedule's chunk edges inside chunks of masks
        monkeypatch.setattr(dynamics, "_RAW_BLOCK", raw_block)
        monkeypatch.setattr(dynamics, "_MASK_CHUNK", chunk)
        monkeypatch.setattr(dynamics, "_PICK_CHUNK", 5)
        m, x0 = path_hardcore(6), (0,) * 6
        span = chunk * period
        for steps in sorted({0, 1, span - 1, span, span + 1, 2 * span + 1,
                             61}):
            for spare in (None, 0x9E3779B9):
                censored_vs_references(
                    monkeypatch, m, x0, two_level(6, period, seed=steps),
                    steps, seed=steps, spare=spare,
                    again=lambda: two_level(6, period, seed=steps))

    def test_a_two_level_rule_read_step_by_step(self, monkeypatch):
        # Schedule(rule) reads a two-level rule of period 3 at every step,
        # so the masks of a chunk cover single steps, not the rule's blocks
        m, x0 = path_hardcore(6), (0,) * 6
        for seed in range(3):
            rule = two_level(6, 3, seed).rule
            censored_vs_references(monkeypatch, m, x0, Schedule(rule), 200,
                                   seed=seed)

    def test_long_runs_hold_one_block(self):
        # 10^6 censored steps and 20,000 phases of 50 steps on filled
        # graphs, their edges and relifts dropped as they come: each peaks
        # less than one block of raw words above a run of 700 steps, whose
        # budget asks for a whole block and which reads fewer words
        def peak(graph, steps, n=6, **segments):
            draws = segments.pop("draws", None) or dynamics._RawDraws(
                make_rng(2).bit_generator, n,
                dynamics._single_site_words(n, steps))
            tracemalloc.start()
            try:
                dynamics._masked_steps(graph, (0,) * n, draws, steps,
                                       deque(maxlen=0), **segments)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block = dynamics._RAW_BLOCK
        assert dynamics._single_site_words(6, 700) >= block
        keeps = [frozenset({v, 3, 4, 5}) for v in range(3)]
        with dynamics._site_graph(models.heat_bath_law(path_hardcore(6)),
                                  dynamics._heat_bath_fiber) as graph:
            # a rule that holds no state of its own
            censored = dict(period=10, phase=dynamics._censored_phase(
                lambda t: keeps[t // 10 % 3], 6))
            peak(graph, 10 ** 5, **censored)  # fills every slot reached
            one = peak(graph, 700, **censored)
            assert peak(graph, 10 ** 6, **censored) < one + 8 * block

        def fresh(t):
            # a new set object each block of 2 steps, one of the 4,096
            # subsets of 12 sites, each of which turns up in a long run
            bits = zlib.crc32(b"%d" % (t // 2))
            return frozenset(v for v in range(12) if bits >> v & 1)

        def censored(graph, steps):
            return peak(graph, steps, n=12, period=2,
                        phase=dynamics._censored_phase(fresh, 12))

        with dynamics._site_graph(models.heat_bath_law(path_hardcore(12)),
                                  dynamics._heat_bath_fiber) as graph:
            # the masks the run keeps do not grow with the sets the rule
            # has given: 10^5 steps, which meet all 4,096, peak less than
            # one block above 10^4 steps, which meet 2,994
            censored(graph, 10 ** 5)  # fills every slot reached
            some = censored(graph, 10 ** 4)
            assert censored(graph, 10 ** 5) < some + 8 * block

        lifted = models.LiftedModel(flipped_rc_path(6), 0.5)

        def simulated(t1):
            draws = dynamics._RawDraws(
                make_rng(3).bit_generator, 6,
                dynamics._single_site_words(6, 50 * t1) + (t1 + 1) * 6)
            phase = dynamics._relift_phase(0.5, draws, deque(maxlen=0))
            return peak(graph, 50 * t1, draws=draws, period=50, phase=phase)

        with dynamics._site_graph(models.star_frozen_law(lifted),
                                  dynamics._star_frozen_fiber) as graph:
            simulated(2_000)
            one = simulated(14)
            assert simulated(20_000) < one + 8 * block


class UniformWords(PerCallWords):
    """PerCallWords that records the index of each word it reads as a
    uniform."""

    def __init__(self, words):
        super().__init__(words)
        self.uniform_at = []

    def random(self):
        self.uniform_at.append(self.bit_generator.at)
        return super().random()


class UniformCount:
    """A generator's `integers` and `random`, counting the uniforms."""

    def __init__(self, gen):
        self.gen, self.uniforms = gen, 0

    def integers(self, n):
        return self.gen.integers(n)

    def random(self):
        self.uniforms += 1
        return self.gen.random()


# raw words whose uniform (w >> 11) 2^-53 is 0.5, 0.0, 0.75, 0.25 and the
# floats on either side of 0.5
ON_THRESHOLDS = [1 << 63, 0, 3 << 62, 1 << 62, (1 << 63) - (1 << 11),
                 (1 << 63) + (1 << 11)]


def words_on_thresholds(monkeypatch, m, x0, steps, schedule):
    """Raw words for a run of m from x0: random, but each word the per-call
    oracle reads as a uniform is one of ON_THRESHOLDS in turn.  A
    heat-bath step draws a uniform wherever the schedule allows its site,
    whatever the state, so the run reads its uniforms from these words."""
    words = make_rng(steps, 0, "words").bit_generator.random_raw(
        2 * steps + 8).tolist()
    probe = UniformWords(words)
    handing_out(monkeypatch, probe)
    oracles.per_step_heat_bath_run(m, x0, steps, 0,
                                   allowed=schedule and schedule.rule)
    for k, at in enumerate(probe.uniform_at):
        words[at] = ON_THRESHOLDS[k % len(ON_THRESHOLDS)]
    return words


def words_vs_references(monkeypatch, m, x0, steps, words, schedule=None):
    """glauber_run (schedule None) or censored_glauber on the raw words
    against the per-call oracle (log, recorded states, final state) and the
    per-step loop over every step (path, state table, final state) on the
    same words: a Glauber run draws the words the oracle draws, a censored
    one no more than its budget."""
    ours = WordBits(words)
    handing_out(monkeypatch, BitGeneratorOnly(ours))
    record = range(steps + 1)
    if schedule is None:
        run = glauber_run(m, x0, steps, 0, record_at=record)
    else:
        run = censored_glauber(m, x0, schedule, steps, 0, record_at=record)
    ref_gen = PerCallWords(words)
    handing_out(monkeypatch, ref_gen)
    ref = oracles.per_step_heat_bath_run(m, x0, steps, 0, record_at=record,
                                         allowed=schedule and schedule.rule)
    assert same_run(run, ref)
    if schedule is None:
        assert ours.at == ref_gen.bit_generator.at
        schedule = Schedule(lambda t: frozenset(range(len(x0))), None)
    else:
        assert (ref_gen.bit_generator.at <= ours.at
                <= dynamics._single_site_words(len(x0), steps))
    handing_out(monkeypatch, BitGeneratorOnly(WordBits(words)))
    assert (run.path, run.states, run.final) == oracles.site_steps_censored(
        m, x0, schedule, steps, 0)


class TestSlotThresholds:
    """A slot of two values steps by one comparison with its p0, and a slot
    of three or more bisects: uniforms exactly on a threshold, p0 = 0.0 and
    1.0, and ternary lifts give the per-call draws' paths, in the Glauber
    walk, the masked loop and the per-step loop."""

    @staticmethod
    def cases():
        # hard-core at lambda = 1: a free site has p0 = 0.5, a blocked one
        # keeps value 1 at probability 0, p0 = 1.0; flipped, p0 = 0.0.  The
        # lift of the flipped model has cumulative sums 0.5 and 0.75.  On
        # 8 and 4 sites Lemire's method rejects no half, so the masked loop
        # reads the words in pairs; on 6 it rejects the halves 0 and 2^31
        # of the words on 0.5 and 0.0, so the per-step loop reads them.
        def path(n):
            return HardcoreModel(Graph(n, [(u, u + 1) for u in range(n - 1)]),
                                 1.0)

        lifted = models.lift_model(flip(path(4)), 0.5)
        return [(path(8), (0,) * 8), (flip(path(8)), (1,) * 8),
                (lifted, (1,) * 4), (path(6), (0,) * 6)]

    @pytest.mark.parametrize("period", [None, 4, 7])
    def test_uniforms_on_thresholds(self, period, monkeypatch):
        for m, x0 in self.cases():
            n = len(x0)
            for steps in (1, 2, 41, 200):
                schedule = None if period is None else two_level(n, period,
                                                                 steps)
                words = words_on_thresholds(monkeypatch, m, x0, steps,
                                            schedule)
                words_vs_references(monkeypatch, m, x0, steps, words,
                                    schedule)

    @pytest.mark.parametrize("period", [None, 1, 4, 7])
    def test_ternary_lifts_bisect(self, period, monkeypatch):
        # every heat-bath slot of a lift has three values, so every step
        # that draws a uniform bisects its slot
        m = models.lift_model(flipped_rc_path(5), 0.5)
        x0 = (1,) * 5
        spy = mock.Mock(wraps=dynamics.bisect_right)
        monkeypatch.setattr(dynamics, "bisect_right", spy)
        for seed in range(3):
            a, b = rng_copies(seed)
            handing_out(monkeypatch, a)
            if period is None:
                run = glauber_run(m, x0, 300, seed, record_at=range(301))
            else:
                schedule = two_level(5, period, seed)
                run = censored_glauber(m, x0, schedule, 300, seed,
                                       record_at=range(301))
            bisected, spy.call_count = spy.call_count, 0
            ref_gen = UniformCount(b)
            handing_out(monkeypatch, ref_gen)
            ref = oracles.per_step_heat_bath_run(
                m, x0, 300, seed, record_at=range(301),
                allowed=None if period is None else schedule.rule)
            assert same_run(run, ref)
            assert bisected == ref_gen.uniforms > 0


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
        # the same threshold and two edges, one law
        assert again[:2] + again[3:4] == slot[:2] + slot[3:4]
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
