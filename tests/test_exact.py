import inspect
import itertools
import math
import re
import tracemalloc

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from glauberlab import exact, models, ordercore
from glauberlab.exact import (Kernel, algorithm_kernel_sequence,
                              check_detailed_balance, check_mc_leq,
                              check_stochastic_monotonicity,
                              enumerate_support, exact_mixing_time,
                              fd_kernel, glauber_kernel, kernel_to_csv,
                              kl_divergence, freeze_kernel,
                              pinnings, point_mass,
                              propagate,
                              stationary_distribution,
                              tilted_mixing_time, tv_distance)
from glauberlab.models import (Graph, HardcoreModel, IsingModel,
                               RandomClusterModel, flip, heat_bath_law,
                               lift_model, star_frozen_law)
from glauberlab.ordercore import STAR, Poset
from conftest import (random_bhc, random_graph, random_hardcore,
                      random_monotone_model, random_rc)
import oracles

K2 = Graph(2, [(0, 1)])


def k2_flipped_rc(p=0.5, lams=(1.0, 1.0)):
    return flip(RandomClusterModel(K2, [p], list(lams)))


class TestSupport:
    def test_k2_rc(self):
        rc = RandomClusterModel(K2, [0.5], [1.0, 1.0])
        assert enumerate_support(rc).states == ((0,), (1,))

    def test_hardcore_k2(self):
        assert enumerate_support(HardcoreModel(K2, 1.0)).states == (
            (0, 0), (0, 1), (1, 0))

    def test_lifted_single_variable(self):
        lm = lift_model(k2_flipped_rc(), 0.5)
        assert enumerate_support(lm).states == ((0,), (1,), (ordercore.STAR,))

    def test_guard(self):
        g = Graph(30, [])
        hc = HardcoreModel(g, 1.0)
        with pytest.raises(ValueError, match="guard"):
            enumerate_support(hc)


def where_by_tuples(support, pins):
    """Reference for `Poset.where`: the per-tuple filter."""
    return np.array([all(s[v] == val for v, val in pins.items())
                     for s in support.states])


def fd_kernel_by_scan(model, theta):
    """Reference for `fd_kernel`: a list scan over the whole support for each
    (state, kept set), normalizing the tilted weights of the slice."""
    support = enumerate_support(model)
    tilted = models.tilt(model, theta)
    w = {s: tilted.weight(s) for s in support.states}
    mat = np.zeros((support.size, support.size))
    for i, s in enumerate(support.states):
        ones = [v for v in range(model.n_vars) if s[v] == 1]
        for keep in itertools.product((0, 1), repeat=len(ones)):
            pinned = [v for v, kp in zip(ones, keep) if kp]
            pr_s = (theta ** (len(ones) - len(pinned))
                    * (1 - theta) ** len(pinned))
            idx = [j for j, t in enumerate(support.states)
                   if all(t[v] == 1 for v in pinned)]
            ws = np.array([w[support.states[j]] for j in idx])
            ws /= ws.sum()
            for j, x in zip(idx, ws):
                mat[i, j] += pr_s * x
    return mat


class TestStateTable:
    def test_array_rows_are_states(self):
        sup = enumerate_support(lift_model(k2_flipped_rc(), 0.5))
        assert sup.array.dtype == np.int8
        assert sup.array.tolist() == [[0], [1], [ordercore.STAR]]

    def test_where_matches_tuple_filter(self, rng):
        for _ in range(8):
            m = random_monotone_model(rng)
            for model in (m, lift_model(m, 0.4)):
                sup = enumerate_support(model)
                assert sup.where({}).all()
                for pins in pinnings(model.n_vars, model.n_vars,
                                     values=model.alphabet):
                    assert np.array_equal(sup.where(pins),
                                          where_by_tuples(sup, pins))

    def test_covers_and_height_of_model_supports(self, rng):
        # supports that are not full products: hard-core, bipartite
        # hard-core, lifted
        pool = [random_hardcore(rng) for _ in range(3)]
        pool += [random_bhc(rng) for _ in range(3)]
        pool += [lift_model(random_monotone_model(rng, max_vars=3), 0.4)
                 for _ in range(3)]
        for m in pool:
            sup = enumerate_support(m)
            assert ([tuple(c) for c in sup.covers.tolist()]
                    == oracles.brute_covers(sup))
            assert sup.height == oracles.brute_height(sup)

    def test_pinnings_order_and_count(self):
        got = list(pinnings(3, 2))
        assert got[:5] == [{}, {0: 0}, {0: 1}, {1: 0}, {1: 1}]
        assert got[7:11] == [{0: 0, 1: 0}, {0: 0, 1: 1}, {0: 1, 1: 0},
                             {0: 1, 1: 1}]
        assert got[-1] == {1: 1, 2: 1}
        assert len(got) == 1 + 3 * 2 + 3 * 4
        for n, size, values in ((4, 4, (1,)), (4, 2, (0, 1, 2)),
                                (5, 3, (0, 1))):
            assert len(list(pinnings(n, size, values))) == sum(
                math.comb(n, r) * len(values) ** r for r in range(size + 1))
        assert list(pinnings(1, -1)) == []
        assert list(pinnings(2, 2, values=(1,))) == [{}, {0: 1}, {1: 1},
                                                     {0: 1, 1: 1}]


class TestKernels:
    def test_single_variable_glauber_rows_are_mu(self):
        m = k2_flipped_rc()
        ker = glauber_kernel(m)
        for row in ker.matrix:
            assert row == pytest.approx(ker.stationary, abs=1e-15)

    def test_freeze_row_formula(self):
        theta = 0.3
        tables = exact.Tables(k2_flipped_rc(0.4, (0.5, 0.8)), theta)
        sup, ker = tables.lsup, tables.freeze
        for i, s in enumerate(sup.states):
            tau = models.contract(s)
            for j, t in enumerate(sup.states):
                if models.contract(t) != tau:
                    assert ker.matrix[i, j] == 0.0
                else:
                    want = (theta ** models.num_ones(t)
                            * (1 - theta) ** models.num_stars(t))
                    assert ker.matrix[i, j] == pytest.approx(want)

    def test_star_glauber_off_diagonal_formula(self):
        # flipping one coordinate costs (1/n) * theta*mu(new) / (theta*mu(new)+mu(old))
        theta = 0.5
        base = k2_flipped_rc()
        ker = exact.Tables(base, theta).starg
        sup = ker.support
        n = 1
        i = sup.index((0,))
        j = sup.index((1,))
        w0 = base.weight((0,))
        w1 = base.weight((1,))
        assert ker.matrix[i, j] == pytest.approx(
            theta * w1 / (theta * w1 + w0) / n)
        assert ker.matrix[j, i] == pytest.approx(w0 / (theta * w1 + w0) / n)
        # stars never move
        st = sup.index((ordercore.STAR,))
        assert ker.matrix[st, st] == pytest.approx(1.0)

    def test_full_kernels_are_mean_of_site_kernels(self, rng):
        for _ in range(6):
            m = random_monotone_model(rng, max_vars=3)
            lm = lift_model(m, 0.4)
            for build, model, law in (
                    (glauber_kernel, m, heat_bath_law(m)),
                    (glauber_kernel, lm, heat_bath_law(lm)),
                    (lambda lm: exact.Tables(lm.base, lm.theta).starg, lm,
                     star_frozen_law(lm))):
                full = build(model)
                mean = sum(oracles.loop_law_kernel(model, law, v, full.support)
                           for v in range(model.n_vars)) / model.n_vars
                full = full.matrix
                assert np.max(np.abs(full - mean)) <= 1e-15

    def test_rows_stochastic_and_reversible(self, rng):
        for _ in range(5):
            m = random_monotone_model(rng, max_vars=3)
            lm = lift_model(m, 0.35)
            for ker in (glauber_kernel(m), glauber_kernel(lm),
                        exact.Tables(m, 0.35).freeze,
                        exact.Tables(m, 0.35).starg):
                assert np.allclose(ker.matrix.sum(axis=1), 1.0, atol=1e-12)
                assert check_detailed_balance(ker) <= 1e-12

    def test_lifted_glauber_kernel_is_derived_from_the_base(self, rng,
                                                            monkeypatch):
        # glauber_kernel of a lift reads its base's table (Tables.lker),
        # not the 3^n lifted candidates: the lift's own table's matrix and
        # stationary law, bit for bit, with no LiftedModel method called
        for _ in range(4):
            lm = lift_model(random_monotone_model(rng, max_vars=3),
                            float(rng.uniform(0.2, 0.8)))
            want = exact.Tables(lm).gker
            calls = []
            with monkeypatch.context() as patch:
                for cls in (models.LiftedModel, models.Model):
                    for name, fn in list(vars(cls).items()):
                        if (inspect.isfunction(fn)
                                and not name.startswith("__")):
                            def spy(self, *args, fn=fn, name=name):
                                if isinstance(self, models.LiftedModel):
                                    calls.append(name)
                                return fn(self, *args)
                            patch.setattr(cls, name, spy)
                got = glauber_kernel(lm)
            assert calls == []
            assert got.support.states == want.support.states
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.stationary.tobytes() == want.stationary.tobytes()

    def test_fd_kernel_stationarity_and_zero_start(self, rng):
        theta = 0.45
        for _ in range(5):
            m = random_monotone_model(rng, max_vars=3)
            ker = fd_kernel(m, theta)
            sup, mu = ker.support, ker.stationary
            assert np.abs(mu @ ker.matrix - mu).max() <= 1e-12
            # from the all-0 state everything is freed: one step lands on the tilt
            if tuple([0] * m.n_vars) in sup:
                i = sup.index(tuple([0] * m.n_vars))
                t = models.tilt(m, theta)
                want = stationary_distribution(t, sup)
                assert tv_distance(ker.matrix[i], want) <= 1e-12

    def test_fd_kernel_matches_scan_reference(self, rng):
        for _ in range(6):
            m = random_monotone_model(rng)
            for theta in (0.3, 0.5):
                assert np.array_equal(fd_kernel(m, theta).matrix,
                                      fd_kernel_by_scan(m, theta))

    def test_fd_kernel_high_theta_limit(self):
        m = k2_flipped_rc()
        ker = fd_kernel(m, 1 - 1e-12)
        for row in ker.matrix:
            assert tv_distance(row, ker.stationary) < 1e-9

    def test_fd_guard(self):
        g = Graph(25, [])
        with pytest.raises(ValueError, match="guard"):
            fd_kernel(HardcoreModel(g, 1.0), 0.5)


class TestSequences:
    def test_block_structure(self):
        tables = exact.Tables(k2_flipped_rc(), 0.5)
        p_starg = tables.starg
        seq = algorithm_kernel_sequence(tables.freeze, p_starg, 2, 3)
        assert len(seq) == 6
        for t, ker in enumerate(seq):
            if t % 3 == 0:
                assert not np.allclose(ker.matrix, p_starg.matrix)
            else:
                assert np.allclose(ker.matrix, p_starg.matrix)

    def test_t2_one_always_prefixed(self):
        t = exact.Tables(k2_flipped_rc(), 0.5)
        seq = algorithm_kernel_sequence(t.freeze, t.starg, 3, 1)
        both = (t.freeze @ t.starg).matrix
        for ker in seq:
            assert np.allclose(ker.matrix, both)

    def test_modified_sequence_equals_plain_powers(self):
        # prefixing the contract-lift kernel leaves the lifted-Glauber
        # trajectory laws unchanged when started from the lifted all-1 law
        m = k2_flipped_rc(0.4, (0.6, 0.9))
        theta = 0.5
        tables = exact.Tables(m, theta)
        gd = tables.lker
        seq = algorithm_kernel_sequence(tables.freeze, gd, 2, 3)
        pi0 = tables.lift(point_mass(tables.support, (1,)))
        via_seq = propagate(pi0, seq)
        plain = pi0.copy()
        for t in range(1, len(seq) + 1):
            plain = plain @ gd.matrix
            assert np.abs(via_seq[t] - plain).sum() <= 1e-10


class TestPropagate:
    def test_identity_kernel(self):
        m = k2_flipped_rc()
        sup = enumerate_support(m)
        ident = Kernel(sup, np.eye(2), stationary=stationary_distribution(m, sup))
        nu = np.array([0.2, 0.8])
        out = propagate(nu, [ident] * 5)
        for x in out:
            assert np.allclose(x, nu)

    def test_stationary_fixed(self):
        m = k2_flipped_rc(0.3, (0.2, 0.9))
        ker = glauber_kernel(m)
        out = propagate(ker.stationary, [ker] * 10)
        for x in out:
            assert np.abs(x - ker.stationary).max() < 1e-14

    def test_drift_aborts(self):
        m = k2_flipped_rc()
        sup = enumerate_support(m)
        leaky = Kernel(sup, np.eye(2))
        leaky.matrix = leaky.matrix * (1 - 1e-6)  # bypass row validation
        with pytest.raises(ArithmeticError):
            propagate(np.array([0.5, 0.5]), [leaky])


class TestPushforwards:
    def test_lift_pushforward_mass(self, rng):
        m = random_monotone_model(rng, max_vars=3)
        theta = 0.4
        t = exact.Tables(m, theta)
        sup, lsup = t.support, t.lsup
        mu = stationary_distribution(m, sup)
        pushed = t.lift(mu)
        assert pushed.sum() == pytest.approx(1.0, abs=1e-12)
        # pushing forward mu gives the lifted stationary law
        pi = stationary_distribution(lift_model(m, theta), lsup)
        assert tv_distance(pushed, pi) <= 1e-12
        # and contracting inverts it
        back = t.contract(pushed)
        assert tv_distance(back, mu) <= 1e-12

    def test_dominance_preserved_by_lift_and_contract(self, rng):
        m = k2_flipped_rc(0.4, (0.5, 0.5))
        theta = 0.3
        t = exact.Tables(m, theta)
        sup, lsup = t.support, t.lsup
        found = 0
        for _ in range(50):
            a = rng.dirichlet(np.ones(sup.size))
            b = rng.dirichlet(np.ones(sup.size))
            if not ordercore.stochastic_dominance(a, b, sup)[0]:
                continue
            found += 1
            la, lb = t.lift(a), t.lift(b)
            assert ordercore.stochastic_dominance(la, lb, lsup)[0]
            assert ordercore.stochastic_dominance(
                t.contract(la), t.contract(lb), sup)[0]
        assert found > 0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.floats(0, 1, exclude_min=True, exclude_max=True),
           st.sampled_from(["none", "tilt", "flip", "pin"]), st.booleans())
    def test_lift_table_equals_loops(self, seed, theta, transform, shuffle):
        """freeze_kernel, Tables.lift and Tables.contract equal their loop
        forms bit for bit: random monotone models (tilted and left marginals
        among them) and their tilts, flips and pins, the freeze kernel over
        a lifted support in lexicographic or random order, laws with zero
        entries of either sign."""
        rng = np.random.default_rng(seed)
        m = random_monotone_model(rng, max_vars=3)
        sup = enumerate_support(m)
        if transform == "tilt":
            m = models.tilt(m, float(rng.uniform(0.1, 3.0)))
        elif transform == "flip":
            m = flip(m)
        elif transform == "pin":
            v = int(rng.integers(m.n_vars))
            m = models.pin(m, {v: sup.states[rng.integers(sup.size)][v]})
        t = exact.Tables(m, theta)
        sup, lsup = t.support, t.lsup
        fsup = lsup
        if shuffle:
            fsup = Poset(tuple(lsup.states[i]
                               for i in rng.permutation(lsup.size)))

        def law(k):
            p = rng.dirichlet(np.ones(k))
            p[rng.random(k) < 0.4] = 0.0
            p[(p == 0.0) & (rng.random(k) < 0.5)] = -0.0
            return p

        assert (freeze_kernel(t.lifted, fsup, None).matrix.tobytes()
                == oracles.loop_freeze_kernel(t.lifted, fsup).tobytes())
        p = law(sup.size)
        assert (t.lift(p).tobytes()
                == oracles.loop_lift_pushforward(p, sup, theta,
                                                 lsup).tobytes())
        q = law(lsup.size)
        assert (t.contract(q).tobytes()
                == oracles.loop_contract_pushforward(q, lsup, sup).tobytes())

    def test_contraction_codes_are_guarded_to_62_sites(self):
        # a contraction code is one int64 bit per site; a poset that wide
        # runs its order operations, and only a lookup, whose base-3 codes
        # fit int64 up to 39 sites, refuses it by name
        wide = Poset(((1,) * 63, (0,) * 63))
        assert (wide.extension, wide.height) == ([0, 1], 1)
        assert wide.covers.tolist() == [[1, 0]]
        with pytest.raises(ValueError, match="^state codes are guarded to "
                                             "39 sites$"):
            (1,) * 63 in wide
        lm = lift_model(HardcoreModel(Graph(63, []), 1.0), 0.5)
        with pytest.raises(ValueError, match="guarded to 62 sites"):
            freeze_kernel(lm, wide, None)

    def test_initial_lifted_density_is_increasing(self):
        # law of lift(all-1) has increasing density against the lifted law
        m = k2_flipped_rc(0.4, (0.7, 0.2))
        theta = 0.5
        t = exact.Tables(m, theta)
        pi0 = t.lift(point_mass(t.support, (1,)))
        lsup = t.lsup
        pi = stationary_distribution(t.lifted, lsup)
        dens = [a / b if b > 0 else 0.0 for a, b in zip(pi0, pi)]
        assert oracles.is_increasing(dens, lsup, tol=1e-12)[0]


class TestDivergences:
    def test_identical(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert kl_divergence([1.0, 0.0], [0.0, 1.0]) == math.inf

    def test_uniform_vs_point_mass(self):
        assert tv_distance([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))


class TestChecks:
    def test_three_cycle_violation(self):
        sup = Poset(((0,), (1,), (2,)))
        cyc = Kernel(sup, np.array([[0.0, 1.0, 0.0],
                                    [0.0, 0.0, 1.0],
                                    [1.0, 0.0, 0.0]]))
        uni = np.full(3, 1 / 3)
        assert check_detailed_balance(cyc, uni) == pytest.approx(1 / 3)

    def test_identity_is_monotone(self):
        m = HardcoreModel(K2, 1.0)
        sup = enumerate_support(m)
        ident = Kernel(sup, np.eye(3), stationary=stationary_distribution(m, sup))
        assert check_stochastic_monotonicity(ident)[0]

    def test_plain_hardcore_glauber_not_monotone(self):
        ker = glauber_kernel(HardcoreModel(K2, 1.0))
        ok, wit = check_stochastic_monotonicity(ker)
        assert not ok
        lo, hi, up = wit
        assert ordercore.leq(lo, hi)

    def test_mc_leq_reflexive(self, rng):
        m = random_monotone_model(rng, max_vars=2)
        ker = glauber_kernel(m)
        assert check_mc_leq(ker, ker)[0]

    def test_mc_leq_random_cross_check(self, rng):
        pv, qv = oracles.lifted_site_kernels(
            exact.Tables(k2_flipped_rc(0.5, (0.9, 0.3)), 0.5), 0)
        assert check_mc_leq(pv, qv) == (True, None)
        assert oracles.per_ray_mc_leq(pv, qv, n_random=100, rng=rng)[0]

    def test_monotone_guard(self):
        g = Graph(13, [])
        with pytest.raises(ValueError):
            exact.check_monotone_system(HardcoreModel(g, 1.0))


class TestChecksMatchOracles:
    """The batched checks give the verdicts and witnesses of the per-pair and
    per-ray full-network flow loops they replaced."""

    def test_monotone_system(self, rng):
        pool = [random_monotone_model(rng) for _ in range(6)]
        pool += [random_hardcore(rng) for _ in range(3)]
        pool += [lift_model(random_monotone_model(rng, max_vars=3), 0.4)
                 for _ in range(2)]
        pool.append(HardcoreModel(Graph(3, [(0, 1), (1, 2)]), 1.3))
        failed = 0
        for m in pool:
            got = exact.check_monotone_system(m)
            assert got == oracles.pairwise_monotone_system(m)
            failed += not got[0]
        assert failed >= 1

    def test_stochastic_monotonicity(self, rng):
        kers = [glauber_kernel(random_monotone_model(rng)) for _ in range(4)]
        kers.append(glauber_kernel(HardcoreModel(Graph(3, [(0, 1), (1, 2)]),
                                                 1.3)))
        t = exact.Tables(random_monotone_model(rng, max_vars=2), 0.5)
        kers += [t.lker, t.freeze, t.starg]
        for ker in kers:
            assert (check_stochastic_monotonicity(ker)
                    == oracles.per_pair_monotonicity(ker))
        assert not check_stochastic_monotonicity(kers[4])[0]

    def test_lifted_c4_kernels(self):
        # the exact-large verify instance: 81 states, more than the up-set
        # path takes, so the greedy coupling and closure cuts per cover
        t = exact.Tables(flip(RandomClusterModel(
            Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), [0.5] * 4,
            [0.5] * 4)), 0.5)
        assert t.lsup.size == 81 and t.lsup.up_set_matrix is None
        for ker in (t.lker, t.freeze, t.starg):
            got = check_stochastic_monotonicity(ker)
            assert got == (True, None) == oracles.per_pair_monotonicity(ker)

    def test_plain_hardcore_negative_control(self):
        m = HardcoreModel(Graph(3, [(0, 1), (1, 2)]), 1.0)
        ker = glauber_kernel(m)
        got = check_stochastic_monotonicity(ker)
        assert not got[0] and got == oracles.per_pair_monotonicity(ker)
        got = exact.check_monotone_system(m)
        assert not got[0] and got == oracles.pairwise_monotone_system(m)

    @pytest.mark.parametrize("shifts, covers_pass, verdict", [
        # covers short by 300 units each: within half the slack of 1004
        ((0.0, 3e-13, 6e-13), True, (True, None)),
        # covers short by 600 and 0, the pair (a, c) by 600: all pass
        ((0.0, 6e-13, 6e-13), False, (True, None)),
        # covers short by 700 each pass, the pair (a, c) short by 1400 fails
        ((0.0, 7e-13, 1.4e-12), False,
         (False, ((0,), (2,), frozenset({1, 2})))),
        # the first cover is short by 1200 and fails
        ((0.0, 1.2e-12, 2.4e-12), False,
         (False, ((0,), (1,), frozenset({1, 2})))),
    ])
    def test_chain_kernels(self, shifts, covers_pass, verdict):
        # a chain a < b < c (height 2) whose rows move mass down; a cover
        # short by more than half the slack fails the split test, and the
        # scan over all pairs decides
        sup = Poset(((0,), (1,), (2,)))
        mat = np.array([[0.5 + d, 0.5 - d, 0.0] for d in shifts])
        ker = Kernel(sup, mat)
        lo, hi = mat[sup.covers.T]
        assert ordercore.stochastic_dominance(
            lo, hi, sup, split=sup.height)[0] == covers_pass
        assert check_stochastic_monotonicity(ker) == verdict
        assert oracles.per_pair_monotonicity(ker) == verdict

    @pytest.mark.parametrize("entries", [1, exact._COVER_STACK_ENTRIES])
    def test_failing_cover_in_a_later_stack(self, entries, monkeypatch):
        # a 70-element chain: its 69 covers go in stacks of PAIR_BLOCK = 64
        # when a stack may hold 1 entry, and in one stack by default.  Only
        # the cover (64, 65) fails, the first of the second stack of 64, and
        # the scan over all pairs then finds (0, 65) first.
        monkeypatch.setattr(exact, "_COVER_STACK_ENTRIES", entries)
        sup = Poset(tuple((i,) for i in range(70)))
        assert exact._cover_block(sup) == max(ordercore.PAIR_BLOCK,
                                              entries // 70)
        mat = np.full((70, 70), 1 / 70)
        mat[65] = 0.0
        mat[65, 0] = 1.0
        ok, (lo, hi, _) = check_stochastic_monotonicity(Kernel(sup, mat))
        assert not ok and (lo, hi) == ((0,), (65,))

    def test_mc_leq_site_kernels_and_product_counterexample(self):
        for p, lams in ((0.5, (0.9, 0.3)), (0.3, (0.5, 0.5)), (0.7, (0.2, 1.0))):
            t = exact.Tables(flip(RandomClusterModel(
                Graph(3, [(0, 1), (1, 2)]), [p, 1 - p], list(lams) + [0.5])),
                0.5)
            for v in range(t.lifted.n_vars):
                pv, qv = oracles.lifted_site_kernels(t, v)
                got = check_mc_leq(pv, qv)
                assert got == (True, None)
                assert got == oracles.per_ray_mc_leq(
                    pv, qv, n_random=30, rng=np.random.default_rng(v))
            lker = t.lker
            prod = t.freeze @ t.starg
            ok, wit = check_mc_leq(lker, prod)
            assert not ok and wit is not None
            assert (ok, wit) == oracles.per_ray_mc_leq(lker, prod)

    def test_mc_leq_above_the_up_set_cap(self, rng):
        # a 12-antichain between a bottom and a top: 14 elements and 4098
        # up-sets, past the up-set cap, so the rays come in blocks from
        # enumerate_up_sets; q = p after an upward kernel passes, and the
        # pair swapped fails
        sup = Poset(((0, 0),) + tuple((i, 11 - i) for i in range(12))
                    + ((11, 11),))
        assert sup.up_set_matrix is None
        assert len(ordercore.enumerate_up_sets(sup)) == 4098
        k = sup.size
        base = rng.dirichlet(np.ones(k), size=k)
        upward = rng.random((k, k)) * sup.leq_matrix()
        upward /= upward.sum(axis=1, keepdims=True)
        mu = rng.dirichlet(np.ones(k))
        mu[[3, k - 1]] = 0.0  # rays of mass 0 are dropped
        p, q = Kernel(sup, base), Kernel(sup, base @ upward)
        for a, b, ok in ((p, q, True), (q, p, False)):
            tracemalloc.start()
            try:
                got = check_mc_leq(a, b, mu)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            want = oracles.per_ray_mc_leq(a, b, mu)
            assert got[0] == ok and got == want
            assert repr(got) == repr(want)
            # the 4098 x 14 bool rows and one block at a time, not a
            # frozenset per up-set
            assert peak < 2 ** 20

    @pytest.mark.parametrize("seed", range(6))
    def test_worst_start_mixing_matches_per_row(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 13))
        mat = rng.random((k, k)) ** 4
        if seed % 2:
            mat += 20 * np.eye(k)  # lazy: slower mixing
        mat /= mat.sum(axis=1, keepdims=True)
        w, vecs = np.linalg.eig(mat.T)
        mu = np.real(vecs[:, np.argmin(np.abs(w - 1.0))])
        ker = Kernel(Poset(tuple((i,) for i in range(k))), mat,
                     stationary=mu / mu.sum())
        models_ker = glauber_kernel(random_monotone_model(rng))
        for kernel in (ker, models_ker):
            for eps in (0.3, 0.1, 1e-3, 1e-7):
                assert (exact_mixing_time(kernel, None, eps)
                        == oracles.per_row_mixing_time(kernel, eps))


class _ChainKeyed(models.Model):
    """Three binary sites with x2 <= x1, so that the keys of site 0 form the
    chain 00 < 10 < 11 (height 2).  Site 0 reads the given law of its key;
    sites 1 and 2 follow the uniform weight on the support."""

    n_vars = 3

    def __init__(self, laws):
        self.laws = dict(zip(((0, 0), (1, 0), (1, 1)), laws))

    def _log_weight(self, state):
        return None if state[2] > state[1] else 0.0

    def _conditional(self, state, v):
        if v == 0:
            return self.laws[state[1:]]
        return super()._conditional(state, v)


class TestMonotoneSystemScan:
    """check_monotone_system on key conditionals near a tie: the covers of
    the keys are tested at half the slack, and the scan over every pair of
    keys decides when one of them fails."""

    KEYS = Poset(((0, 0), (1, 0), (1, 1)))
    CHAIN = Poset(((0,), (1,)))

    @pytest.mark.parametrize("shifts, covers_pass, verdict", [
        # covers short by 300 units each: within half the slack of 1003
        ((0.0, 3e-13, 6e-13), True, (True, None)),
        # covers short by 600 and 0, the pair (a, c) by 600: all pass
        ((0.0, 6e-13, 6e-13), False, (True, None)),
        # covers short by 700 each, the pair (a, c) short by 1400 fails
        ((0.0, 7e-13, 1.4e-12), False,
         (False, (0, (0, 0, 0), (0, 1, 1)))),
    ])
    def test_near_tie(self, monkeypatch, shifts, covers_pass, verdict):
        m = _ChainKeyed([(0.5 + d, 0.5 - d) for d in shifts])
        lo, hi = np.array([m.laws[k] for k in self.KEYS.states])[
            self.KEYS.covers.T]
        assert ordercore.stochastic_dominance(
            lo, hi, self.CHAIN, split=self.KEYS.height)[0] == covers_pass
        scans = []
        scan = exact.first_dominance_failure
        monkeypatch.setattr(exact, "first_dominance_failure",
                            lambda *a, **kw: scans.append(1) or scan(*a, **kw))
        assert exact.check_monotone_system(m) == verdict
        assert len(scans) == (not covers_pass)
        assert oracles.pairwise_monotone_system(m) == verdict

    @pytest.mark.parametrize("law", [(0.7, 0.7), (1.2, -0.2)])
    def test_law_that_is_not_a_probability_vector(self, law):
        m = _ChainKeyed([(0.5, 0.5), (0.5, 0.5), law])
        with pytest.raises(ValueError, match="not a probability vector"):
            exact.check_monotone_system(m)
        with pytest.raises(ValueError, match="not a probability vector"):
            oracles.pairwise_monotone_system(m)


def one_site_lift():
    """The lift of one free binary variable: the chain 0 < 1 < * as one
    fiber of three states."""
    return lift_model(HardcoreModel(Graph(1, []), 1.0), 0.5)


def fixed_law(*laws):
    """A site law over the values (0, 1, *): the first law from a state with
    a 0 at the site and the last one from any other state."""
    return lambda state, v: ((0, 1, STAR), laws[min(state[v], len(laws) - 1)])


def outcome(check, *args):
    try:
        return repr(check(*args))
    except ValueError as e:
        return f"ValueError: {e}"


def cycle_lift(m):
    return lift_model(flip(RandomClusterModel(
        Graph(m, [(i, (i + 1) % m) for i in range(m)]), [0.5] * m,
        [0.5] * m)), 0.5)


class TestSiteComparisonByFibers:
    """check_site_mc_leq decides P_v <=_mc Q_v per fiber and gives the
    verdict, witness and errors of both site kernels and check_mc_leq
    (oracles.per_site_kernel_mc_leq) on every lifted poset of at most 32
    elements.  The laws given as callables are turned into the law arrays
    it takes by oracles.law_arrays, one call per state."""

    @staticmethod
    def check(lm, p_law, q_law, site, sup, mu):
        """check_site_mc_leq of the two laws given as callables."""
        return exact.check_site_mc_leq(
            lm, oracles.site_law_arrays(lm, (p_law, q_law), site, sup), site,
            sup, mu)

    def compare(self, lm, p_law, q_law, site, sup=None, mu=None):
        """The result of check_site_mc_leq, asserted equal to the oracle's,
        and whether it built the kernels."""
        sup = sup or enumerate_support(lm)
        mu = stationary_distribution(lm, sup) if mu is None else mu
        with mock.patch.object(exact, "check_mc_leq",
                               wraps=exact.check_mc_leq) as kernel_path:
            got = outcome(self.check, lm, p_law, q_law, site, sup, mu)
        want = outcome(oracles.per_site_kernel_mc_leq, lm, p_law, q_law,
                       site, sup, mu)
        assert got == want
        return got, kernel_path.called

    def test_fiber_codes_number_fibers_as_rows_did(self, rng):
        # the lifts of bipartite hard-core K3,3, whose support is not a
        # product, and of a left marginal; the fiber numbering picks the
        # witness, so the code order must be the row order
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)],
                    bipartite_k=3)
        bhc = models.BipartiteHardcoreModel(k33, 1.0, 1.0)
        assert enumerate_support(lift_model(bhc, 0.5)).size < 3 ** 6
        for base in (bhc, models.LeftMarginalModel(random_bhc(rng))):
            sup = enumerate_support(lift_model(base, 0.5))
            for v in range(base.n_vars):
                rest = np.delete(sup.array, v, axis=1)
                _, fiber = np.unique(ordercore.state_codes(rest),
                                     return_inverse=True)
                assert np.array_equal(fiber, oracles.row_fibers(sup, v))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95))
    def test_matches_kernel_path_on_random_models(self, seed, theta):
        lm = lift_model(random_monotone_model(np.random.default_rng(seed),
                                              max_vars=3), theta)
        sup = enumerate_support(lm)
        assert sup.size <= 32
        p, q = heat_bath_law(lm), star_frozen_law(lm)
        for v in range(lm.n_vars):
            # P_v <=_mc Q_v holds and is certified without the kernels; the
            # laws swapped fail, through the kernel path
            assert self.compare(lm, p, q, v, sup) == ("(True, None)", False)
            got, kernels = self.compare(lm, q, p, v, sup)
            assert got.startswith("(False, (frozenset(") and kernels

    @pytest.mark.parametrize("lam", [0.5, 1.3])
    @pytest.mark.parametrize("edges", [[(0, 1)], [(0, 1), (1, 2)]])
    def test_plain_hardcore(self, edges, lam):
        lm = lift_model(HardcoreModel(Graph(len(edges) + 1, edges), lam), 0.5)
        p, q = heat_bath_law(lm), star_frozen_law(lm)
        for v in range(lm.n_vars):
            assert self.compare(lm, p, q, v)[0] == "(True, None)"
            assert self.compare(lm, q, p, v)[0].startswith("(False,")

    def test_each_fiber_alone_fails(self):
        # Q sends the states of one fiber to 0 and is Q_v elsewhere: every
        # fiber must be read, on 27 elements by the kernel path's verdict
        # and on 81 by a ray that fails with the kernels
        for lm, sites in ((cycle_lift(3), range(3)), (cycle_lift(4), [1])):
            sup = enumerate_support(lm)
            mu = stationary_distribution(lm, sup)
            p, q = heat_bath_law(lm), star_frozen_law(lm)
            for v in sites:
                for key in {s[:v] + s[v + 1:] for s in sup.states}:
                    def q_bad(state, u, key=key):
                        if state[:u] + state[u + 1:] == key:
                            return (0,), (1.0,)
                        return q(state, u)

                    if sup.size <= 32:
                        got, _ = self.compare(lm, p, q_bad, v, sup, mu)
                        assert got.startswith("(False,")
                        continue
                    ok, (up, kind) = self.check(lm, p, q_bad, v, sup, mu)
                    assert not ok and kind == "extreme-ray"
                    row = np.isin(np.arange(sup.size), list(up))
                    assert oracles.is_up_set(sup, up)
                    nu = row * mu / (row @ mu)
                    pk, qk = (oracles.loop_law_kernel(lm, law, v, sup)
                              for law in (p, q_bad))
                    assert not ordercore.stochastic_dominance(
                        nu @ pk, nu @ qk, sup)[0]

    def test_a_suffix_fails_where_the_whole_fiber_passes(self):
        # T(x, c) = -1 at x = 0 and +1 at 1 and *, for c >= 1: the whole
        # fiber sums to -0.8, the suffixes {1, *} and {*} to +0.1 and +0.05
        lm = one_site_lift()
        mu = np.array([0.9, 0.05, 0.05])
        p = fixed_law((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        q = fixed_law((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        got, _ = self.compare(lm, p, q, 0, mu=mu)
        assert got == "(False, (frozenset({2}), 'extreme-ray'))"

    @pytest.mark.parametrize("delta, verdict, certified", [
        # T = delta - 1e-13 per unit of mass on every suffix, and the row
        # sums 1 -+ 1e-13 add 200 units at the largest entry, *, which is in
        # every nonempty up-set: the kernel path sees SC (delta + 1e-13)
        (3e-13, True, True),     # T within h = tol / 2: certified
        (7e-13, True, False),    # T past h: the kernel path passes, 800
        (9.5e-13, False, False),  # T within tol, but 1050 > slack 1004
        (1.2e-12, False, False),
    ])
    def test_share_of_tol_on_a_near_tie(self, delta, verdict, certified):
        lm = one_site_lift()
        p = fixed_law((0.25, 0.25, 0.5 - 1e-13))
        q = fixed_law((0.25 + 1e-13 + delta, 0.25, 0.5 - delta))
        got, kernels = self.compare(lm, p, q, 0)
        assert got.startswith(f"({verdict},") and kernels != certified

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.floats(0, 2e-12),
           st.floats(-2e-13, 2e-13), st.floats(-2e-13, 2e-13))
    def test_near_ties_match_kernel_path(self, seed, lifted_c3, delta, e_p,
                                         e_q):
        # random laws p, and q = p with up to delta moved from * to 0 at
        # each state, their sums off 1 by e_p and e_q: certified or not,
        # the verdict is check_mc_leq's on the integer slack
        lm = cycle_lift(3) if lifted_c3 else one_site_lift()
        sup = enumerate_support(lm)
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(3), size=sup.size)
        q = p + delta * rng.random((sup.size, 1)) * [1.0, 0.0, -1.0]
        p[:, 0] += e_p
        q[:, 0] += e_q
        p_law, q_law = (
            lambda state, v, t=t: ((0, 1, STAR), tuple(t[sup.index(state)]))
            for t in (p, q))
        for v in range(lm.n_vars):
            self.compare(lm, p_law, q_law, v, sup)

    @pytest.mark.parametrize("probs", [
        (0.5, 0.5 + 2e-12, -2e-12),     # refused: negative probability
        (0.5, 0.5, 2e-12),              # refused: sum off by 2e-12
        (0.5, 0.5, float("nan")),
        (0.5, 0.5, float("inf")),
        (0.5, 0.5 + 1e-14, -1e-14),     # accepted, but not certified
        (0.5, 0.5, 8e-13),              # accepted, off by more than half
    ])
    def test_laws_outside_the_fast_path(self, probs):
        lm = one_site_lift()
        q = fixed_law((0.0, 0.0, 1.0))
        for pair in ((fixed_law(probs), q), (q, fixed_law(probs))):
            self.compare(lm, *pair, 0)

    def test_past_32_elements(self):
        # p = q = Q_v but for delta moved from 1 to 0 in one fiber: at the
        # top fiber its ray is the witness, at the bottom one it is
        # diluted by the up-closure and the fiber is named
        lm = cycle_lift(4)
        sup = enumerate_support(lm)
        mu = stationary_distribution(lm, sup)
        q = star_frozen_law(lm)

        def moved(key, delta):
            def law(state, u):
                vals, probs = q(state, u)
                if state[1:] != key or vals != (0, 1):
                    return vals, probs
                return vals, (probs[0] + delta, probs[1] - delta)
            return law

        top, bottom = (STAR,) * 3, (0,) * 3
        assert self.check(lm, q, moved(top, 3e-13), 0, sup,
                          mu) == (True, None)
        ok, (up, _) = self.check(lm, q, moved(top, 4e-12), 0, sup, mu)
        assert not ok
        assert sorted(up) == [sup.index((1,) + top), sup.index((STAR,) + top)]
        with pytest.raises(ValueError, match="fiber _000 is not certified"):
            self.check(lm, q, moved(bottom, 7e-13), 0, sup, mu)
        # past the dense guard, as before: the kernel path refuses
        with mock.patch.object(exact, "DENSE_GUARD", 80):
            with pytest.raises(ValueError, match="k = 81"):
                self.check(lm, q, q, 0, sup, mu)

    def test_refuses_arrays_not_at_one_site(self):
        # the full (k, n, a) tables, or one with a successor outside the
        # support's indices, are refused instead of read at column 0
        lm = cycle_lift(3)
        t = exact.Tables(lm)
        sup, mu, full = t.support, t.mu, t.arrays
        one = [(succ[:, [1]], prob[:, [1]]) for succ, prob in (full, full)]
        assert exact.check_site_mc_leq(lm, one, 1, sup, mu) == (True, None)
        shape = re.escape("law arrays of shape (k, 1, a) = (27, 1, 3)")
        with pytest.raises(ValueError, match=shape + ".*succ of shape "
                           r"\(27, 3, 3\) and prob of shape \(27, 3, 3\)$"):
            exact.check_site_mc_leq(lm, [full, one[1]], 1, sup, mu)
        with pytest.raises(ValueError, match=shape + ".*prob of shape "
                           r"\(27, 1, 2\)$"):
            exact.check_site_mc_leq(lm, [one[0], (one[1][0],
                                                  one[1][1][..., :2])],
                                    1, sup, mu)
        for bad in (-1, 27):
            succ = one[1][0].copy()
            succ[5, 0, 2] = bad
            with pytest.raises(ValueError, match=shape + re.escape(
                    " with successors in [0, 27)")):
                exact.check_site_mc_leq(lm, [one[0], (succ, one[1][1])], 1,
                                        sup, mu)


class TestMixing:
    def test_single_variable(self):
        ker = glauber_kernel(k2_flipped_rc())
        assert exact_mixing_time(ker, (0,), 0.25) == 1
        assert exact_mixing_time(ker, None, 0.25) == 1

    def test_identity_never_mixes(self):
        m = k2_flipped_rc(0.3, (0.2, 0.9))
        sup = enumerate_support(m)
        ident = Kernel(sup, np.eye(2), stationary=stationary_distribution(m, sup))
        with pytest.raises(RuntimeError, match="cap"):
            exact_mixing_time(ident, (0,), 0.01, cap=50)

    def test_frozen_law_is_refused_at_once(self):
        # the all-1 law of this chain stops changing bit for bit at step
        # 1791 while still far from stationarity; it used to run to the cap
        m = models.tilt(flip(HardcoreModel(Graph(3, [(0, 1), (0, 2)]), 1.0)),
                        1e-300)
        with pytest.raises(RuntimeError, match=r"^mixing time exceeds the "
                           r"cap 1000000: the law stopped changing by step "
                           r"2048$"):
            exact_mixing_time(glauber_kernel(m), (1, 1, 1), 0.25)

    def test_frozen_row_is_refused_at_once(self):
        # worst start: the row of (1, 1, 1) stops changing while still far,
        # but the far row of (0, 1, 1) keeps changing, so the whole law never
        # stops; it used to run to the cap
        m = models.tilt(flip(HardcoreModel(Graph(3, [(0, 1), (0, 2)]), 1.0)),
                        1e-300)
        with pytest.raises(RuntimeError, match=r"^mixing time exceeds the "
                           r"cap 1000000: the law stopped changing by step "
                           r"2048$"):
            exact_mixing_time(glauber_kernel(m), None, 0.25)

    def test_slow_chain_is_not_refused(self):
        # a lazy two-state chain whose law changes on every step past 2048
        a = b = 5e-4
        sup = Poset(((0,), (1,)))
        ker = Kernel(sup, np.array([[1 - a, a], [b, 1 - b]]),
                     stationary=np.array([0.5, 0.5]))
        t = exact_mixing_time(ker, (0,), 0.01)
        assert t > 2048
        assert t == oracles.two_state_mixing_time(a, b, 0.5, False, 0.01)

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_frozen_or_periodic_two_state_chain_is_refused(self, a):
        # a = b = 0 never moves and a = b = 1 swaps the two states forever:
        # from state 1, 0.5 away from (0.5, 0.5), neither comes within 0.1
        sup = Poset(((0,), (1,)))
        ker = Kernel(sup, np.array([[1 - a, a], [a, 1 - a]]),
                     stationary=np.array([0.5, 0.5]))
        with pytest.raises(RuntimeError, match="exceeds the cap 1000"):
            exact_mixing_time(ker, (1,), 0.1, cap=1000)
        with pytest.raises(RuntimeError, match="never mixes"):
            oracles.two_state_mixing_time(a, a, 0.5, True, 0.1)
        assert (oracles.two_state_mixing_time(a, a, 0.5, True, 0.6) == 0
                == exact_mixing_time(ker, (1,), 0.6, cap=1000))

    def test_k2_rc_matches_two_state_closed_form(self):
        rc = RandomClusterModel(K2, [0.5], [1.0, 1.0])
        ker = glauber_kernel(rc)
        # single edge variable: off-diagonal rates from the kernel itself
        a = ker.matrix[0, 1]
        b = ker.matrix[1, 0]
        pi1 = ker.stationary[1]
        eps = 1e-3
        got = exact_mixing_time(ker, (0,), eps)
        want = oracles.two_state_mixing_time(a, b, pi1, False, eps)
        assert got == want

    def test_tilted_mixing_enumerates_pinnings(self):
        m = k2_flipped_rc()
        # both the empty pinning and the single all-1 pinning are feasible;
        # the pinned chain is a point mass so the empty pinning dominates
        t = tilted_mixing_time(exact.Tables(m, 0.5), 0.05)
        ker = glauber_kernel(models.tilt(m, 0.5))
        assert t == exact_mixing_time(ker, None, 0.05)

    def test_eps_range(self):
        ker = glauber_kernel(k2_flipped_rc())
        with pytest.raises(ValueError):
            exact_mixing_time(ker, (0,), 1.5)


# the lowest subnormals are drawn on their own too, so that theta q1
# underflows to 0 (q1 < 2.5e-324 / theta) in a share of the draws
THETAS = st.one_of(st.floats(0.05, 0.95),
                   st.floats(5e-324, 1e-320, allow_subnormal=True),
                   st.sampled_from([5e-324, 1e-323, 1.5e-323]))


# conditionals with zero entries of either sign, so that a denominator may
# be 0 (also where theta q1 underflows), and subnormal ones
PROBS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0, 1),
                  st.floats(5e-324, 1e-300, allow_subnormal=True))


def float_division_error():
    try:
        1.0 / 0.0
    except ZeroDivisionError as e:
        return str(e)


class TestDerivedLaws:
    """models.tilted_probs, lifted_probs, tilt_log_weight and
    lift_log_weight are each one arithmetic for the models' floats and the
    exact tables' arrays."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(THETAS, st.sampled_from([0.3, 0.7])),
           st.lists(st.tuples(PROBS, PROBS), min_size=1, max_size=6))
    def test_probs_of_arrays_are_those_of_floats(self, theta, pairs):
        q0, q1 = (np.array(column) for column in zip(*pairs))
        for law in (models.tilted_probs, models.lifted_probs):
            try:
                want = np.array([law(theta, a, b) for a, b in pairs])
            except ZeroDivisionError as e:
                assert str(e) == float_division_error()
                with pytest.raises(ZeroDivisionError, match=f"^{e}$"):
                    law(theta, q0, q1)
                continue
            got = np.stack(law(theta, q0, q1), axis=1)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(THETAS, st.sampled_from([0.3, 0.7])),
           st.lists(st.tuples(st.sampled_from([0.0, -0.0])
                              | st.floats(-1e3, 1e3),
                              st.integers(0, 20), st.integers(0, 20)),
                    min_size=1, max_size=6))
    def test_lift_log_weight_of_arrays_is_that_of_floats(self, theta, rows):
        want = np.array([models.lift_log_weight(lw, ones, stars, theta)
                         for lw, ones, stars in rows])
        lw, ones, stars = (np.array(column) for column in zip(*rows))
        got = models.lift_log_weight(lw, ones, stars, theta)
        assert got.tobytes() == want.tobytes()
        want = np.array([models.tilt_log_weight(lw, ones, theta)
                         for lw, ones, _ in rows])
        got = models.tilt_log_weight(lw, ones, theta)
        assert got.tobytes() == want.tobytes()

    def test_models_call_them(self, rng):
        # each model's own float evaluation is the function's
        for _ in range(4):
            m = random_monotone_model(rng)
            lifted, tilted = lift_model(m, 0.3), models.TiltedModel(m, 0.3)
            law = star_frozen_law(lifted)
            for s in enumerate_support(lifted).states:
                lw = m.log_weight(ordercore.contract(s))
                assert lifted.log_weight(s) == models.lift_log_weight(
                    lw, ordercore.num_ones(s), ordercore.num_stars(s), 0.3)
                c = ordercore.contract(s)
                assert tilted.log_weight(c) == models.tilt_log_weight(
                    lw, ordercore.num_ones(c), 0.3)
                for v in range(m.n_vars):
                    q = m.conditional(ordercore.contract(s), v)
                    assert lifted.conditional(s, v) == models.lifted_probs(
                        0.3, *q)
                    if s[v] != STAR:
                        assert law(s, v)[1] == models.tilted_probs(0.3, *q)
                        assert tilted.conditional(
                            ordercore.contract(s), v) == law(s, v)[1]


def tilted_pool(rng):
    pool = [random_monotone_model(rng) for _ in range(4)]
    pool += [random_hardcore(rng) for _ in range(2)]
    pool += [models.LeftMarginalModel(random_bhc(rng)) for _ in range(2)]
    return pool


class TestTiltedMixing:
    """tilted_mixing_time runs each pinned chain on a slice of one tilted
    support; the parent form rebuilt and enumerated a pinned model each."""

    def test_matches_per_pinning_oracle(self, rng):
        for m in tilted_pool(rng):
            for theta in (0.3, 0.5, 0.9):
                for eps in (0.25, 0.05, 1e-3):
                    assert (tilted_mixing_time(exact.Tables(m, theta), eps)
                            == oracles.per_pinning_tilted_mixing_time(
                                m, theta, eps))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), THETAS)
    def test_derived_slices_equal_evaluated_ones(self, seed, theta):
        # theta down among the subnormals, where theta * q1 underflows to 0:
        # the derived cell and the evaluated one both keep the state itself
        # and +0.0 (a tilted model's product of thetas may underflow to 0,
        # which both refuse)
        def slices(make, *args):
            try:
                return list(make(*args))
            except ValueError as e:
                return repr(e)

        m = random_monotone_model(np.random.default_rng(seed))
        want = slices(oracles.evaluated_tilted_slices, m, theta)
        derived = slices(exact._tilted_slices, exact.Tables(m, theta))
        if isinstance(want, str):
            assert derived == want
            return
        assert len(derived) == len(want)
        for got, stack in zip(derived, want):
            assert got[0] == stack[0]
            for x, y in zip(got[1:], stack[1:]):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_refuses_the_tilt_before_enumerating(self):
        with mock.patch.object(exact, "enumerate_support") as enum:
            with pytest.raises(ValueError, match="^tilting is defined for "
                                                 "binary models$"):
                tilted_mixing_time(exact.Tables(lift_model(k2_flipped_rc(),
                                                           0.5), 0.5), 0.1)
            with pytest.raises(ValueError, match="^tilt parameter must be "
                                                 "positive$"):
                tilted_mixing_time(exact.Tables(k2_flipped_rc(), -0.5), 0.1)
        enum.assert_not_called()

    def test_pinned_kernels_are_bit_identical(self, rng):
        for m in tilted_pool(rng):
            for theta in (0.3, 0.9):
                tilted = models.tilt(m, theta)
                states = enumerate_support(tilted).states
                got = {}
                for pinned, sel, mats, mus in exact._tilted_slices(
                        exact.Tables(m, theta)):
                    for sites, rows, mat, mu in zip(pinned, sel, mats, mus):
                        got[sites] = ([states[i] for i in rows], mat, mu)
                want = list(oracles.per_pinning_tilted_kernels(m, theta))
                assert len(got) == len(want)
                for pins, _ in want:
                    ker = glauber_kernel(models.pin(tilted, pins))
                    sup, mat, mu = got[tuple(pins)]
                    assert tuple(sup) == ker.support.states
                    assert np.array_equal(mat, ker.matrix)
                    assert np.array_equal(mu, ker.stationary)


def kernel_pool(rng):
    """Monotone models, hard-core and bipartite hard-core (whose supports
    are not cubes)."""
    pool = [random_monotone_model(rng) for _ in range(4)]
    pool += [random_hardcore(rng) for _ in range(2)]
    return pool + [random_bhc(rng) for _ in range(2)]


class TestKernelsMatchLoops:
    """Kernels summed from one law table, and fd_kernel summed kept set by
    kept set, add the loops' addends in the loops' order: equal bit for
    bit."""

    @staticmethod
    def site_kernels(arrays, sup):
        """The matrix of one step at each site of the law arrays."""
        return [exact._law_kernel(tuple(a[:, [site]] for a in arrays), sup,
                                  None).matrix
                for site in range(arrays[0].shape[1])]

    def test_glauber_kernels(self, rng):
        for m in kernel_pool(rng):
            t = exact.Tables(m)
            sup, law = t.support, models.heat_bath_law(m)
            assert np.array_equal(glauber_kernel(m).matrix,
                                  oracles.loop_law_kernel(m, law, None, sup))
            for site, mat in enumerate(self.site_kernels(t.arrays, sup)):
                assert np.array_equal(
                    mat, oracles.loop_law_kernel(m, law, site, sup))
            # the heat-bath arrays summed with a given stationary law give
            # the same kernel
            shared = exact._law_kernel(t.arrays, sup, np.ones(sup.size))
            assert shared.matrix.tobytes() == glauber_kernel(m).matrix.tobytes()
            assert np.array_equal(shared.stationary, np.ones(sup.size))

    def test_lifted_kernels(self, rng):
        for m in kernel_pool(rng):
            t = exact.Tables(m, float(rng.uniform(0.2, 0.8)))
            lifted, sup = t.lifted, t.lsup
            assert np.array_equal(glauber_kernel(lifted).matrix,
                                  t.lker.matrix)
            for ker, arrays, law in (
                    (t.lker, t.larrays, models.heat_bath_law(lifted)),
                    (t.starg, t.sarrays, models.star_frozen_law(lifted))):
                assert np.array_equal(
                    ker.matrix, oracles.loop_law_kernel(lifted, law, None, sup))
                for site, mat in enumerate(self.site_kernels(arrays, sup)):
                    assert np.array_equal(
                        mat, oracles.loop_law_kernel(lifted, law, site, sup))

    def test_fd_kernel(self, rng):
        for m in kernel_pool(rng):
            for theta in (0.3, 0.5, 0.9):
                assert np.array_equal(fd_kernel(m, theta).matrix,
                                      oracles.loop_fd_kernel(m, theta))


def table_model(rng, kind, theta):
    """A model for the site-table property: a monotone model, plain
    hard-core (forced values), bipartite hard-core or a left marginal, by
    kind % 4; pinned at a support state on random sites for kind >= 4; then
    tilted by theta unless it is None or the tilt is refused."""
    m = (random_monotone_model, random_hardcore, random_bhc,
         lambda r: models.LeftMarginalModel(random_bhc(r)))[kind % 4](rng)
    if kind >= 4:
        states = enumerate_support(m).states
        x = states[rng.integers(len(states))]
        sites = rng.choice(m.n_vars, rng.integers(1, m.n_vars + 1),
                           replace=False)
        m = models.pin(m, {int(v): x[v] for v in sites})
    if theta is not None:
        try:
            m = models.tilt(m, theta)
        except ValueError:
            pass
    return m


class TestSiteTables:
    """The heat-bath table read once per (site, fiber), and the lifted,
    star-frozen and tilted tables derived from the base one, equal the law
    evaluated at every (state, site) by oracles.law_arrays, bit for bit."""

    @staticmethod
    def same(got, want):
        def made(build):
            try:
                return build()
            except (ValueError, ZeroDivisionError) as e:
                return repr(e)

        got, want = made(got), made(want)
        if isinstance(want, str):
            assert got == want
            return
        for x, y in zip(got, want, strict=True):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 7),
           st.one_of(st.none(), THETAS), THETAS)
    def test_tables_equal_the_evaluated_laws(self, seed, kind, tilt_by,
                                             lift_by):
        m = table_model(np.random.default_rng(seed), kind, tilt_by)
        sup, n = enumerate_support(m), m.n_vars
        self.same(lambda: exact.Tables(m).arrays,
                  lambda: oracles.law_arrays(heat_bath_law(m), sup, range(n),
                                             2))
        lifted = lift_model(m, lift_by)
        lsup = enumerate_support(lifted)
        index = exact.Tables(m, lift_by).index
        assert np.array_equal(index, oracles.contraction_index(lsup, sup))
        sites = exact._lift_sites(lsup, exact._site_conditionals(m, sup),
                                  index)
        for derived, law in ((exact._lifted_heat_bath, heat_bath_law),
                             (exact._star_frozen, star_frozen_law)):
            self.same(lambda: derived(lifted, lsup, sites),
                      lambda: oracles.law_arrays(law(lifted), lsup, range(n),
                                                 3))
        self.same(lambda: exact.Tables(lifted).arrays,
                  lambda: oracles.law_arrays(heat_bath_law(lifted), lsup,
                                             range(n), 3))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 11),
           st.one_of(st.none(), THETAS), THETAS)
    @example(0, 8, None, 5e-324)
    @example(1, 9, None, 5e-324)
    @example(2, 10, None, 5e-324)
    def test_tilted_table_equals_the_evaluated_tilt(self, seed, kind,
                                                    tilt_by, theta):
        # the law arrays mixing's tilted slices are summed from: derived from
        # the model's table where the tilt wraps the model, evaluated
        # otherwise; theta among the subnormals makes theta q1 underflow to
        # 0, which must keep the state's own index as the evaluation does.
        # Kinds 8 to 11 draw a flipped RC, whose q1 of at most 1/2 underflows
        # at the least subnormal theta
        rng = np.random.default_rng(seed)
        if kind < 8:
            m = table_model(rng, kind, tilt_by)
        else:
            m = models.flip(random_rc(rng))
            if tilt_by is not None:
                m = models.tilt(m, tilt_by)
        sup, n = enumerate_support(m), m.n_vars

        def summed():
            with mock.patch.object(exact, "_slice_stack",
                                   wraps=exact._slice_stack) as stack:
                list(exact._tilted_slices(exact.Tables(m, theta)))
            return stack.call_args_list[0].args[1:3]

        self.same(summed, lambda: oracles.law_arrays(
            heat_bath_law(models.tilt(m, theta)), sup, range(n), 2))

    def test_forced_value_keeps_the_state(self):
        # hard-core on K2: from (1, 0) site 1 is forced to 0, so its value 1
        # has probability 0 and points back at the state, with +0.0
        t = exact.Tables(HardcoreModel(K2, 1.0))
        sup, (succ, prob) = t.support, t.arrays
        i = sup.index((1, 0))
        assert succ[i, 1].tolist() == [i, i]
        assert prob[i, 1].tolist() == [1.0, 0.0]
        assert not np.signbit(prob[i, 1, 1])

    def test_law_onto_a_state_outside_the_support_is_refused(self):
        # a conditional that charges an infeasible state has no successor
        # in the support; the table refuses it rather than point elsewhere
        class Careless(HardcoreModel):
            def _conditional(self, state, v):
                return (0.5, 0.5)

            _conditionals = models.Model._conditionals

        m = Careless(K2, 1.0)
        with pytest.raises(ValueError, match="^the law at site 0 moves to "
                                             "11, which is not in the "
                                             "support$"):
            exact.Tables(m).arrays

    def test_one_conditional_per_fiber(self):
        # one call per site, over one state of each fiber
        m = random_monotone_model(np.random.default_rng(3))
        sup = enumerate_support(m)
        with mock.patch.object(type(m), "conditional", autospec=True,
                               side_effect=type(m).conditional) as cond:
            table = exact._site_conditionals(m, sup)
        assert [c.args[2] for c in cond.call_args_list] == list(
            range(m.n_vars))
        keys = [(v, s[:v] + s[v + 1:]) for c in cond.call_args_list
                for v in [c.args[2]] for s in map(tuple, c.args[1].tolist())]
        assert len(keys) == len(set(keys)) == sum(
            len(fib.first) for fib, _ in table)
        assert set(keys) == {(v, s[:v] + s[v + 1:]) for s in sup.states
                             for v in range(m.n_vars)}


def lookup_model(rng, kind):
    """A model of any family for the row-lookup property: table_model's
    monotone, hard-core, bipartite and left-marginal models, pinned for
    kind 4 to 7; per_state_model's for kind 8 to 14 (RC and Ising among
    them); a subgraph-world model with some eta 0 (even-degree supports)
    past that."""
    if kind < 8:
        return table_model(rng, kind, None)
    if kind < 15:
        return per_state_model(rng, kind - 8)
    g = random_graph(rng)
    return models.SubgraphWorldModel(g, rng.uniform(0.1, 0.9, g.m).tolist(),
                                     rng.choice([0.0, 0.6], g.n).tolist())


class TestRowLookup:
    """Poset.index, `in`, lookup and extension, exact._site_fibers and
    Tables.index equal the tuple oracles they replaced on every family's
    support, its lift, pinned supports, and posets whose rows are not in
    lexicographic order."""

    @staticmethod
    def same_lookups(poset, a):
        index = oracles.tuple_index(poset)
        assert [poset.index(s) for s in index] == list(index.values())
        assert all(s in poset for s in index)
        assert np.array_equal(poset.lookup(poset.codes),
                              np.arange(poset.size))
        assert poset.extension == oracles.tuple_extension(poset)
        n = poset.array.shape[1]
        rows = np.array(list(itertools.product(range(3), repeat=n)),
                        dtype=np.int8).reshape(-1, n)
        assert (poset.lookup(ordercore.state_codes(rows)).tolist()
                == [index.get(tuple(r), -1) for r in rows.tolist()])
        # values outside {0, 1, STAR}, among them the base-3 aliases of
        # states (0, 3) of (1, 0), and tuples of other lengths
        probes = [s[:v] + (c,) + s[v + 1:] for s in index for v in range(n)
                  for c in (-1, 3, 4)]
        probes += [s[:v - 1] + (s[v - 1] - 1, s[v] + 3) + s[v + 1:]
                   for s in index for v in range(1, n) if s[v - 1]]
        probes += [s[:-1] for s in index] + [s + (0,) for s in index]
        for s in probes:
            assert s not in poset
            with pytest.raises(KeyError):
                poset.index(s)
        for got, want in zip(exact._site_fibers(poset, a),
                             oracles.tuple_site_fibers(poset, a),
                             strict=True):
            assert got.site == want[0]
            for x, y in zip(got[1:], want[1:], strict=True):
                assert np.array_equal(x, y)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 15), THETAS)
    def test_lookups_equal_the_tuple_oracles(self, seed, kind, theta):
        rng = np.random.default_rng(seed)
        m = lookup_model(rng, kind)
        t = exact.Tables(m, theta)
        sup, a = t.support, len(m.alphabet)
        posets = [(sup, a), (t.lsup, 3)]
        assert np.array_equal(t.index,
                              oracles.contraction_index(t.lsup, sup))
        # unsorted: the keys of Tables.monotone_system, and the rows of the
        # support and of its lift in a random order, given as tuples or as
        # an array
        for fib, _ in t.table:
            keys = sup.array[fib.first]
            keys[:, fib.site] = 0
            posets.append((Poset(tuple(map(tuple, keys.tolist()))), a))
        for p, b in ((sup, a), (t.lsup, 3)):
            order = rng.permutation(p.size)
            posets.append((Poset(tuple(p.states[i] for i in order)), b))
            posets.append((Poset.from_array(p.array[order]), b))
        for p, b in posets:
            self.same_lookups(p, b)

    def test_hand_built_unsorted_posets(self):
        for states, a in ((((1, 0), (0, 1), (1, 1), (0, 0)), 2),
                          (((2, 0, 1), (0, 2, 2), (1, 1, 0)), 3),
                          (((1,), (0,)), 2)):
            self.same_lookups(Poset(states), a)
            self.same_lookups(Poset.from_array(np.array(states, np.int8)),
                              a)

    def test_point_mass_looks_up_once(self, monkeypatch):
        # one row lookup per call, found or not; a state outside the
        # support, or of another length, keeps its message
        poset = Poset(((1, 0), (0, 1), (1, 1), (0, 0)))
        spy = mock.Mock(wraps=Poset.lookup)
        monkeypatch.setattr(Poset, "lookup",
                            lambda self, codes: spy(self, codes))
        for i, state in enumerate(poset.states):
            assert point_mass(poset, state).tolist() == [
                float(j == i) for j in range(4)]
            assert spy.call_count == i + 1
        spy.reset_mock()
        with pytest.raises(ValueError) as refused:
            point_mass(Poset(((1, 0), (1, 1))), (0, STAR))
        assert str(refused.value) == "state 0* is not in the support"
        assert spy.call_count == 1
        with pytest.raises(ValueError) as refused:
            point_mass(poset, (0, 1, 1))
        assert str(refused.value) == "state 011 is not in the support"
        assert spy.call_count == 1

    def test_refusals_keep_their_messages(self):
        for states, message in (((), "^empty poset$"),
                                (((0, 1), (1,)),
                                 "^mixed configuration lengths$"),
                                (((0, 1), (0, 1)), "^duplicate elements$")):
            with pytest.raises(ValueError, match=message):
                Poset(states)
        with pytest.raises(ValueError, match="^duplicate elements$"):
            Poset.from_array(np.array([[1, 0], [0, 1], [1, 0]], np.int8))
        with pytest.raises(ValueError, match="^empty poset$"):
            Poset.from_array(np.zeros((0, 2), np.int8))

    def test_support_log_weights_build_no_state_tuple(self):
        # flipped RC on C16: 2^16 states, read as rows and codes only
        c16 = Graph(16, [(i, (i + 1) % 16) for i in range(16)])
        t = exact.Tables(flip(RandomClusterModel(c16, [0.5] * 16,
                                                 [0.5] * 16)))
        assert t.lws.shape == (t.support.size,)
        assert "states" not in vars(t.support)


def per_state_model(rng, kind):
    """RC, Ising, hard-core (whose tilt rewrites lambda), bipartite
    hard-core, its left marginal, a pinned hard-core model (with infeasible
    states among its candidates) or a tilted flipped RC (whose tilt is
    another tilt of its base), by kind."""
    if kind == 0:
        return random_rc(rng)
    if kind == 1:
        g = Graph(3, [(0, 1), (1, 2)])
        return IsingModel(g, rng.uniform(1.1, 3.0, g.m).tolist(),
                          rng.uniform(0.1, 1.0, g.n).tolist())
    if kind == 2:
        return random_hardcore(rng)
    if kind == 3:
        return random_bhc(rng)
    if kind == 4:
        return models.LeftMarginalModel(random_bhc(rng))
    if kind == 5:
        return models.pin(random_hardcore(rng), {0: 0})
    return models.tilt(flip(random_rc(rng)), float(rng.uniform(0.2, 0.9)))


class TestTablesAgainstPerState:
    """Tables keeps the log weights its support's enumeration evaluated,
    derives the tilted ones and the lifted support and law from them, and
    equals oracles.per_state_tables, which evaluates each state, bit for
    bit."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6), THETAS)
    @example(0, 2, 0.5)
    @example(0, 5, 5e-324)
    @example(0, 6, 0.5)
    def test_tables_equal_the_per_state_ones(self, seed, kind, theta):
        m = per_state_model(np.random.default_rng(seed), kind)
        try:
            want = oracles.per_state_tables(m, theta)
        except ValueError as e:  # a tilt that underflows lambda to 0
            with pytest.raises(ValueError, match=re.escape(str(e))):
                exact.Tables(m, theta).tilted_lws
            return
        t = exact.Tables(m, theta)
        assert np.array_equal(t.lws, want["lws"])
        assert np.array_equal(t.tilted_lws, want["tilted_lws"])
        assert t.lsup.states == want["lsup"].states
        assert np.array_equal(t.lmu, want["lmu"])

    def test_a_ternary_model_is_refused(self):
        lifted = lift_model(k2_flipped_rc(), 0.5)
        for build in (lambda: exact.Tables(lifted, 0.5).lsup,
                      lambda: exact.enumerate_support(lift_model(lifted,
                                                                 0.5))):
            with pytest.raises(ValueError, match="^base model must be "
                                                 "binary$"):
                build()

    def test_lifted_guard_refuses_before_the_support(self, monkeypatch):
        # flipped RC on C13: 2^13 base candidates, 3^13 lifted ones past
        # ENUM_GUARD; the lift is refused as its enumeration refuses it,
        # before any log weight is evaluated
        c13 = Graph(13, [(i, (i + 1) % 13) for i in range(13)])
        m = flip(RandomClusterModel(c13, [0.5] * 13, [0.5] * 13))
        calls = []
        monkeypatch.setattr(models.FlippedModel, "log_weight",
                            lambda self, s: calls.append(s))
        message = "^state space of size 1594323 exceeds the guard 1048576$"
        for build in (lambda: exact.Tables(m, 0.5).lsup,
                      lambda: exact.enumerate_support(lift_model(m, 0.5))):
            with pytest.raises(ValueError, match=message):
                build()
        assert calls == []

    def test_lifted_dense_guard_names_the_lifted_size(self, monkeypatch):
        # flipped RC on C8: 3^8 = 6561 lifted states, all in the support,
        # counted and refused before the lifts are built and coded
        c8 = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
        m = flip(RandomClusterModel(c8, [0.5] * 8, [0.5] * 8))
        message = ("^a dense kernel over k = 6561 states exceeds the guard "
                   "of 4096 \\(328 MiB per matrix\\)$")
        codes = mock.Mock(wraps=exact.state_codes)
        monkeypatch.setattr(exact, "state_codes", codes)
        with pytest.raises(ValueError, match=message):
            exact.Tables(m, 0.5).lsup
        assert codes.call_count == 0
        with pytest.raises(ValueError, match=message):
            exact.Tables(m, 0.5).freeze


def random_chain(rng, m, lazy):
    """A random stochastic matrix (lazy: slower mixing) and its stationary
    law."""
    mat = rng.random((m, m)) ** 4
    if lazy:
        mat += 20 * np.eye(m)
    mat /= mat.sum(axis=1, keepdims=True)
    w, vecs = np.linalg.eig(mat.T)
    mu = np.real(vecs[:, np.argmin(np.abs(w - 1.0))])
    return mat, mu / mu.sum()


class TestStackedMixing:
    """_mixing_times runs a stack of chains at once, and _stepped_times from
    given starts; each chain's time, and each refusal, is that of its own
    loop."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_one_chain_loops(self, seed):
        rng = np.random.default_rng(seed)
        m, g = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        chains = [random_chain(rng, m, j % 2) for j in range(g)]
        mats, mus = (np.array(x) for x in zip(*chains))
        x0 = rng.integers(m, size=g)
        for eps in (0.3, 0.1, 1e-3, 1e-7):
            assert exact._mixing_times(mats, mus, eps, 10 ** 6).tolist() == [
                oracles.loop_mixing_time(mat, mu, None, eps)
                for mat, mu in chains]
            assert exact._stepped_times(
                mats, mus, eps, 10 ** 6, np.eye(m)[x0][:, None]).tolist() == [
                oracles.loop_mixing_time(mat, mu, i, eps)
                for (mat, mu), i in zip(chains, x0)]

    def test_tilted_stacks_match_one_chain_loops(self, rng):
        for m in tilted_pool(rng):
            for _, _, mats, mus in exact._tilted_slices(exact.Tables(m, 0.5)):
                for eps in (0.25, 1e-3):
                    assert exact._mixing_times(mats, mus, eps, 10 ** 6
                                               ).tolist() == [
                        oracles.loop_mixing_time(mat, mu, None, eps)
                        for mat, mu in zip(mats, mus)]

    def test_cap(self):
        # lazy two-state chains: TV 0.5 (1 - 2a)^t from either state
        def lazy(a):
            return np.array([[1 - a, a], [a, 1 - a]])

        mats, mus = np.array([np.full((2, 2), 0.5), lazy(5e-4)]), np.full(
            (2, 2), 0.5)
        assert exact._mixing_times(mats, mus, 0.01, 10 ** 4).tolist() == [
            oracles.loop_mixing_time(mat, mus[0], None, 0.01) for mat in mats]
        for run in (lambda: oracles.loop_mixing_time(lazy(5e-4), mus[0], None,
                                                     0.01, cap=1000),
                    lambda: exact._mixing_times(mats, mus, 0.01, 1000)):
            with pytest.raises(RuntimeError, match="^mixing time exceeds the "
                               "cap 1000$"):
                run()
        # from one state the excess 0.5 less 10^4 a stays above 0.01, so the
        # chain is refused at step 0 instead of running to the cap
        with pytest.raises(RuntimeError, match="^mixing time exceeds the cap "
                           "10000$"):
            oracles.loop_mixing_time(lazy(1e-5), mus[0], 0, 0.01, cap=10 ** 4)
        with pytest.raises(RuntimeError, match="^mixing time exceeds the cap "
                           "10000: at step 0 a law is too far from "
                           "stationarity to come within eps by step 10000$"):
            exact._stepped_times(lazy(1e-5)[None], mus[:1], 0.01, 10 ** 4,
                                 np.eye(2)[None, :1])

    def test_fixed_point(self, rng):
        m = models.tilt(flip(HardcoreModel(Graph(3, [(0, 1), (0, 2)]), 1.0)),
                        1e-300)
        frozen = glauber_kernel(m)
        mat, mu = random_chain(rng, frozen.support.size, True)
        message = ("mixing time exceeds the cap 1000000: the law stopped "
                   "changing by step 2048")
        oracles.loop_mixing_time(mat, mu)
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            oracles.loop_mixing_time(frozen.matrix, frozen.stationary)
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            exact._mixing_times(np.array([mat, frozen.matrix]),
                                np.array([mu, frozen.stationary]), 0.25,
                                10 ** 6)


def shaped_chain(rng, m, kind):
    """A random stochastic matrix and its stationary law: plain (kind 0),
    lazy (1: mostly the identity), near-periodic (2: mostly a cyclic shift)
    or near-frozen (3: almost the identity).  Each keeps at least a 0.005
    share of the uniform law, so its time at eps >= 1e-7 is at most about
    3200 steps."""
    mat = rng.random((m, m)) ** 4
    mat = 0.5 * mat / mat.sum(axis=1, keepdims=True) + 0.5 / m
    stay = np.roll(np.eye(m), 1, axis=1) if kind == 2 else np.eye(m)
    share = (1.0, 0.1, 0.1, 0.01)[kind]
    mat = (1 - share) * stay + share * mat
    w, vecs = np.linalg.eig(mat.T)
    mu = np.real(vecs[:, np.argmin(np.abs(w - 1.0))])
    return mat, mu / mu.sum()


def two_state(a, b):
    """A two-state chain with off-diagonal rates a, b and its stationary
    law."""
    return np.array([[1 - a, a], [b, 1 - b]]), np.array([b, a]) / (a + b)


class TestSquaredMixing:
    """Worst-start times by powers of the kernels, certified against the
    step loop, which runs for every chain they do not certify."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 4),
           st.floats(-7, math.log10(0.6)))
    def test_matches_one_chain_loops(self, seed, m, g, log_eps):
        rng = np.random.default_rng(seed)
        eps = 10 ** log_eps
        chains = [shaped_chain(rng, m, int(rng.integers(4))) for _ in range(g)]
        mats, mus = (np.array(x) for x in zip(*chains))
        assert exact._mixing_times(mats, mus, eps, 10 ** 6).tolist() == [
            oracles.loop_mixing_time(mat, mu, None, eps) for mat, mu in chains]

    def test_near_tie_takes_the_step_loop(self):
        # eps is the closed-form worst distance at t = 5, max(pi) |1-a-b|^5:
        # the computed distances sit on it to within rounding
        mat, mu = two_state(0.3, 0.2)
        eps = mu.max() * 0.5 ** 5
        assert oracles.two_state_mixing_time(0.3, 0.2, mu[1], False, eps) == 5
        with mock.patch.object(exact, "_stepped_times",
                               wraps=exact._stepped_times) as loop:
            got = exact._mixing_times(mat[None], mu[None], eps, 10 ** 6)
        assert loop.call_count == 1
        assert got.tolist() == [oracles.loop_mixing_time(mat, mu, None, eps)]
        # the floor's one-power certificate refuses the tie, so the chain
        # takes the bracket and the step loop; a step later it passes
        with mock.patch.object(exact, "_stepped_times",
                               wraps=exact._stepped_times) as loop:
            got = [exact._mixing_times(mat[None], mu[None], eps, 10 ** 6,
                                       floor)[0] for floor in (5, 6)]
        assert got == [5, 6] and loop.call_count == 1

    def test_clear_chains_need_no_step_loop(self):
        mat, mu = two_state(0.3, 0.2)
        with mock.patch.object(exact, "_stepped_times") as loop:
            for eps, t in ((0.6, 0), (0.1, 3), (1e-3, 10), (1e-7, 23)):
                assert exact._mixing_times(mat[None], mu[None], eps,
                                           10 ** 6).tolist() == [t]
        loop.assert_not_called()

    def test_chains_within_eps_at_the_start_leave_the_stack(self):
        # at eps 0.55 the first chain is within eps at step 0, so the floor
        # and the bracket run on the rest of the stack: at floor 1 the third
        # chain passes the floor and the second takes the bracket
        chains = [two_state(0.3, 0.3), two_state(0.1, 0.05),
                  two_state(0.3, 0.2)]
        mats, mus = (np.array(x) for x in zip(*chains))
        want = [oracles.loop_mixing_time(*c, None, 0.55) for c in chains]
        assert want == [0, 2, 1]
        with mock.patch.object(exact, "_stepped_times") as loop:
            got = [exact._mixing_times(mats, mus, 0.55, 10 ** 6,
                                       floor).tolist() for floor in (0, 1, 2)]
        loop.assert_not_called()
        assert got == [want, want, [0, 2, 2]]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10), st.integers(1, 4),
           st.floats(-7, math.log10(0.6)), st.integers(0, 1100))
    def test_floor_gives_the_loop_time_or_the_floor(self, seed, m, g,
                                                    log_eps, floor):
        rng = np.random.default_rng(seed)
        eps = 10 ** log_eps
        chains = [shaped_chain(rng, m, int(rng.integers(4))) for _ in range(g)]
        mats, mus = (np.array(x) for x in zip(*chains))
        got = exact._mixing_times(mats, mus, eps, 10 ** 6, floor).tolist()
        for t, (mat, mu) in zip(got, chains):
            want = oracles.loop_mixing_time(mat, mu, None, eps)
            assert t == want or want <= floor == t

    def test_slow_chains_past_the_bracket_take_the_step_loop(self):
        # t = 1955 for the lazy chain: the powers stop at 1024, so it alone
        # runs the step loop; the fast chain keeps its certified t
        fast, slow = two_state(0.3, 0.2), two_state(1e-3, 1e-3)
        mats, mus = (np.array(x) for x in zip(fast, slow))
        with mock.patch.object(exact, "_stepped_times",
                               wraps=exact._stepped_times) as loop:
            assert exact._mixing_times(mats, mus, 0.01, 10 ** 6).tolist() == [
                6, 1955] == [oracles.loop_mixing_time(*c, None, 0.01)
                             for c in (fast, slow)]
        assert len(loop.call_args.args[0]) == 1


def stacks_far_at_start(model, theta, eps):
    """(chains, states) of each stack of _tilted_slices, counting only its
    chains farther than eps at the start."""
    out = []
    for _, _, mats, mus in exact._tilted_slices(exact.Tables(model, theta)):
        far = [max(exact.tv_distance(row, mu) for row in np.eye(len(mu))) > eps
               for mu in mus]
        out.append((sum(far), mats.shape[-1]))
    return out


class TestTiltedCertificates:
    """tilted_mixing_time runs the first stack, then certifies each later
    stack from one power of its kernels."""

    # a left marginal whose pinned slices mix slower than the full slice:
    # its stacks' times are 24, then 26, 25, 26, 26, then 30 and 24 (x3)
    slow_pins = models.LeftMarginalModel(models.BipartiteHardcoreModel(
        Graph(6, [(0, 5), (1, 4), (3, 4), (3, 5), (0, 4), (1, 5), (2, 5)],
              bipartite_k=4), 1.5, 1.9))
    # a left marginal whose full slice (15) ties with a pinned slice
    tie = models.LeftMarginalModel(models.BipartiteHardcoreModel(
        Graph(5, [(1, 3), (2, 3)], bipartite_k=3), 1.8, 1.3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95),
           st.floats(-4, -0.5))
    def test_matches_per_pinning_oracle(self, seed, theta, log_eps):
        m = random_monotone_model(np.random.default_rng(seed), max_vars=5)
        eps = 10 ** log_eps
        want = oracles.per_pinning_tilted_mixing_time(m, theta, eps)
        assert tilted_mixing_time(exact.Tables(m, theta), eps) == want

    @staticmethod
    def stack_runs(monkeypatch):
        """(floor, times) of each _mixing_times call, as it is made."""
        runs, run = [], exact._mixing_times

        def record(mats, mus, eps, cap, floor=0):
            ts = run(mats, mus, eps, cap, floor)
            runs.append((floor, ts.tolist()))
            return ts

        monkeypatch.setattr(exact, "_mixing_times", record)
        return runs

    def test_slower_stack_fails_its_certificate_and_raises_the_time(
            self, monkeypatch):
        runs = self.stack_runs(monkeypatch)
        assert tilted_mixing_time(exact.Tables(self.slow_pins, 0.11),
                                  0.005) == 30
        assert oracles.stepped_tilted_mixing_time(self.slow_pins, 0.11,
                                                  0.005) == 30
        # every chain of the second stack (26, 25, 26, 26 > 24) and the
        # three chains of 30 > 26 in the third fail the floor and get their
        # exact times; the others get the floor, and the last stack's one
        # chain is within eps at the start
        assert runs == [(0, [24]), (24, [26, 25, 26, 26]),
                        (26, [30, 26, 30, 26, 30, 26]), (30, [30] * 4),
                        (30, [0])]

    def test_stack_tied_with_the_first_is_certified(self, monkeypatch):
        runs = self.stack_runs(monkeypatch)
        with mock.patch.object(exact, "_power_margin",
                               wraps=exact._power_margin) as margin, \
                mock.patch.object(exact, "_power", wraps=exact._power) as power:
            assert tilted_mixing_time(exact.Tables(self.tie, 0.7),
                                      0.008) == 15
        assert oracles.stepped_tilted_mixing_time(self.tie, 0.7, 0.008) == 15
        assert runs == [(0, [15]), (15, [15] * 3), (15, [15] * 3), (15, [0])]
        # only the full slice takes the bracket (its last power P^16); the
        # tied stacks are certified from P^15 alone
        assert [c.args[3] for c in margin.call_args_list] == [16, 15, 15]
        assert [c.args[1] for c in power.call_args_list] == [15, 15]

    def test_every_stack_meets_the_refusal_at_step_zero(self, monkeypatch):
        # once per stack, on the chains farther than eps at the start
        cases = [(m, theta, eps, [[far] for far in stacks_far_at_start(
            m, theta, eps)]) for m, theta, eps in ((self.slow_pins, 0.11,
                                                    0.005),
                                                   (self.tie, 0.7, 0.008))]
        slices, refuse = exact._tilted_slices, exact._refuse_unreachable
        at_zero = []  # per stack built, (chains, states) of each refusal

        def counted(tables):
            for stack in slices(tables):
                at_zero.append([])
                yield stack

        def counting(mats, cur, mus, eps, cap, t):
            if t == 0:
                at_zero[-1].append((len(mats), mats.shape[-1]))
            refuse(mats, cur, mus, eps, cap, t)

        monkeypatch.setattr(exact, "_tilted_slices", counted)
        monkeypatch.setattr(exact, "_refuse_unreachable", counting)
        for m, theta, eps, want in cases:
            at_zero.clear()
            tilted_mixing_time(exact.Tables(m, theta), eps)
            assert at_zero == want


def hardcore_path(rng):
    n = int(rng.integers(2, 5))
    return HardcoreModel(Graph(n, [(i, i + 1) for i in range(n - 1)]),
                         float(rng.uniform(0.2, 3.0)))


class TestComparisonTimes:
    """comparison_times, which shares its laws, gives the times and the
    refusals of the public calls composed one by one."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["monotone",
                                                         "flipped-hardcore",
                                                         "tilted"]),
           st.sampled_from([0.1, 0.5, 0.9]), st.sampled_from([0.25, 0.1,
                                                              0.02]))
    def test_matches_composed_calls(self, seed, kind, theta, eps):
        rng = np.random.default_rng(seed)
        if kind == "flipped-hardcore":
            m = flip(hardcore_path(rng))
        else:
            m = random_monotone_model(rng)
            if kind == "tilted":
                # the tilt of a TiltedModel is evaluated, not derived
                m = models.TiltedModel(m, float(rng.uniform(0.2, 0.9)))
        assert (outcome(exact.comparison_times, m, theta, eps)
                == outcome(oracles.composed_comparison, m, theta, eps))

    @pytest.mark.parametrize("model, theta, eps", [
        (lift_model(k2_flipped_rc(), 0.5), 0.5, 0.1),
        (k2_flipped_rc(), 0.5, 1.5),
        (k2_flipped_rc(), 1.5, 0.1),
        (HardcoreModel(K2, 1.0), 0.5, 0.1),
    ], ids=["lifted", "eps", "theta", "no-all-1-state"])
    def test_refusals_match_composed_calls(self, model, theta, eps):
        got = outcome(exact.comparison_times, model, theta, eps)
        assert got.startswith("ValueError: ")
        assert got == outcome(oracles.composed_comparison, model, theta, eps)

    @pytest.mark.parametrize("tilt_by", [None, 0.6], ids=["derived",
                                                         "evaluated"])
    def test_one_slice_walk_and_the_public_tilted_time(self, tilt_by):
        # fd_kernel and the tilted slices share one walk of the all-1
        # slices, and the tilted time is tilted_mixing_time's, once
        m = flip(RandomClusterModel(Graph(3, [(0, 1), (1, 2)]), [0.5] * 2,
                                    [0.5] * 3))
        if tilt_by is not None:
            m = models.tilt(m, tilt_by)
        with mock.patch.object(exact, "_one_slices",
                               wraps=exact._one_slices) as walk, \
                mock.patch.object(exact, "tilted_mixing_time",
                                  wraps=exact.tilted_mixing_time) as tilted:
            got = exact.comparison_times(m, 0.5, 0.1)
        assert walk.call_count == 1 and tilted.call_count == 1
        assert got == oracles.composed_comparison(m, 0.5, 0.1)


class TestUnderflowAndRanges:
    def test_kernel_rejects_nan_rows(self):
        sup = enumerate_support(k2_flipped_rc())
        for mat in ([[np.nan, np.nan], [0.5, 0.5]],
                    [[np.nan, 1.0], [0.5, 0.5]]):
            with pytest.raises(ValueError, match="rows do not sum"):
                Kernel(sup, np.array(mat))

    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.0, -0.5, 1e308,
                                       float("nan")])
    def test_fd_kernel_theta_range(self, theta):
        with pytest.raises(ValueError, match=r"theta must lie in \(0,1\)"):
            fd_kernel(k2_flipped_rc(), theta)

    def test_fd_kernel_refuses_underflowed_slice(self):
        rc = RandomClusterModel(Graph(3, [(0, 1), (0, 2)]), [0.5, 0.5],
                                [0.5, 0.5, 0.5])
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="underflow"):
                fd_kernel(models.tilt(rc, 1e-300), 0.5)

    def test_fd_kernel_on_weights_past_the_float_range(self):
        # the largest log weight is 3 log(1e103) = 711.5
        tri = IsingModel(Graph(3, [(0, 1), (1, 2), (0, 2)]), [1e103] * 3,
                         [0.5] * 3)
        with np.errstate(all="raise"):
            ker = fd_kernel(tri, 0.5)
        assert np.allclose(ker.matrix.sum(axis=1), 1.0)


class TestDenseGuard:
    """Every dense kernel builder, comparison_times and tilted_mixing_time
    refuse more than DENSE_GUARD states with a ValueError naming k, before
    any law is evaluated or a matrix allocated."""

    def test_builders_refuse_past_the_guard(self, monkeypatch):
        m = flip(RandomClusterModel(Graph(3, [(0, 1), (1, 2), (0, 2)]),
                                    [0.5] * 3, [0.5] * 3))
        lifted = models.LiftedModel(m, 0.5)
        monkeypatch.setattr(exact, "DENSE_GUARD", 7)
        # a refusal comes before any conditional is evaluated
        calls = []
        conditional = type(m).conditional
        monkeypatch.setattr(type(m), "conditional", lambda self, state, v: (
            calls.append(v) or conditional(self, state, v)))
        for build in (lambda: glauber_kernel(m),
                      lambda: exact.Tables(m, 0.5).starg,
                      lambda: exact.Tables(m, 0.5).freeze,
                      lambda: freeze_kernel(lifted, exact.enumerate_support(
                          lifted), None),
                      lambda: fd_kernel(m, 0.5),
                      lambda: exact.comparison_times(m, 0.5, 0.1),
                      lambda: tilted_mixing_time(exact.Tables(m, 0.25), 0.1)):
            with pytest.raises(ValueError, match=r"k = (8|27) states"):
                build()
        assert calls == []

    def test_guard_admits_its_own_size(self, monkeypatch):
        m = flip(RandomClusterModel(Graph(3, [(0, 1), (1, 2), (0, 2)]),
                                    [0.5] * 3, [0.5] * 3))
        monkeypatch.setattr(exact, "DENSE_GUARD", 8)
        assert glauber_kernel(m).matrix.shape == (8, 8)
        assert fd_kernel(m, 0.5).matrix.shape == (8, 8)

    def test_fd_kernel_adds_slices_in_row_blocks(self):
        # flipped RC on C10 (k = 1024): the temporaries of a slice stay
        # small next to the 8 MiB output matrix
        c10 = Graph(10, [(i, (i + 1) % 10) for i in range(10)])
        m = flip(RandomClusterModel(c10, [0.5] * 10, [0.5] * 10))
        t = exact.Tables(m, 0.5)
        t.support
        tracemalloc.start()
        try:
            ker = t.fker
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ker.matrix.nbytes


class TestCsv:
    def test_kernel_round_trip(self):
        ker = glauber_kernel(k2_flipped_rc(0.4, (0.3, 0.8)))
        text = kernel_to_csv(ker)
        lines = text.strip().split("\n")
        assert lines[0] == "state,0,1"
        vals = [float(x) for x in lines[1].split(",")[1:]]
        assert vals == pytest.approx(ker.matrix[0].tolist(), abs=0)
