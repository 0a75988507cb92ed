import itertools
import math
import tracemalloc
from collections import Counter

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glauberlab import exact, models, ordercore
from glauberlab.exact import (Kernel, algorithm_kernel_sequence,
                              check_detailed_balance, check_mc_leq,
                              check_stochastic_monotonicity, contract_pushforward,
                              dist_to_csv, enumerate_support, exact_mixing_time,
                              fd_kernel, glauber_kernel, kernel_to_csv,
                              kl_divergence, lift_pushforward, freeze_kernel,
                              pinnings, point_mass,
                              propagate, star_glauber_kernel,
                              stationary_distribution,
                              tilted_mixing_time, tv_distance,
                              two_state_mixing_time)
from glauberlab.models import (Graph, HardcoreModel, IsingModel,
                               RandomClusterModel, flip, heat_bath_law,
                               lift_model, star_frozen_law)
from glauberlab.ordercore import STAR, Poset
from conftest import (random_bhc, random_hardcore, random_monotone_model,
                      random_rc)
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
            enumerate_support(hc, guard=2 ** 20)


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
        lm = lift_model(k2_flipped_rc(0.4, (0.5, 0.8)), theta)
        sup = enumerate_support(lm)
        ker = freeze_kernel(lm, sup)
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
        lm = lift_model(base, theta)
        sup = enumerate_support(lm)
        ker = star_glauber_kernel(lm, sup)
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
            for build, model in ((glauber_kernel, m), (glauber_kernel, lm),
                                 (star_glauber_kernel, lm)):
                sup = enumerate_support(model)
                full = build(model, sup).matrix
                mean = sum(build(model, sup, site=v).matrix
                           for v in range(model.n_vars)) / model.n_vars
                assert np.max(np.abs(full - mean)) <= 1e-15

    def test_rows_stochastic_and_reversible(self, rng):
        for _ in range(5):
            m = random_monotone_model(rng, max_vars=3)
            lm = lift_model(m, 0.35)
            for ker in (glauber_kernel(m), glauber_kernel(lm),
                        freeze_kernel(lm), star_glauber_kernel(lm)):
                assert np.allclose(ker.matrix.sum(axis=1), 1.0, atol=1e-12)
                assert check_detailed_balance(ker) <= 1e-12

    def test_fd_kernel_stationarity_and_zero_start(self, rng):
        theta = 0.45
        for _ in range(5):
            m = random_monotone_model(rng, max_vars=3)
            sup = enumerate_support(m)
            ker = fd_kernel(m, theta, sup)
            mu = ker.stationary
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
        sup = enumerate_support(m)
        ker = fd_kernel(m, 1 - 1e-12, sup)
        for row in ker.matrix:
            assert tv_distance(row, ker.stationary) < 1e-9

    def test_fd_guard(self):
        g = Graph(25, [])
        with pytest.raises(ValueError, match="guard"):
            fd_kernel(HardcoreModel(g, 1.0), 0.5)


class TestSequences:
    def test_block_structure(self):
        m = k2_flipped_rc()
        lm = lift_model(m, 0.5)
        sup = enumerate_support(lm)
        p_starg = star_glauber_kernel(lm, sup)
        seq = algorithm_kernel_sequence(freeze_kernel(lm, sup), p_starg, 2, 3)
        assert len(seq) == 6
        for t, ker in enumerate(seq):
            if t % 3 == 0:
                assert not np.allclose(ker.matrix, p_starg.matrix)
            else:
                assert np.allclose(ker.matrix, p_starg.matrix)

    def test_t2_one_always_prefixed(self):
        m = k2_flipped_rc()
        lm = lift_model(m, 0.5)
        sup = enumerate_support(lm)
        seq = algorithm_kernel_sequence(freeze_kernel(lm, sup),
                                        star_glauber_kernel(lm, sup), 3, 1)
        both = (freeze_kernel(lm, sup) @ star_glauber_kernel(lm, sup)).matrix
        for ker in seq:
            assert np.allclose(ker.matrix, both)

    def test_modified_sequence_equals_plain_powers(self):
        # prefixing the contract-lift kernel leaves the lifted-Glauber
        # trajectory laws unchanged when started from the lifted all-1 law
        m = k2_flipped_rc(0.4, (0.6, 0.9))
        theta = 0.5
        lm = lift_model(m, theta)
        sup = enumerate_support(lm)
        gd = glauber_kernel(lm, sup)
        seq = algorithm_kernel_sequence(freeze_kernel(lm, sup), gd, 2, 3)
        bsup = enumerate_support(m)
        pi0 = lift_pushforward(point_mass(bsup, (1,)), bsup, theta, sup)
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
        sup = enumerate_support(m)
        lsup = enumerate_support(lift_model(m, theta))
        mu = stationary_distribution(m, sup)
        pushed = lift_pushforward(mu, sup, theta, lsup)
        assert pushed.sum() == pytest.approx(1.0, abs=1e-12)
        # pushing forward mu gives the lifted stationary law
        pi = stationary_distribution(lift_model(m, theta), lsup)
        assert tv_distance(pushed, pi) <= 1e-12
        # and contracting inverts it
        back = contract_pushforward(pushed, lsup, sup)
        assert tv_distance(back, mu) <= 1e-12

    def test_dominance_preserved_by_lift_and_contract(self, rng):
        m = k2_flipped_rc(0.4, (0.5, 0.5))
        theta = 0.3
        sup = enumerate_support(m)
        lsup = enumerate_support(lift_model(m, theta))
        found = 0
        for _ in range(50):
            a = rng.dirichlet(np.ones(sup.size))
            b = rng.dirichlet(np.ones(sup.size))
            if not ordercore.stochastic_dominance(a, b, sup)[0]:
                continue
            found += 1
            la = lift_pushforward(a, sup, theta, lsup)
            lb = lift_pushforward(b, sup, theta, lsup)
            assert ordercore.stochastic_dominance(la, lb, lsup)[0]
            assert ordercore.stochastic_dominance(
                contract_pushforward(la, lsup, sup),
                contract_pushforward(lb, lsup, sup), sup)[0]
        assert found > 0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.floats(0, 1, exclude_min=True, exclude_max=True),
           st.sampled_from(["none", "tilt", "flip", "pin"]), st.booleans())
    def test_lift_table_equals_loops(self, seed, theta, transform, shuffle):
        """freeze_kernel and both pushforwards equal their loop forms bit for
        bit: random monotone models (tilted and left marginals among them)
        and their tilts, flips and pins, supports in lexicographic or random
        order, laws with zero entries of either sign."""
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
        lm = lift_model(m, theta)
        sup, lsup = enumerate_support(m), enumerate_support(lm)
        if shuffle:
            sup, lsup = (Poset(tuple(p.states[i]
                                     for i in rng.permutation(p.size)))
                         for p in (sup, lsup))

        def law(k):
            p = rng.dirichlet(np.ones(k))
            p[rng.random(k) < 0.4] = 0.0
            p[(p == 0.0) & (rng.random(k) < 0.5)] = -0.0
            return p

        assert (freeze_kernel(lm, lsup).matrix.tobytes()
                == oracles.loop_freeze_kernel(lm, lsup).tobytes())
        p = law(sup.size)
        assert (lift_pushforward(p, sup, theta, lsup).tobytes()
                == oracles.loop_lift_pushforward(p, sup, theta,
                                                 lsup).tobytes())
        q = law(lsup.size)
        assert (contract_pushforward(q, lsup, sup).tobytes()
                == oracles.loop_contract_pushforward(q, lsup, sup).tobytes())

    def test_pushforwards_refuse_supports_that_are_not_a_lift(self):
        m = k2_flipped_rc(0.4, (0.5, 0.8))
        sup = enumerate_support(m)
        lsup = enumerate_support(lift_model(m, 0.5))
        short = Poset(sup.states[1:])
        # a lifted state contracts outside the binary support
        with pytest.raises(ValueError, match="not the lift"):
            contract_pushforward(np.ones(lsup.size) / lsup.size, lsup, short)
        # a binary state lacks one of its lifts
        with pytest.raises(ValueError, match="not the lift"):
            lift_pushforward(np.ones(sup.size) / sup.size, sup, 0.5,
                             Poset(lsup.states[:-1]))
        # a contraction code is one int64 bit per site
        wide = Poset(((1,) * 63,))
        with pytest.raises(ValueError, match="guarded to 62 sites"):
            contract_pushforward([1.0], wide, wide)

    def test_initial_lifted_density_is_increasing(self):
        # law of lift(all-1) has increasing density against the lifted law
        m = k2_flipped_rc(0.4, (0.7, 0.2))
        theta = 0.5
        lm = lift_model(m, theta)
        sup = enumerate_support(m)
        lsup = enumerate_support(lm)
        pi0 = lift_pushforward(point_mass(sup, (1,)), sup, theta, lsup)
        pi = stationary_distribution(lm, lsup)
        dens = [a / b if b > 0 else 0.0 for a, b in zip(pi0, pi)]
        assert ordercore.is_increasing(dens, lsup, tol=1e-12)[0]


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
        m = k2_flipped_rc(0.5, (0.9, 0.3))
        lm = lift_model(m, 0.5)
        sup = enumerate_support(lm)
        pv = glauber_kernel(lm, sup, site=0)
        qv = star_glauber_kernel(lm, sup, site=0)
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
        lm = lift_model(random_monotone_model(rng, max_vars=2), 0.5)
        lsup = enumerate_support(lm)
        kers += [glauber_kernel(lm, lsup), freeze_kernel(lm, lsup),
                 star_glauber_kernel(lm, lsup)]
        for ker in kers:
            assert (check_stochastic_monotonicity(ker)
                    == oracles.per_pair_monotonicity(ker))
        assert not check_stochastic_monotonicity(kers[4])[0]

    def test_lifted_c4_kernels(self):
        # the exact-large verify instance: 81 states, more than the up-set
        # path takes, so closure tables and cuts per cover
        lm = lift_model(flip(RandomClusterModel(
            Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), [0.5] * 4,
            [0.5] * 4)), 0.5)
        lsup = enumerate_support(lm)
        assert lsup.size == 81 and lsup.up_set_matrix is None
        for ker in (glauber_kernel(lm, lsup), freeze_kernel(lm, lsup),
                    star_glauber_kernel(lm, lsup)):
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

    def test_mc_leq_site_kernels_and_product_counterexample(self):
        for p, lams in ((0.5, (0.9, 0.3)), (0.3, (0.5, 0.5)), (0.7, (0.2, 1.0))):
            lm = lift_model(flip(RandomClusterModel(
                Graph(3, [(0, 1), (1, 2)]), [p, 1 - p], list(lams) + [0.5])),
                0.5)
            sup = enumerate_support(lm)
            for v in range(lm.n_vars):
                pv = glauber_kernel(lm, sup, site=v)
                qv = star_glauber_kernel(lm, sup, site=v)
                got = check_mc_leq(pv, qv)
                assert got == (True, None)
                assert got == oracles.per_ray_mc_leq(
                    pv, qv, n_random=30, rng=np.random.default_rng(v))
            lker = glauber_kernel(lm, sup)
            prod = freeze_kernel(lm, sup) @ star_glauber_kernel(lm, sup)
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

    def log_weight(self, state):
        return None if state[2] > state[1] else 0.0

    def conditional(self, state, v):
        if v == 0:
            return self.laws[state[1:]]
        return super().conditional(state, v)


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
    elements."""

    @staticmethod
    def compare(lm, p_law, q_law, site, sup=None, mu=None):
        """The result of check_site_mc_leq, asserted equal to the oracle's,
        and whether it built the kernels."""
        sup = sup or enumerate_support(lm)
        mu = stationary_distribution(lm, sup) if mu is None else mu
        with mock.patch.object(exact, "check_mc_leq",
                               wraps=exact.check_mc_leq) as kernel_path:
            got = outcome(exact.check_site_mc_leq, lm, p_law, q_law, site,
                          sup, mu)
        want = outcome(oracles.per_site_kernel_mc_leq, lm, p_law, q_law,
                       site, sup, mu)
        assert got == want
        return got, kernel_path.called

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
                    ok, (up, kind) = exact.check_site_mc_leq(
                        lm, p, q_bad, v, sup, mu)
                    assert not ok and kind == "extreme-ray"
                    row = np.isin(np.arange(sup.size), list(up))
                    assert oracles.is_up_set(sup, up)
                    nu = row * mu / (row @ mu)
                    pk = exact._law_kernel(lm, p, v, sup)
                    qk = exact._law_kernel(lm, q_bad, v, sup)
                    assert not ordercore.stochastic_dominance(
                        nu @ pk.matrix, nu @ qk.matrix, sup)[0]

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
        assert exact.check_site_mc_leq(lm, q, moved(top, 3e-13), 0, sup,
                                       mu) == (True, None)
        ok, (up, _) = exact.check_site_mc_leq(lm, q, moved(top, 4e-12), 0,
                                              sup, mu)
        assert not ok
        assert sorted(up) == [sup.index((1,) + top), sup.index((STAR,) + top)]
        with pytest.raises(ValueError, match="fiber _000 is not certified"):
            exact.check_site_mc_leq(lm, q, moved(bottom, 7e-13), 0, sup, mu)
        # past the dense guard, as before: the kernel path refuses
        with mock.patch.object(exact, "DENSE_GUARD", 80):
            with pytest.raises(ValueError, match="k = 81"):
                exact.check_site_mc_leq(lm, q, q, 0, sup, mu)


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
        assert t == two_state_mixing_time(a, b, 0.5, False, 0.01)

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
            two_state_mixing_time(a, a, 0.5, True, 0.1)
        assert (two_state_mixing_time(a, a, 0.5, True, 0.6) == 0
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
        want = two_state_mixing_time(a, b, pi1, False, eps)
        assert got == want

    def test_tilted_mixing_enumerates_pinnings(self):
        m = k2_flipped_rc()
        # both the empty pinning and the single all-1 pinning are feasible;
        # the pinned chain is a point mass so the empty pinning dominates
        t = tilted_mixing_time(m, 0.5, 0.05)
        ker = glauber_kernel(models.tilt(m, 0.5))
        assert t == exact_mixing_time(ker, None, 0.05)

    def test_eps_range(self):
        ker = glauber_kernel(k2_flipped_rc())
        with pytest.raises(ValueError):
            exact_mixing_time(ker, (0,), 1.5)


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
                    assert (tilted_mixing_time(m, theta, eps)
                            == oracles.per_pinning_tilted_mixing_time(
                                m, theta, eps))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.one_of(st.floats(0.05, 0.95),
                     st.floats(5e-324, 1e-320, allow_subnormal=True)))
    def test_derived_slices_equal_evaluated_ones(self, seed, theta):
        # theta down among the subnormals, where theta * q1 underflows to 0:
        # the derived cell keeps the model's successor, the evaluated one
        # the state itself, and both add +0.0 (a tilted model's product of
        # thetas may underflow to 0, which both refuse)
        def slices(*args):
            try:
                return list(exact._tilted_slices(m, theta, *args))
            except ValueError as e:
                return repr(e)

        m = random_monotone_model(np.random.default_rng(seed))
        sup = enumerate_support(m)
        derived, want = slices(sup, exact.heat_bath_arrays(m, sup)), slices()
        if isinstance(want, str):
            assert derived == want
            return
        assert len(derived) == len(want)
        for got, stack in zip(derived, want):
            assert got[0] == stack[0]
            for x, y in zip(got[1:], stack[1:]):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_pinned_kernels_are_bit_identical(self, rng):
        for m in tilted_pool(rng):
            for theta in (0.3, 0.9):
                tilted = models.tilt(m, theta)
                states = enumerate_support(tilted).states
                got = {}
                for pinned, sel, mats, mus in exact._tilted_slices(m, theta):
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

    def test_glauber_kernels(self, rng):
        for m in kernel_pool(rng):
            sup = enumerate_support(m)
            for site in (None, *range(m.n_vars)):
                assert np.array_equal(
                    glauber_kernel(m, sup, site).matrix,
                    oracles.loop_law_kernel(m, models.heat_bath_law(m), site,
                                            sup))
            given = glauber_kernel(m, sup, stationary=np.ones(sup.size),
                                   arrays=exact.heat_bath_arrays(m, sup))
            assert np.array_equal(given.matrix, glauber_kernel(m, sup).matrix)
            assert np.array_equal(given.stationary, np.ones(sup.size))

    def test_lifted_kernels(self, rng):
        for m in kernel_pool(rng):
            lifted = lift_model(m, float(rng.uniform(0.2, 0.8)))
            sup = enumerate_support(lifted)
            for site in (None, *range(m.n_vars)):
                for build, law in (
                        (glauber_kernel, models.heat_bath_law(lifted)),
                        (star_glauber_kernel, models.star_frozen_law(lifted))):
                    assert np.array_equal(
                        build(lifted, sup, site).matrix,
                        oracles.loop_law_kernel(lifted, law, site, sup))

    def test_fd_kernel(self, rng):
        for m in kernel_pool(rng):
            for theta in (0.3, 0.5, 0.9):
                assert np.array_equal(fd_kernel(m, theta).matrix,
                                      oracles.loop_fd_kernel(m, theta))


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
    """_mixing_times runs a stack of chains at once; each chain's time, and
    each refusal, is that of its own loop."""

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
            assert exact._mixing_times(
                mats, mus, eps, 10 ** 6, np.eye(m)[x0][:, None]).tolist() == [
                oracles.loop_mixing_time(mat, mu, i, eps)
                for (mat, mu), i in zip(chains, x0)]

    def test_tilted_stacks_match_one_chain_loops(self, rng):
        for m in tilted_pool(rng):
            for _, _, mats, mus in exact._tilted_slices(m, 0.5):
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
            exact._mixing_times(lazy(1e-5)[None], mus[:1], 0.01, 10 ** 4,
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
        assert two_state_mixing_time(0.3, 0.2, mu[1], False, eps) == 5
        with mock.patch.object(exact, "_stepped_times",
                               wraps=exact._stepped_times) as loop:
            got = exact._mixing_times(mat[None], mu[None], eps, 10 ** 6)
        assert loop.call_count == 1
        assert got.tolist() == [oracles.loop_mixing_time(mat, mu, None, eps)]
        # the one-power certificate refuses the tie, and passes a step later
        within = [exact._within(mat[None], mu[None], eps, 10 ** 6, t)[0]
                  for t in (5, 6)]
        assert within == [False, True]

    def test_clear_chains_need_no_step_loop(self):
        mat, mu = two_state(0.3, 0.2)
        with mock.patch.object(exact, "_stepped_times") as loop:
            for eps, t in ((0.6, 0), (0.1, 3), (1e-3, 10), (1e-7, 23)):
                assert exact._mixing_times(mat[None], mu[None], eps,
                                           10 ** 6).tolist() == [t]
        loop.assert_not_called()

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
    for _, _, mats, mus in exact._tilted_slices(model, theta):
        far = [max(exact.tv_distance(row, mu) for row in np.eye(len(mu))) > eps
               for mu in mus]
        if any(far):
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
        sup = enumerate_support(m)
        want = oracles.per_pinning_tilted_mixing_time(m, theta, eps)
        assert tilted_mixing_time(m, theta, eps) == want
        arrays = exact.heat_bath_arrays(m, sup)
        assert tilted_mixing_time(m, theta, eps, support=sup,
                                  arrays=arrays) == want

    def test_slower_stack_fails_its_certificate_and_raises_the_time(self):
        with mock.patch.object(exact, "_mixing_times",
                               wraps=exact._mixing_times) as run:
            assert tilted_mixing_time(self.slow_pins, 0.11, 0.005) == 30
        assert oracles.stepped_tilted_mixing_time(self.slow_pins, 0.11,
                                                  0.005) == 30
        # the full slice; all four chains of the next stack (24 < 25, 26);
        # the three chains of the one after that take 30 > 26
        assert [len(c.args[0]) for c in run.call_args_list] == [1, 4, 3]

    def test_stack_tied_with_the_first_is_certified(self):
        with mock.patch.object(exact, "_mixing_times",
                               wraps=exact._mixing_times) as run:
            assert tilted_mixing_time(self.tie, 0.7, 0.008) == 15
        assert oracles.stepped_tilted_mixing_time(self.tie, 0.7, 0.008) == 15
        assert run.call_count == 1

    def test_every_stack_meets_the_refusal_at_step_zero(self):
        for m, theta, eps in ((self.slow_pins, 0.11, 0.005),
                              (self.tie, 0.7, 0.008)):
            with mock.patch.object(exact, "_refuse_unreachable",
                                   wraps=exact._refuse_unreachable) as refuse:
                tilted_mixing_time(m, theta, eps)
            at_zero = Counter((len(c.args[0]), c.args[0].shape[-1])
                              for c in refuse.call_args_list if c.args[5] == 0)
            assert Counter(stacks_far_at_start(m, theta, eps)) <= at_zero


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
    """Every dense kernel builder refuses more than DENSE_GUARD states with a
    ValueError naming k, before it allocates the matrix."""

    def test_builders_refuse_past_the_guard(self, monkeypatch):
        m = flip(RandomClusterModel(Graph(3, [(0, 1), (1, 2), (0, 2)]),
                                    [0.5] * 3, [0.5] * 3))
        lifted = models.LiftedModel(m, 0.5)
        monkeypatch.setattr(exact, "DENSE_GUARD", 7)
        for build in (lambda: glauber_kernel(m),
                      lambda: glauber_kernel(m, site=0),
                      lambda: star_glauber_kernel(lifted),
                      lambda: freeze_kernel(lifted),
                      lambda: fd_kernel(m, 0.5)):
            with pytest.raises(ValueError, match=r"k = (8|27) states"):
                build()

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
        sup = enumerate_support(m)
        tracemalloc.start()
        try:
            ker = fd_kernel(m, 0.5, sup)
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

    def test_dist_csv(self):
        m = k2_flipped_rc()
        sup = enumerate_support(m)
        text = dist_to_csv(stationary_distribution(m, sup), sup)
        assert text.startswith("state,prob\n")
        assert "0.3333333333333333" in text
