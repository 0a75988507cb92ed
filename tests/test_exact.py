import itertools
import math

import numpy as np
import pytest

from glauberlab import exact, models, ordercore
from glauberlab.exact import (Kernel, algorithm_kernel_sequence,
                              check_detailed_balance, check_mc_leq,
                              check_stochastic_monotonicity, contract_pushforward,
                              dist_to_csv, enumerate_support, exact_mixing_time,
                              fd_kernel, glauber_kernel, kernel_to_csv,
                              kl_divergence, lift_pushforward,
                              modified_glauber_kernel_sequence, freeze_kernel,
                              pinnings, point_mass,
                              propagate, star_glauber_kernel,
                              stationary_distribution,
                              tilted_mixing_time, tv_distance,
                              two_state_mixing_time)
from glauberlab.models import (Graph, HardcoreModel, RandomClusterModel, flip,
                               lift_model)
from glauberlab.ordercore import Poset
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
        _, sup, seq = algorithm_kernel_sequence(m, 0.5, 2, 3)
        lm = lift_model(m, 0.5)
        p_starg = star_glauber_kernel(lm, sup)
        assert len(seq) == 6
        for t, ker in enumerate(seq):
            if t % 3 == 0:
                assert not np.allclose(ker.matrix, p_starg.matrix)
            else:
                assert np.allclose(ker.matrix, p_starg.matrix)

    def test_t2_one_always_prefixed(self):
        m = k2_flipped_rc()
        _, sup, seq = algorithm_kernel_sequence(m, 0.5, 3, 1)
        lm = lift_model(m, 0.5)
        both = (freeze_kernel(lm, sup) @ star_glauber_kernel(lm, sup)).matrix
        for ker in seq:
            assert np.allclose(ker.matrix, both)

    def test_modified_sequence_equals_plain_powers(self):
        # prefixing the contract-lift kernel leaves the lifted-Glauber
        # trajectory laws unchanged when started from the lifted all-1 law
        m = k2_flipped_rc(0.4, (0.6, 0.9))
        theta = 0.5
        lm, sup, seq = modified_glauber_kernel_sequence(m, theta, 2, 3)
        bsup = enumerate_support(m)
        pi0 = lift_pushforward(point_mass(bsup, (1,)), bsup, theta, sup)
        via_seq = propagate(pi0, seq)
        gd = glauber_kernel(lm, sup)
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
        assert check_mc_leq(pv, qv, n_random=100, rng=rng)[0]

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
        # path takes, so one flow per cover
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
                got = check_mc_leq(pv, qv, n_random=30,
                                   rng=np.random.default_rng(v))
                assert got == (True, None)
                assert got == oracles.per_ray_mc_leq(
                    pv, qv, n_random=30, rng=np.random.default_rng(v))
            lker = glauber_kernel(lm, sup)
            prod = freeze_kernel(lm, sup) @ star_glauber_kernel(lm, sup)
            ok, wit = check_mc_leq(lker, prod)
            assert not ok and wit is not None
            assert (ok, wit) == oracles.per_ray_mc_leq(lker, prod)

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

    def test_pinned_kernels_are_bit_identical(self, rng, monkeypatch):
        seen = []
        monkeypatch.setattr(exact, "exact_mixing_time",
                            lambda ker, *a, **kw: seen.append(ker) or 0)
        for m in tilted_pool(rng):
            for theta in (0.3, 0.9):
                seen.clear()
                tilted_mixing_time(m, theta, 0.1)
                want = list(oracles.per_pinning_tilted_kernels(m, theta))
                assert len(seen) == len(want)
                for got, (pins, _) in zip(seen, want):
                    ker = glauber_kernel(
                        models.pin(models.tilt(m, theta), pins))
                    assert got.support.states == ker.support.states
                    assert np.array_equal(got.matrix, ker.matrix)
                    assert np.array_equal(got.stationary, ker.stationary)


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
