import functools
import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glauberlab import exact, models, ordercore
from glauberlab.ordercore import (PROB_TOL, STAR, Poset, contract,
                                  enumerate_up_sets, first_dominance_failure,
                                  leq, lift,
                                  num_ones, num_stars, parse_state, state_str,
                                  stochastic_dominance, up_set_of_row)
from oracles import (brute_covers, brute_height, dinic_closure_cut,
                     dominance_by_up_sets, flow_dominance,
                     full_network_dominance, greedy_coupling_bound,
                     is_increasing, is_up_set, per_row_flow_dominance,
                     up_sets_by_sets)


def chain(vals):
    return Poset(tuple((v,) for v in vals))


class TestLeq:
    def test_binary(self):
        assert leq((0, 1), (1, 1))
        assert not leq((1, 0), (0, 1))
        assert not leq((0, 1), (1, 0))

    def test_ternary_chain(self):
        # the ternary order places the wildcard on top: 0 < 1 < STAR
        assert leq((0, 1), (1, STAR))
        assert leq((1,), (STAR,))
        assert not leq((STAR,), (1,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            leq((0,), (0, 1))

    def test_partial_order_axioms_exhaustive(self):
        elems = list(itertools.product((0, 1, STAR), repeat=2))
        for x in elems:
            assert leq(x, x)
            for y in elems:
                if leq(x, y) and leq(y, x):
                    assert x == y
                for z in elems:
                    if leq(x, y) and leq(y, z):
                        assert leq(x, z)


class TestStateStrings:
    def test_round_trip(self):
        for s in itertools.product((0, 1, STAR), repeat=3):
            assert parse_state(state_str(s)) == s

    def test_star_rendering(self):
        assert state_str((0, 1, STAR)) == "01*"


class TestIsIncreasing:
    def test_constant(self):
        p = chain((0, 1))
        assert is_increasing([5.0, 5.0], p) == (True, None)

    def test_up_set_indicator(self):
        p = Poset(tuple(itertools.product((0, 1), repeat=2)))
        for row in enumerate_up_sets(p):
            assert is_increasing(row * 1.0, p)[0]

    def test_violation_witness(self):
        p = chain((0, 1))
        ok, wit = is_increasing([1.0, 0.0], p)
        assert not ok and wit == (0, 1)


class TestUpSets:
    def test_two_chain(self):
        assert len(enumerate_up_sets(chain((0, 1)))) == 3

    def test_three_chain(self):
        assert len(enumerate_up_sets(chain((0, 1, STAR)))) == 4

    def test_square(self):
        p = Poset(tuple(itertools.product((0, 1), repeat=2)))
        assert len(enumerate_up_sets(p)) == 6

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        elems = tuple(itertools.product((0, 1), repeat=n))
        p = Poset(elems)
        brute = 0
        for mask in range(2 ** len(elems)):
            members = frozenset(i for i in range(len(elems)) if mask >> i & 1)
            if is_up_set(p, members):
                brute += 1
        got = [frozenset(np.flatnonzero(row).tolist())
               for row in enumerate_up_sets(p)]
        assert len(got) == brute
        assert len(set(got)) == len(got)
        for u in got:
            assert is_up_set(p, u)

    def test_element_guard(self):
        p = Poset(tuple((i,) for i in range(40)))
        with pytest.raises(ValueError, match="up-sets are enumerated on at "
                           "most 32 elements"):
            enumerate_up_sets(p, max_elements=32)

    def test_read_only_bool_rows(self):
        rows = enumerate_up_sets(chain((0, 1, STAR)))
        assert rows.dtype == bool and not rows.flags.writeable
        # the empty up-set first, each partial up-set before its extension
        assert rows.tolist() == [[False, False, False], [False, False, True],
                                 [False, True, True], [True, True, True]]

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([24, 32]),
           st.sampled_from([40, 10 ** 6]))
    def test_rows_match_set_enumeration_in_order(self, data, max_elements,
                                                 max_up_sets):
        poset = random_poset(data.draw)
        guards = {"max_elements": max_elements, "max_up_sets": max_up_sets}
        try:
            want = up_sets_by_sets(poset, **guards)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                enumerate_up_sets(poset, **guards)
            return
        rows = enumerate_up_sets(poset, **guards)
        assert rows.shape == (len(want), poset.size)
        assert [frozenset(np.flatnonzero(r).tolist()) for r in rows] == want
        # built along the same extension, each witness set prints as before
        assert ([repr(up_set_of_row(poset, r)) for r in rows]
                == [repr(u) for u in want])

    def test_both_guards_refuse(self):
        p = Poset(tuple(itertools.product((0, 1), repeat=5)))
        for guards in ({"max_elements": 31}, {"max_up_sets": 7580}):
            with pytest.raises(ValueError) as want:
                up_sets_by_sets(p, **guards)
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                enumerate_up_sets(p, **guards)
        assert len(enumerate_up_sets(p, max_up_sets=7581)) == 7581

    @pytest.mark.parametrize("alphabet, n", [((0, 1, STAR), 3), ((0, 1), 5)])
    def test_witness_sets_print_as_the_set_enumeration(self, alphabet, n):
        # frozenset(list) of a row prints 88 of the 980 and 282 of the 7581
        # up-sets here with their members in another order
        p = Poset(tuple(itertools.product(alphabet, repeat=n)))
        assert ([repr(up_set_of_row(p, r)) for r in enumerate_up_sets(p)]
                == [repr(u) for u in up_sets_by_sets(p)])


class TestLiftContract:
    def test_contract_rule(self):
        assert contract((STAR, 1, 0)) == (1, 1, 0)
        assert contract((0, 0)) == (0, 0)

    def test_zero_fixed(self):
        rng = np.random.default_rng(0)
        assert lift((0, 0, 0), 0.3, rng) == (0, 0, 0)

    def test_theta_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            lift((1,), 1.0, rng)

    def test_star_probability(self):
        rng = np.random.default_rng(1)
        n_star = sum(lift((1,), 0.25, rng) == (STAR,) for _ in range(20000))
        assert abs(n_star / 20000 - 0.75) < 0.02

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=8),
           st.floats(0.01, 0.99), st.integers(0, 2 ** 32 - 1))
    def test_contract_of_lift_is_identity(self, bits, theta, seed):
        x = tuple(bits)
        rng = np.random.default_rng(seed)
        assert contract(lift(x, theta, rng)) == x

    def test_counts(self):
        assert num_ones((0, 1, STAR, 1)) == 2
        assert num_stars((0, 1, STAR, 1)) == 1


class TestDominance:
    def test_single_variable(self):
        p = chain((0, 1))
        ok, _ = stochastic_dominance([0.5, 0.5], [0.3, 0.7], p)
        assert ok
        ok, wit = stochastic_dominance([0.3, 0.7], [0.5, 0.5], p)
        assert not ok
        assert wit == frozenset({1})

    def test_antichain_counterexample(self):
        p = Poset(tuple(itertools.product((0, 1), repeat=2)))
        nu = np.zeros(4)
        nu[p.index((0, 1))] = 0.5
        nu[p.index((1, 0))] = 0.5
        nup = np.zeros(4)
        nup[p.index((0, 0))] = 0.5
        nup[p.index((1, 1))] = 0.5
        ok, wit = stochastic_dominance(nu, nup, p)
        assert not ok
        # the witness up-set must separate the masses
        assert sum(nu[i] for i in wit) > sum(nup[i] for i in wit)

    def test_self_dominance(self):
        p = Poset(tuple(itertools.product((0, 1, STAR), repeat=2)))
        nu = np.random.default_rng(5).dirichlet(np.ones(p.size))
        assert stochastic_dominance(nu, nu, p)[0]

    def test_non_normalized_rejected(self):
        p = chain((0, 1))
        with pytest.raises(ValueError):
            stochastic_dominance([0.5, 0.6], [0.5, 0.5], p)

    def test_flow_agrees_with_up_sets(self, rng):
        p = Poset(tuple(itertools.product((0, 1, STAR), repeat=2)))
        for _ in range(300):
            nu = rng.dirichlet(np.ones(p.size) * rng.uniform(0.2, 2.0))
            nup = rng.dirichlet(np.ones(p.size) * rng.uniform(0.2, 2.0))
            a, wa = stochastic_dominance(nu, nup, p)
            b, _ = dominance_by_up_sets(nu, nup, p)
            assert a == b
            if not a:
                assert is_up_set(p, wa)
                assert sum(nu[i] for i in wa) > sum(nup[i] for i in wa)

    def test_transitivity_spot_check(self, rng):
        p = Poset(tuple(itertools.product((0, 1), repeat=3)))
        mono = sorted(p.states, key=sum)
        found = 0
        for _ in range(500):
            raw = [rng.dirichlet(np.ones(p.size)) for _ in range(3)]
            # bias the three laws toward increasing mass up the order
            vs = []
            for j, r in enumerate(raw):
                w = r * np.array([(1 + j) ** sum(e) for e in p.states])
                vs.append(w / w.sum())
            a, b, c = vs
            if (stochastic_dominance(a, b, p)[0]
                    and stochastic_dominance(b, c, p)[0]):
                found += 1
                assert stochastic_dominance(a, c, p)[0]
        assert found > 0


class TestOrderMatrix:
    def test_cached_and_read_only(self):
        p = Poset(tuple(itertools.product((0, 1, STAR), repeat=2)))
        m = p.leq_matrix()
        assert p.leq_matrix() is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[1, 0] = True
        with pytest.raises(ValueError):
            m.fill(True)
        # the shared matrix is intact: (1, 0) is not below (0, 0)
        assert not p.leq_matrix()[p.index((1, 0)), p.index((0, 0))]

    def test_up_set_matrix(self):
        p = Poset(tuple(itertools.product((0, 1, STAR), repeat=2)))
        ups = enumerate_up_sets(p)
        ind = p.up_set_matrix
        assert ind.dtype == float and ind.shape == ups.shape
        assert (ind == ups).all()
        assert p.up_set_matrix is ind
        assert not ind.flags.writeable
        with pytest.raises(ValueError):
            ind[0, 0] = 1.0
        # 33 elements, or more than the cap of up-sets: no matrix
        assert Poset(tuple((i,) for i in range(33))).up_set_matrix is None
        # an antichain of 13 elements has 2**13 up-sets
        antichain = Poset(tuple((i, 12 - i) for i in range(13)))
        assert antichain.up_set_matrix is None


SCALE = ordercore._FLOW_SCALE


def random_poset(draw):
    """A binary or ternary product poset on 1 to 3 sites, or a random
    sub-poset of one."""
    alphabet = draw(st.sampled_from([(0, 1), (0, 1, STAR)]))
    elems = list(itertools.product(alphabet, repeat=draw(st.integers(1, 3))))
    keep = draw(st.lists(st.booleans(), min_size=len(elems),
                         max_size=len(elems)))
    if draw(st.booleans()) and any(keep):
        elems = [e for e, kp in zip(elems, keep) if kp]
    return Poset(tuple(elems))


def permuted(draw, poset):
    """The poset, or half the time its states in a random index order: a
    witness frozenset prints in an order that follows how it was built."""
    if not draw(st.booleans()):
        return poset
    order = draw(st.permutations(range(poset.size)))
    return Poset(tuple(poset.states[i] for i in order))


def random_row(rng, k, sparse):
    nu = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 2.0))
    if sparse:
        nu[rng.random(k) < 0.6] = 0.0
        if nu.sum() == 0.0:
            nu[rng.integers(k)] = 1.0
        nu /= nu.sum()
    return nu


def near_tie(rng, poset, tol, offset, split=1):
    """A pair whose largest up-set excess is exactly the slack (split as in
    stochastic_dominance) + offset flow units: mass moved down from b to a
    below it, in integers at the scale."""
    k = poset.size
    m = poset.leq_matrix() & ~np.eye(k, dtype=bool)
    below = np.argwhere(m)
    if len(below) == 0:
        return None
    a, b = below[rng.integers(len(below))]
    t = ordercore._slack(tol, k) // split + offset
    left = np.rint(rng.dirichlet(np.ones(k)) * (SCALE - t)).astype(np.int64)
    left[b] += t
    left[left.argmax()] += SCALE - left.sum()
    right = left.copy()
    right[b] -= t
    right[a] += t
    return left / SCALE, right / SCALE


def row_pair(rng, poset, tol, kind):
    k = poset.size
    if kind == "near-tie":
        pair = near_tie(rng, poset, tol, int(rng.integers(-1, 2)))
        if pair is not None:
            return pair
    if kind == "dominated":
        # push each element's mass to random elements above it
        up = poset.leq_matrix() * rng.random((k, k))
        nu = random_row(rng, k, rng.random() < 0.5)
        return nu, nu @ (up / up.sum(axis=1, keepdims=True))
    return (random_row(rng, k, kind == "sparse"),
            random_row(rng, k, rng.random() < 0.5))


class TestDominanceOracles:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["random", "sparse", "near-tie", "dominated"]),
           st.sampled_from([0.0, PROB_TOL, 1e-9]))
    def test_support_flow_and_up_set_sums_match_full_flow(self, data, seed,
                                                          kind, tol):
        poset = random_poset(data.draw)
        rng = np.random.default_rng(seed)
        nu, nup = row_pair(rng, poset, tol, kind)
        got = stochastic_dominance(nu, nup, poset, tol=tol)
        want = full_network_dominance(nu, nup, poset, tol=tol)
        assert got == want and repr(got) == repr(want)
        stacked = stochastic_dominance([nu], [nup], poset, tol=tol)
        assert stacked == (got if got[0] else (False, (0, got[1])))
        if not got[0]:
            assert is_up_set(poset, got[1])

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_near_tie_verdict(self, rng, offset):
        # an excess of exactly the slack passes; one unit more fails
        p = Poset(tuple(itertools.product((0, 1, STAR), repeat=2)))
        assert p.up_set_matrix is not None  # stacks take the up-set sums
        for tol in (0.0, PROB_TOL):
            for _ in range(20):
                nu, nup = near_tie(rng, p, tol, offset)
                ok, wit = stochastic_dominance(nu, nup, p, tol=tol)
                assert ok == (offset <= 0)
                assert stochastic_dominance([nu], [nup], p, tol=tol)[0] == ok
                assert (ok, wit) == full_network_dominance(nu, nup, p, tol=tol)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(0, 2 ** 32 - 1), st.integers(0, 150))
    def test_batched_first_failure_matches_per_row_flow(self, data, seed,
                                                        n_rows):
        # 0 to 150 rows span up to three blocks; most rows pass
        poset = permuted(data.draw, random_poset(data.draw))
        rng = np.random.default_rng(seed)
        kinds = ["dominated"] * 12 + ["near-tie", "random", "sparse"]
        pairs = [row_pair(rng, poset, PROB_TOL, kinds[rng.integers(15)])
                 for _ in range(n_rows)]
        slack = ordercore._slack(PROB_TOL, poset.size)
        want = next(((r, wit) for r, (a, b) in enumerate(pairs)
                     for ok, wit in [flow_dominance(a, b, poset, slack)]
                     if not ok), None)
        got = first_dominance_failure(iter(pairs), poset)
        assert got == want and repr(got) == repr(want)
        if pairs:
            nus, nus_prime = zip(*pairs)
            want = (True, None) if want is None else (False, want)
            got = stochastic_dominance(nus, nus_prime, poset)
            assert got == want and repr(got) == repr(want)

    def test_witness_prints_as_the_flow_on_permuted_posets(self):
        # random sub-posets in random index order, nu on one or two atoms:
        # the witness must print as the flow's, and some of these witnesses
        # print otherwise when built from every member of the least up-set
        # of largest excess instead of its members where nu is positive
        rng = np.random.default_rng(0)
        differs = 0
        for _ in range(400):
            alphabet = (0, 1) if rng.random() < 0.5 else (0, 1, STAR)
            n = int(rng.integers(3, 8 if len(alphabet) == 2 else 6))
            elems = list(itertools.product(alphabet, repeat=n))
            keep = rng.choice(len(elems), int(rng.integers(
                8, min(len(elems), 100) + 1)), replace=False)
            p = Poset(tuple(elems[i] for i in keep))
            nu = np.zeros(p.size)
            nu[rng.choice(p.size, int(rng.integers(1, 3)), replace=False)] = 1
            nu /= nu.sum()
            nup = rng.dirichlet(np.ones(p.size))
            got = stochastic_dominance(nu, nup, p)
            want = flow_dominance(nu, nup, p,
                                  ordercore._slack(PROB_TOL, p.size))
            assert got == want and repr(got) == repr(want)
            if not got[0]:
                differs += repr(p.up_closure(sorted(got[1]))) != repr(got[1])
        assert differs > 0

    @pytest.mark.parametrize("split", [2, 3, 8])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_split_slack_verdict(self, rng, split, offset):
        # an excess of exactly slack // split passes; one unit more fails,
        # on the up-set sums (9 elements) and on the flow (64 elements)
        for p in (Poset(tuple(itertools.product((0, 1, STAR), repeat=2))),
                  Poset(tuple(itertools.product((0, 1), repeat=6)))):
            for tol in (0.0, PROB_TOL):
                for _ in range(5):
                    nu, nup = near_tie(rng, p, tol, offset, split)
                    ok, wit = stochastic_dominance(nu, nup, p, tol=tol,
                                                   split=split)
                    assert ok == (offset <= 0)
                    assert stochastic_dominance([nu], [nup], p, tol=tol,
                                                split=split)[0] == ok
                    if not ok:
                        assert is_up_set(p, wit)
                    # the unsplit slack passes it
                    assert stochastic_dominance(nu, nup, p, tol=tol)[0]

    def test_split_must_be_positive(self):
        with pytest.raises(ValueError, match="split"):
            stochastic_dominance([0.5, 0.5], [0.5, 0.5], chain((0, 1)),
                                 split=0)

    def test_flow_fallback_above_the_cap(self, rng):
        # 64 elements: no up-set matrix, the coupling and cuts per pair
        p = Poset(tuple(itertools.product((0, 1), repeat=6)))
        assert p.up_set_matrix is None
        pairs = [row_pair(rng, p, PROB_TOL, kind) for kind in
                 ("dominated", "sparse", "dominated", "near-tie", "random")]
        want = next(((r, wit) for r, (a, b) in enumerate(pairs)
                     for ok, wit in [full_network_dominance(a, b, p)]
                     if not ok), None)
        assert want is not None
        assert first_dominance_failure(iter(pairs), p) == want
        nus, nus_prime = zip(*pairs)
        assert stochastic_dominance(nus, nus_prime, p) == (False, want)

    def test_invalid_row_after_a_violation_is_not_reached(self):
        # a 2-element chain (up-set sums) and {0,1}^6 (64 elements: the
        # coupling and cuts); each law puts its mass on the bottom and the
        # top
        for n in (1, 6):
            p = Poset(tuple(itertools.product((0, 1), repeat=n)))
            bottom_top = np.zeros((3, p.size))
            bottom_top[:, [0, -1]] = [[0.2, 0.8], [0.5, 0.6], [0.5, 0.5]]
            violating, bad, half = bottom_top
            assert stochastic_dominance([violating, bad], [half, half], p) == (
                False, (0, frozenset({p.size - 1})))
            with pytest.raises(ValueError, match="probability vector"):
                stochastic_dominance([half, bad], [half, half], p)
            nan = half.copy()
            nan[0] = np.nan
            with pytest.raises(ValueError, match="probability vector"):
                stochastic_dominance([half], [nan], p)
            with pytest.raises(ValueError, match="length"):
                stochastic_dominance([[1.0]], [[1.0]], p)
            with pytest.raises(ValueError, match="length"):
                stochastic_dominance([half, half], [half], p)


@functools.cache
def lifted_cycle(n):
    """The support of flipped RC on the cycle C_n lifted at theta = 0.5
    (3^n states; C4 is the exact-large verify instance), with the laws of
    its dominance check and its three lifted kernels."""
    cycle = models.Graph(n, [(i, (i + 1) % n) for i in range(n)])
    m = models.flip(models.RandomClusterModel(cycle, [0.5] * n, [0.5] * n))
    t = exact.Tables(m, 0.5)
    lsup, lker = t.lsup, t.lker
    pi0 = t.lift(exact.point_mass(t.support, (1,) * n))
    kernels = (lker, t.freeze, t.starg)
    alg = exact.propagate(pi0, exact.algorithm_kernel_sequence(
        *kernels[1:], 2, 3, steps=12))
    laws = exact.propagate(pi0, [lker] * 20)[:len(alg)]
    return lsup, np.array(laws), np.array(alg), kernels


@st.composite
def large_posets(draw):
    """Lifted C4, or a random sub-poset of {0,1,*}^n of 33 to 100 elements:
    above the up-set cap; either half the time in a permuted index order."""
    if draw(st.booleans()):
        return permuted(draw, lifted_cycle(4)[0])
    n = draw(st.integers(4, 5))
    elems = list(itertools.product((0, 1, STAR), repeat=n))
    size = draw(st.integers(33, min(100, len(elems))))
    keep = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).choice(
        len(elems), size, replace=False)
    return permuted(draw, Poset(tuple(elems[i] for i in sorted(keep))))


def closure_tie(rng, poset, excess, n_atoms):
    """A pair whose largest up-set excess is exactly excess flow units, with
    left on n_atoms elements (the first one half the time): right moves
    excess units from b down to some a < b, then pushes mass up within
    U = up(b) and within its complement only, which lowers no up-set's
    mass; so U keeps the excess and no up-set has more."""
    k = poset.size
    m = poset.leq_matrix()
    below = np.argwhere(m & ~np.eye(k, dtype=bool))
    a, b = below[rng.integers(len(below))]
    atoms = rng.choice(k, n_atoms, replace=False)
    if rng.random() < 0.5 and 0 not in atoms:
        atoms[0] = 0
    left = np.zeros(k, dtype=np.int64)
    left[atoms] = np.rint(rng.dirichlet(np.ones(n_atoms)) * (SCALE - excess))
    left[left.argmax()] += SCALE - excess - left.sum()
    left[b] += excess
    right = left.copy()
    right[b] -= excess
    right[a] += excess
    for i in rng.permutation(np.flatnonzero(right))[:n_atoms]:
        up = np.flatnonzero(m[i] & (m[b] == m[b, i]))
        x = int(rng.integers(0, right[i] + 1))
        right[i] -= x
        right[up[rng.integers(len(up))]] += x
    return left / SCALE, right / SCALE


def stack_row(rng, poset, slack, kind):
    k = poset.size
    if kind == "few":
        # a dominated pair on a few atoms
        return closure_tie(rng, poset, 0, int(rng.integers(1, 8)))
    if kind == "tie":
        # a tie on every element or on a few atoms
        n_atoms = k if rng.random() < 0.5 else int(rng.integers(1, 8))
        return closure_tie(rng, poset, slack + int(rng.integers(2)), n_atoms)
    if kind == "lopsided":
        # one side on at most three elements: few entries of one sign
        few = np.zeros(k)
        few[rng.choice(k, int(rng.integers(1, 4)), replace=False)] = 1.0
        pair = (random_row(rng, k, False), few / few.sum())
        return pair if rng.random() < 0.5 else pair[::-1]
    if kind == "invalid":
        pair = row_pair(rng, poset, PROB_TOL, "dominated")
        bad, i = pair[rng.integers(2)], rng.integers(k)
        bad[i] = [np.nan, -1e-9, bad[i] + 1e-9][rng.integers(3)]
        return pair
    return row_pair(rng, poset, PROB_TOL, kind)


def outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except ValueError as e:
        return "raises", str(e)


class TestClosureStacks:
    """Stacks above the up-set cap: the greedy coupling and closure cuts
    against one flow per row."""

    @settings(max_examples=100, deadline=None)
    @given(large_posets(), st.data(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, PROB_TOL]))
    def test_stacks_match_per_row_flows(self, poset, data, seed, tol):
        split = data.draw(st.sampled_from([1, 2, poset.height]))
        # most rows pass, so that later rows are reached
        kinds = data.draw(st.lists(st.sampled_from(
            ["dominated", "few", "few", "tie", "tie", "sparse", "random",
             "invalid", "lopsided", "lopsided"]),
            min_size=1, max_size=6))
        rng = np.random.default_rng(seed)
        slack = ordercore._slack(tol, poset.size) // split
        nus, nups = map(np.array, zip(*[stack_row(rng, poset, slack, kind)
                                        for kind in kinds]))
        want = outcome(per_row_flow_dominance, nus, nups, poset, tol,
                       split=split)
        with mock.patch.object(ordercore, "_closure_cut",
                               wraps=ordercore._closure_cut) as cut:
            got = outcome(stochastic_dominance, nus, nups, poset, tol,
                          split=split)
        assert got == want and repr(got) == repr(want)
        # the decision stops where the flows stop: at the first failing row,
        # with a violating up-set, else at the first invalid one, without
        invalid = np.flatnonzero(ordercore._invalid(nus)
                                 | ordercore._invalid(nups)).tolist()
        stop = (want[1][0] if want[0] is False
                else invalid[0] if invalid else None)
        found = ordercore._first_violation(nus, nups, poset, slack)
        assert (None if found is None else found[0]) == stop
        assert (found is not None and found[1] is None) == (
            want[0] == "raises")
        # the cuts, in row order, are those of every valid row up to the
        # stop that the greedy coupling leaves above the slack: the failing
        # row's cut gives its witness, and no other row takes one
        end = len(nus) if stop is None else stop + (want[0] is False)
        d = (ordercore._scale_to_ints(np.clip(nus[:end], 0.0, None))
             - ordercore._scale_to_ints(np.clip(nups[:end], 0.0, None)))
        cut_rows = np.flatnonzero(ordercore._coupling_bound(d, poset) > slack)
        cuts = [row for (row, _), _ in cut.call_args_list]
        assert len(cuts) == len(cut_rows)
        assert all(np.array_equal(row, d[r]) for row, r in zip(cuts, cut_rows))

    @pytest.mark.parametrize("offset", [0, 1])
    def test_tie_on_a_cut_row(self, rng, offset):
        # dense rows whose excess is the slack or one unit past it
        p = lifted_cycle(4)[0]
        for split in (1, 2, p.height):
            slack = ordercore._slack(PROB_TOL, p.size) // split
            nu, nup = closure_tie(rng, p, slack + offset, p.size)
            d = (ordercore._scale_to_ints(nu)
                 - ordercore._scale_to_ints(nup))
            excess, least = ordercore._closure_cut(d, p)
            assert excess == d[least].sum() == slack + offset
            got = stochastic_dominance([nu], [nup], p, split=split)
            assert got[0] == (offset == 0)
            want = per_row_flow_dominance([nu], [nup], p, split=split)
            assert got == want and repr(got) == repr(want)

    @settings(max_examples=100, deadline=None)
    @given(large_posets(), st.data(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, PROB_TOL]))
    def test_coupling_bound_is_sound(self, poset, data, seed, tol):
        # the greedy coupling's unrouted mass equals the one-at-a-time
        # oracle's, is never below the row's excess, and a row it passes
        # passes the flow; dense ties at the slack and one unit past it
        split = data.draw(st.sampled_from([1, 2, poset.height]))
        kinds = data.draw(st.lists(st.sampled_from(
            ["dominated", "few", "tie", "sparse", "random", "lopsided"]),
            max_size=6))
        rng = np.random.default_rng(seed)
        slack = ordercore._slack(tol, poset.size) // split
        pairs = [stack_row(rng, poset, slack, kind) for kind in kinds]
        pairs += [closure_tie(rng, poset, slack + offset, poset.size)
                  for offset in (0, 1)]
        nus, nups = map(np.array, zip(*pairs))
        d = (ordercore._scale_to_ints(np.clip(nus, 0.0, None))
             - ordercore._scale_to_ints(np.clip(nups, 0.0, None)))
        bound = ordercore._coupling_bound(d, poset)
        for r, row in enumerate(d):
            assert bound[r] == greedy_coupling_bound(row, poset)
            assert bound[r] >= dinic_closure_cut(row, poset)[0]
            if bound[r] <= slack:
                assert flow_dominance(nus[r], nups[r], poset, slack) == (
                    True, None)

    def test_greedy_strands_mass_a_coupling_routes(self):
        # the 6-cube: nu's atoms 100000 and 001000 fit under nu''s atoms
        # 101000 and 110000 (excess 0), but the greedy coupling fills 101000
        # from 100000 first and strands 001000's half: not certified
        p = Poset(tuple(itertools.product((0, 1), repeat=6)))
        nu, nup = np.zeros((2, p.size))
        nu[[p.index((1, 0, 0, 0, 0, 0)), p.index((0, 0, 1, 0, 0, 0))]] = 0.5
        nup[[p.index((1, 0, 1, 0, 0, 0)), p.index((1, 1, 0, 0, 0, 0))]] = 0.5
        d = ordercore._scale_to_ints(nu) - ordercore._scale_to_ints(nup)
        slack = ordercore._slack(PROB_TOL, p.size)
        assert slack == 1065
        assert ordercore._closure_cut(d, p)[0] == 0
        assert ordercore._coupling_bound(d[None], p).tolist() == [SCALE // 2]
        assert stochastic_dominance(nu, nup, p) == (True, None)

    @staticmethod
    def chains_and_gadget(excess, gadget):
        """Sixteen disjoint 2-chains x_i < y_i (x_i = e_i, y_i = e_i +
        e_{16+i} on 32 sites) and, on 3 more sites, the four states of the
        6-cube case above: 36 elements, above the up-set cap.  nu puts a on
        each x_i and gadget on each lower state, nu' the same on each y_i and
        upper state, and excess more units on x_0 and on y_1: the row's
        excess is exactly excess (up-set {x_0, y_0}), with 16 entries of
        each sign.  The greedy coupling
        routes the chains exactly, so it leaves excess unrouted, plus
        gadget."""
        def elem(*ones):
            x = [0] * 35
            for i in ones:
                x[i] = 1
            return tuple(x)

        xs = [elem(i) for i in range(16)]
        ys = [elem(i, 16 + i) for i in range(16)]
        lower, upper = [elem(32), elem(34)], [elem(32, 34), elem(32, 33)]
        p = Poset(tuple(xs + ys + lower + upper))
        a = 6 * 10 ** 13
        left = np.zeros(p.size, dtype=np.int64)
        left[:16] = a
        left[15] += SCALE - 16 * a - 2 * gadget - excess
        right = np.zeros_like(left)
        right[16:32] = left[:16]
        left[0] += excess
        right[17] += excess
        left[32:34] = right[34:36] = gadget
        return p, left / SCALE, right / SCALE

    @pytest.mark.parametrize("offset", [0, 1])
    def test_certificate_at_the_slack(self, offset):
        # an unrouted mass of exactly the slack passes without a cut; one
        # unit more goes to the cut, which fails the row
        p, nu, nup = self.chains_and_gadget(
            ordercore._slack(PROB_TOL, 36) + offset, 0)
        assert p.up_set_matrix is None
        d = ordercore._scale_to_ints(nu) - ordercore._scale_to_ints(nup)
        assert (d > 0).sum() == (d < 0).sum() == 16
        assert ordercore._coupling_bound(d[None], p).tolist() == [
            ordercore._slack(PROB_TOL, 36) + offset]
        with mock.patch.object(ordercore, "_closure_cut",
                               wraps=ordercore._closure_cut) as cut:
            got = stochastic_dominance(nu, nup, p)
        assert cut.call_count == offset  # the verdict and the witness
        assert got == ((True, None) if offset == 0
                       else (False, frozenset({0, 16})))
        assert stochastic_dominance([nu], [nup], p) == (
            per_row_flow_dominance([nu], [nup], p))

    def test_mass_moved_down_is_not_routed(self):
        # nu' <=_sd nu but not the reverse: every source of the reversed row
        # is a y_i, with sinks only below it, so nothing is routed
        p, nu, nup = self.chains_and_gadget(0, 0)
        d = ordercore._scale_to_ints(nup) - ordercore._scale_to_ints(nu)
        assert ordercore._coupling_bound(d[None], p).tolist() == [SCALE]
        assert stochastic_dominance(nu, nup, p) == (True, None)
        ok, wit = stochastic_dominance(nup, nu, p)
        assert not ok and wit == per_row_flow_dominance([nup], [nu], p)[1][1]

    def test_uncertified_rows_go_to_the_cut(self):
        # the gadget strands its mass, so a passing row takes one cut
        p, nu, nup = self.chains_and_gadget(ordercore._slack(PROB_TOL, 36),
                                            10 ** 13)
        d = ordercore._scale_to_ints(nu) - ordercore._scale_to_ints(nup)
        assert ordercore._coupling_bound(d[None], p).tolist() == [
            ordercore._slack(PROB_TOL, 36) + 10 ** 13]
        with mock.patch.object(ordercore, "_closure_cut",
                               wraps=ordercore._closure_cut) as cut:
            assert stochastic_dominance(nu, nup, p) == (True, None)
        assert cut.call_count == 1

    def test_no_cut_and_memory_on_lifted_c4(self):
        # the dominance laws of the exact-large verify instance, and the
        # cover stacks of its three lifted kernels: the greedy coupling
        # passes every row, so no closure cut runs, in at most 2 MB each
        p, laws, alg, kernels = lifted_cycle(4)
        block = exact._cover_block(p)
        stacks = [(laws, alg, 1)] + [
            (*ker.matrix[p.covers[c:c + block].T], p.height)
            for ker in kernels for c in range(0, len(p.covers), block)]
        assert len(stacks) == 4
        with mock.patch.object(ordercore, "_closure_cut",
                               wraps=ordercore._closure_cut) as cut:
            for nus, nups, split in stacks:
                tracemalloc.start()
                try:
                    assert stochastic_dominance(nus, nups, p, split=split)[0]
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 2 * 2 ** 20
        assert cut.call_count == 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_empty_stacks(self, n):
        # a block of rays all of mass 0 leaves check_mc_leq no pair to test:
        # 27 elements take the up-set sums, 81 the coupling and cuts
        p = Poset(tuple(itertools.product((0, 1, STAR), repeat=n)))
        assert (p.up_set_matrix is None) == (n == 4)
        empty = np.zeros((0, p.size))
        with mock.patch.object(ordercore, "_closure_cut",
                               wraps=ordercore._closure_cut) as cut:
            assert stochastic_dominance(empty, empty, p) == (True, None)
            assert stochastic_dominance(empty, empty, p, split=2) == (
                True, None)
        assert cut.call_count == 0


def scaled_diff(nus, nups):
    return (ordercore._scale_to_ints(np.clip(nus, 0.0, None))
            - ordercore._scale_to_ints(np.clip(nups, 0.0, None)))


class TestClosureCut:
    """_closure_cut against oracles.dinic_closure_cut, a Dinic max-flow on
    the same Picard network: the same excess and least mask, on rows the
    greedy coupling passes and rows it leaves, ties at the slack and one
    unit past it, and rows whose min cut is not unique."""

    @staticmethod
    def check(d, poset):
        got = ordercore._closure_cut(d, poset)
        want = dinic_closure_cut(d, poset)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert is_up_set(poset, set(np.flatnonzero(got[1]).tolist()))
        assert d[got[1]].sum() == got[0]
        return got

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 4]).map(lambda n: lifted_cycle(n)[0])
           | large_posets(), st.data(), st.integers(0, 2 ** 32 - 1))
    def test_rows_match_the_dinic(self, poset, data, seed):
        split = data.draw(st.sampled_from([1, poset.height]))
        kinds = data.draw(st.lists(st.sampled_from(
            ["dominated", "few", "tie", "sparse", "random", "lopsided"]),
            max_size=5))
        rng = np.random.default_rng(seed)
        slack = ordercore._slack(PROB_TOL, poset.size) // split
        pairs = [stack_row(rng, poset, slack, kind) for kind in kinds]
        pairs += [closure_tie(rng, poset, slack + offset, poset.size)
                  for offset in (0, 1)]
        d = scaled_diff(*map(np.array, zip(*pairs)))
        excess = [self.check(row, poset)[0] for row in d]
        assert (excess <= ordercore._coupling_bound(d, poset)).all()
        # the dense ties at the slack and one unit past it
        assert excess[-2:] == [slack, slack + 1]

    @pytest.mark.parametrize("n", [3, 4])
    def test_rows_the_coupling_passes(self, n):
        # rows of the lifted cycle's dominance laws and of a sample of its
        # three lifted kernels' cover stacks, all within a cover's slack of
        # the greedy coupling; the excess is 0 on each, reached by the
        # empty up-set and the whole poset alike, and the cut returns the
        # empty one
        p, laws, alg, kernels = lifted_cycle(n)
        covers = p.covers[::max(1, len(p.covers) // 12)].T
        d = np.concatenate([scaled_diff(laws, alg)] + [
            scaled_diff(*ker.matrix[covers]) for ker in kernels])
        slack = ordercore._slack(PROB_TOL, p.size) // p.height
        assert (ordercore._coupling_bound(d, p) <= slack).all()
        for row in d:
            excess, least = self.check(row, p)
            assert excess == 0 and not least.any()

    def test_rows_the_coupling_leaves(self):
        # the gadget strands mass that a coupling routes: a passing row
        # whose excess is exactly the slack, and one unit past it
        slack = ordercore._slack(PROB_TOL, 36)
        for offset in (0, 1):
            p, nu, nup = TestClosureStacks.chains_and_gadget(slack + offset,
                                                             10 ** 13)
            d = scaled_diff(nu, nup)
            assert ordercore._coupling_bound(d[None], p)[0] > slack
            excess, least = self.check(d, p)
            assert excess == slack + offset
            assert np.flatnonzero(least).tolist() == [0, 16]

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_min_cut_that_is_not_unique(self, rng, n):
        # d moves t units from b down to a < b: every up-set holding b but
        # not a reaches the excess t, from up(b), the least, to the
        # complement of down(a); the cut returns up(b).  At d = 0 every
        # up-set reaches 0, and the cut returns the empty one
        p = (lifted_cycle(n)[0] if n < 6 else
             Poset(tuple(itertools.product((0, 1), repeat=n))))
        excess, least = self.check(np.zeros(p.size, dtype=np.int64), p)
        assert excess == 0 and not least.any()
        m = p.leq_matrix()
        for a, b in np.argwhere(m & ~np.eye(p.size, dtype=bool))[
                rng.choice(int(m.sum()) - p.size, 10, replace=False)]:
            t = int(rng.integers(1, SCALE))
            d = np.zeros(p.size, dtype=np.int64)
            d[b], d[a] = t, -t
            excess, least = self.check(d, p)
            greatest = ~m[:, a]
            assert excess == d[greatest].sum() == t
            assert np.array_equal(least, m[b])
            assert not np.array_equal(least, greatest)


class TestCovers:
    def check(self, poset):
        covers = poset.covers
        assert covers.shape[1:] == (2,) and not covers.flags.writeable
        assert [tuple(c) for c in covers.tolist()] == brute_covers(poset)
        assert poset.height == brute_height(poset)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_sub_posets_match_brute_force(self, data):
        # random subsets are not convex: a cover may skip several sites
        self.check(random_poset(data.draw))

    def test_induced_cover_skips_missing_states(self):
        p = Poset(((0, 0), (1, 1), (STAR, 1), (0, STAR)))
        assert p.covers.tolist() == [[0, 1], [0, 3], [1, 2]]
        assert p.height == 2
        self.check(p)

    @pytest.mark.parametrize("states", [
        ((0, 1), (1, 0)),                          # an antichain
        ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
        ((STAR,),),                                 # a single state
    ])
    def test_no_comparable_pairs(self, states):
        p = Poset(states)
        assert p.covers.shape == (0, 2) and p.height == 0
        self.check(p)

    def test_product_poset_counts(self):
        # {0,1,*}^4: 4 * 2 * 27 covers, the longest chain has 8 steps
        p = Poset(tuple(itertools.product((0, 1, STAR), repeat=4)))
        assert len(p.covers) == 216 and p.height == 8
