import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from glauberlab import analysis, exact, models
from glauberlab.analysis import (AlphaSchedule, Diagnostics, bhc_schedule,
                                 coupling_independence, ei_witness,
                                 independence_report, kappa, lambda_c,
                                 log_kappa, marginal_stability, max_sinf_norm,
                                 rc_schedule, t_bound, uniqueness_check,
                                 uniqueness_grid)
from glauberlab.models import (Graph, HardcoreModel, RandomClusterModel, flip)
from conftest import random_monotone_model
import oracles

K2 = Graph(2, [(0, 1)])


def hc_k2():
    return HardcoreModel(K2, 1.0)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def independent_pair(lam=0.5):
    # no edges, so the law is a product over the two vertices
    return HardcoreModel(Graph(2, []), lam)


def influence_matrix(model, pinning=None) -> np.ndarray:
    """The influence matrix of the model under one pinning, row u read from
    analysis._influence_rows at the pinning's cell (0 where u is pinned)."""
    pinning = dict(pinning or {})
    n = model.n_vars
    marg = Diagnostics(model).marginals
    cell = [pinning.get(v, analysis._FREE) for v in range(n)]
    mat = np.zeros((n, n))
    for u in range(n):
        if u not in pinning:
            mat[u] = analysis._influence_rows(marg, u)[
                tuple(cell[:u] + cell[u + 1:])]
    return mat


def sinf(mat) -> float:
    """The largest absolute row sum of an influence matrix."""
    return float(np.max(np.abs(mat).sum(axis=1)))


class TestInfluence:
    def test_hardcore_k2_values(self):
        # mu uniform on {00, 10, 01}: pinning u=1 kills v, pinning u=0 frees
        # it.  With n = 2 max_sinf_norm reads only the unpinned cell, its
        # diagonal included
        psi = influence_matrix(hc_k2())
        assert psi[0, 0] == 1.0
        assert abs(psi[0, 1] - (-0.5)) < 1e-12
        assert abs(max_sinf_norm(Diagnostics(hc_k2())) - 1.5) < 1e-12

    def test_product_measure_off_diagonal_zero(self):
        psi = influence_matrix(independent_pair())
        assert abs(psi[0, 1]) < 1e-12
        assert abs(psi[1, 0]) < 1e-12
        got = max_sinf_norm(Diagnostics(independent_pair()))
        assert abs(got - 1.0) < 1e-12

    def test_max_over_pinnings(self):
        g = Graph(3, [(0, 1), (1, 2)])
        m = HardcoreModel(g, 1.0)
        base = sinf(influence_matrix(m))
        assert max_sinf_norm(Diagnostics(m)) >= base - 1e-12
        assert max_sinf_norm(Diagnostics(m), max_pin=0) == base

    def test_max_is_max_over_feasible_pinnings(self, rng):
        # exact equality: the one-table loop and the per-pinning matrices
        # sum each row the same way
        for _ in range(6):
            m = random_monotone_model(rng)
            states = exact.enumerate_support(m).states
            want = max((sinf(influence_matrix(m, p))
                        for p in exact.pinnings(m.n_vars, m.n_vars - 2)
                        if any(all(s[v] == x for v, x in p.items())
                               for s in states)), default=0.0)
            assert max_sinf_norm(Diagnostics(m)) == want

    def test_flip_invariance(self, rng):
        done = 0
        while done < 5:
            m = random_monotone_model(rng, max_vars=3)
            if m.n_vars < 2:
                continue
            done += 1
            a = max_sinf_norm(Diagnostics(m), max_pin=0)
            b = max_sinf_norm(Diagnostics(models.flip(m)), max_pin=0)
            assert abs(a - b) < 1e-10


class TestMarginalStability:
    def test_single_vertex_hardcore(self):
        lam = 0.7
        m = HardcoreModel(Graph(1, []), lam)
        assert abs(marginal_stability(Diagnostics(m)) - (1 + lam)) < 1e-12

    def test_hardcore_k2(self):
        assert abs(marginal_stability(Diagnostics(hc_k2())) - 2.0) < 1e-12

    def test_forced_one_gives_inf(self):
        # flipped hardcore: pinning the neighbour to 0 forces v to 1
        m = flip(hc_k2())
        assert marginal_stability(Diagnostics(m)) == math.inf

    def test_product_measure(self):
        m = independent_pair(2.0)
        # odds ratios are all 1; only the 1/mu_v(0) terms bite
        assert abs(marginal_stability(Diagnostics(m)) - 3.0) < 1e-12

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(analysis, "_STABILITY_VARS", 1)
        with pytest.raises(ValueError, match="^guarded to 1 variables$"):
            marginal_stability(Diagnostics(independent_pair()))


class TestCoupling:
    def test_hardcore_k2(self):
        assert abs(coupling_independence(Diagnostics(hc_k2())) - 1.5) < 1e-9

    def test_product_measure_is_one(self):
        # only the discrepancy coordinate ever differs
        assert abs(coupling_independence(Diagnostics(independent_pair()))
                   - 1.0) < 1e-9

    def test_flip_invariance(self, rng):
        for _ in range(3):
            m = random_monotone_model(rng, max_vars=3)
            a = coupling_independence(Diagnostics(m))
            b = coupling_independence(Diagnostics(models.flip(m)))
            assert abs(a - b) < 1e-8

    def test_influence_bounded_by_coupling(self, rng):
        for _ in range(8):
            m = random_monotone_model(rng, max_vars=3)
            d = Diagnostics(m)
            assert max_sinf_norm(d) <= coupling_independence(d) + 1e-8


class TestEiWitness:
    def test_product_measure_ratio_is_one(self):
        r, nu = ei_witness(Diagnostics(independent_pair()), iterations=50,
                           restarts=1)
        assert abs(r - 1.0) < 1e-6
        assert nu is not None

    def test_point_mass_formula(self):
        # for a point mass the ratio is sum_i KL(Bern(s_i)||Bern(mu_i)) over
        # -log mu(s); check the search attains at least the best point mass
        m = hc_k2()
        sup = exact.enumerate_support(m)
        mu = exact.stationary_distribution(m, sup)
        marg = [sum(p for s, p in zip(sup.states, mu) if s[i] == 1)
                for i in range(2)]
        best = 0.0
        for s, p in zip(sup.states, mu):
            num = sum(exact.kl_divergence((1 - s[i], float(s[i])),
                                          (1 - marg[i], marg[i]))
                      for i in range(2))
            best = max(best, num / -math.log(p))
        r, _ = ei_witness(Diagnostics(m), iterations=50, restarts=1)
        assert r >= best - 1e-9

    def test_up_sets_of_zero_mass_are_skipped(self):
        # most up-sets carry no mass; none of them may be normalized
        m = zero_mass_up_sets_model()
        with np.errstate(divide="raise", invalid="raise"):
            r, nu = ei_witness(Diagnostics(m), iterations=20, restarts=1)
        assert math.isfinite(r)
        assert nu is None or np.isfinite(nu).all()


def zero_mass_up_sets_model():
    # tilting by 1e-300 underflows the mass of every state with an edge
    rc = RandomClusterModel(Graph(3, [(0, 1), (0, 2)]), [0.5, 0.5],
                            [0.5, 0.5, 0.5])
    return models.tilt(models.tilt(rc, 3.0), 1e-300)


def assert_same_witness(model, iterations, restarts, seed):
    """ei_witness gives the loop oracle's witness, bit for bit, and its
    ratio within relative 1e-9, with no floating-point warning."""
    with np.errstate(divide="raise", invalid="raise"):
        r, nu = ei_witness(Diagnostics(model), iterations,
                           np.random.default_rng(seed), restarts)
    want_r, want_nu = oracles.loop_ei_witness(
        model, iterations, np.random.default_rng(seed), restarts)
    assert (nu is None) == (want_nu is None)
    if nu is not None:
        assert np.array_equal(nu, want_nu)
    assert abs(r - want_r) <= 1e-9 * abs(want_r), (r, want_r)


# plain hard-core (not monotone), a law whose up-sets mostly carry no mass,
# and an equal-parameter cycle whose point masses tie
SHARP_EI_MODELS = [
    pytest.param(HardcoreModel(Graph(6, [(i, i + 1) for i in range(5)]), 1.0),
                 id="hardcore-p6"),
    pytest.param(zero_mass_up_sets_model(), id="zero-mass-up-sets"),
    pytest.param(HardcoreModel(cycle(4), 1.0), id="hardcore-c4")]


class TestEiWitnessAgainstLoop:
    """The candidate matrices and the lean climb against the
    one-law-at-a-time search."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2))
    @example(seed=102, restarts=2)
    def test_random_monotone_models(self, seed, restarts):
        # the candidates are scored with the loop's own arithmetic, so their
        # witness is the loop's even among ties to the last bit.  The climb
        # takes np.log above one variable only: on one variable (seed 102
        # draws one) every law has ratio 1, and the last bit decides which
        # proposal it keeps
        m = random_monotone_model(np.random.default_rng(seed))
        assert_same_witness(m, 20, restarts, seed)

    @pytest.mark.parametrize("model", SHARP_EI_MODELS)
    @pytest.mark.parametrize("restarts", [0, 1])
    def test_fixed_models(self, model, restarts):
        assert_same_witness(model, 20, restarts, 7)

    @pytest.mark.parametrize("seed", [493, 1237])
    def test_candidates_tied_to_the_last_bit(self, seed):
        # laws whose candidates all have ratio 1 up to rounding; with the
        # site marginals of one matrix product (another order of additions)
        # these two picked another witness than the loop
        m = random_monotone_model(np.random.default_rng(seed))
        assert_same_witness(m, 0, 0, seed)

    @pytest.mark.parametrize("model", SHARP_EI_MODELS)
    def test_one_row_blocks(self, model, monkeypatch):
        # ties and NaN then meet across block boundaries
        monkeypatch.setattr(analysis, "_EI_BLOCK_ENTRIES", 1)
        assert_same_witness(model, 0, 0, 7)

    @pytest.mark.parametrize("model", SHARP_EI_MODELS)
    def test_fixed_models_tie_or_have_no_ratio(self, model):
        # the cases above are sharp: several candidates attain the largest
        # ratio (the first must win), and some have no ratio (NaN must lose)
        tables = exact.Tables(model)
        sup, mu = tables.support, tables.mu
        ind = (sup.array == 1).astype(float)
        pair_mu = np.stack([1 - mu @ ind, mu @ ind], axis=-1)
        nus = np.concatenate(list(analysis._ei_candidates(sup, mu)))
        ratios = analysis._ei_ratios(nus, mu,
                                     analysis._site_marginals(nus, ind),
                                     pair_mu)
        assert (ratios == np.nanmax(ratios)).sum() >= 2
        assert np.isnan(ratios).any()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([0.0, 1e-300, 0.1, 0.25, 0.5,
                                              1.0]),
                             min_size=4, max_size=4), min_size=1, max_size=6),
           st.lists(st.sampled_from([0.0, 1e-300, 0.2, 0.3, 0.5]),
                    min_size=4, max_size=4))
    def test_kl_rows_match_kl_divergence(self, rows, mu):
        nus, mu = np.array(rows), np.array(mu)
        with np.errstate(divide="raise", invalid="raise"):
            got = analysis._kl_rows(nus, mu)
        want = [exact.kl_divergence(nu, mu) for nu in nus]
        assert got.tolist() == want


class TestAlphaSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaSchedule(1.5, ((1.0, 1.0),))
        with pytest.raises(ValueError):
            AlphaSchedule(0.5, ())
        with pytest.raises(ValueError):
            AlphaSchedule(0.5, ((math.log(2), -1.0),))
        with pytest.raises(ValueError):
            AlphaSchedule(0.5, ((0.5, 1.0), (0.2, 2.0)))
        with pytest.raises(ValueError):
            AlphaSchedule(0.5, ((0.1, 1.0),))  # does not cover [0, log 2]

    @pytest.mark.parametrize("segments, message", [
        (((math.nan, 1.0),), "segment ends must increase"),
        (((0.3, 1.0), (math.nan, 1.0)), "segment ends must increase"),
        (((math.log(2), math.nan),), "rate values must be positive"),
    ], ids=["end", "later-end", "rate"])
    def test_nan_is_refused(self, segments, message):
        # a NaN compares false with everything, so each check must fail it
        with pytest.raises(ValueError, match=f"^{message}$"):
            AlphaSchedule(0.5, segments)

    def test_constant_closed_form(self):
        theta, a = 0.25, 3.0
        length = -math.log(theta)
        s = AlphaSchedule(theta, ((length, a),))
        assert abs(s.integral() - a * length) < 1e-12
        assert abs(kappa(s) - math.exp(-4 * a * length)) < 1e-15

    def test_doubling_rate_squares_kappa(self):
        theta = 0.5
        length = -math.log(theta)
        s1 = AlphaSchedule(theta, ((length, 2.0),))
        s2 = AlphaSchedule(theta, ((length, 4.0),))
        assert abs(kappa(s2) - kappa(s1) ** 2) < 1e-12

    def test_t_bound_formula(self):
        theta = 0.5
        s = AlphaSchedule(theta, ((-math.log(theta), 0.1),))
        mu_min, eps = 0.01, 0.1
        want = (math.exp(4 * s.integral())
                * (math.log(math.log(1 / mu_min))
                   + math.log(1 / (2 * eps * eps))) + 1)
        assert abs(t_bound(s, mu_min, eps) - want) < 1e-9

    def test_t_bound_overflow_is_inf(self):
        s = AlphaSchedule(0.5, ((-math.log(0.5), 1e6),))
        assert t_bound(s, 0.01, 0.1) == math.inf

    def test_t_bound_validation(self):
        s = AlphaSchedule(0.5, ((-math.log(0.5), 1.0),))
        with pytest.raises(ValueError):
            t_bound(s, 0.0, 0.1)
        with pytest.raises(ValueError):
            t_bound(s, 0.1, 1.5)


class TestConcreteSchedules:
    def test_rc_theta_formula(self):
        p_min, lam_max, n = 0.3, 0.5, 50
        theta, sched = rc_schedule(p_min, lam_max, n)
        want = p_min * min(1e-7, (1 - lam_max) / 27) / math.log(n)
        assert abs(theta - want) < 1e-18
        assert len(sched.segments) == 2
        assert sched.segments[0][1] == 3.0 * (1 - lam_max) ** -2
        assert sched.segments[1][1] == 5e4

    def test_rc_integral_matches_quadrature(self):
        _, sched = rc_schedule(0.3, 0.5, 50)
        got = sched.integral()
        assert abs(got - oracles.quadrature(sched)) <= 1e-9 * abs(got)

    def test_bhc_theta_formula(self):
        lam, dd, n, delta = 0.5, 3, 100, 0.1
        theta, sched = bhc_schedule(lam, dd, n, delta)
        want = lam / (math.exp(9) * (1 + lam) ** dd * dd * math.log(n))
        assert abs(theta - want) < 1e-18
        # the nominal breakpoint e^9 - log(lam) exceeds -log(theta), so the
        # clipped schedule is a single low-rate segment
        assert len(sched.segments) == 1
        assert sched.segments[0][1] == 1e4 * (1 + lam) ** (5 * dd) / delta

    def test_bhc_integral_matches_quadrature(self):
        _, sched = bhc_schedule(0.5, 3, 100, 0.1)
        got = sched.integral()
        assert abs(got - oracles.quadrature(sched)) <= 1e-9 * abs(got)

    def test_bhc_kappa_and_bound_degenerate_gracefully(self):
        _, sched = bhc_schedule(0.5, 3, 100, 0.1)
        assert kappa(sched) == 0.0
        assert t_bound(sched, 0.01, 0.1) == math.inf


class TestUniqueness:
    def test_lambda_c_values(self):
        assert lambda_c(3) == 4.0
        assert abs(lambda_c(4) - 27 / 16) < 1e-15
        with pytest.raises(ValueError):
            lambda_c(2)

    def test_fixed_point_is_fixed(self):
        ok, xhat, fp = uniqueness_check(0.5, 2.0, 1.0, 2.0, 0.1)
        f = 0.5 * (1 + 1.0 * (1 + xhat) ** 2.0) ** -2.0
        assert abs(f - xhat) < 1e-9
        assert ok
        assert fp < 0  # the map is strictly decreasing

    def test_steep_map_fails(self):
        ok, _, fp = uniqueness_check(50.0, 5.0, 1.0, 4.0, 0.0)
        assert not ok
        assert abs(fp) > 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            uniqueness_check(-1.0, 2.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            uniqueness_check(0.5, 2.0, 1.0, 1.0, 1.0)

    def test_grid_below_critical_passes(self):
        # well inside the uniqueness region of the degree-4 tree
        lam = 0.5 * lambda_c(4)
        out = uniqueness_grid(lam, 3.0, 1.0, 0.0, exps=range(-2, 5))
        assert 4.0 in out
        assert all(rec["fixed_point"] >= 0 for rec in out.values())


class TestReport:
    def test_round_trip_json(self):
        rep = independence_report(hc_k2(), rng=np.random.default_rng(0))
        assert abs(rep.coupling - 1.5) < 1e-9
        assert abs(rep.marginal_stability - 2.0) < 1e-12
        assert rep.ei_ratio > 0

    @pytest.mark.parametrize("model", [
        hc_k2(), HardcoreModel(cycle(5), 1.0),
        flip(RandomClusterModel(cycle(4), [0.4, 0.5, 0.6, 0.5], [0.5] * 4))])
    def test_equals_the_four_diagnostics(self, model):
        # one support and one pinned-mass table, shared, give the values of
        # the four public calls that each build their own
        rep = independence_report(model, rng=np.random.default_rng(3))
        r, nu = ei_witness(Diagnostics(model), rng=np.random.default_rng(3))
        assert rep.marginal_stability == marginal_stability(Diagnostics(model))
        assert rep.sinf == max_sinf_norm(Diagnostics(model))
        assert rep.coupling == coupling_independence(Diagnostics(model))
        assert rep.ei_ratio == r
        assert rep.ei_nu == nu.tolist()
        sup = exact.enumerate_support(model)
        assert rep.mu_min == exact.stationary_distribution(model, sup).min()

    @pytest.mark.parametrize("model", [
        HardcoreModel(cycle(5), 1.0),
        flip(RandomClusterModel(cycle(4), [0.4, 0.5, 0.6, 0.5], [0.5] * 4))],
        ids=["flow", "certified"])
    def test_runs_each_public_diagnostic_once(self, model, monkeypatch):
        # over one Diagnostics, whose pinned-mass table is built once
        calls = []
        for name in ("marginal_stability", "max_sinf_norm",
                     "coupling_independence", "ei_witness", "_pinned_masses"):
            fn = getattr(analysis, name)
            monkeypatch.setattr(analysis, name, lambda *a, _fn=fn, _name=name,
                                **kw: calls.append(_name) or _fn(*a, **kw))
        independence_report(model, rng=np.random.default_rng(0))
        assert calls == ["marginal_stability", "_pinned_masses",
                         "max_sinf_norm", "coupling_independence",
                         "ei_witness"]

    def test_guard_refuses_before_any_table(self, monkeypatch):
        m = HardcoreModel(cycle(11), 1.0)
        monkeypatch.setattr(exact, "enumerate_support",
                            lambda *a: pytest.fail("support enumerated"))
        with pytest.raises(ValueError, match="guarded to 10 variables"):
            independence_report(m)


def assert_same_value(got, want, rel):
    """Equal within rel, with identical 0 / 1 / inf outcomes."""
    for special in (0.0, 1.0, math.inf):
        assert (got == special) == (want == special), (got, want)
    if math.isfinite(want):
        assert abs(got - want) <= rel * abs(want), (got, want)


class TestPinnedTable:
    """The pinned-mass table against scans of the state table."""

    def cases(self, rng, count=6):
        out = [hc_k2(), flip(HardcoreModel(cycle(4), 1.3)),
               models.LiftedModel(flip(RandomClusterModel(
                   Graph(3, [(0, 1), (1, 2)]), [0.4, 0.6], [0.5, 0.7, 0.2])),
                   0.4)]
        out += [random_monotone_model(rng, max_vars=5) for _ in range(count)]
        return out

    def test_masses_and_marginals_match_scans(self, rng):
        for m in self.cases(rng):
            tables = exact.Tables(m)
            sup, probs = tables.support, tables.mu
            table = analysis._pinned_masses(sup, probs)
            marg = analysis._marginals(table)
            assert table.shape == (3,) * m.n_vars
            for pins in exact.pinnings(m.n_vars, m.n_vars):
                cell = tuple(pins.get(v, analysis._FREE)
                             for v in range(m.n_vars))
                mass = probs[sup.where(pins)].sum()
                assert abs(table[cell] - mass) <= 1e-15
                assert (table[cell] == 0.0) == (mass == 0.0)
                for v in range(m.n_vars):
                    want = oracles.marginal_one(sup, probs, pins, v)
                    if want is None:
                        assert math.isnan(marg[(v,) + cell])
                    else:
                        assert_same_value(marg[(v,) + cell], want, 1e-12)


class TestAgainstOracles:
    """Every diagnostic equals the slice-scan and per-pair-flow forms."""

    def test_influence_matrices(self, rng):
        for _ in range(8):
            m = random_monotone_model(rng, max_vars=5)
            for pins in exact.pinnings(m.n_vars, m.n_vars):
                got = influence_matrix(m, pins)
                want = oracles.influence_matrix(m, pins)
                # entries are differences of probabilities, and an exact 0
                # may meet the scan's rounding noise, so they compare
                # absolutely; the diagonal (1 exactly where u is decisive)
                # is exact
                assert (np.diag(got) == np.diag(want)).all()
                assert np.abs(got - want).max() <= 1e-12

    def test_max_sinf_norm_and_marginal_stability(self, rng):
        cases = [hc_k2(), flip(hc_k2()), HardcoreModel(cycle(5), 1.0),
                 independent_pair(2.0)]
        cases += [random_monotone_model(rng, max_vars=5) for _ in range(10)]
        for m in cases:
            d = Diagnostics(m)
            assert_same_value(max_sinf_norm(d), oracles.max_sinf_norm(m),
                              1e-12)
            assert_same_value(max_sinf_norm(d, max_pin=1),
                              oracles.max_sinf_norm(m, max_pin=1), 1e-12)
            assert_same_value(marginal_stability(d),
                              oracles.marginal_stability(m), 1e-12)

    def test_closed_form_coupling(self, rng):
        done = 0
        for seed in range(6):
            r = np.random.default_rng(seed)
            for _ in range(3):
                m = random_monotone_model(r, max_vars=5)
                got = coupling_independence(Diagnostics(m))
                assert abs(got - oracles.per_pair_coupling(m)) <= 1e-9
                done += analysis._certified_monotone(exact.Tables(m))
        assert done >= 10  # most random monotone instances take the closed form

    @pytest.mark.parametrize("model", [
        HardcoreModel(cycle(5), 1.0),
        flip(HardcoreModel(cycle(4), 0.8)),
        models.LiftedModel(flip(RandomClusterModel(
            Graph(3, [(0, 1), (1, 2)]), [0.4, 0.6], [0.5, 0.7, 0.2])), 0.4),
        # a monotone system, but on a restricted support
        models.BipartiteHardcoreModel(
            Graph(3, [(0, 1), (0, 2)], bipartite_k=1), 0.7, 1.2),
    ], ids=["hardcore-c5", "flipped-hardcore-c4", "lifted-rc-path",
            "bipartite-hardcore"])
    def test_uncertified_models_take_the_flow(self, model, monkeypatch):
        assert not analysis._certified_monotone(exact.Tables(model))
        calls = []
        flow = analysis._transport_cost
        monkeypatch.setattr(analysis, "_transport_cost",
                            lambda *a: calls.append(1) or flow(*a))
        assert (coupling_independence(Diagnostics(model))
                == oracles.per_pair_coupling(model))
        assert calls
        monkeypatch.setattr(analysis, "_FLOW_STATES", 1)
        with pytest.raises(ValueError, match="exceeds the guard"):
            coupling_independence(Diagnostics(model))

    def test_certified_model_never_calls_the_flow(self, monkeypatch):
        m = flip(RandomClusterModel(cycle(5), [0.5] * 5, [0.5] * 5))
        calls = []
        monkeypatch.setattr(analysis, "_transport_cost",
                            lambda *a: calls.append(1))
        # the guard of the flow only
        monkeypatch.setattr(analysis, "_FLOW_STATES", 1)
        got = coupling_independence(Diagnostics(m))
        assert calls == []
        assert abs(got - oracles.per_pair_coupling(m)) <= 1e-9
