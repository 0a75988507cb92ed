import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from glauberlab import analysis, cli, dynamics, exact, models, ordercore
from glauberlab.ordercore import PROB_TOL
import oracles
from conftest import random_bhc, random_monotone_model, random_rc


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def p3(tmp_path):
    """Path graph on 3 vertices (2 edges, so 2 random cluster variables)."""
    return write(tmp_path / "p3.graph", "3 2\n0 1\n1 2\n")


@pytest.fixture
def k2(tmp_path):
    return write(tmp_path / "k2.graph", "2 1\n0 1\n")


@pytest.fixture
def bip(tmp_path):
    return write(tmp_path / "bip.graph", "3 2 bipartite 1\n0 1\n0 2\n")


@pytest.fixture
def rc_params(tmp_path):
    return write(tmp_path / "rc.params",
                 "model = rc\np.default = 0.5\nlambda.default = 1.0\n"
                 "theta = 0.5\n")


def run_cli(argv):
    return cli.main(argv)


class TestVerify:
    def test_default_suite_passes(self, p3, rc_params, tmp_path):
        out = tmp_path / "verify.json"
        rc = run_cli(["verify", "--graph", p3, "--params", rc_params,
                      "--transform", "flip", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["all_pass"]
        assert len(rep["results"]) == len(cli._DEFAULT_CHECKS)
        for r in rep["results"]:
            assert r["pass"]

    def test_comparison_counterexample(self, p3, rc_params, capsys):
        # the lifted chain is not dominated by the two-kernel product
        rc = run_cli(["verify", "--graph", p3, "--params", rc_params,
                      "--transform", "flip", "--check", "product-comparison"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        r = rep["results"][0]
        assert r["observed"] is False and r["expected"] is False and r["pass"]

    def test_plain_hardcore_expected_negative(self, p3, tmp_path, capsys):
        params = write(tmp_path / "hc.params", "model=hardcore\nlambda=1.0\n")
        rc = run_cli(["verify", "--graph", p3, "--params", params,
                      "--check", "monotone-system",
                      "--check", "stochastic-monotonicity"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        for r in rep["results"]:
            assert r["observed"] is False and not r["expected"] and r["pass"]
            assert r["witness"] is not None

    def test_failed_check_exits_one(self, p3, tmp_path, capsys):
        # pinning does not rescue hard-core non-monotonicity, and a pinned
        # model is not on the expected-negative list, so the check comes
        # back red and the exit code reports it
        params = write(tmp_path / "hc.params", "model=hardcore\nlambda=1.0\n")
        pinfile = write(tmp_path / "pin.txt", "2 0\n")
        rc = run_cli(["verify", "--graph", p3, "--params", params,
                      "--transform", f"pin={pinfile}",
                      "--check", "monotone-system"])
        assert rc == 1
        rep = json.loads(capsys.readouterr().out)
        assert not rep["all_pass"]

    def test_unknown_check_exits_two(self, p3, rc_params):
        assert run_cli(["verify", "--graph", p3, "--params", rc_params,
                        "--check", "nope"]) == 2

    def test_ternary_lift_check_exits_two(self, p3, rc_params, capsys):
        base = ["verify", "--graph", p3, "--params", rc_params,
                "--transform", "flip", "--transform", "lift=0.5"]
        assert run_cli(base) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "many-stationary" in err
        assert run_cli(base + ["--check", "detailed-balance",
                               "--check", "dominance"]) == 2
        assert "dominance" in capsys.readouterr().err
        assert run_cli(base + ["--check", "detailed-balance"]) == 0

    @pytest.mark.parametrize("flag,value", [("--t1", "-1"), ("--t1", "0"),
                                            ("--t2", "0")])
    def test_block_sizes_below_one_exit_two(self, p3, rc_params, capsys,
                                            flag, value):
        # --t1 -1 used to crash on an empty max(); --t2 0 passed the lift
        # checks over zero simulation steps
        assert run_cli(["verify", "--graph", p3, "--params", rc_params,
                        "--transform", "flip", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err and value in err


def cycle_graph(tmp_path, n):
    return write(tmp_path / f"c{n}.graph", f"{n} {n}\n" + "".join(
        f"{i} {(i + 1) % n}\n" for i in range(n)))


def test_default_verify_builds_the_lift_once(p3, rc_params, monkeypatch,
                                             capsys):
    # the simulation run reuses the freeze and star-frozen kernels that the
    # other checks hold, over the one lifted support and contraction index;
    # that support is the lifts of the base support, not enumerated
    made = {}

    def keep(name, fn):
        def call(*args, **kwargs):
            made[name] = fn(*args, **kwargs)
            return made[name]
        return call

    calls = {name: mock.Mock(side_effect=keep(name, getattr(exact, name)))
             for name in ("enumerate_support", "_lifts", "freeze_kernel",
                          "_star_frozen", "_lifted_heat_bath", "_law_kernel",
                          "_contraction_index", "stationary_distribution")}
    for name, spy in calls.items():
        monkeypatch.setattr(exact, name, spy)
    assert run_cli(["verify", "--graph", p3, "--params", rc_params,
                    "--transform", "flip"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"]

    def on_lift(name):
        return [c for c in calls[name].call_args_list
                if isinstance(c.args[0], models.LiftedModel)]

    assert [type(c.args[0]) for c in calls["enumerate_support"].call_args_list
            ] == [models.FlippedModel]
    assert calls["_lifts"].call_count == 1
    assert calls["freeze_kernel"].call_count == 1
    # one star-frozen and one lifted heat-bath table, each summed into its
    # kernel once, after the base heat-bath table
    assert calls["_star_frozen"].call_count == 1
    assert calls["_lifted_heat_bath"].call_count == 1
    summed = [c.args[0] for c in calls["_law_kernel"].call_args_list]
    assert len(summed) == 3
    assert summed[1] is made["_lifted_heat_bath"]
    assert summed[2] is made["_star_frozen"]
    assert calls["_contraction_index"].call_count == 1
    # the lifted stationary law is derived from the base log weights, not
    # evaluated over the lifted support
    assert len(on_lift("stationary_distribution")) == 0


@pytest.mark.parametrize("theta", [0.3, 1e-300])
def test_verify_derives_the_lifted_stationary_law(rng, theta):
    # lmu, from the base log weights, is the lifted model's own stationary
    # law bit for bit; gker's is the model's
    pool = [random_monotone_model(rng) for _ in range(3)]
    pool += [models.flip(random_rc(rng)), random_bhc(rng),
             models.LeftMarginalModel(random_bhc(rng)),
             models.pin(random_monotone_model(rng), {0: 1})]
    for m in pool:
        t = exact.Tables(m, theta)
        assert t.lmu.tobytes() == exact.stationary_distribution(
            t.lifted, t.lsup).tobytes()
        assert t.gker.stationary.tobytes() == exact.stationary_distribution(
            m, t.support).tobytes()


def test_default_verify_evaluates_each_base_fiber_once(p3, rc_params,
                                                       monkeypatch, capsys):
    # the model's conditional runs once per (site, fiber of its support);
    # every lifted and star-frozen entry is derived from those calls
    calls = []
    for cls in (models.FlippedModel, models.LiftedModel, models.TiltedModel):
        def spy(self, state, v, cls=cls, fn=cls.conditional):
            calls.append((cls, tuple(state), v))
            return fn(self, state, v)
        monkeypatch.setattr(cls, "conditional", spy)
    assert run_cli(["verify", "--graph", p3, "--params", rc_params,
                    "--transform", "flip"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"]
    assert {cls for cls, _, _ in calls} == {models.FlippedModel}
    # RC on P3 has two edge variables and every edge set in its support
    fibers = {(v, s[:v] + s[v + 1:])
              for s in itertools.product((0, 1), repeat=2) for v in range(2)}
    got = [(v, s[:v] + s[v + 1:]) for _, s, v in calls]
    assert len(got) == len(fibers) == 4 and set(got) == fibers


def test_mixing_evaluates_the_laws_once(k2, rc_params, monkeypatch, capsys):
    # the Glauber kernel and the tilted slices share one evaluation of the
    # heat-bath law, the Glauber and field-dynamics kernels one stationary
    # law (the log weights that the support's enumeration evaluated), and
    # the field-dynamics kernel and the tilted slices the tilted log
    # weights derived from those
    calls = {name: mock.Mock(wraps=getattr(exact, name))
             for name in ("_site_conditionals", "_weighted_support",
                          "_log_weights", "stationary_distribution")}
    for name, spy in calls.items():
        monkeypatch.setattr(exact, name, spy)
    assert run_cli(["mixing", "--graph", k2, "--params", rc_params,
                    "--transform", "flip"]) == 0
    assert capsys.readouterr().out.count("\n") == 2
    assert calls["_site_conditionals"].call_count == 1
    assert [type(c.args[0]) for c in calls["_weighted_support"].call_args_list
            ] == [models.FlippedModel]
    assert calls["_log_weights"].call_count == 0
    assert calls["stationary_distribution"].call_count == 0


@pytest.mark.parametrize("command", ["verify", "mixing", "kernel-export"])
def test_each_log_weight_is_evaluated_once(p3, rc_params, command,
                                           monkeypatch, capsys):
    # flipped RC on P3 has 4 candidate states, all in its support: each
    # log weight is evaluated once, as the support is enumerated (the
    # Glauber kernel's stationary law, kernel-export's included, reads
    # them); the lift's support and law (verify) and the tilt's log weights
    # (mixing) are derived from those, so neither the LiftedModel nor the
    # TiltedModel evaluates one
    calls = []
    for cls in (models.FlippedModel, models.LiftedModel, models.TiltedModel):
        def spy(self, state, cls=cls, fn=cls.log_weight):
            calls.append(cls)
            return fn(self, state)
        monkeypatch.setattr(cls, "log_weight", spy)
    assert run_cli([command, "--graph", p3, "--params", rc_params,
                    "--transform", "flip"]) == 0
    capsys.readouterr()
    assert Counter(calls) == {models.FlippedModel: 4}


def test_a_command_builds_its_own_parser_alone(p3, rc_params, monkeypatch):
    # a named command's argv is read by that command's parser, not by the
    # parser of every subcommand
    built = []
    init = argparse.ArgumentParser.__init__

    def count(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", count)
    monkeypatch.setattr(cli, "cmd_verify", lambda args: 0)
    assert run_cli(["verify", "--graph", p3, "--params", rc_params]) == 0
    assert built == ["glauberlab verify"]


@pytest.mark.parametrize("command, expected", [
    ("analyze", 1), ("mixing", 1), ("verify", 1), ("kernel-export", 1)])
def test_each_command_enumerates_its_support_once(p3, tmp_path, command,
                                                  expected, monkeypatch,
                                                  capsys):
    # verify derives its lift's support from the model's; analyze also
    # reads the monotone-system certificate from the one support
    params = write(tmp_path / "rc.params", "model = rc\np.default = 0.5\n"
                   "lambda.default = 0.5\ntheta = 0.5\n")
    spy = mock.Mock(wraps=exact.enumerate_support)
    for mod in (analysis, cli, dynamics, exact):  # wherever it is bound
        if hasattr(mod, "enumerate_support"):
            monkeypatch.setattr(mod, "enumerate_support", spy)
    assert run_cli([command, "--graph", p3, "--params", params,
                    "--transform", "flip"]) == 0
    capsys.readouterr()
    assert spy.call_count == expected
    assert isinstance(spy.call_args_list[0].args[0], models.FlippedModel)


def test_analyze_evaluates_each_log_weight_once(tmp_path, monkeypatch,
                                                capsys):
    # flipped RC on C6 (k = 64): one log weight per state to enumerate the
    # support, which its law reads
    params = write(tmp_path / "rc.params", "model = rc\np.default = 0.5\n"
                   "lambda.default = 0.5\ntheta = 0.5\n")
    calls = []
    log_weight = models.FlippedModel.log_weight
    monkeypatch.setattr(models.FlippedModel, "log_weight",
                        lambda self, state: calls.append(1)
                        or log_weight(self, state))
    assert run_cli(["analyze", "--graph", cycle_graph(tmp_path, 6),
                    "--params", params, "--transform", "flip"]) == 0
    assert json.loads(capsys.readouterr().out)["coupling"] > 0
    assert len(calls) == 64


@pytest.mark.parametrize("params, expected", [
    ("model = rc\np.default = 0.5\nlambda.default = 1.0\ntheta = 0.5\n",
     "error: eps must lie in (0,1)\n"),
    ("model = hardcore\nlambda = 1.0\ntheta = 0.5\n",
     "error: state 11 is not in the support\n"),
    ("model = rc\np.default = 0.5\nlambda.default = 1.0\ntheta = 1.5\n",
     "error: theta must lie in (0,1)\n"),
], ids=["eps", "no-all-1-state", "theta"])
def test_mixing_refuses_its_configuration_before_any_law(
        k2, tmp_path, params, expected, monkeypatch, capsys):
    # eps, then the all-1 start, then theta, each before any conditional
    calls = []
    for cls in (models.FlippedModel, models.RandomClusterModel,
                models.HardcoreModel):
        def spy(self, state, v, fn=cls.conditional):
            calls.append(v)
            return fn(self, state, v)
        monkeypatch.setattr(cls, "conditional", spy)
    argv = ["mixing", "--graph", k2, "--params",
            write(tmp_path / "m.params", params)]
    if "rc" in params:
        argv += ["--transform", "flip"]
    if "eps" in expected:
        argv += ["--eps", "1.5"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == expected
    assert calls == []


class TestLiftedOrderCeilings:
    """Order checks on posets far above the up-set cap."""

    def test_flipped_rc_c6_dominance_and_monotonicity(self, tmp_path):
        # lifted k = 729: the freeze kernel's cover rows have 16 or 32
        # entries of each sign; the greedy coupling routes them within the
        # slack of a cover (the lifted C6 poset has height 12), so no
        # closure cut runs
        params = write(tmp_path / "rc.params", "model = rc\n"
                       "p.default = 0.5\nlambda.default = 0.5\n"
                       "theta = 0.5\n")
        out = tmp_path / "verify.json"
        rows, bound_of = [], ordercore._coupling_bound

        def coupling_bound(diff, poset):
            bound = bound_of(diff, poset)
            rows.extend(zip(diff, bound))
            return bound

        with mock.patch.object(ordercore, "_closure_cut",
                               wraps=ordercore._closure_cut) as cut, \
                mock.patch.object(ordercore, "_coupling_bound",
                                  coupling_bound):
            assert run_cli(["verify", "--graph", cycle_graph(tmp_path, 6),
                            "--params", params, "--transform", "flip",
                            "--check", "dominance",
                            "--check", "stochastic-monotonicity",
                            "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["all_pass"] and all(r["observed"] for r in rep["results"])
        assert cut.call_count == 0
        cover_slack = ordercore._slack(PROB_TOL, 729) // 12
        assert all(bound <= cover_slack for _, bound in rows)
        sides = {min(int((d > 0).sum()), int((d < 0).sum())) for d, _ in rows}
        assert {16, 32} <= sides

    def test_plain_hardcore_c9_witness(self, tmp_path, capsys):
        # negative control above the cap: 76 independent sets of C9
        params = write(tmp_path / "hc.params", "model=hardcore\nlambda=1.0\n")
        assert run_cli(["verify", "--graph", cycle_graph(tmp_path, 9),
                        "--params", params,
                        "--check", "stochastic-monotonicity"]) == 0
        r = json.loads(capsys.readouterr().out)["results"][0]
        assert r["observed"] is False and r["expected"] is False
        assert r["witness"] == (
            "((0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 1), "
            "frozenset({2, 7, 10, 15, 20, 23, 28, 31, 36, 41, 44, 49, 54, 55, "
            "56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, "
            "72, 73, 74, 75}))")


class TestSingleVertexByFibers:
    """Default verify past three variables, and the JSON of verify with the
    fiber test equal to that with both site kernels and check_mc_leq
    (oracles.per_site_kernel_mc_leq) on each verify-small instance shape."""

    @pytest.mark.parametrize("m", [4, 5])
    def test_default_verify_on_flipped_rc_cycles(self, tmp_path, m, capsys):
        graph = write(tmp_path / "c.graph", f"{m} {m}\n" + "".join(
            f"{i} {(i + 1) % m}\n" for i in range(m)))
        params = write(tmp_path / "rc.params", "model = rc\np.default = 0.5\n"
                       "lambda.default = 0.5\ntheta = 0.5\n")
        assert run_cli(["verify", "--graph", graph, "--params", params,
                        "--transform", "flip"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["all_pass"] and rep["results"][-1] == {
            "check": "single-vertex-mc", "observed": True, "expected": True,
            "pass": True, "witness": None}

    P4 = "4 3\n0 1\n1 2\n2 3\n"
    RC3 = ("model=rc\ntheta=0.47\np.0=0.52\np.1=0.46\np.2=0.5\n"
           "lambda.0=0.51\nlambda.1=0.45\nlambda.2=0.54\nlambda.3=0.49\n")
    BHC = "model=bipartite-hardcore\nlambda=1.04\nbeta=0.97\ntheta=0.53\n"

    @pytest.mark.parametrize("graph, params, argv", [
        ("3 3\n0 1\n1 2\n2 0\n", RC3, ["--transform", "flip"]),
        (P4, RC3, ["--transform", "flip", "--transform", "tilt=0.68"]),
        ("3 2 bipartite 1\n0 1\n0 2\n", BHC, []),
        ("5 6 bipartite 3\n0 3\n0 4\n1 3\n1 4\n2 3\n2 4\n", BHC,
         ["--transform", "left-marginal"]),
        (P4, RC3, ["--transform", "flip", "--check", "product-comparison"]),
        ("3 2\n0 1\n1 2\n", "model=hardcore\nlambda=1.02\n",
         ["--check", "monotone-system", "--check",
          "stochastic-monotonicity"]),
    ], ids=["rc-triangle", "tilted-rc-path", "bhc-k12", "left-marginal-k32",
            "product-comparison", "plain-hardcore"])
    def test_json_equals_kernel_path(self, tmp_path, monkeypatch, capsys,
                                     graph, params, argv):
        argv = ["verify", "--graph", write(tmp_path / "g.graph", graph),
                "--params", write(tmp_path / "m.params", params)] + argv
        with mock.patch.object(exact, "check_mc_leq",
                               wraps=exact.check_mc_leq) as kernel_path:
            assert run_cli(argv) == 0
        fibers = capsys.readouterr().out
        # only product-comparison builds kernels for check_mc_leq: the
        # default suite certifies every site by its fibers
        assert kernel_path.called == ("product-comparison" in argv)
        # verify hands the sites' derived tables to the fiber decision; the
        # kernel path evaluates both laws at every state instead
        def kernel_path_of_laws(model, laws, site, support, mu, tol=PROB_TOL):
            return oracles.per_site_kernel_mc_leq(
                model, models.heat_bath_law(model),
                models.star_frozen_law(model), site, support, mu, tol)

        monkeypatch.setattr(exact, "check_site_mc_leq", kernel_path_of_laws)
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == fibers


class TestSample:
    def test_glauber_deterministic(self, p3, rc_params, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run_cli(["sample", "--graph", p3, "--params", rc_params,
                          "--transform", "flip", "--seed", "7",
                          "--steps", "50", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for suffix in (".traj.tsv", ".occupancy.csv"):
            a = (outs[0].parent / (outs[0].name + suffix)).read_text()
            b = (outs[1].parent / (outs[1].name + suffix)).read_text()
            # identical apart from the wall-clock field in the header
            assert a.split("\n", 1)[1] == b.split("\n", 1)[1]
            ha, hb = a.split("\n", 1)[0], b.split("\n", 1)[0]
            assert ha.split(" wall=")[0] == hb.split(" wall=")[0]

    def test_seed_changes_output(self, p3, rc_params, tmp_path):
        texts = []
        for seed in ("1", "2"):
            out = tmp_path / ("s" + seed)
            run_cli(["sample", "--graph", p3, "--params", rc_params,
                     "--transform", "flip", "--seed", seed,
                     "--steps", "200", "--out", str(out)])
            texts.append((out.parent / (out.name + ".traj.tsv")).read_text())
        assert texts[0].split("\n", 1)[1] != texts[1].split("\n", 1)[1]

    def test_simulate_trajectory_is_ternary(self, p3, rc_params, tmp_path):
        params = write(tmp_path / "sim.params",
                       "model=rc\np.default=0.5\nlambda.default=1.0\n"
                       "theta=0.5\ndynamics=simulate\n")
        out = tmp_path / "sim"
        rc = run_cli(["sample", "--graph", p3, "--params", params,
                      "--transform", "flip", "--t1", "2", "--t2", "3",
                      "--out", str(out)])
        assert rc == 0
        body = (out.parent / "sim.traj.tsv").read_text().split("\n")[1:]
        rows = [ln.split("\t") for ln in body if ln]
        assert [int(r[0]) for r in rows] == list(range(7))
        assert all(set(r[1]) <= set("01*") for r in rows)

    def test_record_subset(self, p3, rc_params, tmp_path):
        out = tmp_path / "rec"
        run_cli(["sample", "--graph", p3, "--params", rc_params,
                 "--transform", "flip", "--steps", "30",
                 "--record", "0,15,30", "--out", str(out)])
        body = (out.parent / "rec.traj.tsv").read_text().split("\n")[1:]
        assert [ln.split("\t")[0] for ln in body if ln] == ["0", "15", "30"]

    def test_field_record_subset(self, p3, tmp_path):
        params = write(tmp_path / "f.params",
                       "model=rc\np.default=0.5\nlambda.default=1.0\n"
                       "theta=0.5\ndynamics=field\n")
        out = tmp_path / "fd"
        assert run_cli(["sample", "--graph", p3, "--params", params,
                        "--transform", "flip", "--steps", "20",
                        "--record", "0,3", "--out", str(out)]) == 0
        body = (out.parent / "fd.traj.tsv").read_text().split("\n")[1:]
        assert [ln.split("\t")[0] for ln in body if ln] == ["0", "3"]

    def test_field_on_weights_past_the_float_range(self, tmp_path):
        # the largest log weight of this Ising triangle is 711.5, past the
        # log of the largest float; Glauber reads only ratios and samples it
        graph = write(tmp_path / "tri.graph", "3 3\n0 1\n1 2\n0 2\n")
        params = write(tmp_path / "i.params", "model=ising\n"
                       "beta.default=1e103\nlambda.default=0.5\n"
                       "theta=0.5\ndynamics=field\n")
        assert run_cli(["sample", "--graph", graph, "--params", params,
                        "--steps", "20", "--out",
                        str(tmp_path / "fd")]) == 0

    @pytest.mark.parametrize("start, first", [("zeros", "00"),
                                              ("10", "10")])
    def test_start_state(self, p3, tmp_path, start, first):
        params = write(tmp_path / "s.params",
                       f"model=rc\np.default=0.5\nlambda.default=1.0\n"
                       f"start={start}\n")
        out = tmp_path / "st"
        assert run_cli(["sample", "--graph", p3, "--params", params,
                        "--steps", "5", "--record", "0",
                        "--out", str(out)]) == 0
        body = (out.parent / "st.traj.tsv").read_text().split("\n")[1:]
        assert body[0] == f"0\t{first}"

    @pytest.mark.parametrize("start, message", [
        # a state outside the binary alphabet of the random cluster model
        ("*1", "infeasible start: values outside the model alphabet"),
        ("*2", "start must be ones, zeros or a string over 01*, got '*2'"),
        ("011", "infeasible start: the start state has 3 values for 2 "
                "variables"),
    ])
    def test_bad_start_exits_two(self, p3, tmp_path, capsys, start, message):
        params = write(tmp_path / "s.params",
                       f"model=rc\np.default=0.5\nlambda.default=1.0\n"
                       f"start={start}\n")
        assert run_cli(["sample", "--graph", p3, "--params", params,
                        "--steps", "5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")

    @pytest.mark.parametrize("extra, value", [
        (["--steps", "10", "--record", "50"], "50"),
        (["--steps", "10", "--record", "0,50"], "50"),
        (["--steps", "10", "--record", "-1"], "-1"),
        (["--steps", "-3"], "-3"),
    ])
    def test_bad_record_or_steps_exits_two(self, p3, rc_params, capsys,
                                           extra, value):
        assert run_cli(["sample", "--graph", p3, "--params", rc_params,
                        "--transform", "flip"] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and value in err

    @pytest.mark.parametrize("record, item", [("a", "a"), ("0,1.5", "1.5"),
                                              ("3,,x", "x")])
    def test_non_integer_record_names_the_option(self, p3, rc_params, capsys,
                                                 record, item):
        assert run_cli(["sample", "--graph", p3, "--params", rc_params,
                        "--steps", "10", "--record", record]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --record must be a comma-separated list of integers, "
            f"got {item!r}"]

    @pytest.mark.parametrize("key", ["period", "schedule-seed"])
    def test_non_integer_schedule_key_names_it(self, bip, tmp_path, capsys,
                                               key):
        params = write(tmp_path / "c.params",
                       "model=bipartite-hardcore\nlambda=0.8\nbeta=0.6\n"
                       f"dynamics=censored\n{key}=x\n")
        assert run_cli(["sample", "--graph", bip, "--params", params,
                        "--steps", "40"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {key} must be an integer, got 'x'"]

    def test_default_record_is_every_step(self, p3, rc_params, tmp_path):
        # the occupancy is the share of the 31 recorded states with a 1
        out = tmp_path / "all"
        assert run_cli(["sample", "--graph", p3, "--params", rc_params,
                        "--transform", "flip", "--steps", "30",
                        "--out", str(out)]) == 0
        body = (out.parent / "all.traj.tsv").read_text().split("\n")[1:-1]
        states = [ln.split("\t")[1] for ln in body]
        assert [ln.split("\t")[0] for ln in body] == [str(t) for t in
                                                        range(31)]
        occ = (out.parent / "all.occupancy.csv").read_text().split("\n")[2:-1]
        ones = [sum(s[v] == "1" for s in states)
                for v in range(len(states[0]))]
        assert occ == [f"{v},{exact.format_float(c / 31)}"
                       for v, c in enumerate(ones)]

    def test_censored_needs_bipartite(self, p3, tmp_path):
        params = write(tmp_path / "c.params",
                       "model=hardcore\nlambda=0.5\ndynamics=censored\n"
                       "start=zeros\n")
        assert run_cli(["sample", "--graph", p3, "--params", params,
                        "--steps", "10"]) == 2

    def test_censored_bipartite_runs(self, bip, tmp_path):
        params = write(tmp_path / "c.params",
                       "model=bipartite-hardcore\nlambda=0.8\nbeta=0.6\n"
                       "dynamics=censored\nperiod=5\n")
        out = tmp_path / "cen"
        assert run_cli(["sample", "--graph", bip, "--params", params,
                        "--steps", "40", "--out", str(out)]) == 0
        occ = (out.parent / "cen.occupancy.csv").read_text()
        assert occ.count("\n") == 5  # header comment + csv header + 3 vars

    def test_censored_without_left_vertex_exits_two(self, tmp_path, capsys):
        graph = write(tmp_path / "b0.graph", "2 0 bipartite 0\n")
        params = write(tmp_path / "c.params",
                       "model=bipartite-hardcore\nlambda=1\nbeta=1\n"
                       "dynamics=censored\n")
        assert run_cli(["sample", "--graph", graph, "--params", params,
                        "--steps", "10"]) == 2
        assert capsys.readouterr().err == (
            "error: a two-level schedule needs at least one left vertex\n")

    @pytest.mark.parametrize("period", ["0", "-1"])
    def test_censored_period_below_one_exits_two(self, bip, tmp_path, capsys,
                                                 period):
        params = write(tmp_path / "c.params",
                       "model=bipartite-hardcore\nlambda=0.8\nbeta=0.6\n"
                       f"dynamics=censored\nperiod={period}\n")
        assert run_cli(["sample", "--graph", bip, "--params", params,
                        "--steps", "40"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "period" in err

    def test_rc_run_past_the_component_cache(self, tmp_path):
        # 20,000 steps on the 14-cycle meet more than 4096 edge sets; the
        # component cache used to raise KeyError (exit 2) as it emptied
        graph = write(tmp_path / "c14.graph", "14 14\n" + "".join(
            f"{i} {(i + 1) % 14}\n" for i in range(14)))
        params = write(tmp_path / "rc.params",
                       "model=rc\np.default=0.5\nlambda.default=0.5\n")
        assert run_cli(["sample", "--graph", graph, "--params", params,
                        "--steps", "20000", "--seed", "1",
                        "--out", str(tmp_path / "c14")]) == 0


class TestAnalyze:
    def test_rc_report(self, p3, tmp_path, capsys):
        params = write(tmp_path / "rca.params",
                       "model=rc\np.default=0.5\nlambda.default=0.8\n")
        rc = run_cli(["analyze", "--graph", p3, "--params", params,
                      "--transform", "flip"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["sinf"] > 0 and rep["coupling"] > 0
        assert rep["schedule"]["theta"] > 0
        assert rep["t_bound"] >= 1

    def test_uniqueness_grid_emitted(self, k2, tmp_path, capsys):
        params = write(tmp_path / "u.params",
                       "model=bipartite-hardcore\nlambda=0.5\nbeta=1.0\n"
                       "d=2\ndelta=0.1\n")
        graph = write(tmp_path / "b.graph", "2 1 bipartite 1\n0 1\n")
        rc = run_cli(["analyze", "--graph", graph, "--params", params])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert "uniqueness_grid" in rep
        assert rep["uniqueness_note"].startswith("heuristic")


    def test_past_ten_variables_refused_before_any_table(self, tmp_path,
                                                         capsys):
        # flipped RC on C16: the 16 * 3^16 pinned-mass table would take
        # 5.1 GiB; the 10-variable guard refuses the model before it
        graph = write(tmp_path / "c16.graph", "16 16\n" + "".join(
            f"{i} {(i + 1) % 16}\n" for i in range(16)))
        params = write(tmp_path / "rc.params",
                       "model=rc\np.default=0.5\nlambda.default=0.5\n")
        tracemalloc.start()
        try:
            rc = run_cli(["analyze", "--graph", graph, "--params", params,
                          "--transform", "flip"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert capsys.readouterr().err == "error: guarded to 10 variables\n"
        assert peak < 2 ** 20


class TestMixing:
    def test_product_bound_holds(self, k2, rc_params, capsys):
        rc = run_cli(["mixing", "--graph", k2, "--params", rc_params,
                      "--transform", "flip", "--eps", "0.1"])
        assert rc == 0
        head, row = capsys.readouterr().out.strip().split("\n")
        cols = dict(zip(head.split(","), row.split(",")))
        assert int(cols["t_gd_ones"]) <= int(cols["product_bound"])
        assert int(cols["t_fd_ones"]) <= int(cols["t_fd_worst"])

    def test_frozen_start_is_refused_at_once(self, tmp_path, capsys):
        # the all-1 state of this Ising triangle keeps its mass up to
        # ~1e-206 a step, so the Glauber law from it would run to the cap
        graph = write(tmp_path / "tri.graph", "3 3\n0 1\n1 2\n0 2\n")
        params = write(tmp_path / "i.params", "model=ising\n"
                       "beta.default=1e103\nlambda.default=0.5\n")
        assert run_cli(["mixing", "--graph", graph, "--params", params]) == 2
        assert capsys.readouterr().err == (
            "error: mixing time exceeds the cap 1000000: at step 0 a law is "
            "too far from stationarity to come within eps by step 1000000\n")


class TestKernelExport:
    @staticmethod
    def config(argv, capsys):
        assert run_cli(["kernel-export"] + argv) == 0
        return capsys.readouterr().out.split("\n", 1)[0]

    def test_config_hash_follows_content_not_path(self, rc_params, tmp_path,
                                                  capsys):
        heads = []
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            g = write(tmp_path / d / "g", "3 2\n0 1\n1 2\n")
            pins = write(tmp_path / d / "pins", "0 1\n")
            heads.append(self.config(["--graph", g, "--params", rc_params,
                                      "--transform", "flip",
                                      "--transform", f"pin={pins}"], capsys))
        assert heads[0] == heads[1]
        other = write(tmp_path / "c.graph", "3 2\n0 1\n0 2\n")
        assert self.config(["--graph", other, "--params", rc_params,
                            "--transform", "flip", "--transform",
                            f"pin={tmp_path / 'a' / 'pins'}"],
                           capsys) != heads[0]
        write(tmp_path / "b" / "pins", "1 1\n")
        assert self.config(["--graph", str(tmp_path / "b" / "g"),
                            "--params", rc_params, "--transform", "flip",
                            "--transform", f"pin={tmp_path / 'b' / 'pins'}"],
                           capsys) != heads[0]

    def test_rows_are_stochastic(self, k2, rc_params, capsys):
        rc = run_cli(["kernel-export", "--graph", k2, "--params", rc_params,
                      "--transform", "flip"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("# config=")
        for ln in lines[2:]:  # skip comment and csv header
            vals = ln.split(",")[1:]
            assert abs(sum(float(x) for x in vals) - 1.0) < 1e-12


class TestErrors:
    def test_unknown_param_key(self, k2, tmp_path):
        params = write(tmp_path / "bad.params", "model=rc\nbogus=1\n")
        assert run_cli(["verify", "--graph", k2, "--params", params]) == 2

    def test_unknown_transform(self, k2, rc_params):
        assert run_cli(["verify", "--graph", k2, "--params", rc_params,
                        "--transform", "wat"]) == 2

    def test_missing_graph_file(self, rc_params):
        assert run_cli(["verify", "--graph", "/nonexistent",
                        "--params", rc_params]) == 2

    def test_empty_graph_file(self, tmp_path, rc_params, capsys):
        graph = write(tmp_path / "empty.graph", "")
        assert run_cli(["verify", "--graph", graph,
                        "--params", rc_params]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["verify", "analyze", "mixing"])
    def test_bipartition_past_the_vertices_exits_two(self, tmp_path, capsys,
                                                     command):
        # 5 left vertices of 3 would make -2 right ones
        graph = write(tmp_path / "bad.graph", "3 0 bipartite 5\n")
        params = write(tmp_path / "bhc.params",
                       "model=bipartite-hardcore\nlambda=1\nbeta=1\n")
        assert run_cli([command, "--graph", graph, "--params", params,
                        "--transform", "left-marginal"]) == 2
        assert capsys.readouterr().err == (
            "error: bipartition size out of range\n")

    @pytest.mark.parametrize("command", ["sample", "verify", "analyze",
                                         "mixing", "kernel-export"])
    @pytest.mark.parametrize("graph, params, transforms", [
        ("2 0\n", "model=rc\np.default=0.5\nlambda.default=0.5\n", []),
        ("2 0 bipartite 0\n", "model=bipartite-hardcore\nlambda=1\nbeta=1\n",
         ["--transform", "left-marginal"]),
    ], ids=["rc-edgeless", "left-marginal-no-left"])
    def test_model_without_variables_exits_two(self, tmp_path, capsys,
                                               command, graph, params,
                                               transforms):
        # each command failed on its own before, with a message about rows,
        # a modulo or a reduction
        argv = [command, "--graph", write(tmp_path / "g.graph", graph),
                "--params", write(tmp_path / "m.params", params)]
        assert run_cli(argv + transforms) == 2
        assert capsys.readouterr().err == "error: the model has no variables\n"

    def test_product_comparison_past_the_up_set_limit_exits_two(self,
                                                                tmp_path,
                                                                capsys):
        # flipped RC on C5 lifts to 243 states; check_mc_leq enumerates the
        # up-sets of at most 32
        params = write(tmp_path / "rc.params", "model = rc\n"
                       "p.default = 0.5\nlambda.default = 0.5\n"
                       "theta = 0.5\n")
        assert run_cli(["verify", "--graph", cycle_graph(tmp_path, 5),
                        "--params", params, "--transform", "flip",
                        "--check", "product-comparison"]) == 2
        assert capsys.readouterr().err == (
            "error: poset has 243 > 32 elements; up-sets are enumerated on "
            "at most 32 elements\n")

    @pytest.mark.parametrize("line", ["0 10", "0 x", "0", "0 1 1", "x 1"])
    def test_malformed_pin_line_exits_two(self, k2, rc_params, tmp_path,
                                          capsys, line):
        # "0 10" pinned site 0 to 1 before, and "0 x" printed only 'x'
        pins = write(tmp_path / "pins", f"1 1\n{line}\n")
        assert run_cli(["kernel-export", "--graph", k2, "--params",
                        rc_params, "--transform", "flip",
                        "--transform", f"pin={pins}"]) == 2
        assert capsys.readouterr().err == (
            f"error: bad pin line {line!r}: expected 'site value' with "
            "value 0, 1 or *\n")

    @pytest.mark.parametrize("command", ["verify", "mixing"])
    def test_all_one_start_outside_the_support_exits_two(self, k2, tmp_path,
                                                         capsys, command):
        # plain hard-core on one edge: the all-1 start 11 is infeasible
        params = write(tmp_path / "hc.params", "model=hardcore\nlambda=1.0\n")
        assert run_cli([command, "--graph", k2, "--params", params]) == 2
        assert capsys.readouterr().err == (
            "error: state 11 is not in the support\n")

    def test_dense_guard_exits_two(self, tmp_path, capsys):
        # default verify on flipped RC on C8 lifts to k = 6561 states, past
        # the dense-kernel guard: refused before the 328 MiB matrix exists
        graph = write(tmp_path / "c8.graph", "8 8\n" + "".join(
            f"{i} {(i + 1) % 8}\n" for i in range(8)))
        params = write(tmp_path / "rc.params", "model = rc\n"
                       "p.default = 0.5\nlambda.default = 0.5\n"
                       "theta = 0.5\n")
        assert run_cli(["verify", "--graph", graph, "--params", params,
                        "--transform", "flip"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "k = 6561" in err

    def test_internal_error_exits_three(self, k2, rc_params, monkeypatch,
                                        capsys):
        def boom(args):
            raise TypeError("unexpected")

        monkeypatch.setattr(cli, "cmd_kernel_export", boom)
        assert run_cli(["kernel-export", "--graph", k2,
                        "--params", rc_params]) == 3
        assert capsys.readouterr().err.startswith("error: internal:")

    @pytest.mark.parametrize("lines, transform, key", [
        ("model=hardcore lambda=nan", None, "lambda"),
        ("model=hardcore lambda=inf", None, "lambda"),
        ("model=ising beta.default=nan lambda.default=0.5", None,
         "beta.default"),
        ("model=ising beta.default=2 lambda.1=-inf lambda.default=0.5",
         None, "lambda.1"),
        ("model=rc p.default=0.5 lambda.default=0.5", "tilt=nan", "tilt"),
        ("model=rc p.default=0.5 lambda.default=0.5", "tilt=inf", "tilt"),
        ("model=rc p.default=0.5 lambda.default=0.5", "lift=nan", "lift"),
        ("model=rc p.default=0.5 lambda.default=0.5", "lift=x", "lift"),
    ])
    def test_non_finite_parameter_exits_two(self, k2, tmp_path, capsys,
                                            lines, transform, key):
        path = write(tmp_path / "bad.params", lines.replace(" ", "\n"))
        argv = ["verify", "--graph", k2, "--params", path]
        argv += ["--transform", transform] if transform else []
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be")

    @pytest.mark.parametrize("command, extra, key", [
        ("analyze", "delta=nan", "delta"),
        ("analyze", "d=inf delta=0.1", "d"),
        ("sample", "theta=nan dynamics=field", "theta"),
        ("mixing", "theta=-inf", "theta"),
    ])
    def test_non_finite_command_parameter_exits_two(self, bip, tmp_path,
                                                    capsys, command, extra,
                                                    key):
        lines = "model=bipartite-hardcore lambda=0.5 beta=0.5 " + extra
        path = write(tmp_path / "bad.params", lines.replace(" ", "\n"))
        assert run_cli([command, "--graph", bip, "--params", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be")

    def test_module_entry_point(self, k2, rc_params):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "glauberlab", "kernel-export",
             "--graph", k2, "--params", rc_params, "--transform", "flip"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("# config=")


def test_cli_import_leaves_networkx_and_scipy_unloaded():
    # only the min-cost-flow fallback of coupling_independence needs
    # networkx, and nothing in the package needs scipy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, glauberlab.cli; "
            "print([m for m in ('networkx', 'scipy') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def parse_with(parse, argv):
    """(the namespace's items in order, or None; stdout; stderr; exit code)
    of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    code, items = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            items = list(vars(parse(argv)).items())
        except SystemExit as e:
            code = e.code
    return items, out.getvalue(), err.getvalue(), code


def oracle_parse(argv):
    return oracles.per_subcommand_parser().parse_args(argv)


_VERIFY = ["verify", "--graph", "g", "--params", "p"]
PARSER_ARGVS = [
    _VERIFY + ["--transform", "flip", "--check", "dominance", "--check",
               "lift-identity", "--eps", "0.2"],
    ["sample", "--graph", "g", "--params", "p", "--steps", "9",
     "--record", "0,3", "--seed", "4", "--t1", "5", "--t2", "6"],
    [], ["bogus"], ["verify"], ["mixing", "--graph", "g"], ["--help"],
    ["sample", "--help"], ["verify", "--help"], ["analyze", "--help"],
    ["mixing", "--help"], ["kernel-export", "--help"],
    ["sample", "--graph", "g", "--params", "p", "--steps", "x"],
    _VERIFY + ["--eps=--"], _VERIFY + ["--bogus", "1"],
    ["verify", "--gr", "g", "--par", "p"], _VERIFY + ["extra"],
    _VERIFY + ["--", "x"], ["verify", "-h", "--graph"], ["verify", "--graph"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS)
def test_parser_equals_the_per_subcommand_one(argv, monkeypatch):
    # the named command's parser alone, with the full parser behind it,
    # reads, prints and refuses every argv as the options declared on each
    # subcommand of one parser did, namespace order included (the first
    # empty option that _check_option_values reports depends on it)
    monkeypatch.setenv("COLUMNS", "80")
    got = parse_with(cli._parse_args, argv)
    assert got == parse_with(oracle_parse, argv)
    assert (got[0] is None) == (got[3] is not None)


@pytest.mark.parametrize("argv", PARSER_ARGVS)
def test_main_reads_sys_argv_as_the_per_subcommand_parser(argv, monkeypatch):
    # main(argv=None) parses sys.argv[1:], and hands each command the
    # namespace the oracle gives
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["glauberlab"] + argv)
    seen = []
    monkeypatch.setattr(cli, "_check_option_values", seen.append)
    for name in ("sample", "verify", "analyze", "mixing", "kernel_export"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: 0)

    def run_main(_):
        assert cli.main() == 0
        return seen[-1]

    assert parse_with(run_main, None) == parse_with(oracle_parse, argv)


@pytest.mark.parametrize("option", ["--transform=--", "--check=--",
                                    "--record=--", "--seed=--", "--out=--"])
def test_option_given_double_dash_exits_two(k2, rc_params, capsys, option):
    # argparse reads "--opt=--" as an empty list (an internal error before)
    argv = ["verify", "--graph", k2, "--params", rc_params, option]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: --")


_RC = "model=rc\np.default=0.5\nlambda.default=0.5\n"


@pytest.mark.parametrize("command, params, transforms, message", [
    # the tilted weights of the pinned slices underflow to 0
    ("mixing", _RC + "theta=0.5\n", ["tilt=1e-300"],
     "tilted weights underflow to 0"),
    ("mixing", _RC + "theta=2\n", [], "theta must lie in (0,1)"),
    ("mixing", "model=ising\nbeta.default=2\nlambda.default=0.5\n"
     "theta=1e308\n", [], "theta must lie in (0,1)"),
    # the law underflows: up-sets of zero mass, then mu_min = 0
    ("analyze", _RC + "theta=0.5\n", ["tilt=3", "tilt=1e-300"],
     "mu_min and eps must lie in (0,1)"),
    # the same, with KL ratios a / mu that overflow to inf on the way
    ("analyze", _RC + "theta=0.5\n", ["flip", "tilt=1e-320"],
     "mu_min and eps must lie in (0,1)"),
    # a key that no command reads
    ("sample", _RC + "steps=5\n", [], "unknown key: steps"),
    # the all-1 law stops changing long before the cap of 10**6 steps
    ("mixing", "model=hardcore\nlambda=1\n", ["flip", "tilt=1e-300"],
     "mixing time exceeds the cap 1000000: the law stopped changing by "
     "step 2048"),
    # the field sampler's tilted weights underflow to 0 on a pinned slice
    ("sample", _RC + "dynamics=field\ntheta=1e-300\n", ["flip"],
     "tilted weights underflow to 0 on a pinned slice"),
    # a tilt of a tilt whose product of two positive parameters underflows
    ("mixing", _RC + "theta=5e-324\n", ["flip", "tilt=0.3"],
     "tilt parameter 0.3 * 5e-324 underflows to 0"),
], ids=["mixing-underflow", "mixing-theta-2", "mixing-theta-1e308",
        "analyze-underflow", "analyze-kl-overflow", "sample-steps-key",
        "mixing-frozen-law",
        "sample-field-underflow", "mixing-tilt-product-underflow"])
def test_underflow_and_range_errors_exit_two(bip, tmp_path, command, params,
                                             transforms, message):
    """One error: line on stderr and nothing else, no numpy warning."""
    path = write(tmp_path / "repro.params", params)
    argv = [command, "--graph", bip, "--params", path,
            "--out", str(tmp_path / "repro.out")]
    argv += [f"--transform={t}" for t in transforms]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "glauberlab"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"error: {message}")


# -- exit-contract fuzz -------------------------------------------------------

_KEYS = ("model", "theta", "dynamics", "start", "lambda", "beta", "d",
         "delta", "period", "schedule-seed", "p.default", "p.0",
         "lambda.default", "lambda.2", "beta.default", "beta.0",
         "eta.default", "steps", "bogus")
_WORDS = ("rc", "ising", "hardcore", "bipartite-hardcore", "subgraph-world",
          "glauber", "censored", "simulate", "field", "ones", "zeros", "01",
          "010", "0*1", "**")
_NUMBERS = ("0.5", "0.3", "0.9", "1", "2", "3", "0", "-1", "nan", "inf",
            "-inf", "1_0", "0x10", "")
# values that freeze a chain, which the exact mixing times must refuse
# without running to their cap of 10^6 steps
_EXTREMES = ("1e-300", "1e308", "99999999999999999999")
_BASE = {"rc": "p.default=0.5 lambda.default=0.5",
         "ising": "beta.default=2 lambda.default=0.5",
         "hardcore": "lambda=1", "bipartite-hardcore": "lambda=1 beta=1",
         "subgraph-world": "p.default=0.4 eta.default=0.5"}


@st.composite
def _cli_case(draw):
    command = draw(st.sampled_from(("verify", "analyze", "mixing",
                                    "kernel-export", "sample")))
    pool = _WORDS + _NUMBERS + _EXTREMES
    value = st.one_of(st.sampled_from(pool), st.text(max_size=5))
    kind = draw(st.sampled_from(sorted(_BASE)))
    lines = [f"model={kind}"] + _BASE[kind].split()
    # mostly a complete model, so that most cases get past build_model
    lines = draw(st.sampled_from([lines, lines, lines, lines[:-1], []]))
    lines += draw(st.lists(st.one_of(
        st.builds("{}={}".format, st.sampled_from(_KEYS), value),
        st.text(max_size=8)), max_size=2))
    transforms = draw(st.lists(st.one_of(
        st.sampled_from(("flip", "left-marginal", "pin=@", "--", "")),
        st.builds("{}={}".format, st.sampled_from(("tilt", "lift", "pin")),
                  value),
        st.text(max_size=6)), max_size=3))
    pins = draw(st.text(alphabet="0123*- \n", max_size=8))
    return command, "\n".join(lines), transforms, pins


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cli_case())
def test_exit_contract_fuzz(case):
    """Any parameter text and transform list exits 0, 1 or 2, never 3 and
    never by an exception; every exit 2 prints an error: line."""
    command, params, transforms, pins = case
    with tempfile.TemporaryDirectory() as d:
        graph = write(Path(d) / "bip.graph", "3 2 bipartite 1\n0 1\n0 2\n")
        path = write(Path(d) / "fuzz.params", params)
        pin_file = write(Path(d) / "fuzz.pins", pins)
        argv = [command, "--graph", graph, "--params", path,
                "--steps", "50"]
        argv += ["--transform=" + t.replace("@", pin_file)
                 for t in transforms]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = run_cli(argv)
    assert rc in (0, 1, 2), err.getvalue()
    if rc == 2:
        assert any(ln.startswith("error: ") for ln in
                   err.getvalue().splitlines()), err.getvalue()
