"""Tests of the benchmark's own machinery: ESS estimator and tracing harness."""

import time
import types

import numpy as np
import pytest
from scipy.signal import lfilter

import harness
from bayesglasso import cli
from ess import diagonal_ess, geyer_ess
from tracing import Tracer, inside


def _ar1(rho, n, seed):
    gen = np.random.default_rng(seed)
    x = lfilter([1.0], [1.0, -rho], gen.standard_normal(n))
    return x[1000:]  # drop the start-up transient


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_geyer_ess_matches_ar1_theory(rho):
    x = _ar1(rho, 201_000, seed=7)
    expected = x.size * (1.0 - rho) / (1.0 + rho)
    assert geyer_ess(x) == pytest.approx(expected, rel=0.1)


def test_geyer_ess_rejects_constant_and_short_chains():
    with pytest.raises(ValueError):
        geyer_ess(np.ones(100))
    with pytest.raises(ValueError):
        geyer_ess(np.arange(3.0))


def test_diagonal_ess_averages_over_entries():
    a, b = _ar1(0.0, 21_000, seed=1), _ar1(0.9, 21_000, seed=2)
    draws = [np.diag([u, v]) for u, v in zip(a, b)]
    assert diagonal_ess(draws) == pytest.approx((geyer_ess(a) + geyer_ess(b)) / 2.0)


def _toy_namespace():
    ns = types.SimpleNamespace()

    def leaf(x):
        time.sleep(0.001)
        return x

    def outer(x):
        return ns.leaf(x) + ns.leaf(x)

    ns.leaf, ns.outer = leaf, outer
    return ns


def test_tracer_records_parents_and_self_time():
    ns = _toy_namespace()
    originals = (ns.leaf, ns.outer)
    tracer = Tracer()
    targets = [(ns, "outer", "toy.outer", None), (ns, "leaf", "toy.leaf", lambda x: x)]
    with tracer.installed(targets):
        tracer.run_id = 4
        assert ns.outer(3) == 6
    assert (ns.leaf, ns.outer) == originals

    s = tracer.spans()
    names = [tracer.names[i] for i in s["name"]]
    assert names == ["toy.outer", "toy.leaf", "toy.leaf"]
    assert list(s["parent"]) == [-1, 0, 0]
    assert list(s["run"]) == [4, 4, 4]
    assert list(s["tag"]) == [0, 3, 3]
    assert (s["end"] >= s["start"]).all()
    assert s["self"][0] == pytest.approx(s["dur"][0] - s["dur"][1] - s["dur"][2])
    assert s["self"][1] == s["dur"][1]
    assert list(inside(s, tracer.name_ids("toy.outer"))) == [False, True, True]


def test_tracer_restores_originals_after_an_error():
    ns = _toy_namespace()
    originals = (ns.leaf, ns.outer)
    with pytest.raises(KeyError):
        with Tracer().installed([(ns, "outer", "o", None), (ns, "leaf", "l", None)]):
            raise KeyError("boom")
    assert (ns.leaf, ns.outer) == originals


def test_traced_run_leaves_no_wrapper_installed(tmp_path):
    targets = harness.trace_targets()
    before = [getattr(module, attr) for module, attr, _, _ in targets]
    run_chain = cli.run_chain

    w = harness.Workload("tiny", "simulate", "circle", 5, 10, sweep_s=1.0, rounds=1,
                         calib_iters=10, calib_ref_s=0.001)
    plan = harness.Plan(w, seed=3, rounds=1, reps=1, burn_in=2, draws=6)
    inputs = harness.build_inputs(plan, tmp_path)
    tracer, run_kind = Tracer(), {}
    deadline = time.perf_counter() + 60.0
    untraced, traced = harness.run_commands(plan, inputs, tmp_path, deadline,
                                            tracer, run_kind)

    assert [getattr(module, attr) for module, attr, _, _ in targets] == before
    assert cli.run_chain is run_chain
    assert all(r.failed == 0 and not r.problems for r in untraced + traced)
    assert sorted(run_kind.values()) == ["bgs", "hrs"]
    metrics, spans = harness.per_layer(tracer, run_kind, traced, untraced, w.p)
    assert set(tracer.names) >= {"cli.main", "sampler.run_chain", "sampler.sweep",
                                 "matrixcore.pd_check"}
    assert int((spans["name"] == tracer.name_ids("sampler.sweep")[0]).sum()) == 2 * 8
    assert all(np.isfinite(v) for v, _ in metrics.values())
