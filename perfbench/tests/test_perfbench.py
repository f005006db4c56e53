"""Tests of the benchmark itself: references, checks, tracing arithmetic.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import itertools
import math

import numpy as np
import pytest

import brokersim
import reference as ref
import run
import tracing
import workloads


def test_decay_reference_matches_exhaustive_enumeration():
    # Replay the trade rule over every accept/reject pattern of S^n_S B^n_B.
    eps = 0.05
    for n_s, n_b in ((6, 6), (5, 7), (7, 3)):
        a = ref.decay_seller_prices(n_s, eps)
        expected = 0.0
        for pattern in itertools.product((False, True), repeat=n_s + n_b):
            sells, buys = pattern[:n_s], pattern[n_s:]
            prob = math.prod(a[i] if s else 1.0 - a[i] for i, s in enumerate(sells)) * 0.5**n_b
            stock = sum(sells)
            profit = -sum(a[i] for i, s in enumerate(sells) if s)
            for b in buys:
                if b and stock > 0:
                    stock -= 1
                    profit += 0.5
            expected += prob * profit
        assert ref.decay_profit_uniform(n_s, n_b, eps) == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_poisson_binomial_pmf_sums_to_one_and_has_the_mean():
    p = np.array([0.1, 0.5, 0.9, 0.3])
    pmf = ref.poisson_binomial_pmf(p)
    assert pmf.sum() == pytest.approx(1.0)
    assert np.dot(np.arange(pmf.size), pmf) == pytest.approx(p.sum())
    assert ref.binomial_half_pmf(4) == pytest.approx(np.array([1, 4, 6, 4, 1]) / 16)


def test_fractional_closed_form_matches_solver():
    u = brokersim.Uniform(0.0, 1.0)
    for alpha in (1, 2, 3):
        sol = brokersim.solve_fractional(u, u, alpha)
        assert sol.per_buyer_value == pytest.approx(ref.fractional_value_uniform(alpha), abs=1e-9)


def test_alpha_balance_matches_library():
    for stream in brokersim.enumerate_alpha_balanced(2, 3):
        assert ref.is_alpha_balanced(stream.roles, 2)
    assert not ref.is_alpha_balanced(np.array([0, 1, 0, 0, 1, 0]), 2)
    assert not ref.is_alpha_balanced(np.array([0, 0, 1, 0]), 2)


# `median` on SB with U(0,1) values: the seller sells at 1/2 with probability
# 1/2 and the buyer pays 1/2 with probability 1/2, so E[profit] = -1/8.
MEDIAN_SB_PROFIT = -0.125


def _sb_result(expected, trials=20_000, seed=3):
    f = brokersim.Uniform(0.0, 1.0)
    stream = brokersim.AgentStream.from_pattern("SB")
    est = brokersim.monte_carlo(stream, brokersim.MedianPolicy(f, f), f, f, trials, seed)
    checks = workloads.check_estimate("profit", workloads._estimate(est), trials, expected)
    return {"run_id": "t", "checks": [[c.name, c.ok, c.detail] for c in checks], "fingerprint": "x"}


def test_perturbed_reference_drives_failed_ratio_above_zero():
    good = _sb_result(MEDIAN_SB_PROFIT)
    checks, failed = run.tally([good, good])
    assert len(checks) == 7 and failed == []

    bad = _sb_result(MEDIAN_SB_PROFIT + 0.02)
    checks, failed = run.tally([bad, bad])
    assert [c[0] for c in failed] == ["profit.mean", "profit.mean"]
    assert len(failed) / len(checks) > 0


def test_rerun_mismatch_is_a_failed_check():
    first = {"run_id": "a", "checks": [], "fingerprint": "x"}
    second = {"run_id": "b", "checks": [], "fingerprint": "y"}
    _, failed = run.tally([first, second])
    assert [c[0] for c in failed] == ["rerun.b.bit_identical"]


def test_perturbed_reference_fails_the_estimate_check():
    est = {"mean": 16.0, "std_err": 0.02, "trials": 16_384, "ci95_low": 16.0 - 0.0392, "ci95_high": 16.0 + 0.0392}
    assert {c.name for c in workloads.check_estimate("profit", est, 16_384, 17.0) if not c.ok} == {"profit.mean"}


def test_trace_check_replays_a_real_trace_and_rejects_a_perturbed_schedule():
    # The sim-long trace check on S^6 B^6: the real decay schedule passes,
    # one with another epsilon fails on the prices alone.
    f = brokersim.Uniform(0.0, 1.0)
    stream = brokersim.AgentStream.from_pattern("S^6 B^6")
    policy = brokersim.build_policy("decay:0.05", f, f)
    log = brokersim.run_trial(stream, policy, f, f, brokersim.RandomStream(7).substream(0))
    out = workloads.trace_arrays(log)
    assert all(c.ok for c in workloads.check_trace(out, 6, 0.05))
    assert {c.name for c in workloads.check_trace(out, 6, 0.06) if not c.ok} == {"trace.prices"}


def test_self_time_is_span_minus_union_of_children():
    #            0: root     1: child   2: overlapping child   3: child past the end   4: grandchild
    starts = [0.0, 1.0, 2.0, 9.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    own = tracing.self_times(starts, ends, parents)
    # root: 10 - |[1,5] u [9,10]| = 5; child 1: 2 - 1 = 1
    assert own.tolist() == [5.0, 1.0, 3.0, 3.0, 1.0]


def test_tracer_records_nested_spans_and_restores_the_library():
    originals = (
        brokersim.engine.monte_carlo,
        brokersim.experiments.monte_carlo,
        brokersim.Uniform.__dict__["quantile"],
        brokersim.MCEstimate.__dict__["from_samples"],
    )
    ticks = itertools.count()
    tracer = tracing.Tracer("test", clock=lambda: float(next(ticks)))
    tracer.install(tracing.SPAN_TARGETS)
    try:
        f = brokersim.parse_distribution("uniform:0,1")
        stream = brokersim.AgentStream.from_pattern("SB")
        policy = brokersim.build_policy("median", f, f)
        est = brokersim.monte_carlo(stream, policy, f, f, 4, seed=1)
    finally:
        tracer.uninstall()
    assert est.trials == 4
    layers = tracer.layers()
    assert layers["engine.substream"]["calls"] == 4
    assert layers["engine.monte_carlo"]["work"] == 8
    assert layers["engine.reduce"]["work"] == 4
    assert layers["policies.build"]["calls"] == 1
    mc = tracer.names.index("engine.monte_carlo")
    assert all(tracer.parents[i] == mc for i, n in enumerate(tracer.names) if n == "engine.substream")
    for rec in layers.values():
        assert 0 <= rec["self_s"] <= rec["total_s"]
    assert originals == (
        brokersim.engine.monte_carlo,
        brokersim.experiments.monte_carlo,
        brokersim.Uniform.__dict__["quantile"],
        brokersim.MCEstimate.__dict__["from_samples"],
    )
