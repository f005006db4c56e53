"""Every integer parameter goes through one rule: ``errors.require_int``.

Each row of ``ENTRY_POINTS`` names a public entry point, a call that feeds
it one integer parameter, and that parameter's minimum.  The call must
reject a value below the minimum, a non-integer and a bool with
ValueError, and accept the minimum as a Python or a NumPy integer.
"""

import numpy as np
import pytest

from brokersim import (
    AgentStream,
    ExperimentConfig,
    Exponential,
    FixedPricePolicy,
    Pareto,
    RandomStream,
    StockLimitedPolicy,
    Uniform,
    adaptive_dp_oracle,
    azuma_bound,
    certify_bounds,
    brute_force_max_matching,
    enumerate_alpha_balanced,
    expected_outcome,
    fifo_match,
    harmonic,
    is_alpha_balanced,
    monte_carlo,
    prophet_price,
    random_alpha_balanced,
    run_experiment,
    run_trial,
    solve_fractional,
    split_stream_profit,
    top_k_sum_bound,
)
from brokersim.errors import require_int

U = Uniform(0.0, 1.0)
SB = AgentStream.from_pattern("SB")
SSBB = AgentStream.from_pattern("SSBB")
FIXED = FixedPricePolicy(0.5, 0.5)
SOL = solve_fractional(U, U, 1)


def rng():
    return np.random.default_rng(0)


ENTRY_POINTS = [
    # alpha >= 1
    ("is_alpha_balanced.alpha", lambda v: is_alpha_balanced(SB, v), 1),
    ("random_alpha_balanced.alpha", lambda v: random_alpha_balanced(v, 2, rng()), 1),
    ("enumerate_alpha_balanced.alpha", lambda v: list(enumerate_alpha_balanced(v, 2)), 1),
    ("solve_fractional.alpha", lambda v: solve_fractional(U, U, v), 1),
    ("azuma_bound.alpha", lambda v: azuma_bound(10, v), 1),
    ("ExperimentConfig.alpha", lambda v: ExperimentConfig(scenario="balanced", n_values=(10,), alpha=v), 1),
    # stock cap / capacity >= 1
    ("monte_carlo.stock_cap", lambda v: monte_carlo(SSBB, FIXED, U, U, 10, 0, stock_cap=v), 1),
    ("run_trial.stock_cap", lambda v: run_trial(SSBB, FIXED, U, U, rng().random(4), stock_cap=v), 1),
    ("expected_outcome.stock_cap", lambda v: expected_outcome(SSBB, FIXED, U, U, stock_cap=v), 1),
    ("StockLimitedPolicy.capacity", lambda v: StockLimitedPolicy(v, U, U), 1),
    ("ExperimentConfig.stock_cap", lambda v: ExperimentConfig(scenario="stock-limited", n_values=(10,), stock_cap=v), 1),
    ("adaptive_dp_oracle.stock_cap", lambda v: adaptive_dp_oracle(SSBB, U, U, price_grid=8, stock_cap=v), 1),
    ("fifo_match.capacity", lambda v: fifo_match(SSBB, v), 1),
    ("brute_force_max_matching.capacity", lambda v: brute_force_max_matching(SSBB, v), 1),
    # counts
    ("Uniform.max_order_stat_mean.m", lambda v: U.max_order_stat_mean(v), 1),
    ("Exponential.max_order_stat_mean.m", lambda v: Exponential(1.0).max_order_stat_mean(v), 1),
    ("Pareto.max_order_stat_mean.m", lambda v: Pareto(0.5).max_order_stat_mean(v), 1),
    ("prophet_price.n", lambda v: prophet_price(U, v), 1),
    ("azuma_bound.m", lambda v: azuma_bound(v, 1), 2),
    ("harmonic.n", lambda v: harmonic(v), 0),
    ("split_stream_profit.k", lambda v: split_stream_profit(v, 0.125, 0.5, U, U), 0),
    ("random_alpha_balanced.m", lambda v: random_alpha_balanced(2, v, rng()), 0),
    ("enumerate_alpha_balanced.m", lambda v: list(enumerate_alpha_balanced(2, v)), 0),
    ("top_k_sum_bound.k", lambda v: top_k_sum_bound(0.5, 0.3, 10, v), 1),
    ("top_k_sum_bound.m", lambda v: top_k_sum_bound(0.5, 0.3, v, 3), 3),
    ("adaptive_dp_oracle.price_grid", lambda v: adaptive_dp_oracle(SB, U, U, price_grid=v), 2),
    ("certify_bounds.m", lambda v: certify_bounds(SOL, U, U, m=v), 1),
    ("ExperimentConfig.n_values", lambda v: ExperimentConfig(scenario="balanced", n_values=(v,), trials=100), 1),
    ("profit-sqrt-n.n", lambda v: run_experiment(ExperimentConfig(scenario="profit-sqrt-n", n_values=(v,), trials=100)), 2),
    # trials
    ("monte_carlo.trials", lambda v: monte_carlo(SB, FIXED, U, U, v, 0), 2),
    ("ExperimentConfig.trials", lambda v: ExperimentConfig(scenario="balanced", n_values=(10,), trials=v), 100),
    # seeds and substream indices >= 0
    ("RandomStream.seed", lambda v: RandomStream(v), 0),
    ("RandomStream.substream.index", lambda v: RandomStream(0).substream(v), 0),
    ("RandomStream.trial_uniforms.index", lambda v: RandomStream(0).trial_uniforms(v, 3), 0),
    ("RandomStream.trial_uniforms.n", lambda v: RandomStream(0).trial_uniforms(0, v), 0),
    ("monte_carlo.seed", lambda v: monte_carlo(SB, FIXED, U, U, 10, v), 0),
    ("ExperimentConfig.seed", lambda v: ExperimentConfig(scenario="balanced", n_values=(10,), seed=v), 0),
]
IDS = [name for name, _, _ in ENTRY_POINTS]


@pytest.mark.parametrize("name,call,minimum", ENTRY_POINTS, ids=IDS)
@pytest.mark.parametrize(
    "bad",
    [lambda lo: lo - 1, lambda lo: 1.5, lambda lo: True, lambda lo: np.True_],
    ids=["below", "1.5", "True", "np.True_"],
)
def test_rejects_bad_values(name, call, minimum, bad):
    with pytest.raises(ValueError):
        call(bad(minimum))


@pytest.mark.parametrize("name,call,minimum", ENTRY_POINTS, ids=IDS)
@pytest.mark.parametrize("kind", [int, np.int64])
def test_accepts_minimum(name, call, minimum, kind):
    call(kind(minimum))


def test_rule_returns_a_python_int_and_names_the_parameter():
    value = require_int("alpha", np.int32(3), 1)
    assert value == 3 and type(value) is int
    with pytest.raises(ValueError, match="alpha must be >= 1, got 0"):
        require_int("alpha", 0, 1)
    with pytest.raises(ValueError, match="alpha must be an integer, got 1.5"):
        require_int("alpha", 1.5, 1)
