import math
import re

import numpy as np
import pytest

from brokersim import (
    AgentStream,
    BalancedPolicy,
    DecayingSellerPolicy,
    Exponential,
    FixedPricePolicy,
    FixedQuantilePolicy,
    MedianPolicy,
    Pareto,
    RegularityError,
    SpecParseError,
    StockLimitedPolicy,
    Uniform,
    build_policy,
    run_trial,
)
from oracles import by_role_rank

U = Uniform(0.0, 1.0)
E = Exponential(1.0)


class TestPrices:
    def test_median_uniform(self):
        pol = MedianPolicy(U, U)
        assert pol.seller_prices(3).tolist() == [0.5, 0.5, 0.5]
        assert pol.p == 0.5

    def test_quantile_2_2_equals_median(self):
        med = MedianPolicy(E, U)
        quant = FixedQuantilePolicy(2.0, 2.0, E, U)
        assert quant.q == pytest.approx(med.q, abs=1e-12)
        assert quant.p == pytest.approx(med.p, abs=1e-12)

    def test_stock_limited_prices(self):
        pol = StockLimitedPolicy(2, U, U)
        assert pol.q == pytest.approx(1 / (4 * math.e), abs=1e-12)
        assert pol.p == 0.5

    def test_decaying_prices(self):
        pol = DecayingSellerPolicy(0.1, U, U)
        prices = pol.seller_prices(4)
        assert prices[0] == pytest.approx(0.36787944117144233, abs=1e-12)
        assert prices[3] == pytest.approx(0.16012882736843123, abs=1e-12)

    def test_decay_monotone_and_below_seller_mean(self):
        for f_s in (U, E):
            pol = DecayingSellerPolicy(0.2, f_s, U)
            prices = pol.seller_prices(200)
            assert np.all(np.diff(prices) <= 0.0)
            assert prices[0] <= f_s.mean + 1e-12

    @pytest.mark.parametrize("f_s,f_b", [(U, U), (E, E), (U, E), (E, U)])
    def test_stock_price_at_most_half_buyer_mean(self, f_s, f_b):
        for k in (1, 2, 5):
            pol = StockLimitedPolicy(k, f_s, f_b)
            assert pol.q <= f_b.mean / 2 + 1e-12

    def test_balanced_satisfies_fractional_constraint(self):
        for alpha in (1, 2, 3):
            pol = BalancedPolicy(alpha, U, U)
            residual = (1 - U.cdf(pol.p)) - alpha * U.cdf(pol.q)
            assert abs(residual) <= 1e-8

    def test_prices_nonnegative(self):
        for spec in ("median", "fixed:0.2,0.7", "quantile:3,4", "decay:0.1", "stock:3", "balanced:2"):
            pol = build_policy(spec, U, U)
            assert np.all(pol.seller_prices(10) >= 0)
            assert pol.p >= 0


def trace(text, policy, u_sellers, u_buyers):
    """run_trial on hand-picked draws, indexed by role rank."""
    s = AgentStream.from_pattern(text)
    return run_trial(s, policy, U, U, by_role_rank(s, u_sellers, u_buyers))


class TestStateMachine:
    """Policies hold no per-trial state: the seller ordinal and the stock
    live in the engine's kernel, driven here through ``run_trial``."""

    def test_stock_limited_declines_when_full(self):
        # S trades, S is declined at full stock, B sells it, S trades again
        log = trace("SSBS", StockLimitedPolicy(1, U, U), [0.01, 0.01, 0.01], [0.99])
        assert np.isnan(log.prices).tolist() == [False, True, False, False]
        assert log.traded.tolist() == [True, False, True, True]
        assert log.stock_after.tolist() == [1, 1, 0, 1]

    def test_seller_counter_advances_on_declines_and_failures(self):
        pol = DecayingSellerPolicy(0.1, U, U)
        schedule = pol.seller_prices(4)
        assert schedule[1] < schedule[0]
        for u_sellers in ([0.99] * 4, [0.0] * 4, [0.99, 0.0, 0.99, 0.0]):
            log = trace("SBSSBS", pol, u_sellers, [0.99, 0.99])
            assert np.array_equal(log.prices[log.roles == 0], schedule)

    def test_stock_transitions(self):
        log = trace("SBB", FixedPricePolicy(0.5, 0.5), [0.1], [0.9, 0.9])
        assert log.traded.tolist() == [True, True, False]
        assert log.stock_after.tolist() == [1, 0, 0]

    def test_fresh_resets_state(self):
        # nothing to reset: a run leaves the policy untouched, and its
        # attributes cannot be rebound
        pol = DecayingSellerPolicy(0.1, U, U)
        before = dict(vars(pol))
        trace("SSBS", pol, [0.0, 0.0, 0.0], [0.99])
        assert vars(pol) == before
        with pytest.raises(AttributeError):
            pol.p = 0.0

    def test_replay_determinism(self):
        pol = StockLimitedPolicy(1, U, U)
        draws = ([0.01, 0.5, 0.01], [0.99, 0.2])
        first, second = trace("SBSSB", pol, *draws), trace("SBSSB", pol, *draws)
        for col in ("roles", "prices", "values", "traded", "stock_after"):
            assert np.array_equal(getattr(first, col), getattr(second, col), equal_nan=col == "prices")


class TestRegularityGate:
    def test_pareto_buyers_rejected_for_mhr_kinds(self):
        for ctor in (
            lambda: DecayingSellerPolicy(0.1, U, Pareto(0.5)),
            lambda: StockLimitedPolicy(2, U, Pareto(0.5)),
            lambda: BalancedPolicy(1, U, Pareto(0.5)),
        ):
            with pytest.raises(RegularityError) as err:
                ctor()
            assert "MHR" in str(err.value)

    def test_median_accepts_pareto(self):
        pol = MedianPolicy(Pareto(0.5), Pareto(0.5))
        assert pol.q == pytest.approx(2 ** 0.5, abs=1e-12)

    def test_fixed_kinds_skip_regularity(self):
        FixedQuantilePolicy(2, 2, Pareto(0.5), Pareto(0.5))
        FixedPricePolicy(1.0, 2.0)


class TestBuildPolicy:
    def test_spec_matches_constructor(self):
        cases = {
            "median": lambda: MedianPolicy(U, U),
            "fixed:0.125,0.5": lambda: FixedPricePolicy(0.125, 0.5),
            "quantile:2,3": lambda: FixedQuantilePolicy(2.0, 3.0, U, U),
            "decay:0.1": lambda: DecayingSellerPolicy(0.1, U, U),
            "stock:2": lambda: StockLimitedPolicy(2, U, U),
            "balanced:1": lambda: BalancedPolicy(1, U, U),
        }
        for spec, direct in cases.items():
            built, want = build_policy(spec, U, U), direct()
            assert type(built) is type(want), spec
            assert built.p == want.p, spec
            assert built.seller_prices(5).tolist() == want.seller_prices(5).tolist(), spec
            assert built.stock_limit == want.stock_limit, spec

    @pytest.mark.parametrize(
        "bad",
        [
            "stock:0", "decay:0.6", "decay:0", "balanced:0", "fixed:1", "quantile:1,2", "haggle:1", "fixed:a,b",
            "stock:1.5", "median:1", "fixed:-0.1,0.5", "fixed:inf,0.5", "fixed:0.5,nan",
        ],
    )
    def test_bad_specs(self, bad):
        with pytest.raises(SpecParseError, match=re.escape(repr(bad))):
            build_policy(bad, U, U)

    def test_regularity_error_propagates(self):
        with pytest.raises(RegularityError):
            build_policy("decay:0.1", U, Pareto(0.5))

    def test_balanced_requires_profitable_program(self):
        # buyer values sit entirely below seller values: no profitable pair
        with pytest.raises(ValueError):
            BalancedPolicy(1, Uniform(2.0, 3.0), Uniform(0.0, 0.5))
