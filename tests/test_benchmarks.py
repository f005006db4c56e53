import itertools
import tracemalloc

import numpy as np
import pytest

from brokersim import (
    AgentStream,
    BalancedPolicy,
    Exponential,
    FixedPricePolicy,
    MedianPolicy,
    StockLimitedPolicy,
    Uniform,
    adaptive_dp_oracle,
    azuma_bound,
    enumerate_alpha_balanced,
    expected_outcome,
    harmonic,
    monte_carlo,
    profit_upper_bound_stocked,
    prophet_price,
    random_alpha_balanced,
    solve_fractional,
    split_stream_profit,
    uniform_offline_policy,
    welfare_upper_bound,
)
from oracles import adaptive_dp_by_stock_loop

U = Uniform(0.0, 1.0)
E = Exponential(1.0)


def stream(text):
    return AgentStream.from_pattern(text)


class TestWelfareUpperBound:
    def test_one_pair(self):
        assert welfare_upper_bound(stream("SB"), U, U) == pytest.approx(1.0, abs=1e-12)

    def test_one_seller_three_buyers(self):
        assert welfare_upper_bound(stream("SBBB"), U, U) == pytest.approx(1.25, abs=1e-12)

    def test_lonely_buyer(self):
        assert welfare_upper_bound(stream("B"), U, U) == 0.0

    def test_sellers_only(self):
        assert welfare_upper_bound(stream("S^3"), U, U) == 1.5

    def test_simulated_median_welfare_stays_below(self, rng):
        for text in ("S B^6", "(SB)^25", "S^8 B^8"):
            s = stream(text)
            for f_s, f_b in ((U, U), (E, E)):
                est = monte_carlo(s, MedianPolicy(f_s, f_b), f_s, f_b, 20_000, 31, objective="welfare")
                assert est.mean <= welfare_upper_bound(s, f_s, f_b) + 3 * est.std_err


class TestProfitUpperBounds:
    def test_stocked_formula(self):
        assert profit_upper_bound_stocked(stream("SB"), 1, U) == pytest.approx(0.75, abs=1e-12)
        assert profit_upper_bound_stocked(stream("SSBB"), 1, U) == pytest.approx(harmonic(4) * 0.5, abs=1e-12)

    def test_stocked_empty_stream(self):
        assert profit_upper_bound_stocked(stream("S^0"), 1, U) == 0.0

    def test_simulated_stock_policy_stays_below(self):
        s = stream("(SB)^40")
        for capacity in (1, 3):
            pol = StockLimitedPolicy(capacity, U, U)
            est = monte_carlo(s, pol, U, U, 20_000, 77, stock_cap=capacity)
            assert est.mean <= profit_upper_bound_stocked(s, capacity, U) + 3 * est.std_err


class TestUniformOffline:
    def test_unit_interval_case(self):
        assert uniform_offline_policy(0.0, 1.0) == (0.125, 0.5, 1.0 / 128.0)

    def test_general_case_1_3(self):
        q, p, per_n = uniform_offline_policy(1.0, 3.0)
        assert q == pytest.approx(1.0625, abs=1e-12)
        assert p == pytest.approx(1.5, abs=1e-12)
        assert per_n == pytest.approx(1.0 / 1024.0, abs=1e-15)

    def test_premise_enforced(self):
        with pytest.raises(ValueError):
            uniform_offline_policy(1.0, 2.0)
        with pytest.raises(ValueError):
            uniform_offline_policy(0.0, 2.0)

    def test_simulated_profit_beats_stated_floor(self):
        # the floor undercounts by pairing the i-th seller with the i-th buyer only
        q, p, per_n = uniform_offline_policy(0.0, 1.0)
        s = stream("S^64 B^64")
        est = monte_carlo(s, FixedPricePolicy(q, p), U, U, 20_000, 13)
        assert est.mean / 128 >= per_n - 3 * est.std_err / 128


class TestSplitStreamProfit:
    # prices inside and outside each prior's support, never p = q: there the
    # profit p * (E[min(X, Y)] - E[X]) cancels to ~1e-6 of its terms at k = 1000
    CASES = [
        (U, U, [(0.125, 0.5), (0.3, 0.7), (0.6, 0.4), (0.0, 0.5), (0.2, 1.5)]),
        (Uniform(1.0, 3.0), Uniform(1.0, 3.0), [(1.0625, 1.5), (1.5, 2.5), (0.5, 2.0), (3.5, 2.0), (1.2, 0.5)]),
        (E, Exponential(2.0), [(0.5, 1.0), (0.2, 3.0), (1.0, 0.3), (0.0, 1.0), (2.0, 0.0)]),
        (U, E, [(0.25, 1.0), (0.3, 0.6), (1.5, 2.0), (0.1, 0.0), (0.8, 4.0)]),
    ]

    @pytest.mark.parametrize("k", [*range(41), 200, 1000])
    def test_matches_stock_chain(self, k):
        s = stream(f"S^{k} B^{k}")
        for f_s, f_b, prices in self.CASES:
            for q, p in prices:
                chain = expected_outcome(s, FixedPricePolicy(q, p), f_s, f_b)[0]
                assert split_stream_profit(k, q, p, f_s, f_b) == pytest.approx(chain, rel=1e-12, abs=0.0)

    def test_empty_stream(self):
        assert split_stream_profit(0, 0.125, 0.5, U, U) == 0.0

    def test_uniform_witness_is_linear(self):
        # X ~ Bin(k, 1/8) rarely exceeds Y ~ Bin(k, 1/2), so profit -> (p - q) k / 8 = 3n/128
        assert split_stream_profit(4096, 0.125, 0.5, U, U) == pytest.approx(3 * 8192 / 128, rel=1e-12)


class TestProphetPrice:
    def test_uniform(self):
        assert prophet_price(U, 3) == pytest.approx(0.375, abs=1e-12)

    def test_single_buyer_is_half_mean(self):
        assert prophet_price(E, 1) == pytest.approx(0.5, abs=1e-12)

    def test_exponential_harmonic(self):
        assert prophet_price(E, 4) == pytest.approx(harmonic(4) / 2, abs=1e-12)

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            prophet_price(U, 0)


class TestAzumaBound:
    def test_frozen_values(self):
        assert azuma_bound(100, 1) == pytest.approx(31.741571735948867, abs=1e-12)
        assert azuma_bound(100, 2) == pytest.approx(63.48314347189773, abs=1e-12)

    def test_degenerate_m_2(self):
        assert azuma_bound(2, 1) == 2.0
        assert azuma_bound(2, 3) == 6.0

    def test_domain(self):
        with pytest.raises(ValueError):
            azuma_bound(1, 1)

    @pytest.mark.parametrize("alpha", (1, 2, 3))
    @pytest.mark.parametrize("m", (10, 100, 1000))
    def test_exact_inventory_under_bound(self, suite_line, m, alpha):
        # one line of the `verify azuma` suite, which holds the check
        assert suite_line("azuma", f"E[Z_m]<=bound m={m} alpha={alpha}").passed


class TestBalancedProfitDecomposition:
    """The exact balanced profit of the stock chain, against the paper's
    decomposition E[profit] = m * per_buyer_value - E[Z_m] * p."""

    def test_single_block_value(self):
        # p=0.75, q=0.25: P(buy)=1/4, then P(no sale)=3/4 -> E[Z_1]=3/16
        profit, _, leftover = expected_outcome(stream("SB"), BalancedPolicy(1, U, U), U, U)
        assert (profit, leftover) == (-0.015625, 0.1875)

    def test_m_zero(self):
        assert expected_outcome(stream("(S B)^0"), BalancedPolicy(1, U, U), U, U) == (0.0, 0.0, 0.0)

    def test_full_liquidation_recovers_fractional_value(self):
        # the leftover stock's cost E[Z_m] * p is all that separates the profit from m * per_buyer_value
        for alpha in (1, 2):
            sol = solve_fractional(U, U, alpha)
            for m in (10, 100, 1000):
                profit, _, leftover = expected_outcome(stream(f"(S^{alpha} B)^{m}"), BalancedPolicy(alpha, U, U), U, U)
                assert profit == pytest.approx(m * sol.per_buyer_value - leftover * sol.p, rel=1e-12)

    def test_matches_simulated_profit(self):
        m, alpha = 200, 1
        s, pol = stream(f"(S^{alpha} B)^{m}"), BalancedPolicy(alpha, U, U)
        est = monte_carlo(s, pol, U, U, 40_000, 29)
        assert abs(est.mean - expected_outcome(s, pol, U, U)[0]) <= 3 * est.std_err


class TestAdaptiveOracle:
    def test_single_pair_closed_form(self):
        # best adaptive play on SB: buy at 1/8, then sell at 1/2 -> 1/64
        value = adaptive_dp_oracle(stream("SB"), U, U, price_grid=1024)
        assert value == pytest.approx(1.0 / 64.0, abs=2.0 / 1024.0)

    def test_no_stock_no_profit(self):
        assert adaptive_dp_oracle(stream("B^4"), U, U) == 0.0

    def test_pair_instance_below_fractional(self):
        assert adaptive_dp_oracle(stream("SB"), U, U) <= 0.125

    def test_size_limits(self):
        # the budget bounds n x (cap + 1) x grid: (SB)^16 at grid 1024 is 32 x 17 x 1024 units and runs
        assert adaptive_dp_oracle(stream("(SB)^16"), U, U) <= 16 * solve_fractional(U, U, 1).per_buyer_value + 32 / 1024
        # (SB)^600 uncapped is 1200 x 601 x 1024, about 7.4e8 units: refused before any array is built
        with pytest.raises(ValueError, match="DP budget"):
            adaptive_dp_oracle(stream("(SB)^600"), U, U)
        with pytest.raises(ValueError):
            adaptive_dp_oracle(stream("SB"), U, U, price_grid=4096)
        # a cap above n_S (here 5 > len 2) folds to n_S: no refusal, the uncapped value
        assert adaptive_dp_oracle(stream("SB"), U, U, stock_cap=5) == adaptive_dp_oracle(stream("SB"), U, U)

    def test_budget_refusal_builds_no_array(self):
        # (S^4096 B^4096) uncapped at grid 2048: 8192 x 4097 x 2048 units, about 6.9e10
        s = stream("S^4096 B^4096")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="DP budget"):
                adaptive_dp_oracle(s, U, U, price_grid=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_value_monotone_in_stock_cap(self):
        s = stream("S^3 B^3")
        values = [adaptive_dp_oracle(s, U, U, price_grid=256, stock_cap=k) for k in (1, 2, 3)]
        assert values == sorted(values)

    @pytest.mark.parametrize("grid", [8, 256, 1024])
    @pytest.mark.parametrize("f_s,f_b", [(U, U), (U, E), (E, E), (E, U)], ids=["U/U", "U/Exp", "Exp/Exp", "Exp/U"])
    def test_matches_the_stock_loop_exactly(self, f_s, f_b, grid):
        rng = np.random.default_rng(13)
        streams = [*enumerate_alpha_balanced(2, 3), *enumerate_alpha_balanced(1, 4)]
        streams += [AgentStream(rng.integers(0, 2, size=rng.integers(1, 31), dtype=np.uint8)) for _ in range(60)]
        for cap, s in itertools.product((None, 1, 2, 3), streams):
            expected = adaptive_dp_by_stock_loop(s, f_s, f_b, grid, s.n_S if cap is None else cap)
            assert adaptive_dp_oracle(s, f_s, f_b, price_grid=grid, stock_cap=cap) == expected, (s, grid, cap)


class TestFractionalDominance:
    def test_no_policy_beats_fractional_per_buyer_value(self, rng):
        alpha, m = 1, 40
        cap = solve_fractional(U, U, alpha).per_buyer_value
        policies = [MedianPolicy(U, U), FixedPricePolicy(0.3, 0.6), BalancedPolicy(alpha, U, U)]
        for _ in range(3):
            s = random_alpha_balanced(alpha, m, rng)
            for pol in policies:
                est = monte_carlo(s, pol, U, U, 20_000, 41)
                assert est.mean / m <= cap + 3 * est.std_err / m
