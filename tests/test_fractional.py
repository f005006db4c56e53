import math

import numpy as np
import pytest

from brokersim import (
    Exponential,
    Pareto,
    RegularityError,
    Uniform,
    certify_bounds,
    solve_fractional,
    virtual_cost,
    virtual_value,
)
from oracles import fractional_grid_search

U = Uniform(0.0, 1.0)


def random_regular_configs(rng, count=20):
    configs = []
    while len(configs) < count:
        def draw():
            if rng.random() < 0.5:
                lo = float(rng.uniform(0.0, 0.4))
                return Uniform(lo, lo + float(rng.uniform(0.5, 3.0)))
            return Exponential(float(rng.uniform(0.3, 3.0)))

        f_s, f_b = draw(), draw()
        alpha = int(rng.integers(1, 4))
        value = fractional_grid_search(f_s, f_b, alpha, points=10_000)[2]
        if value > 1e-3:  # keep configs with meaningful gains from trade
            configs.append((f_s, f_b, alpha))
    return configs


class TestVirtuals:
    def test_uniform_points(self):
        assert virtual_value(U, 0.75) == pytest.approx(0.5, abs=1e-12)
        assert virtual_cost(U, 0.25) == pytest.approx(0.5, abs=1e-12)

    def test_exponential_virtual_value_is_shifted_identity(self):
        e = Exponential(1.0)
        for x in (0.5, 2.0, 5.0):
            assert virtual_value(e, x) == pytest.approx(x - 1.0, abs=1e-12)

    def test_zero_density_rejected(self):
        with pytest.raises(ValueError):
            virtual_value(U, 2.0)
        with pytest.raises(ValueError):
            virtual_cost(U, -0.5)


class TestSolveUniform:
    def test_alpha_1_exact(self):
        sol = solve_fractional(U, U, 1)
        assert sol.p == pytest.approx(0.75, abs=1e-6)
        assert sol.q == pytest.approx(0.25, abs=1e-6)
        assert sol.per_buyer_value == pytest.approx(0.125, abs=1e-6)

    def test_alpha_2_exact(self):
        sol = solve_fractional(U, U, 2)
        assert sol.p == pytest.approx(2 / 3, abs=1e-6)
        assert sol.q == pytest.approx(1 / 6, abs=1e-6)
        assert sol.per_buyer_value == pytest.approx(1 / 6, abs=1e-6)

    def test_matches_grid_oracle(self):
        for alpha in (1, 2):
            oracle_value = fractional_grid_search(U, U, alpha)[2]
            assert solve_fractional(U, U, alpha).per_buyer_value == pytest.approx(oracle_value, rel=1e-6)


class TestSolveGeneral:
    def test_grid_oracle_agreement_on_random_regular_configs(self, rng):
        for f_s, f_b, alpha in random_regular_configs(rng):
            sol = solve_fractional(f_s, f_b, alpha)
            oracle_value = fractional_grid_search(f_s, f_b, alpha)[2]
            assert abs(sol.per_buyer_value - oracle_value) <= max(1e-6 * oracle_value, 1e-9)

    def test_residuals_small_at_interior_optima(self, rng):
        for f_s, f_b, alpha in random_regular_configs(rng, count=10):
            sol = solve_fractional(f_s, f_b, alpha)
            assert abs(sol.constraint_residual) <= 1e-8
            assert abs(sol.stationarity_residual) <= 1e-5

    def test_objective_identity(self, rng):
        # per_buyer_value equals p(1-F_B(p)) - alpha q F_S(q) at the solution
        for f_s, f_b, alpha in random_regular_configs(rng, count=5):
            sol = solve_fractional(f_s, f_b, alpha)
            direct = sol.p * (1 - float(f_b.cdf(sol.p))) - alpha * sol.q * float(f_s.cdf(sol.q))
            assert sol.per_buyer_value == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_no_trade_when_buyers_below_sellers(self):
        sol = solve_fractional(Uniform(2.0, 3.0), Uniform(0.0, 0.5), 1)
        assert sol.per_buyer_value == 0.0
        assert math.isnan(sol.stationarity_residual)

    def test_regularity_gate(self):
        with pytest.raises(RegularityError):
            solve_fractional(U, Pareto(0.5), 1)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            solve_fractional(U, U, 0)

    @pytest.mark.parametrize("alpha", [1, 2, 5])
    @pytest.mark.parametrize(
        "f_s, f_b",
        [
            (U, U),
            (Exponential(1.0), Exponential(2.0)),
            (Exponential(1.0), U),
            (Pareto(0.5), Exponential(1.0)),
            (Pareto(0.5), U),  # no trade: the optimum sits at the grid's low end
            (U, Uniform(5.0, 6.0)),  # buyers always above sellers: the high end
        ],
    )
    def test_buyer_quantile_arguments_stay_inside_the_unit_interval(self, f_s, f_b, alpha):
        class QuantileSpy:
            """Delegates to ``f_b`` and records every ``quantile`` argument."""

            def __init__(self):
                self.args = []

            def quantile(self, u):
                self.args.extend(np.ravel(u).tolist())
                return f_b.quantile(u)

            def __getattr__(self, name):
                return getattr(f_b, name)

        spy = QuantileSpy()
        sol = solve_fractional(f_s, spy, alpha)
        assert sol == solve_fractional(f_s, f_b, alpha)
        assert len(spy.args) > 2000  # regularity grid, coarse grid and golden section
        assert all(0.0 < u < 1.0 for u in spy.args)


class TestCertify:
    def test_uniform_alpha_1_passes(self):
        sol = solve_fractional(U, U, 1)
        checks = certify_bounds(sol, U, U, m=1)
        assert all(c.passed for c in checks)
        by_name = {c.name: c for c in checks}
        # value 0.125 over floor mu_B/(2*e*r) with r=2; price 0.75 under 4*ln(4*e*r)*mu_B
        assert by_name["value-lower-bound"].slack == pytest.approx(0.125 - 0.04598493014643029, abs=1e-9)
        assert by_name["buyer-price-upper-bound"].slack == pytest.approx(6.1588830833596715 - 0.75, abs=1e-9)

    def test_scales_with_m(self):
        sol = solve_fractional(U, U, 1)
        r10 = certify_bounds(sol, U, U, m=10)
        assert r10[0].slack == pytest.approx(10 * (0.125 - 0.04598493014643029), abs=1e-8)

    def test_no_trade_solution_flagged(self):
        sol = solve_fractional(Uniform(2.0, 3.0), Uniform(0.0, 0.5), 1)
        checks = certify_bounds(sol, Uniform(2.0, 3.0), Uniform(0.0, 0.5), m=1)
        assert not all(c.passed for c in checks)
        assert not checks[0].passed

    def test_exponential_pair_passes(self):
        e = Exponential(1.0)
        for alpha in (1, 2):
            sol = solve_fractional(e, e, alpha)
            assert all(c.passed for c in certify_bounds(sol, e, e, m=7))


def test_runtime_under_one_second():
    import time

    start = time.perf_counter()
    solve_fractional(U, U, 1)
    solve_fractional(U, U, 2)
    assert time.perf_counter() - start < 1.0
