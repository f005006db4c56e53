import math
import os
import subprocess
import sys

import numpy as np
import pytest

import brokersim
import brokersim.distributions as distributions
from brokersim import (
    Exponential,
    Pareto,
    SpecParseError,
    Uniform,
    check_regularity,
    harmonic,
    parse_distribution,
    top_k_sum_bound,
)
from brokersim.verify import _MHR_SET
from oracles import order_stat_mean_by_survival, tail_value_by_quadrature


class TestEval:
    def test_uniform_midpoint(self):
        d = Uniform(0, 1)
        assert d.cdf(0.5) == 0.5
        assert d.pdf(0.5) == 1.0

    def test_exponential_log2(self):
        d = Exponential(1.0)
        assert d.cdf(math.log(2)) == pytest.approx(0.5, abs=1e-15)
        assert d.pdf(math.log(2)) == pytest.approx(0.5, abs=1e-15)

    def test_pareto_at_4(self):
        d = Pareto(0.5)
        assert d.cdf(4.0) == pytest.approx(0.9375, abs=1e-15)
        assert d.pdf(4.0) == pytest.approx(0.03125, abs=1e-15)

    def test_outside_support_clamps(self):
        d = Pareto(0.5)
        assert d.cdf(0.5) == 0.0
        assert d.pdf(0.5) == 0.0
        u = Uniform(1, 3)
        assert u.cdf(0.0) == 0.0 and u.cdf(5.0) == 1.0
        assert u.pdf(0.0) == 0.0 and u.pdf(5.0) == 0.0

    def test_vectorized_matches_scalar(self):
        d = Exponential(2.0)
        xs = np.array([0.0, 0.3, 1.7])
        assert np.allclose(d.cdf(xs), [d.cdf(float(x)) for x in xs])
        assert np.allclose(d.pdf(xs), [d.pdf(float(x)) for x in xs])


class TestQuantile:
    def test_uniform_median(self):
        assert Uniform(0, 1).quantile(0.5) == 0.5

    def test_exponential_known_point(self):
        assert Exponential(1.0).quantile(1 - 1 / math.e) == pytest.approx(1.0, abs=1e-12)

    def test_support_minimum(self):
        assert Uniform(1, 3).quantile(0.0) == 1.0
        assert Pareto(0.5).quantile(0.0) == 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            Uniform(0, 1).quantile(bad)

    @pytest.mark.parametrize("d", [Uniform(0, 1), Exponential(1.0), Pareto(0.5)], ids=["uniform", "exponential", "pareto"])
    def test_nan_is_a_domain_error(self, d):
        with pytest.raises(ValueError, match="must lie in"):
            d.quantile(float("nan"))
        with pytest.raises(ValueError, match="must lie in"):
            d.quantile(np.array([0.25, np.nan, 0.75]))

    @pytest.mark.parametrize("d", [Uniform(0.25, 2.5), Exponential(0.7), Pareto(0.6)])
    def test_round_trips(self, d):
        u = np.linspace(0.01, 0.99, 97)
        x = d.quantile(u)
        assert np.max(np.abs(d.cdf(x) - u)) < 1e-10
        x0 = d.quantile(np.linspace(0.05, 0.95, 19))
        assert np.max(np.abs(d.quantile(d.cdf(x0)) - x0)) < 1e-10


class TestInverseCdfBits:
    """The affine quantiles skip their identity steps (``* 1.0``, ``0.0 +``)
    and the exponential negates its divisor, not its logarithm; every value
    keeps the bits of the literal formula."""

    @staticmethod
    def uniforms():
        edges = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
        return np.concatenate([edges, np.random.default_rng(26).random(10**5)])

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-0.0, 1.0), (0.0, 2.0), (1.0, 2.0), (0.5, 3.0)])
    def test_uniform_equals_the_affine_formula(self, lo, hi):
        u = self.uniforms()
        got = Uniform(lo, hi).inverse_cdf(u)
        assert np.array_equal(got.view(np.int64), (lo + u * (hi - lo)).view(np.int64))

    @pytest.mark.parametrize("rate", [1.0, 2.0, 0.3, 7.1])
    def test_exponential_equals_the_negated_log(self, rate):
        u = self.uniforms()
        got = Exponential(rate).inverse_cdf(u)
        assert np.array_equal(got.view(np.int64), (-np.log1p(-u) / rate).view(np.int64))

    @pytest.mark.parametrize("d", [Uniform(0, 1), Exponential(1.0), Pareto(0.5)], ids=["uniform", "exponential", "pareto"])
    def test_quantile_returns_a_new_array(self, d):
        a = np.linspace(0.0, 0.9, 10)
        kept, grid = a.copy(), distributions._REGULARITY_U.copy()
        x = d.quantile(a)
        assert not np.shares_memory(x, a)
        x[:] = -1.0
        assert np.array_equal(a, kept)
        d.quantile(distributions._REGULARITY_U)[:] = -1.0
        assert np.array_equal(distributions._REGULARITY_U, grid)


class TestStats:
    def test_uniform(self):
        s = Uniform(0, 1).stats()
        assert s.mean == 0.5
        assert s.std == pytest.approx(1 / math.sqrt(12), abs=1e-15)
        assert Uniform(0, 1).quantile(0.5) == 0.5

    def test_exponential(self):
        s = Exponential(2.0).stats()
        assert s.mean == 0.5
        assert s.std == 0.5
        assert Exponential(2.0).quantile(0.5) == pytest.approx(math.log(2) / 2, abs=1e-15)

    def test_pareto_mean_is_inverse_eps(self):
        assert Pareto(0.5).stats().mean == 2.0
        assert Pareto(0.25).stats().mean == 4.0

    def test_pareto_infinite_variance_sentinel(self):
        assert math.isinf(Pareto(0.5).stats().std)
        assert math.isinf(Pareto(0.3).stats().std)
        assert math.isfinite(Pareto(0.7).stats().std)

    def test_pareto_median(self):
        assert Pareto(0.8).quantile(0.5) == pytest.approx(2**0.2)


class TestSampling:
    def test_inverse_transform_identity(self, u01):
        assert u01.quantile(0.25) == 0.25
        assert Exponential(1.0).quantile(1 - 1 / math.e) == pytest.approx(1.0, abs=1e-12)
        assert Pareto(0.5).quantile(0.0) == 1.0

    @pytest.mark.parametrize("d", [Uniform(0, 1), Exponential(1.0), Pareto(0.8)])
    def test_sample_mean_within_four_stderr(self, d, rng):
        draws = d.quantile(rng.random(1_000_000))
        stats = d.stats()
        se = np.std(draws, ddof=1) / math.sqrt(draws.size)
        assert abs(np.mean(draws) - stats.mean) < 4 * se


class TestMaxOrderStat:
    def test_uniform_closed_form(self):
        assert Uniform(0, 1).max_order_stat_mean(3) == pytest.approx(0.75, abs=1e-12)

    def test_exponential_is_harmonic(self):
        assert Exponential(1.0).max_order_stat_mean(2) == pytest.approx(1.5, abs=1e-12)
        for m in range(1, 65):
            assert Exponential(1.0).max_order_stat_mean(m) == pytest.approx(harmonic(m), abs=1e-6)

    def test_pareto_asymptotic_growth(self):
        # ratio to the mean approaches eps*Gamma(eps)*n^(1-eps); 5% at n=1e4
        d = Pareto(0.5)
        ratio = d.max_order_stat_mean(10**4) / d.stats().mean
        target = 0.5 * math.gamma(0.5) * (10**4) ** 0.5
        assert abs(ratio - target) / target < 0.05

    @pytest.mark.parametrize(
        "d,m",
        [(Uniform(0.3, 2.7), 7), (Exponential(0.5), 5), (Pareto(0.6), 9), (Uniform(0, 1), 3)],
    )
    def test_against_survival_quadrature(self, d, m):
        assert d.max_order_stat_mean(m) == pytest.approx(order_stat_mean_by_survival(d, m), rel=1e-7)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            Uniform(0, 1).max_order_stat_mean(0)


class TestPartialMean:
    @pytest.mark.parametrize("d", [Uniform(0, 1), Exponential(1.0), Pareto(0.5), Uniform(0.5, 2.0)], ids=str)
    def test_tail_integral_against_quadrature(self, d):
        lo, hi = d.support()
        probe = [lo + 0.1, lo + 1.0, 2.0 * d.mean]
        if math.isfinite(hi):
            probe.append(hi - 1e-3)
        for y in probe:
            assert d.upper_partial_mean(y) == pytest.approx(tail_value_by_quadrature(d, y), rel=1e-7, abs=1e-10)

    @pytest.mark.parametrize("y", [0.5, 1.0])
    def test_pareto_at_or_below_its_support_is_the_mean(self, y):
        assert Pareto(0.5).upper_partial_mean(y) == 2.0


class TestRegularity:
    def test_exponential_both_flags(self):
        rep = check_regularity(Exponential(1.0))
        assert rep.mhr and rep.log_concave_cdf and not rep.failures

    def test_uniform_both_flags(self):
        rep = check_regularity(Uniform(0, 1))
        assert rep.mhr and rep.log_concave_cdf

    def test_pareto_not_mhr(self):
        rep = check_regularity(Pareto(0.5))
        assert not rep.mhr
        assert "log-survival not concave" in rep.failures

    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.9])
    def test_pareto_virtual_value_rises_where_mhr_fails(self, eps):
        # the hazard a/x falls while the virtual value x(1 - 1/a) rises: MHR implies
        # a nondecreasing virtual value, not the converse
        assert check_regularity(Pareto(eps)).failures == ("log-survival not concave",)


class TestMhrPropertySuite:
    """The `verify mhr` suite's lines, one test per prior and property, so a
    failure names both; the suite holds the checks and their tolerances."""

    @pytest.mark.parametrize("d", _MHR_SET, ids=str)
    def test_survival_at_least_1_over_e_below_mean(self, suite_line, d):
        assert suite_line("mhr", f"{d} survival>=1/e below mean").passed

    @pytest.mark.parametrize("d", _MHR_SET, ids=str)
    def test_survival_below_1_over_e_above_twice_mean(self, suite_line, d):
        assert suite_line("mhr", f"{d} survival<=1/e above twice mean").passed

    @pytest.mark.parametrize("d", _MHR_SET, ids=str)
    def test_order_stat_mean_below_harmonic_times_mean(self, suite_line, d):
        assert suite_line("mhr", f"{d} order-stat mean under H_m*mu").passed

    @pytest.mark.parametrize("d", _MHR_SET, ids=str)
    def test_std_at_most_mean(self, suite_line, d):
        assert suite_line("mhr", f"{d} std<=mean").passed

    @pytest.mark.parametrize("d", _MHR_SET, ids=str)
    def test_log_concave_tail_bound(self, suite_line, d):
        assert suite_line("mhr", f"{d} tail bound x<=e*mu*F(x)").passed


class TestTopKSumBound:
    def test_zero_variance(self):
        assert top_k_sum_bound(0.5, 0.0, 10, 3) == 1.5

    def test_formula_points(self):
        assert top_k_sum_bound(1.0, 1.0, 4, 1) == pytest.approx(5.0, abs=1e-12)
        assert top_k_sum_bound(0.5, 0.288675, 100, 10) == pytest.approx(23.25741007098214, abs=1e-9)

    def test_rejects_k_above_m(self):
        with pytest.raises(ValueError):
            top_k_sum_bound(0.5, 0.1, 10, 11)

    def test_rejects_non_finite_std(self):
        with pytest.raises(ValueError):
            top_k_sum_bound(2.0, math.inf, 10, 3)

    @pytest.mark.parametrize("d", [Uniform(0, 1), Exponential(1.0)], ids=str)
    @pytest.mark.parametrize("m,k", [(10, 3), (100, 10), (1000, 50)])
    def test_monte_carlo_top_k_under_bound(self, d, m, k, rng):
        draws = np.asarray(d.quantile(rng.random((3000, m))))
        draws.sort(axis=1)
        tops = draws[:, m - k :].sum(axis=1)
        se = np.std(tops, ddof=1) / math.sqrt(tops.shape[0])
        stats = d.stats()
        assert np.mean(tops) <= top_k_sum_bound(stats.mean, stats.std, m, k) + 3 * se


class TestParse:
    def test_round_trip_strings(self):
        for text, kind in [("uniform:0,1", Uniform), ("exp:2", Exponential), ("pareto-eps:0.5", Pareto)]:
            d = parse_distribution(text)
            assert isinstance(d, kind)
            assert parse_distribution(str(d)) == d

    def test_whitespace_tolerated(self):
        assert parse_distribution(" uniform: 0 , 1 ") == Uniform(0, 1)

    @pytest.mark.parametrize(
        "bad,needle",
        [
            ("gauss:0,1", "gauss"),
            ("uniform:1", "uniform"),
            ("exp:abc", "abc"),
            ("exp", "missing"),
            ("uniform:3,1", "uniform:3,1"),
            ("exp:-2", "exp:-2"),
            ("pareto-eps:1.5", "pareto-eps:1.5"),
            ("uniform:0,1,2", "uniform:0,1,2"),
            ("uniform:0,inf", "uniform:0,inf"),
            ("uniform:0,1e309", "uniform:0,1e309"),
            ("exp:inf", "exp:inf"),
            ("exp:1e-320", "float64 mean"),
            ("uniform:1e308,1.7e308", "float64 mean"),
            ("pareto-eps:1e-320", "float64 mean"),
        ],
    )
    def test_errors_name_offending_token(self, bad, needle):
        with pytest.raises(SpecParseError) as err:
            parse_distribution(bad)
        assert needle in str(err.value)

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            Uniform(-1, 1)
        with pytest.raises(ValueError):
            Uniform(2, 2)
        with pytest.raises(ValueError):
            Uniform(0, math.inf)
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Exponential(math.inf)
        with pytest.raises(ValueError):
            Pareto(1.0)


def test_harmonic_values():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(4) == pytest.approx(25 / 12, abs=1e-15)


def test_import_leaves_scipy_unloaded():
    # scipy's quadrature and special functions load on first use, not on import
    src = os.path.dirname(os.path.dirname(brokersim.__file__))
    code = "import sys, brokersim; print(sorted(m for m in sys.modules if m.startswith(('scipy.special', 'scipy.integrate'))))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
