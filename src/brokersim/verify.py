"""Named invariant suites behind ``brokersim verify``, and the fractional
program's certificates.

Each suite is the one check of its invariants; acceptance criteria 2-5 run
``matching`` (FIFO is maximum on every stream up to length 12, K = 1, 2, 3
and unbounded), ``mhr`` (five MHR priors on a 1024-point quantile grid),
``adaptive`` (the 267 alpha-balanced streams with alpha = 1, m <= 6 and
alpha = 2, m <= 4) and ``azuma`` (alpha = 1, 2, 3; m = 10, 100, 1000).
Every reported check is one ``CheckLine``: a suite, a name, the observed slack
(how far the inequality is from binding, nonnegative when it holds) and the
verdict ``slack >= -tol``, decided once, in ``_line``.  Each suite yields one
line per check; ``certify_bounds`` returns the lines that ``solve-fractional``
prints and the ``bounds`` suite relabels.  Every check is exact, not sampled,
so suites are deterministic.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Iterator

import numpy as np

from . import benchmarks
from .distributions import (
    _REGULARITY_U,
    Distribution,
    Exponential,
    Uniform,
    check_regularity,
    harmonic,
    top_k_sum_bound,
)
from .engine import expected_outcome
from .errors import require_int
from .fractional import FractionalSolution, solve_fractional
from .matching import brute_force_max_matching, fifo_match
from .policies import BalancedPolicy, MedianPolicy, StockLimitedPolicy
from .streams import AgentStream, enumerate_alpha_balanced

__all__ = ["CheckLine", "SUITES", "certify_bounds", "run_suite"]

_MHR_SET: tuple[Distribution, ...] = (
    Exponential(0.5),
    Exponential(1.0),
    Exponential(2.0),
    Uniform(0.0, 1.0),
    Uniform(0.0, 2.0),
)


@dataclasses.dataclass(frozen=True)
class CheckLine:
    suite: str
    name: str
    passed: bool
    slack: float

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.suite}] {self.name}: slack={self.slack:.6g} {status}"


def _line(suite, name, slack, tol=0.0):
    return CheckLine(suite, name, bool(slack >= -tol), float(slack))


def certify_bounds(
    sol: FractionalSolution,
    f_s: Distribution,
    f_b: Distribution,
    m: int,
) -> tuple[CheckLine, ...]:
    """Check the solution against its analytic envelope.

    With r = max(2, mu_S/mu_B): (i) total value m*per_buyer_value is at least
    m*mu_B/(2*e*r); (ii) the buyer price is at most 4*ln(4*e*r)*mu_B.  Slacks
    are reported; a failure flags an infeasibility or regularity breach
    upstream.
    """
    m = require_int("m", m, 1)
    mu_s = f_s.mean
    mu_b = f_b.mean
    r = max(2.0, mu_s / mu_b)
    value_floor = m * mu_b / (2.0 * math.e * r)
    value_slack = m * sol.per_buyer_value - value_floor
    price_ceiling = 4.0 * math.log(4.0 * math.e * r) * mu_b
    price_slack = price_ceiling - sol.p
    return (
        _line("certificate", "value-lower-bound", value_slack, 1e-12),
        _line("certificate", "buyer-price-upper-bound", price_slack, 1e-12),
    )


def _suite_mhr() -> Iterator[CheckLine]:
    grid = _REGULARITY_U
    for d in _MHR_SET:
        mu = d.mean
        x = np.asarray(d.quantile(grid))
        surv = 1.0 - grid
        below = x <= mu

        slack = float(np.min(surv[below] - 1.0 / math.e)) if below.any() else math.inf
        yield _line("mhr", f"{d} survival>=1/e below mean", slack, 1e-12)

        above = x > 2.0 * mu
        slack = float(np.min(1.0 / math.e - surv[above])) if above.any() else math.inf
        yield _line("mhr", f"{d} survival<=1/e above twice mean", slack)

        slack = min(
            harmonic(m) * mu - d.max_order_stat_mean(m) for m in range(1, 65)
        )
        yield _line("mhr", f"{d} order-stat mean under H_m*mu", slack, 1e-9)

        stats = d.stats()
        yield _line("mhr", f"{d} std<=mean", stats.mean - stats.std, 1e-12)

        slack = float(np.min(math.e * mu * grid[below] - x[below]))
        yield _line("mhr", f"{d} tail bound x<=e*mu*F(x)", slack, 1e-9)

        report = check_regularity(d)
        yield _line("mhr", f"{d} regularity flags", 0.0 if (report.mhr and report.log_concave_cdf) else -1.0)


def _suite_matching() -> Iterator[CheckLine]:
    max_len = 12
    mismatches = dict.fromkeys((1, 2, 3, None), 0)
    for length in range(1, max_len + 1):
        for bits in itertools.product((0, 1), repeat=length):
            stream = AgentStream(np.array(bits, dtype=np.uint8))
            for capacity in mismatches:
                if len(fifo_match(stream, capacity)) != brute_force_max_matching(stream, capacity):
                    mismatches[capacity] += 1
    for capacity, count in mismatches.items():
        label = "unbounded" if capacity is None else f"K={capacity}"
        slack = 0.0 if count == 0 else -float(count)
        yield _line("matching", f"fifo=oracle up to n={max_len}, {label}", slack)


def _suite_adaptive() -> Iterator[CheckLine]:
    f_s = f_b = Uniform(0.0, 1.0)
    grid = 1024
    for alpha, max_m in ((1, 6), (2, 4)):
        worst = math.inf
        per_buyer = solve_fractional(f_s, f_b, alpha).per_buyer_value
        for m in range(1, max_m + 1):
            for stream in enumerate_alpha_balanced(alpha, m):
                dp = benchmarks.adaptive_dp_oracle(stream, f_s, f_b, price_grid=grid)
                worst = min(worst, m * per_buyer + len(stream) / grid - dp)
        yield _line("adaptive", f"dp<=fractional+slack, alpha={alpha}", worst)


def _suite_azuma() -> Iterator[CheckLine]:
    f_s = f_b = Uniform(0.0, 1.0)
    for alpha in (1, 2, 3):
        policy = BalancedPolicy(alpha, f_s, f_b)
        for m in (10, 100, 1000):
            stream = AgentStream.from_pattern(f"(S^{alpha} B)^{m}")
            slack = benchmarks.azuma_bound(m, alpha) - expected_outcome(stream, policy, f_s, f_b)[2]
            yield _line("azuma", f"E[Z_m]<=bound m={m} alpha={alpha}", slack)


def _suite_bounds() -> Iterator[CheckLine]:
    f_s = f_b = Uniform(0.0, 1.0)

    median = MedianPolicy(f_s, f_b)
    for text in ("SB^8", "(SB)^20", "S^10 B^10"):
        stream = AgentStream.from_pattern(text)
        slack = benchmarks.welfare_upper_bound(stream, f_s, f_b) - expected_outcome(stream, median, f_s, f_b)[1]
        yield _line("bounds", f"median welfare under bound on {text}", slack)

    stream = AgentStream.from_pattern("(SB)^40")
    for capacity in (1, 3):
        profit = expected_outcome(stream, StockLimitedPolicy(capacity, f_s, f_b), f_s, f_b)[0]
        slack = benchmarks.profit_upper_bound_stocked(stream, capacity, f_b) - profit
        yield _line("bounds", f"stocked profit under bound K={capacity}", slack)

    for alpha in (1, 2):
        sol = solve_fractional(f_s, f_b, alpha)
        for check in certify_bounds(sol, f_s, f_b, m=100):
            yield dataclasses.replace(check, suite="bounds", name=f"certificate {check.name} alpha={alpha}")

    stats = Uniform(0.0, 1.0).stats()
    for m, k in ((10, 3), (100, 10), (1000, 50)):
        # the k largest of m U(0,1) draws: E[U_(j)] = j / (m + 1), summed over j > m - k
        slack = top_k_sum_bound(stats.mean, stats.std, m, k) - k * (2 * m - k + 1) / (2 * (m + 1))
        yield _line("bounds", f"top-{k}-of-{m} sum under bound", slack)


_RUNNERS = {
    "mhr": _suite_mhr,
    "matching": _suite_matching,
    "adaptive": _suite_adaptive,
    "azuma": _suite_azuma,
    "bounds": _suite_bounds,
}
SUITES = tuple(_RUNNERS)


def run_suite(name: str) -> list[CheckLine]:
    """Run one invariant suite and return its check lines."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return list(_RUNNERS[name]())
