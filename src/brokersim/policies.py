"""Online posted-price policies as immutable price schedules.

Every policy is three things: the price offered to the i-th seller (a
function of the seller ordinal only), one price p offered to every buyer, and
an optional ``stock_limit``: while that many items are held, sellers are
declined.  Prices never depend on trade outcomes, so a policy holds no
per-trial state; the engine resolves trades and tracks stock.

Kinds and their price rules:

* ``median`` - post each side the median of its distribution.
* ``fixed:<q>,<p>`` - explicit constant prices.
* ``quantile:<c1>,<c2>`` - q = F_S^-1(1/c1), p = F_B^-1((c2-1)/c2); both
  constants must exceed 1.  ``quantile:2,2`` coincides with ``median``.
* ``decay:<eps>`` - the i-th seller gets q_i = F_S^-1(e^-1 * i^-(1/2+eps)),
  all buyers get p = mean of F_B; eps in (0, 1/2).
* ``stock:<K>`` - decline sellers when K items are held, else post
  q = F_S^-1(1/(2*e*K*r)) with r = max(1, mu_S/mu_B); buyers get mu_B.
* ``balanced:<alpha>`` - the optimal fractional price pair for
  alpha-balanced traffic (see :mod:`brokersim.fractional`).

``decay``, ``stock`` and ``balanced`` require regular priors (log-concave
F_S cdf, MHR F_B) and refuse construction otherwise, naming the failed
check.  ``median`` carries no such precondition.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Distribution, require_regular
from .errors import parse_spec, require_int
from .fractional import FractionalSolution, solve_fractional

__all__ = [
    "PricePolicy",
    "FixedPricePolicy",
    "MedianPolicy",
    "FixedQuantilePolicy",
    "DecayingSellerPolicy",
    "StockLimitedPolicy",
    "BalancedPolicy",
    "build_policy",
]


class PricePolicy:
    """Base posted-price schedule: seller prices by ordinal, one buyer price
    ``p``, optional ``stock_limit``.

    Attributes are set once, in the constructor; rebinding one raises.
    Constant-price kinds set ``q``; kinds whose seller price varies override
    ``seller_prices``.
    """

    #: policy-imposed stock cap; None for kinds that never decline sellers
    stock_limit: int | None = None
    q: float
    p: float

    def __setattr__(self, name, value):
        if name in self.__dict__:
            raise AttributeError(f"{type(self).__name__}.{name} is immutable")
        object.__setattr__(self, name, value)

    def seller_prices(self, n_sellers: int) -> np.ndarray:
        """Prices offered to sellers 1..n_sellers; entry i-1 is seller i's."""
        return np.full(n_sellers, float(self.q))


def _check_price(name, value):
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be a finite nonnegative price, got {value}")


class FixedPricePolicy(PricePolicy):
    """Constant prices q for sellers and p for buyers."""

    def __init__(self, q: float, p: float):
        _check_price("q", q)
        _check_price("p", p)
        self.q = q
        self.p = p


class MedianPolicy(PricePolicy):
    """Post each side the median of its own distribution."""

    def __init__(self, f_s: Distribution, f_b: Distribution):
        self.q = float(f_s.quantile(0.5))
        self.p = float(f_b.quantile(0.5))


class FixedQuantilePolicy(PricePolicy):
    """Seller price at the 1/c1 quantile, buyer price at (c2-1)/c2."""

    def __init__(self, c1: float, c2: float, f_s: Distribution, f_b: Distribution):
        if not (c1 > 1.0 and c2 > 1.0):
            raise ValueError(f"quantile constants must exceed 1, got c1={c1}, c2={c2}")
        self.q = float(f_s.quantile(1.0 / c1))
        self.p = float(f_b.quantile((c2 - 1.0) / c2))


class DecayingSellerPolicy(PricePolicy):
    """Seller prices decay with the seller's ordinal in the stream.

    q_i = F_S^-1(e^-1 * i^-(1/2+eps)) is nonincreasing in i, which caps the
    total spend while still accumulating stock at a useful rate; buyers pay
    the buyer mean.
    """

    def __init__(self, eps: float, f_s: Distribution, f_b: Distribution):
        if not (0.0 < eps < 0.5):
            raise ValueError(f"decay exponent must lie in (0, 1/2), got {eps}")
        require_regular(f_s, f_b, "decay policy")
        self.eps = eps
        self._f_s = f_s
        self.p = f_b.mean

    def seller_prices(self, n_sellers):
        # Python's int ** float on purpose: numpy.power differs from it in
        # the last bit at some ordinals.
        u = [math.exp(-1.0) * i ** -(0.5 + self.eps) for i in range(1, n_sellers + 1)]
        return self._f_s.quantile(np.array(u, dtype=float))


class StockLimitedPolicy(PricePolicy):
    """Buy only while fewer than K items are held.

    r = max(1, mu_S/mu_B); the seller quantile 1/(2*e*K*r) keeps the sunk
    cost of unsold stock at O(mu_S) while each sale clears at least mu_B/2.
    """

    def __init__(self, capacity: int, f_s: Distribution, f_b: Distribution):
        self.stock_limit = require_int("stock capacity", capacity, 1)
        require_regular(f_s, f_b, "stock policy")
        r = max(1.0, f_s.mean / f_b.mean)
        self.q = float(f_s.quantile(1.0 / (2.0 * math.e * self.stock_limit * r)))
        self.p = f_b.mean


class BalancedPolicy(PricePolicy):
    """Post the optimal fractional price pair for alpha-balanced traffic."""

    def __init__(self, alpha: int, f_s: Distribution, f_b: Distribution):
        solution = solve_fractional(f_s, f_b, alpha)
        if solution.per_buyer_value <= 0.0:
            raise ValueError(
                f"fractional program for {f_s}/{f_b} at alpha={alpha} admits no profitable trade"
            )
        self.solution: FractionalSolution = solution
        self.q = solution.q
        self.p = solution.p


_KINDS = {
    "median": ((), MedianPolicy),
    "fixed": ((float, float), lambda q, p, f_s, f_b: FixedPricePolicy(q, p)),
    "quantile": ((float, float), FixedQuantilePolicy),
    "decay": ((float,), DecayingSellerPolicy),
    "stock": ((int,), StockLimitedPolicy),
    "balanced": ((int,), BalancedPolicy),
}


def build_policy(spec: str, f_s: Distribution, f_b: Distribution) -> PricePolicy:
    """Construct a policy from its spec string.

    Grammar: ``median`` | ``fixed:<q>,<p>`` | ``quantile:<c1>,<c2>`` |
    ``decay:<eps>`` | ``stock:<K>`` | ``balanced:<alpha>``.
    """
    return parse_spec(spec, "policy", _KINDS, f_s, f_b)
