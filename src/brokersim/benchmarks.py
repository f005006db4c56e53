"""Offline benchmarks and analytic envelopes.

Upper bounds (analytic):

* ``welfare_upper_bound``: no schedule beats granting every seller her value
  and selling kappa items at the buyers' maximum order statistic.
* ``profit_upper_bound_stocked``: kappa_K * H_n * mu_B under a stock cap K.
* ``azuma_bound``: concentration cap on the expected terminal inventory of
  the balanced walk.

Offline strategies (explicit witnesses, valued exactly):

* ``uniform_offline_policy``: the fixed price pair whose expected profit on
  S^(n/2) B^(n/2) with uniform values is linear in n; ``split_stream_profit``
  gives that profit exactly.
* ``prophet_price``: the threshold mu^(n)/2 that extracts at least half the
  expected maximum from n buyers, given stock.

``adaptive_dp_oracle`` computes the exact optimum of the best *adaptive*
posted-price mechanism on a quantile grid by backward induction; it is the
reference point that every implementable mechanism must sit below.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Distribution, harmonic
from .errors import require_int
from .matching import max_matchable
from .streams import AgentStream, SELLER

__all__ = [
    "welfare_upper_bound",
    "profit_upper_bound_stocked",
    "uniform_offline_policy",
    "split_stream_profit",
    "prophet_price",
    "azuma_bound",
    "adaptive_dp_oracle",
]

#: Largest n x (cap + 1) x price_grid that ``adaptive_dp_oracle`` takes: about 3 s
#: of backward induction at 1.1e-8 s per unit (2-core Xeon).
_DP_BUDGET = 2**28


def welfare_upper_bound(stream: AgentStream, f_s: Distribution, f_b: Distribution) -> float:
    """n_S*mu_S plus kappa times the buyers' n_B-maximum order statistic mean."""
    base = stream.n_S * f_s.mean
    if stream.n_B == 0:
        return base
    kappa = max_matchable(stream, None)
    return base + kappa * f_b.max_order_stat_mean(stream.n_B)


def profit_upper_bound_stocked(stream: AgentStream, capacity: int, f_b: Distribution) -> float:
    """kappa_K * H_n * mu_B with kappa_K the stock-limited matching size."""
    kappa = max_matchable(stream, capacity)
    return kappa * harmonic(len(stream)) * f_b.mean


def uniform_offline_policy(a: float, b: float) -> tuple[float, float, float]:
    """Fixed offline price pair (q, p) and its per-agent profit floor for
    uniform values on [a, b] faced with S^(n/2) B^(n/2).

    The [0, 1] case uses (1/8, 1/2) and clears 1/128 per agent.  The general
    form needs b > 2a: with k = b/a - 1 and y = (1 - 1/k)/2 it posts
    p = a(yk + 1), q = (a/2)(2 + y^2 k) and clears (ak/128)(1 - 1/k)^4.
    """
    if a == 0.0:
        if b != 1.0:
            raise ValueError("for a = 0 only the [0, 1] case is defined")
        return (0.125, 0.5, 1.0 / 128.0)
    if not (a > 0.0 and b > 2.0 * a):
        raise ValueError(f"offline strategy needs b > 2a (or a=0, b=1), got a={a}, b={b}")
    k = b / a - 1.0
    y = 0.5 * (1.0 - 1.0 / k)
    p = a * (y * k + 1.0)
    q = 0.5 * a * (2.0 + y * y * k)
    profit_per_n = (a * k / 128.0) * (1.0 - 1.0 / k) ** 4
    return (q, p, profit_per_n)


def split_stream_profit(k: int, q: float, p: float, f_s: Distribution, f_b: Distribution) -> float:
    """Exact expected profit of fixed prices (q, p) on S^k B^k: X ~ Bin(k, F_S(q))
    items are bought and min(X, Y) sold to Y ~ Bin(k, 1 - F_B(p)) accepting
    buyers, so E[profit] = p * sum_{j<k} P(X>j) P(Y>j) - q * k * F_S(q)."""
    from scipy.special import bdtrc  # scipy loads on first use, not on import

    k = require_int("k", k, 0)
    buy, sell = f_s.cdf(q), 1.0 - f_b.cdf(p)
    j = np.arange(k)
    return p * math.fsum(bdtrc(j, k, buy) * bdtrc(j, k, sell)) - q * k * buy


def prophet_price(f: Distribution, n: int) -> float:
    """Threshold mu^(n)/2: guarantees welfare >= mu^(n)/2 from n buyers."""
    return f.max_order_stat_mean(require_int("n", n, 1)) / 2.0


def azuma_bound(m: int, alpha: int) -> float:
    """Cap on the expected terminal inventory of the balanced walk:
    sqrt(2*m*alpha^2*ln m) * (1 - 2/m) + 2*alpha, natural log, m >= 2."""
    m = require_int("m", m, 2)
    alpha = require_int("alpha", alpha, 1)
    return math.sqrt(2.0 * m * alpha * alpha * math.log(m)) * (1.0 - 2.0 / m) + 2.0 * alpha


def _bellman_step(stay: np.ndarray, move: np.ndarray, prob: np.ndarray, cash: np.ndarray) -> np.ndarray:
    """One agent's Bellman step for every stock level at once: the better of
    declining (``stay``) and the best grid price, which trades with
    probability ``prob``, pays ``cash`` and leads to ``move``."""
    trade = prob * ((cash + move[:, None]) - stay[:, None]) + stay[:, None]
    return np.maximum(stay, trade.max(axis=1))


def adaptive_dp_oracle(
    stream: AgentStream,
    f_s: Distribution,
    f_b: Distribution,
    price_grid: int = 1024,
    stock_cap: int | None = None,
) -> float:
    """Exact expected profit of the optimal adaptive mechanism on a
    quantile-spaced price grid, by backward induction over (step, stock).

    The grid holds ``price_grid`` prices per side, uniform in cdf space, so
    one cell always covers 1/price_grid of probability mass regardless of
    the distribution.  Declining is always available.  Each agent is one
    array step over all stock levels: a seller at stock k < cap accepts
    price q with probability F_S(q) and moves to k + 1 for cash -q; a
    buyer at stock k > 0 accepts p with probability 1 - F_B(p) and moves
    to k - 1 for cash +p; the remaining level keeps its value.  The cap is
    ``AgentStream.fold_cap`` of ``stock_cap``, so a cap at or above n_S gives
    the uncapped value.  Refuses, before building any array, grids above
    2048 and runs whose n x (cap + 1) x price_grid exceeds ``_DP_BUDGET``.
    """
    n = len(stream)
    if require_int("price_grid", price_grid, 2) > 2048:
        raise ValueError(f"price grid must lie in [2, 2048], got {price_grid}")
    cap = stream.fold_cap(stock_cap=stock_cap)
    if (units := n * (cap + 1) * price_grid) > _DP_BUDGET:
        raise ValueError(f"n x (cap + 1) x price_grid = {units} exceeds the DP budget {_DP_BUDGET}")
    if cap == 0:  # no seller, so no trade
        return 0.0

    grid_u = np.arange(price_grid) / price_grid
    seller_cash = -np.asarray(f_s.quantile(grid_u), dtype=float)
    buyer_cash = np.asarray(f_b.quantile(grid_u), dtype=float)

    value = np.zeros(cap + 1)
    for t in reversed(range(n)):
        nxt = value
        value = nxt.copy()
        if int(stream.roles[t]) == SELLER:
            value[:-1] = _bellman_step(nxt[:-1], nxt[1:], grid_u, seller_cash)
        else:
            value[1:] = _bellman_step(nxt[1:], nxt[:-1], 1.0 - grid_u, buyer_cash)
    return float(value[0])
