"""Analytic references for the benchmark's checks.

Every estimate is compared with a closed form or an exact computation from
this file, never with stored sampled values, so the checks hold whatever
random-number scheme the engine uses.  Nothing here imports brokersim.
"""

from __future__ import annotations

import math

import numpy as np

#: An estimate passes when it lies within this many standard errors of its
#: reference (two-sided tail probability about 6e-7).
Z_TOL = 5.0


def decay_seller_prices(n_sellers: int, eps: float) -> np.ndarray:
    """`decay:<eps>` seller prices for U(0,1) sellers: q_i = e^-1 * i^-(1/2+eps)."""
    i = np.arange(1, n_sellers + 1, dtype=float)
    return math.exp(-1.0) * i ** -(0.5 + eps)


def poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """pmf of a sum of independent Bernoulli(p_i), by convolution."""
    pmf = np.zeros(len(p) + 1)
    pmf[0] = 1.0
    for k, pk in enumerate(np.asarray(p, dtype=float), start=1):
        pmf[1 : k + 1] = pmf[1 : k + 1] * (1.0 - pk) + pmf[:k] * pk
        pmf[0] *= 1.0 - pk
    return pmf


def binomial_half_pmf(n: int) -> np.ndarray:
    """pmf of Bin(n, 1/2) on 0..n."""
    k = np.arange(n + 1)
    log_c = np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in k])
    return np.exp(log_c - n * math.log(2.0))


def decay_profit_uniform(n_sellers: int, n_buyers: int, eps: float) -> float:
    """Exact expected profit of `decay:<eps>` on S^n_S B^n_B, U(0,1) both sides.

    Seller i sells at a_i with probability a_i (its value is below a_i), so
    the stock after the sellers is S ~ PoissonBinomial(a).  Every buyer is
    offered the buyer mean 1/2 and accepts with probability 1/2 while stock
    lasts, so sales are min(S, Bin(n_B, 1/2)) and

        E[profit] = E[min(S, Bin(n_B, 1/2))] / 2 - sum_i a_i^2.
    """
    a = decay_seller_prices(n_sellers, eps)
    size = min(n_sellers, n_buyers)
    tail_s = np.cumsum(poisson_binomial_pmf(a)[::-1])[::-1]  # P(S >= k)
    tail_b = np.cumsum(binomial_half_pmf(n_buyers)[::-1])[::-1]
    expected_sales = math.fsum(tail_s[1 : size + 1] * tail_b[1 : size + 1])
    return 0.5 * expected_sales - math.fsum(a * a)


def fractional_value_uniform(alpha: int) -> float:
    """Per-buyer optimum of the two-price program for U(0,1) on both sides.

    With seller quantile u the prices are q = u and p = 1 - alpha*u, so the
    value alpha*u*(1 - (alpha+1)*u) peaks at u = 1/(2(alpha+1)).
    """
    return alpha / (4.0 * (alpha + 1))


def is_alpha_balanced(roles: np.ndarray, alpha: int) -> bool:
    """n_S = alpha*n_B and the i-th buyer (0 = seller, 1 = buyer) has at
    least alpha*i sellers before it."""
    roles = np.asarray(roles)
    buyers = np.flatnonzero(roles == 1)
    sellers_before = np.cumsum(roles == 0)[buyers]
    need = alpha * np.arange(1, buyers.size + 1)
    return int(np.count_nonzero(roles == 0)) == alpha * buyers.size and bool(np.all(sellers_before >= need))
