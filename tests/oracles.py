"""Independent oracles used by the tests.

These deliberately avoid the production code paths they are checking:
order-statistic means integrate the survival function on the value domain
(the library uses closed forms), the fractional oracle is a flat grid scan
(the library refines with golden section), kappa comes from a prefix flow
bound (the library runs FIFO), the variance sum squares one deviation at a
time (the library squares a vector), and one trial is resolved by a plain
loop over every step (the library's kernel runs trials side by side in
slabs and skips buyers that cannot trade).  ``validate_matching``
and ``prefix_dominates`` are reference checks on the library's outputs.
``by_role_rank`` builds the step-ordered row of uniforms that
``run_trial`` takes from draws indexed by role rank, the coupling device
that hands the j-th seller (and j-th buyer) of two streams the same draw.
``trial_rows`` builds the rows that Monte Carlo trials read, one whole
lane block of the raw generator at a time.
``adaptive_dp_by_stock_loop`` runs the adaptive oracle's backward
induction one stock level at a time (the library steps all levels at
once); it keeps the library's floating-point order, so the two agree
exactly.  ``loglog_slope`` fits the scaling exponent of a sweep's ratios,
which the acceptance criteria for the sqrt(n) and Pareto laws bound.
``expand_pattern_text`` expands a stream pattern by rewriting its text,
innermost group first (the library parses it into a tree).
"""

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from brokersim import BUYER, SELLER, RandomStream


def order_stat_mean_by_survival(d, m):
    """E[max of m draws] = lo + integral of 1 - F(x)^m over the support."""
    lo, hi = d.support()
    val, _ = integrate.quad(
        lambda x: 1.0 - float(d.cdf(x)) ** m, lo, hi, epsabs=0.0, epsrel=1e-10, limit=400
    )
    return lo + val


def tail_value_by_quadrature(d, y):
    """E[X * 1{X >= y}] by direct integration of x*f(x)."""
    lo, hi = d.support()
    start = max(lo, y)
    val, _ = integrate.quad(
        lambda x: x * float(d.pdf(x)), start, hi, epsabs=1e-12, epsrel=1e-10, limit=400
    )
    return val


def fractional_grid_search(f_s, f_b, alpha, points=1_000_000):
    """Best (p, q, value) over a dense seller-quantile grid."""
    u = (np.arange(points) + 0.5) / points * (1.0 / alpha)
    q = np.asarray(f_s.quantile(u), dtype=float)
    p = np.asarray(f_b.quantile(1.0 - alpha * u), dtype=float)
    h = alpha * u * (p - q)
    i = int(np.argmax(h))
    return float(p[i]), float(q[i]), float(h[i])


def kappa_by_flow(stream):
    """Unbounded-capacity matching size: min over t of sellers before t
    plus buyers from t on."""
    roles = stream.roles
    n = len(roles)
    sellers_before = np.concatenate(([0], np.cumsum(roles == SELLER)))
    buyers_after = np.concatenate((np.cumsum((roles == BUYER)[::-1])[::-1], [0]))
    return int(min(sellers_before[t] + buyers_after[t] for t in range(n + 1)))


def balanced_online_profit_expectation(m, p, q, f_s_cdf_q, f_b_sf_p):
    """Exact E[profit] of constant prices on (S B)^m by state enumeration.

    Only used for tiny m; evolves the full stock distribution step by step.
    """
    buy = f_s_cdf_q
    sell = f_b_sf_p
    dist = {0: 1.0}
    spend = income = 0.0
    for _ in range(m):
        nxt = {}
        for k, pr in dist.items():
            spend += pr * buy * q
            for bought, pb in ((1, buy), (0, 1.0 - buy)):
                kk = k + bought
                nxt[kk] = nxt.get(kk, 0.0) + pr * pb
        dist = nxt
        nxt = {}
        for k, pr in dist.items():
            if k > 0:
                income += pr * sell * p
                nxt[k - 1] = nxt.get(k - 1, 0.0) + pr * sell
                nxt[k] = nxt.get(k, 0.0) + pr * (1.0 - sell)
            else:
                nxt[k] = nxt.get(k, 0.0) + pr
        dist = nxt
    return income - spend


def harmonic_direct(n):
    return math.fsum(1.0 / i for i in range(1, n + 1))


def loglog_slope(ns, values) -> float:
    """Least-squares slope of log(values) against log(ns)."""
    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


_REPEATED_ATOM = re.compile(r"([SB])\^([0-9]+)")
_INNERMOST_GROUP = re.compile(r"\(([SB]*)\)\^([0-9]+)")


def expand_pattern_text(text):
    """The S/B string a well-formed pattern stands for: drop whitespace, write
    out each ``S^k``/``B^k``, then each innermost ``(...)^k`` until no group is left."""
    text = _REPEATED_ATOM.sub(lambda m: m[1] * int(m[2]), re.sub(r"\s", "", text))
    while "(" in text:
        text, groups = _INNERMOST_GROUP.subn(lambda m: m[1] * int(m[2]), text)
        if not groups:
            raise ValueError(f"malformed pattern text {text!r}")
    return text


def prefix_dominates(s1, s2):
    """Weak domination: every prefix of s1 has at least as many sellers as s2's."""
    if len(s1) != len(s2):
        raise ValueError(f"streams must have equal length, got {len(s1)} and {len(s2)}")
    return bool(np.all(np.cumsum(s1.roles == SELLER) >= np.cumsum(s2.roles == SELLER)))


def validate_matching(pairs, stream, capacity=None):
    """Raise ValueError unless ``pairs`` is a temporal matching of ``stream``:
    each pair joins a seller to a later buyer, no index is reused, and no
    temporal cut holds more than ``capacity`` open pairs."""
    seen = set()
    cuts = [0] * (len(stream) + 1)
    for i, j in pairs:
        if not (0 <= i < j < len(stream)):
            raise ValueError(f"pair ({i}, {j}) is not seller-before-buyer in range")
        if int(stream.roles[i]) != SELLER or int(stream.roles[j]) != BUYER:
            raise ValueError(f"pair ({i}, {j}) does not join a seller to a buyer")
        if i in seen or j in seen:
            raise ValueError(f"index reused by pair ({i}, {j})")
        seen.update((i, j))
        cuts[i] += 1
        cuts[j] -= 1
    if capacity is not None:
        open_pairs = 0
        for t, delta in enumerate(cuts):
            open_pairs += delta
            if open_pairs > capacity:
                raise ValueError(f"temporal cut {open_pairs} exceeds capacity {capacity} at position {t}")


def variance_sum_by_generator(samples, mean):
    """Sum of squared deviations, one compensated scalar term at a time."""
    return math.fsum((s - mean) ** 2 for s in samples)


@dataclass(frozen=True)
class StepByStepTrial:
    profit: float
    welfare: float
    leftover: int
    traded: list
    stock_after: list


def resolve_trial_by_steps(stream, policy, f_s, f_b, u, stock_cap=None):
    """Resolve one trial one step at a time from its uniforms, ``u[t]`` for
    step t, with no skipping.

    A seller with ordinal j trades iff u < F_S(q_j) and stock is below the
    tighter of the policy's stock limit and ``stock_cap``; a buyer trades iff
    u >= F_B(p) and stock is positive.  A value is ``quantile(u)``.  Sums
    run in step order.
    """
    return resolve_trials_by_steps(stream, policy, f_s, f_b, [u], stock_cap)[0]


def resolve_trials_by_steps(stream, policy, f_s, f_b, rows, stock_cap=None):
    """``resolve_trial_by_steps`` for each row of uniforms in ``rows``, with
    the acceptance quantiles F_S(q_j) and F_B(p) computed once for all rows."""
    caps = [c for c in (policy.stock_limit, stock_cap) if c is not None]
    cap = min(caps, default=math.inf)
    q = policy.seller_prices(stream.n_S).tolist()
    p = float(policy.p)
    sells_below = [f_s.cdf(x) for x in q]
    buys_from = f_b.cdf(p)
    roles = stream.roles.tolist()
    trials = []
    for u in rows:
        u = np.asarray(u, dtype=float)
        seller_values, buyer_values = f_s.quantile(u).tolist(), f_b.quantile(u).tolist()
        stock, j = 0, 0
        spend = income = welfare = 0.0
        traded, stock_after = [], []
        for t, (role, x) in enumerate(zip(roles, u.tolist())):
            if role == SELLER:
                trade = x < sells_below[j] and stock < cap
                if trade:
                    stock += 1
                    spend += q[j]
                else:
                    welfare += seller_values[t]
                j += 1
            else:
                trade = x >= buys_from and stock > 0
                if trade:
                    stock -= 1
                    income += p
                    welfare += buyer_values[t]
            traded.append(trade)
            stock_after.append(stock)
        trials.append(StepByStepTrial(income - spend, welfare, stock, traded, stock_after))
    return trials


def by_role_rank(stream, u_sellers, u_buyers):
    """The step-ordered row in which the j-th seller of ``stream`` reads
    ``u_sellers[j]`` and the j-th buyer ``u_buyers[j]``; each array must
    hold exactly one uniform per agent of its role."""
    if len(u_sellers) != stream.n_S or len(u_buyers) != stream.n_B:
        raise ValueError("need one uniform per seller and one per buyer")
    seller = stream.roles == SELLER
    row = np.empty(len(stream))
    row[seller] = u_sellers
    row[~seller] = u_buyers
    return row


def trial_rows(seed, trials, n):
    """Row i holds trial i's n uniforms: column i % 128 of lane block
    i // 128, read from the raw generator one whole block at a time."""
    root = RandomStream(seed)
    blocks = [root.substream(b).random((n, 128)).T for b in range(-(-trials // 128))]
    return np.concatenate(blocks)[:trials]


def adaptive_dp_by_stock_loop(stream, f_s, f_b, price_grid, cap):
    """Optimal adaptive profit on the quantile price grid, one Python loop
    per stock level; ``cap`` is the resolved stock cap (at least 1)."""
    grid_u = np.arange(price_grid) / price_grid
    q_prices = np.asarray(f_s.quantile(grid_u), dtype=float)
    buy_prob = grid_u
    p_prices = np.asarray(f_b.quantile(grid_u), dtype=float)
    sell_prob = 1.0 - grid_u

    value = np.zeros(cap + 1)
    for t in reversed(range(len(stream))):
        nxt = value
        value = nxt.copy()
        if int(stream.roles[t]) == SELLER:
            for k in range(cap):
                candidates = buy_prob * (nxt[k + 1] - q_prices - nxt[k]) + nxt[k]
                value[k] = max(nxt[k], float(candidates.max()))
            value[cap] = nxt[cap]
        else:
            value[0] = nxt[0]
            for k in range(1, cap + 1):
                candidates = sell_prob * (p_prices + nxt[k - 1] - nxt[k]) + nxt[k]
                value[k] = max(nxt[k], float(candidates.max()))
    return float(value[0])
