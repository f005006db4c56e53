"""Optimal fractional two-price program for block streams S^(alpha*m) B^m.

A fractional mechanism posting seller price q buys exactly F_S(q) units per
seller and posting buyer price p sells exactly 1 - F_B(p) units per buyer.
On S^(alpha*m) B^m the optimum uses a single price pair maximizing

    m * ( p*(1 - F_B(p)) - alpha * q * F_S(q) )
    subject to  1 - F_B(p) = alpha * F_S(q),

i.e. supply bought equals demand served.  Eliminating the constraint via
p(q) = F_B^-1(1 - alpha*F_S(q)) reduces this to a 1-D maximization in q,
solved by a coarse quantile grid followed by golden-section refinement.
At an interior optimum the Lagrange condition equates the buyer virtual
value and the seller virtual cost; the gap is reported as
``stationarity_residual``.

This module holds only the program (solver, virtual value and cost); its
regularity guard is ``distributions.require_regular`` and its certificates
are ``verify.certify_bounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, require_regular
from .errors import require_int

__all__ = [
    "FractionalSolution",
    "virtual_value",
    "virtual_cost",
    "solve_fractional",
]

_COARSE_GRID = 1024
_Q_TOL = 1e-10
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal (p, q) with the per-buyer objective value and residuals.

    ``constraint_residual`` is (1 - F_B(p)) - alpha*F_S(q).  For a no-trade
    solution (no profitable price pair) ``per_buyer_value`` is 0 and
    ``stationarity_residual`` is NaN.
    """

    p: float
    q: float
    per_buyer_value: float
    constraint_residual: float
    stationarity_residual: float


def virtual_value(f_b: Distribution, x: float) -> float:
    """Myerson virtual value ``x - (1 - F(x)) / f(x)``; needs positive density."""
    density = float(f_b.pdf(x))
    if density <= 0.0:
        raise ValueError(f"zero density at x={x}; virtual value undefined")
    return x - (1.0 - float(f_b.cdf(x))) / density


def virtual_cost(f_s: Distribution, x: float) -> float:
    """Myerson virtual cost ``x + F(x) / f(x)``; needs positive density."""
    density = float(f_s.pdf(x))
    if density <= 0.0:
        raise ValueError(f"zero density at x={x}; virtual cost undefined")
    return x + float(f_s.cdf(x)) / density


def _golden_max(fn, lo: float, hi: float) -> tuple[float, float]:
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while (b - a) > _Q_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
    x = 0.5 * (a + b)
    return x, fn(x)


def solve_fractional(f_s: Distribution, f_b: Distribution, alpha: int) -> FractionalSolution:
    """Solve the balanced two-price program for the given seller/buyer priors.

    Both distributions must pass their regularity checks.  If no price pair
    yields positive value the no-trade solution (value 0) is returned.
    """
    alpha = require_int("alpha", alpha, 1)
    require_regular(f_s, f_b, "solve_fractional")

    def value(u, q):
        """Objective at seller quantile ``u = F_S(q)`` and seller price ``q``."""
        return alpha * u * (f_b.quantile(1.0 - alpha * u) - q)

    # Coarse scan on seller quantiles, then golden-section inside the
    # bracketing cell; uniqueness of the interior stationary point under
    # regularity makes this safe.  Golden section stays between grid points,
    # so every u lies near [0.5, 1025.5] / 1026 / alpha and 1 - alpha*u is in (0, 1).
    grid_u = (1.0 / alpha) * (np.arange(_COARSE_GRID + 2) + 0.5) / (_COARSE_GRID + 2)
    grid_q = np.asarray(f_s.quantile(grid_u), dtype=float)
    grid_h = value(grid_u, grid_q)
    g = int(np.argmax(grid_h))
    lo = grid_q[max(g - 1, 0)]
    hi = grid_q[min(g + 1, grid_q.size - 1)]
    q_star, h_star = _golden_max(lambda q: value(float(f_s.cdf(q)), q), lo, hi)
    if grid_h[g] > h_star:
        q_star, h_star = float(grid_q[g]), float(grid_h[g])

    if h_star <= 0.0:
        return FractionalSolution(
            p=f_b.support()[1],
            q=f_s.support()[0],
            per_buyer_value=0.0,
            constraint_residual=0.0,
            stationarity_residual=math.nan,
        )

    u = float(f_s.cdf(q_star))
    p_star = float(f_b.quantile(1.0 - alpha * u))
    constraint_residual = (1.0 - float(f_b.cdf(p_star))) - alpha * u
    try:
        stationarity = virtual_value(f_b, p_star) - virtual_cost(f_s, q_star)
    except ValueError:
        stationarity = math.nan
    return FractionalSolution(
        p=p_star,
        q=q_star,
        per_buyer_value=h_star,
        constraint_residual=constraint_residual,
        stationarity_residual=stationarity,
    )
