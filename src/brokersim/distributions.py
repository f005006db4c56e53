"""Parametric value distributions for agent valuations.

Three families are supported, each with closed-form cdf, pdf, quantile,
moments and maximum-order-statistic mean:

* ``Uniform(lo, hi)`` on ``[lo, hi]`` with ``0 <= lo < hi < inf``.
* ``Exponential(rate)`` on ``[0, inf)`` with ``0 < rate < inf``.
* ``Pareto(eps)`` on ``[1, inf)`` with cdf ``1 - x**(-1/(1-eps))`` for
  ``eps`` in ``(0, 1)``.  Its mean is ``1/eps``; the variance is infinite
  for ``eps <= 1/2`` and ``stats().std`` reports ``inf`` there.

Sampling is inverse-transform throughout: a draw is ``quantile(u)`` for a
uniform ``u`` on ``[0, 1)``, so results are reproducible given the uniform
stream and identical across array/scalar code paths.

``check_regularity`` verifies, on a quantile-spaced grid over the support
interior, the two regularity conditions used by the price mechanisms:

* monotone hazard rate (MHR): ``log(1 - F)`` concave, which implies the
  virtual value ``x - (1 - F(x))/f(x)`` nondecreasing;
* log-concave cdf: ``log F`` concave, which implies the virtual cost
  ``x + F(x)/f(x)`` nondecreasing.

Neither converse holds (on Pareto the hazard falls while the virtual value
rises), so ``check_regularity`` requires both.  ``require_regular``, the
mechanisms' guard, raises ``RegularityError`` unless F_S has a log-concave
cdf and F_B is MHR.

Grid checks are numeric by design; they evaluate strictly interior points
and use a second-difference tolerance of 1e-9 on consecutive secant slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegularityError, parse_spec, require_int

__all__ = [
    "Distribution",
    "Uniform",
    "Exponential",
    "Pareto",
    "DistributionStats",
    "RegularityReport",
    "check_regularity",
    "top_k_sum_bound",
    "parse_distribution",
    "harmonic",
]

_SLOPE_TOL = 1e-9
# the 1024 interior quantiles k/1025 at which regularity is checked
_REGULARITY_U = (np.arange(1024) + 1.0) / 1025.0


@dataclass(frozen=True)
class DistributionStats:
    """First moments: ``std`` may be ``inf`` for heavy-tailed kinds."""

    mean: float
    std: float


def _scalar_or_array(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


class Distribution:
    """Base class for the parametric value distributions."""

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        """Generalized inverse cdf; defined for ``u`` in ``[0, 1)``.  An array
        result is always a new array."""
        raise NotImplementedError

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """``quantile`` of an array already known to lie in ``[0, 1)``,
        without the domain check.  The result may share memory with ``u``
        (an identity step is skipped), so it must not be written into."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def stats(self) -> DistributionStats:
        raise NotImplementedError

    def max_order_stat_mean(self, m: int) -> float:
        """Expected maximum of ``m`` i.i.d. draws, by closed form."""
        raise NotImplementedError

    def upper_partial_mean(self, y: float) -> float:
        """``E[X * 1{X >= y}]``, the upper tail value integral."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        return self.stats().mean

    def _quantile(self, u):
        arr = np.asarray(u, dtype=float)
        # written as "not inside" so that NaN, which fails every comparison, is rejected
        if not np.all((arr >= 0.0) & (arr < 1.0)):
            raise ValueError(f"quantile argument must lie in [0, 1), got {u!r}")
        out = self.inverse_cdf(arr)
        return _scalar_or_array(out.copy() if out is arr else out, arr.ndim == 0)


@dataclass(frozen=True)
class Uniform(Distribution):
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi < math.inf):
            raise ValueError(f"uniform requires 0 <= lo < hi < inf, got lo={self.lo}, hi={self.hi}")

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.clip((arr - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return _scalar_or_array(out, arr.ndim == 0)

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        inside = (arr >= self.lo) & (arr <= self.hi)
        out = np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        return _scalar_or_array(out, arr.ndim == 0)

    def quantile(self, u):
        return self._quantile(u)

    def inverse_cdf(self, u):
        # u * 1.0 is u, and 0.0 + x is x unless x is -0.0, which no draw is: no bit changes
        width = self.hi - self.lo
        x = u if width == 1.0 else u * width
        return x if self.lo == 0.0 else self.lo + x

    def support(self):
        return (self.lo, self.hi)

    def stats(self):
        mid = 0.5 * (self.lo + self.hi)
        return DistributionStats(mid, (self.hi - self.lo) / math.sqrt(12.0))

    def max_order_stat_mean(self, m):
        m = require_int("m", m, 1)
        return self.lo + (self.hi - self.lo) * m / (m + 1.0)

    def upper_partial_mean(self, y):
        if y <= self.lo:
            return self.stats().mean
        if y >= self.hi:
            return 0.0
        return (self.hi * self.hi - y * y) / (2.0 * (self.hi - self.lo))

    def __str__(self):
        return f"uniform:{self.lo:g},{self.hi:g}"


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float

    def __post_init__(self):
        if not (0.0 < self.rate < math.inf):
            raise ValueError(f"exponential rate must be positive and finite, got {self.rate}")

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr > 0.0, -np.expm1(-self.rate * np.maximum(arr, 0.0)), 0.0)
        return _scalar_or_array(out, arr.ndim == 0)

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr >= 0.0, self.rate * np.exp(-self.rate * np.maximum(arr, 0.0)), 0.0)
        return _scalar_or_array(out, arr.ndim == 0)

    def quantile(self, u):
        return self._quantile(u)

    def inverse_cdf(self, u):
        # the same bits as -log1p(-u) / rate, one pass fewer: IEEE division is sign-symmetric
        return np.log1p(-u) / -self.rate

    def support(self):
        return (0.0, math.inf)

    def stats(self):
        return DistributionStats(1.0 / self.rate, 1.0 / self.rate)

    def max_order_stat_mean(self, m):
        m = require_int("m", m, 1)
        return harmonic(m) / self.rate

    def upper_partial_mean(self, y):
        if y <= 0.0:
            return 1.0 / self.rate
        return math.exp(-self.rate * y) * (y + 1.0 / self.rate)

    def __str__(self):
        return f"exp:{self.rate:g}"


@dataclass(frozen=True)
class Pareto(Distribution):
    """Pareto on [1, inf) with cdf ``1 - x**(-1/(1-eps))``.

    Heavy-tailed by construction: not MHR for any ``eps``, and the variance
    is infinite for ``eps <= 1/2``.  Used to exercise worst-case welfare
    behaviour; mechanisms that require MHR buyer values refuse it.
    """

    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"pareto eps must lie in (0, 1), got {self.eps}")

    @property
    def _shape(self) -> float:
        return 1.0 / (1.0 - self.eps)

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr >= 1.0, 1.0 - np.power(np.maximum(arr, 1.0), -self._shape), 0.0)
        return _scalar_or_array(out, arr.ndim == 0)

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        a = self._shape
        out = np.where(arr >= 1.0, a * np.power(np.maximum(arr, 1.0), -a - 1.0), 0.0)
        return _scalar_or_array(out, arr.ndim == 0)

    def quantile(self, u):
        return self._quantile(u)

    def inverse_cdf(self, u):
        return np.power(1.0 - u, -(1.0 - self.eps))

    def support(self):
        return (1.0, math.inf)

    def stats(self):
        mean = 1.0 / self.eps
        if self.eps <= 0.5:
            std = math.inf
        else:
            std = (1.0 - self.eps) / (self.eps * math.sqrt(2.0 * self.eps - 1.0))
        return DistributionStats(mean, std)

    def max_order_stat_mean(self, m):
        # E[max] = Gamma(m+1) Gamma(eps) / Gamma(m+eps), grows like m**(1-eps)
        from scipy.special import gammaln  # scipy loads on first use, not on import

        m = require_int("m", m, 1)
        return math.exp(gammaln(m + 1.0) + gammaln(self.eps) - gammaln(m + self.eps))

    def upper_partial_mean(self, y):
        if y <= 1.0:
            return 1.0 / self.eps
        return (1.0 / self.eps) * y ** (1.0 - self._shape)

    def __str__(self):
        return f"pareto-eps:{self.eps:g}"


def harmonic(n: int) -> float:
    """n-th harmonic number; exact summation, 0 for n = 0."""
    n = require_int("n", n, 0)
    return math.fsum(1.0 / i for i in range(1, n + 1))


def top_k_sum_bound(mean: float, std: float, m: int, k: int) -> float:
    """Upper bound ``k*mean + 2*sqrt(k*m)*std`` on E[sum of the top k of m draws]."""
    k = require_int("k", k, 1)
    m = require_int("m", m, k)
    if not math.isfinite(std) or std < 0.0:
        raise ValueError(f"bound requires a finite nonnegative std, got {std}")
    return k * mean + 2.0 * math.sqrt(k * m) * std


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the numeric regularity checks; ``failures`` names what broke."""

    mhr: bool
    log_concave_cdf: bool
    failures: tuple[str, ...] = ()


def _concave(values: np.ndarray, xs: np.ndarray) -> bool:
    slopes = np.diff(values) / np.diff(xs)
    tol = _SLOPE_TOL * np.maximum(1.0, np.maximum(np.abs(slopes[:-1]), np.abs(slopes[1:])))
    return bool(np.all(np.diff(slopes) <= tol))


def _nondecreasing(values: np.ndarray) -> bool:
    tol = _SLOPE_TOL * np.maximum(1.0, np.abs(values[:-1]))
    return bool(np.all(np.diff(values) >= -tol))


def check_regularity(d: Distribution) -> RegularityReport:
    """Grid-test MHR and cdf log-concavity on the support interior.

    The grid is quantile-spaced (the quantiles ``_REGULARITY_U``), so the same
    probability mass sits between consecutive abscissae for every kind.
    """
    u = _REGULARITY_U
    x = d.quantile(u)
    f = d.pdf(x)

    failures = []
    surv_concave = _concave(np.log1p(-u), x)
    if not surv_concave:
        failures.append("log-survival not concave")
    vv = x - (1.0 - u) / f
    if not _nondecreasing(vv):
        surv_concave = False
        failures.append("virtual value not increasing")

    cdf_concave = _concave(np.log(u), x)
    if not cdf_concave:
        failures.append("log-cdf not concave")
    vc = x + u / f
    if not _nondecreasing(vc):
        cdf_concave = False
        failures.append("virtual cost not increasing")

    return RegularityReport(mhr=surv_concave, log_concave_cdf=cdf_concave, failures=tuple(failures))


def require_regular(f_s: Distribution, f_b: Distribution, context: str) -> None:
    """Raise RegularityError naming the failed check unless F_S is
    log-concave-cdf and F_B is MHR."""
    rep_s = check_regularity(f_s)
    if not rep_s.log_concave_cdf:
        raise RegularityError(
            f"{context}: seller distribution {f_s} fails log-concavity ({', '.join(rep_s.failures)})"
        )
    rep_b = check_regularity(f_b)
    if not rep_b.mhr:
        raise RegularityError(
            f"{context}: buyer distribution {f_b} fails the MHR check ({', '.join(rep_b.failures)})"
        )


_KINDS = {
    "uniform": ((float, float), Uniform),
    "exp": ((float,), Exponential),
    "pareto-eps": ((float,), Pareto),
}


def parse_distribution(text: str) -> Distribution:
    """Parse a distribution spec: ``uniform:<lo>,<hi>`` | ``exp:<rate>`` | ``pareto-eps:<eps>``."""
    return parse_spec(text, "distribution", _KINDS)
