"""Scaling experiments: online mechanism vs offline benchmark across a
sweep, emitted as ratio rows / CSV.

Scenarios (sweep variable in parentheses):

* ``welfare-log-n`` (n): median policy on S B^n vs the prophet threshold
  value mu_B^(n)/2; the ratio grows like the harmonic number H_n, and
  polynomially under heavy-tailed ``pareto-eps:<eps>`` priors on both sides.
* ``profit-sqrt-n`` (n, even): decaying-seller-price policy on
  S^(n/2) B^(n/2), one uniform prior on both sides, vs the exact expected
  profit of the fixed-price offline witness; the ratio grows like sqrt(n).
* ``stock-limited`` (n, even): stock-capped policy on (SB)^(n/2) vs the
  analytic kappa*H_n*mu_B profit bound, both ends capped at K.
* ``balanced`` (m): balanced policy on (S^alpha B)^m vs m times the
  fractional per-buyer optimum; the ratio tends to 1.

Each scenario reads its own config fields besides n, trials and seed, and
``ExperimentConfig`` refuses any other field set away from its default.
Every row records the raw ratio offline/online and a slack-adjusted ratio
(offline - mu_S)/online that removes the additive one-seller deficit an
online trader can always be forced to carry.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import benchmarks
from .distributions import Uniform, parse_distribution
from .engine import monte_carlo
from .errors import require_int
from .policies import (
    BalancedPolicy,
    DecayingSellerPolicy,
    MedianPolicy,
    StockLimitedPolicy,
)
from .streams import AgentStream

__all__ = ["SCENARIOS", "DEFAULT_SWEEPS", "ExperimentConfig", "RatioRow", "run_experiment", "emit_csv"]

#: Each scenario: the sweep the CLI runs when no n_values are given, and the
#: config fields it reads besides scenario, n_values, trials and seed.
_SCENARIO_TABLE = {
    "welfare-log-n": (tuple(2**k for k in range(4, 15)), ("seller_dist", "buyer_dist")),
    "profit-sqrt-n": (tuple(2**k for k in range(8, 17)), ("seller_dist", "buyer_dist", "decay_eps")),
    "stock-limited": (tuple(2**k for k in range(6, 13)), ("seller_dist", "buyer_dist", "stock_cap")),
    "balanced": ((100, 1000, 10000), ("seller_dist", "buyer_dist", "alpha")),
}
DEFAULT_SWEEPS = {name: sweep for name, (sweep, _) in _SCENARIO_TABLE.items()}
SCENARIOS = tuple(_SCENARIO_TABLE)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    n_values: tuple[int, ...]
    trials: int = 10000
    seed: int = 42
    seller_dist: str = "uniform:0,1"
    buyer_dist: str = "uniform:0,1"
    alpha: int = 1
    stock_cap: int = 2
    decay_eps: float = 0.05

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        read = ("scenario", "n_values", "trials", "seed", *_SCENARIO_TABLE[self.scenario][1])
        for f in fields(self):
            # an option the scenario ignores would leave its rows unchanged, so it is refused
            if f.name not in read and getattr(self, f.name) != f.default:
                raise ValueError(f"scenario {self.scenario} does not read {f.name}; leave it at {f.default!r}")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        for n in self.n_values:
            require_int("n_values entry", n, 1)
            if n % 2 and self.scenario in ("profit-sqrt-n", "stock-limited"):
                raise ValueError(f"scenario {self.scenario} needs even n, got {n}")
        if list(self.n_values) != sorted(self.n_values):
            raise ValueError(f"n_values must be sorted ascending, got {self.n_values}")
        require_int("trials", self.trials, 100)
        require_int("seed", self.seed, 0)
        require_int("alpha", self.alpha, 1)
        require_int("stock_cap", self.stock_cap, 1)


@dataclass(frozen=True)
class RatioRow:
    n: int
    online_mean: float
    online_ci95_low: float
    online_ci95_high: float
    offline_bound: float
    ratio: float
    slack_adjusted_ratio: float


def _row_seed(cfg: ExperimentConfig, n: int) -> int:
    # Stable per-(seed, n) derivation: a row keeps its seed when the sweep is
    # extended or truncated.  Dropping the trailing 0 would change every row.
    return int(np.random.SeedSequence((cfg.seed, n, 0)).generate_state(1)[0])


def _scenario_point(cfg, n, f_s, f_b):
    """One sweep point: (stream, policy, objective, offline benchmark value)."""
    if cfg.scenario == "welfare-log-n":
        return AgentStream.from_pattern(f"S B^{n}"), MedianPolicy(f_s, f_b), "welfare", benchmarks.prophet_price(f_b, n)

    if cfg.scenario == "profit-sqrt-n":
        if not (isinstance(f_s, Uniform) and f_b == f_s):
            raise ValueError(f"profit-sqrt-n needs one uniform prior on both sides, got seller {f_s}, buyer {f_b}")
        stream = AgentStream.from_pattern(f"S^{n // 2} B^{n // 2}")
        q, p, _ = benchmarks.uniform_offline_policy(f_s.lo, f_s.hi)
        offline = benchmarks.split_stream_profit(n // 2, q, p, f_s, f_b)
        return stream, DecayingSellerPolicy(cfg.decay_eps, f_s, f_b), "profit", offline

    if cfg.scenario == "stock-limited":
        stream = AgentStream.from_pattern(f"(SB)^{n // 2}")
        offline = benchmarks.profit_upper_bound_stocked(stream, cfg.stock_cap, f_b)
        return stream, StockLimitedPolicy(cfg.stock_cap, f_s, f_b), "profit", offline

    if cfg.scenario == "balanced":
        policy = BalancedPolicy(cfg.alpha, f_s, f_b)
        return AgentStream.from_pattern(f"(S^{cfg.alpha} B)^{n}"), policy, "profit", n * policy.solution.per_buyer_value

    raise AssertionError(f"unhandled scenario {cfg.scenario}")


def run_experiment(cfg: ExperimentConfig) -> list[RatioRow]:
    """One RatioRow per sweep value, each from one Monte Carlo run; deterministic."""
    f_s = parse_distribution(cfg.seller_dist)
    f_b = parse_distribution(cfg.buyer_dist)
    rows = []
    for n in cfg.n_values:
        stream, policy, objective, offline = _scenario_point(cfg, n, f_s, f_b)
        online = monte_carlo(stream, policy, f_s, f_b, cfg.trials, _row_seed(cfg, n), objective=objective)
        if online.mean > 0.0:
            ratio = offline / online.mean
            adjusted = (offline - f_s.mean) / online.mean
        else:
            ratio = math.inf
            adjusted = math.inf
        rows.append(
            RatioRow(
                n=n,
                online_mean=online.mean,
                online_ci95_low=online.ci95_low,
                online_ci95_high=online.ci95_high,
                offline_bound=offline,
                ratio=ratio,
                slack_adjusted_ratio=adjusted,
            )
        )
    return rows


def emit_csv(rows: list[RatioRow], path) -> None:
    """Write rows in full-precision scientific notation, UTF-8, LF endings."""
    lines = [",".join(f.name for f in fields(RatioRow))]
    for r in rows:
        n, *values = astuple(r)
        lines.append(",".join([str(n)] + [f"{v:.17e}" for v in values]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
