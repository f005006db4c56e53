"""brokersim: simulation and verification toolkit for online posted-price
intermediation markets.

An intermediary faces an adversarial stream of sellers and buyers, each
trading a single identical item, with values drawn i.i.d. per side from
known priors.  The package provides the value distributions, the stream
language, the posted-price policies, a deterministic Monte Carlo engine,
offline benchmarks and oracles, and scaling experiments that measure
competitive ratios.
"""

from .distributions import (
    Distribution,
    Exponential,
    Pareto,
    RegularityReport,
    Uniform,
    check_regularity,
    harmonic,
    parse_distribution,
    top_k_sum_bound,
)
from .errors import RegularityError, SpecParseError
from .streams import (
    BUYER,
    SELLER,
    AgentStream,
    StreamPattern,
    enumerate_alpha_balanced,
    expand,
    is_alpha_balanced,
    parse_pattern,
    random_alpha_balanced,
)
from .matching import brute_force_max_matching, fifo_match, max_matchable
from .policies import (
    BalancedPolicy,
    DecayingSellerPolicy,
    FixedPricePolicy,
    FixedQuantilePolicy,
    MedianPolicy,
    PricePolicy,
    StockLimitedPolicy,
    build_policy,
)
from .fractional import (
    FractionalSolution,
    solve_fractional,
    virtual_cost,
    virtual_value,
)
from .engine import (
    MCEstimate,
    RandomStream,
    TradeLog,
    expected_outcome,
    monte_carlo,
    run_trial,
)
from .benchmarks import (
    adaptive_dp_oracle,
    azuma_bound,
    profit_upper_bound_stocked,
    prophet_price,
    split_stream_profit,
    uniform_offline_policy,
    welfare_upper_bound,
)
from .experiments import ExperimentConfig, RatioRow, emit_csv, run_experiment
from .verify import certify_bounds, run_suite

__version__ = "0.1.0"
