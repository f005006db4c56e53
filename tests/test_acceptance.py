"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The sweep-style criteria run at full scale inside module-scoped fixtures so
the determinism criterion can replay subsets of them bit for bit without
doubling the total runtime.
"""

import itertools
import math
import time

import numpy as np
import pytest

from brokersim import (
    AgentStream,
    BalancedPolicy,
    DecayingSellerPolicy,
    Exponential,
    ExperimentConfig,
    FixedPricePolicy,
    MedianPolicy,
    Uniform,
    adaptive_dp_oracle,
    azuma_bound,
    brute_force_max_matching,
    check_regularity,
    emit_csv,
    enumerate_alpha_balanced,
    expected_outcome,
    fifo_match,
    harmonic,
    loglog_slope,
    monte_carlo,
    random_alpha_balanced,
    run_experiment,
    solve_fractional,
    uniform_offline_policy,
)
from oracles import fractional_grid_search

U01 = Uniform(0.0, 1.0)
EXP1 = Exponential(1.0)
# criterion 8's heavy tail: welfare-log-n on Pareto priors on both sides
PARETO_EPS = 0.5


def report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def profit_sqrt_setup():
    cfg = ExperimentConfig(
        scenario="profit-sqrt-n",
        n_values=tuple(2**k for k in range(8, 17)),
        trials=10_000,
        seed=1007,
    )
    start = time.perf_counter()
    rows = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return cfg, rows, elapsed


@pytest.fixture(scope="module")
def welfare_log_setup():
    cfg = ExperimentConfig(
        scenario="welfare-log-n",
        n_values=tuple(2**k for k in range(4, 15)),
        trials=10_000,
        seed=2011,
        seller_dist="exp:1",
        buyer_dist="exp:1",
    )
    pareto_cfg = ExperimentConfig(
        scenario="welfare-log-n",
        n_values=tuple(2**k for k in range(4, 15)),
        trials=10_000,
        seed=2017,
        seller_dist=f"pareto-eps:{PARETO_EPS}",
        buyer_dist=f"pareto-eps:{PARETO_EPS}",
    )
    return cfg, run_experiment(cfg), pareto_cfg, run_experiment(pareto_cfg)


@pytest.fixture(scope="module")
def balanced_setup():
    cfg = ExperimentConfig(
        scenario="balanced",
        n_values=(100, 1_000, 10_000),
        trials=10_000,
        seed=3001,
        alpha=1,
    )
    return cfg, run_experiment(cfg)


def test_criterion_01_fractional_solver_exactness(capsys):
    start = time.perf_counter()
    sol1 = solve_fractional(U01, U01, 1)
    sol2 = solve_fractional(U01, U01, 2)
    elapsed = time.perf_counter() - start
    exact = (
        abs(sol1.p - 0.75) < 1e-6
        and abs(sol1.q - 0.25) < 1e-6
        and abs(sol1.per_buyer_value - 0.125) < 1e-6
        and abs(sol2.p - 2 / 3) < 1e-6
        and abs(sol2.q - 1 / 6) < 1e-6
        and abs(sol2.per_buyer_value - 1 / 6) < 1e-6
    )
    oracle_ok = all(
        abs(solve_fractional(U01, U01, a).per_buyer_value - fractional_grid_search(U01, U01, a)[2]) < 1e-6
        for a in (1, 2)
    )
    report(
        capsys, 1, "fractional solver exactness", exact and oracle_ok and elapsed < 1.0,
        f"p/q/value max err < 1e-6, oracle agreement, {elapsed:.3f}s",
    )


def test_criterion_02_fifo_maximality_exhaustive(capsys):
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for length in range(1, 13):
        for bits in itertools.product((0, 1), repeat=length):
            stream = AgentStream(np.array(bits, dtype=np.uint8))
            for cap in (1, 2, 3, None):
                checked += 1
                if len(fifo_match(stream, cap)) != brute_force_max_matching(stream, cap):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        capsys, 2, "FIFO matching maximality", mismatches == 0 and elapsed < 300.0,
        f"{checked} stream/capacity pairs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_03_mhr_and_log_concave_suite(capsys):
    family = [Exponential(0.5), Exponential(1.0), Exponential(2.0), Uniform(0, 1), Uniform(0, 2)]
    grid = (np.arange(1024) + 1.0) / 1025.0
    ok = True
    details = []
    for d in family:
        mu = d.mean
        x = np.asarray(d.quantile(grid))
        below, above = x <= mu, x > 2 * mu
        ok &= bool(np.all(1.0 - grid[below] >= 1 / math.e - 1e-12))
        ok &= bool(np.all(1.0 - grid[above] < 1 / math.e))
        ok &= all(d.max_order_stat_mean(m) <= harmonic(m) * mu + 1e-9 for m in range(1, 65))
        stats = d.stats()
        ok &= stats.std <= stats.mean + 1e-12
        ok &= bool(np.all(x[below] <= math.e * mu * grid[below] + 1e-9))
        rep = check_regularity(d)
        ok &= rep.mhr and rep.log_concave_cdf
    worst = max(abs(EXP1.max_order_stat_mean(m) - harmonic(m)) for m in range(1, 65))
    ok &= worst < 1e-6
    details.append(f"max |E[Y^(m)] - H_m| = {worst:.2e}")
    report(capsys, 3, "MHR / log-concave property suite", ok, "; ".join(details))


def test_criterion_04_adaptive_below_fractional(capsys):
    grid = 1024
    worst_slack = math.inf
    count = 0
    for alpha, max_m in ((1, 6), (2, 4)):
        per_buyer = solve_fractional(U01, U01, alpha).per_buyer_value
        for m in range(1, max_m + 1):
            cap = m * per_buyer
            for stream in enumerate_alpha_balanced(alpha, m):
                dp = adaptive_dp_oracle(stream, U01, U01, price_grid=grid)
                worst_slack = min(worst_slack, cap + len(stream) / grid - dp)
                count += 1
    sb = adaptive_dp_oracle(AgentStream.from_pattern("SB"), U01, U01, price_grid=grid)
    sb_ok = abs(sb - 1 / 64) <= 2 / grid
    report(
        capsys, 4, "adaptive <= fractional", worst_slack >= 0.0 and sb_ok and count == 267,
        f"{count} balanced streams, worst slack {worst_slack:.3e}, SB value {sb:.6f}",
    )


def test_criterion_05_azuma_inventory_bound(capsys):
    start = time.perf_counter()
    ok = True
    details = []
    for alpha in (1, 2):
        policy = BalancedPolicy(alpha, U01, U01)
        for m in (10, 100, 1000):
            leftover = expected_outcome(AgentStream.from_pattern(f"(S^{alpha} B)^{m}"), policy, U01, U01)[2]
            bound = azuma_bound(m, alpha)
            ok &= leftover <= bound
            details.append(f"m={m},a={alpha}: {leftover:.2f}<={bound:.2f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    report(capsys, 5, "inventory concentration bound", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_06_welfare_four_competitive(capsys):
    rng = np.random.default_rng(606)
    ok = True
    worst = math.inf
    for f_s, f_b in ((U01, U01), (EXP1, EXP1)):
        policy = MedianPolicy(f_s, f_b)
        bound_per = (500 * f_s.mean, 500 * f_b.mean)
        for _ in range(20):
            stream = random_alpha_balanced(1, 500, rng)
            est = monte_carlo(stream, policy, f_s, f_b, 1_500, seed=int(rng.integers(2**31)), objective="welfare")
            bound = bound_per[0] + bound_per[1]
            margin = 4 * est.mean - (bound - 3 * (4 * est.std_err))
            worst = min(worst, margin)
            ok &= margin >= 0.0
    report(capsys, 6, "median policy 4-competitive on balanced streams", ok, f"worst margin {worst:.1f}")


def test_criterion_07_profit_sqrt_scaling(capsys, profit_sqrt_setup):
    _, rows, elapsed = profit_sqrt_setup
    q, p, floor = uniform_offline_policy(0.0, 1.0)
    floor_ok = all(r.offline_bound / r.n >= floor for r in rows)

    def chain_profit(n):
        stream = AgentStream.from_pattern(f"S^{n // 2} B^{n // 2}")
        return expected_outcome(stream, FixedPricePolicy(q, p), U01, U01)[0]

    sides_match = all(r.offline_bound == pytest.approx(chain_profit(r.n), rel=1e-12) for r in rows if r.n <= 2048)
    slope = loglog_slope([r.n for r in rows], [r.ratio for r in rows])
    ok = floor_ok and sides_match and 0.4 <= slope <= 0.6 and elapsed < 600.0
    report(
        capsys, 7, "profit sqrt(n) scaling", ok,
        f"offline/n >= 1/128 at every n, log-log slope {slope:.3f}, {elapsed:.1f}s",
    )


def test_criterion_08_welfare_log_scaling(capsys, welfare_log_setup):
    cfg, rows, _, pareto_rows = welfare_log_setup
    ratios = [r.ratio / harmonic(r.n) for r in rows]
    band_ok = all(0.2 <= v <= 2.0 for v in ratios)
    slope = loglog_slope([r.n for r in pareto_rows], [r.ratio for r in pareto_rows])
    slope_ok = slope >= 1.0 - PARETO_EPS - 0.1
    report(
        capsys, 8, "welfare log(n) scaling", band_ok and slope_ok,
        f"ratio/H_n in [{min(ratios):.3f}, {max(ratios):.3f}], pareto slope {slope:.3f}",
    )


def test_criterion_09_balanced_near_optimality(capsys, balanced_setup):
    cfg, rows = balanced_setup
    ratios = [r.ratio for r in rows]
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = decreasing and ratios[-1] <= 1.1
    report(
        capsys, 9, "balanced policy near-optimality",
        ok, "ratios " + " > ".join(f"{v:.4f}" for v in ratios),
    )


def test_criterion_10_determinism(capsys, tmp_path, profit_sqrt_setup, welfare_log_setup, balanced_setup):
    checks = []

    sol_a = solve_fractional(U01, U01, 2)
    sol_b = solve_fractional(U01, U01, 2)
    checks.append(("solver", sol_a == sol_b))

    s = AgentStream.from_pattern("(S^2 B)^40")
    pol = DecayingSellerPolicy(0.05, U01, U01)
    mc_a = monte_carlo(s, pol, U01, U01, 4_000, 1234)
    mc_b = monte_carlo(s, pol, U01, U01, 4_000, 1234)
    checks.append(("monte-carlo", mc_a == mc_b))

    s = AgentStream.from_pattern("(S^2 B)^50")
    pol = BalancedPolicy(2, U01, U01)
    checks.append(("inventory", expected_outcome(s, pol, U01, U01) == expected_outcome(s, pol, U01, U01)))

    # replaying a subset of each sweep reproduces the original rows bit for bit
    for name, (cfg, rows) in (
        ("profit-sqrt-n", (profit_sqrt_setup[0], profit_sqrt_setup[1])),
        ("welfare-log-n", (welfare_log_setup[0], welfare_log_setup[1])),
        ("welfare-log-n pareto", (welfare_log_setup[2], welfare_log_setup[3])),
        ("balanced", (balanced_setup[0], balanced_setup[1])),
    ):
        subset_cfg = ExperimentConfig(
            scenario=cfg.scenario,
            n_values=cfg.n_values[:2],
            trials=cfg.trials,
            seed=cfg.seed,
            seller_dist=cfg.seller_dist,
            buyer_dist=cfg.buyer_dist,
            alpha=cfg.alpha,
            stock_cap=cfg.stock_cap,
            decay_eps=cfg.decay_eps,
        )
        checks.append((name, run_experiment(subset_cfg) == list(rows[:2])))

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(balanced_setup[1], a)
    emit_csv(balanced_setup[1], b)
    checks.append(("csv-bytes", a.read_bytes() == b.read_bytes()))

    failed = [name for name, ok in checks if not ok]
    report(capsys, 10, "bit-for-bit determinism", not failed, f"{len(checks)} replays" + (f"; failed: {failed}" if failed else ""))
