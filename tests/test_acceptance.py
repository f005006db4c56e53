"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 2-5 are the ``verify`` suites of the same invariants, run as
``brokersim verify`` runs them, so each invariant is checked in one place.
The sweep-style criteria run at full scale inside module-scoped fixtures so
the determinism criterion can replay subsets of them bit for bit without
doubling the total runtime.
"""

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
    emit_csv,
    expected_outcome,
    harmonic,
    monte_carlo,
    random_alpha_balanced,
    run_experiment,
    run_suite,
    solve_fractional,
    uniform_offline_policy,
)
from oracles import fractional_grid_search, loglog_slope

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


def report_suite(capsys, num, name, suite, time_limit=math.inf):
    """The criterion is ``brokersim verify <suite>``: at least one check, no FAIL line."""
    start = time.perf_counter()
    lines = run_suite(suite)
    elapsed = time.perf_counter() - start
    failed = [c.render() for c in lines if not c.passed]
    detail = f"verify {suite}: {len(lines)} checks, {len(failed)} failed, {elapsed:.1f}s"
    report(capsys, num, name, bool(lines) and not failed and elapsed < time_limit, "; ".join([detail, *failed]))


def test_criterion_02_fifo_maximality_exhaustive(capsys):
    report_suite(capsys, 2, "FIFO matching maximality", "matching", time_limit=300.0)


def test_criterion_03_mhr_and_log_concave_suite(capsys):
    report_suite(capsys, 3, "MHR / log-concave property suite", "mhr")


def test_criterion_04_adaptive_below_fractional(capsys):
    report_suite(capsys, 4, "adaptive <= fractional", "adaptive")


def test_criterion_05_azuma_inventory_bound(capsys):
    report_suite(capsys, 5, "inventory concentration bound", "azuma", time_limit=120.0)


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
