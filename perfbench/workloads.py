"""The benchmark's two fixed workloads.

Each workload has a body, which calls brokersim the way ``brokersim``
commands do, and a check, which compares every output with an analytic
reference from ``reference.py``.  Bodies call the library through the
``brokersim`` package attributes, so a tracer installed after import sees
every call.  Parameters are part of the workload's definition: change one
and the numbers stop being comparable with earlier runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    argv: tuple[str, ...] | None  # CLI equivalent; "{seed}" is filled in per run
    body: Callable  # (brokersim, seed, out_dir) -> outputs
    check: Callable  # outputs -> list[Check]


def _estimate(est) -> dict:
    return {
        "mean": est.mean,
        "std_err": est.std_err,
        "trials": est.trials,
        "ci95_low": est.ci95_low,
        "ci95_high": est.ci95_high,
    }


def check_mean(label: str, mean: float, se: float, expected: float) -> Check:
    """The mean lies within Z_TOL standard errors of its reference."""
    return Check(
        f"{label}.mean",
        se > 0.0 and abs(mean - expected) <= ref.Z_TOL * se,
        f"{mean:.6g} +- {se:.3g} vs reference {expected:.6g}",
    )


def check_estimate(label: str, est: dict, trials: int, expected: float) -> list[Check]:
    """Trial count, the CI's arithmetic, and the mean against its reference."""
    mean, se = est["mean"], est["std_err"]
    half = 1.96 * se
    ci_ok = abs(est["ci95_low"] - (mean - half)) <= 1e-12 * max(1.0, abs(mean)) and abs(
        est["ci95_high"] - (mean + half)
    ) <= 1e-12 * max(1.0, abs(mean))
    return [
        Check(f"{label}.trials", est["trials"] == trials, f"{est['trials']} of {trials}"),
        Check(f"{label}.ci", ci_ok, f"[{est['ci95_low']!r}, {est['ci95_high']!r}] around {mean!r}"),
        check_mean(label, mean, se, expected),
    ]


def _simulate(bs, p: dict, seed: int):
    """Library calls of ``brokersim simulate``."""
    f_s = bs.parse_distribution(p["seller_dist"])
    f_b = bs.parse_distribution(p["buyer_dist"])
    stream = bs.AgentStream.from_pattern(p["stream"])
    policy = bs.build_policy(p["policy"], f_s, f_b)
    est = bs.monte_carlo(stream, policy, f_s, f_b, p["trials"], seed, stock_cap=None, objective=p["objective"])
    return stream, policy, f_s, f_b, est


def _simulate_argv(p: dict, trace: bool = False) -> tuple[str, ...]:
    argv = (
        "brokersim", "simulate", "--stream", p["stream"], "--policy", p["policy"],
        "--seller-dist", p["seller_dist"], "--buyer-dist", p["buyer_dist"],
        "--trials", str(p["trials"]), "--objective", p["objective"], "--seed", "{seed}",
    )
    return argv + (("--trace", "trace.csv") if trace else ())


# --- sim-long --------------------------------------------------------------

_DECAY_EPS = 0.05
_LONG_SIDE = 4096

SIM_LONG = {
    "stream": f"S^{_LONG_SIDE} B^{_LONG_SIDE}",
    "policy": f"decay:{_DECAY_EPS}",
    "seller_dist": "uniform:0,1",
    "buyer_dist": "uniform:0,1",
    "trials": 16_384,
    "objective": "profit",
}


def _sim_long_body(bs, seed: int, out_dir: Path) -> dict:
    stream, policy, f_s, f_b, est = _simulate(bs, SIM_LONG, seed)
    log = bs.run_trial(stream, policy, f_s, f_b, bs.RandomStream(seed).substream(0))
    return {"estimate": _estimate(est), **trace_arrays(log)}


def trace_arrays(log) -> dict:
    """The columns of a ``run_trial`` log that ``check_trace`` replays."""
    return {
        "roles": np.asarray(log.roles),
        "prices": np.asarray(log.prices),
        "values": np.asarray(log.values),
        "traded": np.asarray(log.traded),
        "stock_after": np.asarray(log.stock_after),
    }


def check_trace(out: dict, n_sellers: int, eps: float) -> list[Check]:
    """Replay the trade rule on the trace of trial 0 (U(0,1) values, so value = draw)."""
    roles, prices, values = out["roles"], out["prices"], out["values"]
    traded, stock_after = out["traded"].astype(bool), out["stock_after"]
    seller = roles == 0
    q = ref.decay_seller_prices(n_sellers, eps)
    prices_ok = (
        np.count_nonzero(seller) == n_sellers
        and np.allclose(prices[seller], q, rtol=1e-12, atol=0.0)
        and np.all(prices[~seller] == 0.5)
    )
    stock_before = np.concatenate(([0], stock_after[:-1]))
    expect = np.where(seller, values < prices, (values >= prices) & (stock_before > 0))
    moves = np.diff(np.concatenate(([0], stock_after)))
    moves_ok = np.array_equal(moves, np.where(traded, np.where(seller, 1, -1), 0))
    return [
        Check("trace.prices", bool(prices_ok), "seller prices e^-1 i^-(1/2+eps), buyer price 1/2"),
        Check("trace.trades", bool(np.array_equal(traded, expect)), f"{int(traded.sum())} trades replayed"),
        Check("trace.stock", bool(moves_ok and stock_after.min() >= 0), f"final stock {int(stock_after[-1])}"),
    ]


def _sim_long_check(out: dict) -> list[Check]:
    expected = ref.decay_profit_uniform(_LONG_SIDE, _LONG_SIDE, _DECAY_EPS)
    return check_estimate("profit", out["estimate"], SIM_LONG["trials"], expected) + check_trace(
        out, _LONG_SIDE, _DECAY_EPS
    )


# --- balanced-random -------------------------------------------------------

BALANCED_RANDOM = {
    "alpha": 2,
    "m": 1500,
    "streams": 3,
    # The rejection sampler's work is geometric in its attempts, so the
    # generator seed is part of the workload; --seed drives the Monte Carlo.
    "generator_seed": 1703,
    "dist": "uniform:0,1",
    "policies": ("median", "balanced:2"),
    "trials": 2_000,
    "dp_m": 3,
    "dp_grid": 1024,
    "experiment": "balanced",
    "experiment_n": (100, 1000),
}


def mc_seed(seed: int, stream_index: int, side: int) -> int:
    return int(np.random.SeedSequence((seed, stream_index, side)).generate_state(1)[0])


def _balanced_body(bs, seed: int, out_dir: Path) -> dict:
    p = BALANCED_RANDOM
    f = bs.parse_distribution(p["dist"])
    median, balanced = (bs.build_policy(spec, f, f) for spec in p["policies"])
    rng = np.random.default_rng(p["generator_seed"])
    runs = []
    for k in range(p["streams"]):
        stream = bs.random_alpha_balanced(p["alpha"], p["m"], rng)
        welfare = bs.monte_carlo(stream, median, f, f, p["trials"], mc_seed(seed, k, 0), objective="welfare")
        profit = bs.monte_carlo(stream, balanced, f, f, p["trials"], mc_seed(seed, k, 1), objective="profit")
        runs.append({"roles": np.asarray(stream.roles), "welfare": _estimate(welfare), "profit": _estimate(profit)})
    dp = [
        bs.adaptive_dp_oracle(s, f, f, price_grid=p["dp_grid"])
        for s in bs.enumerate_alpha_balanced(p["alpha"], p["dp_m"])
    ]
    cfg = bs.ExperimentConfig(
        scenario=p["experiment"], n_values=p["experiment_n"], trials=p["trials"], seed=seed,
        seller_dist=p["dist"], buyer_dist=p["dist"], alpha=p["alpha"],
    )
    rows = bs.run_experiment(cfg)
    csv_path = out_dir / "balanced-random.csv"
    bs.emit_csv(rows, csv_path)
    return {
        "runs": runs,
        "dp": dp,
        "per_buyer_value": balanced.solution.per_buyer_value,
        "rows": [(r.n, r.online_mean, r.online_ci95_low, r.online_ci95_high, r.offline_bound, r.ratio) for r in rows],
        "csv_lines": len(csv_path.read_text(encoding="utf-8").splitlines()),
    }


def _balanced_check(out: dict) -> list[Check]:
    p = BALANCED_RANDOM
    alpha, m, trials = p["alpha"], p["m"], p["trials"]
    per_buyer = ref.fractional_value_uniform(alpha)
    mean_value = 0.5  # U(0,1) on both sides
    all_values = (alpha * m + m) * mean_value
    checks = [
        Check("fractional", abs(out["per_buyer_value"] - per_buyer) <= 1e-9,
              f"{out['per_buyer_value']!r} vs {per_buyer!r}"),
        Check("streams", len(out["runs"]) == p["streams"], f"{len(out['runs'])} streams"),
    ]
    for k, run in enumerate(out["runs"]):
        roles, w, pr = run["roles"], run["welfare"], run["profit"]
        checks += [
            Check(f"s{k}.balanced", roles.size == alpha * m + m and ref.is_alpha_balanced(roles, alpha),
                  f"{roles.size} roles"),
            Check(f"s{k}.trials", w["trials"] == trials and pr["trials"] == trials, "trial counts"),
            # criterion 6: the median policy is 4-competitive for welfare
            Check(f"s{k}.welfare_4_competitive",
                  4.0 * w["mean"] >= all_values - 3.0 * 4.0 * w["std_err"],
                  f"4 x {w['mean']:.6g} vs {all_values:.6g}"),
            Check(f"s{k}.profit_below_fractional",
                  pr["mean"] <= m * per_buyer + 3.0 * pr["std_err"],
                  f"{pr['mean']:.6g} vs {m * per_buyer:.6g}"),
        ]
    n_dp = (alpha + 1) * p["dp_m"]
    cap = p["dp_m"] * per_buyer + n_dp / p["dp_grid"]
    dp = out["dp"]
    # (1/(alpha*m+1)) * C((alpha+1)*m, m) balanced streams, by the cycle lemma: 12 for alpha=2, m=3
    checks.append(Check("dp.count", len(dp) == 12, f"{len(dp)} enumerated streams"))
    checks.append(Check("dp.below_fractional", all(0.0 <= v <= cap for v in dp), f"max {max(dp):.6g} vs {cap:.6g}"))
    # `experiment balanced`: online profit on (S^alpha B)^n against n times the fractional optimum
    rows = out["rows"]
    checks.append(Check("experiment.rows", [r[0] for r in rows] == list(p["experiment_n"]), f"{len(rows)} rows"))
    checks.append(Check("experiment.csv", out["csv_lines"] == len(rows) + 1, f"{out['csv_lines']} lines"))
    for n, mean, low, high, offline, ratio in rows:
        se = (high - low) / (2 * 1.96)  # rows carry the CI, not the standard error
        checks += [
            Check(f"experiment.n{n}.offline", abs(offline - n * per_buyer) <= 1e-9 * n, f"{offline!r} vs {n * per_buyer!r}"),
            Check(f"experiment.n{n}.below_fractional", mean <= offline + 3.0 * se, f"{mean:.6g} vs {offline:.6g}"),
            Check(f"experiment.n{n}.ratio", abs(ratio - offline / mean) <= 1e-12 * abs(ratio), f"ratio {ratio!r}"),
        ]
    return checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-long",
            "S^4096 B^4096, 16384 trials (two chunks) plus a scalar trace: the uniform fill and step kernel dominate",
            SIM_LONG,
            _simulate_argv(SIM_LONG, trace=True),
            _sim_long_body,
            _sim_long_check,
        ),
        Workload(
            "balanced-random",
            "alpha-balanced streams: the rejection generator, median welfare kernel, fractional solver, DP oracle, experiments",
            BALANCED_RANDOM,
            None,
            _balanced_body,
            _balanced_check,
        ),
    )
}


def _plain(out) -> object:
    if isinstance(out, dict):
        return {k: _plain(v) for k, v in out.items()}
    if isinstance(out, (list, tuple)):
        return [_plain(v) for v in out]
    if isinstance(out, np.ndarray):
        return _plain(out.tolist())
    if isinstance(out, float):
        return repr(out)
    return out


def fingerprint(out) -> str:
    """Digest of every output, for bit-for-bit comparison between reruns."""
    return hashlib.sha256(json.dumps(_plain(out), sort_keys=True).encode()).hexdigest()
