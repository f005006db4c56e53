"""Command-line interface.

Subcommands::

    brokersim simulate --stream "(SB)^100" --policy median \
        --seller-dist uniform:0,1 --buyer-dist uniform:0,1 \
        --trials 10000 --seed 7 [--stock-cap K] [--objective profit|welfare] \
        [--trace trace.csv]
    brokersim solve-fractional --alpha 2 --seller-dist uniform:0,1 --buyer-dist uniform:0,1
    brokersim experiment balanced --n-values 100,1000 --out ratios.csv
    brokersim verify mhr

Only ``simulate`` and ``experiment`` sample, and only they take ``--seed``; its
default comes from ``BROKERSIM_SEED`` (falling back to 42) and is parsed like
``--seed``.  ``--config FILE`` reads ``key = value`` lines (``#`` comments
allowed); each entry is parsed as the flag ``--key=value`` placed after the
command line, so it overrides that flag, may supply a required one, and goes
through the flag's own type and choices.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .distributions import parse_distribution
from .engine import _OBJECTIVES, RandomStream, monte_carlo, run_trial
from .errors import SpecParseError
from .experiments import DEFAULT_SWEEPS, SCENARIOS, ExperimentConfig, emit_csv, run_experiment
from .fractional import solve_fractional
from .policies import build_policy
from .streams import AgentStream, SELLER
from .verify import SUITES, certify_bounds, run_suite

__all__ = ["main", "parse_config"]

_ENV_SEED = "BROKERSIM_SEED"


def int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of integers, e.g. ``100,1000``."""
    return tuple(int(x) for x in text.split(","))


def parse_config(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` config file; '#' starts a comment.

    Values stay strings: ``main`` parses each entry as its ``--key`` flag.
    """
    values = {}
    # utf-8-sig drops a leading byte-order mark, as Windows editors write one
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise SpecParseError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if not key or not value:
                raise SpecParseError(f"{path}:{lineno}: empty key or value")
            values[key] = value
    return values


# namespace entries that are not --options: the subcommand, its handler,
# --config itself and the positionals
_NOT_OPTIONS = frozenset({"command", "run", "config", "scenario", "suite"})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="brokersim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, seeded=False):
        if seeded:
            # a string default goes through type=int, so a bad $BROKERSIM_SEED is a usage error
            p.add_argument("--seed", type=int, default=os.environ.get(_ENV_SEED, "42"), help=f"defaults to ${_ENV_SEED} or 42")
        p.add_argument("--config", default=None, help="key=value file overriding flags")
        p.set_defaults(run=run)

    sim = sub.add_parser("simulate", help="Monte Carlo estimate of one policy on one stream")
    sim.add_argument("--stream", required=True, help="pattern, e.g. '(S^2 B)^50'")
    sim.add_argument("--policy", required=True, help="median | fixed:q,p | quantile:c1,c2 | decay:eps | stock:K | balanced:alpha")
    sim.add_argument("--seller-dist", dest="seller_dist", required=True)
    sim.add_argument("--buyer-dist", dest="buyer_dist", required=True)
    sim.add_argument("--trials", type=int, default=10000)
    sim.add_argument("--stock-cap", dest="stock_cap", type=int, default=None)
    sim.add_argument("--objective", choices=_OBJECTIVES, default="profit")
    sim.add_argument("--trace", default=None, help="write a per-step CSV trace of trial 0")
    add_common(sim, _cmd_simulate, seeded=True)

    frac = sub.add_parser("solve-fractional", help="optimal two-price program for balanced traffic")
    frac.add_argument("--alpha", type=int, required=True)
    frac.add_argument("--seller-dist", dest="seller_dist", required=True)
    frac.add_argument("--buyer-dist", dest="buyer_dist", required=True)
    add_common(frac, _cmd_solve_fractional)

    exp = sub.add_parser("experiment", help="competitive-ratio sweep, CSV output")
    exp.add_argument("scenario", choices=SCENARIOS)
    # unset options take ExperimentConfig's defaults, and n_values the scenario's DEFAULT_SWEEPS
    exp.add_argument("--n-values", type=int_list, help="comma-separated sweep values")
    for field in dataclasses.fields(ExperimentConfig):
        if field.name not in ("scenario", "n_values", "seed"):  # seed comes from add_common
            exp.add_argument(f"--{field.name.replace('_', '-')}", type=type(field.default))
    exp.add_argument("--out", default="experiment.csv")
    add_common(exp, _cmd_experiment, seeded=True)

    ver = sub.add_parser("verify", help="run an invariant suite; nonzero exit on failure")
    ver.add_argument("suite", choices=SUITES)
    add_common(ver, _cmd_verify)

    return parser


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _cmd_simulate(args) -> int:
    f_s = parse_distribution(args.seller_dist)
    f_b = parse_distribution(args.buyer_dist)
    stream = AgentStream.from_pattern(args.stream)
    policy = build_policy(args.policy, f_s, f_b)
    try:
        est = monte_carlo(stream, policy, f_s, f_b, args.trials, args.seed, args.stock_cap, args.objective)
    except OverflowError:  # math.fsum of finite samples past float64
        est = None
    if est is None or not (math.isfinite(est.mean) and math.isfinite(est.std_err)):
        raise ValueError(f"the estimate of {args.policy} on {args.seller_dist}/{args.buyer_dist} is not finite")
    print(
        f"objective={args.objective} mean={_fmt(est.mean)} std_err={_fmt(est.std_err)} "
        f"ci95_low={_fmt(est.ci95_low)} ci95_high={_fmt(est.ci95_high)} "
        f"trials={est.trials} seed={args.seed}"
    )
    if args.trace:
        # trial 0 of the run above
        u = RandomStream(args.seed).trial_uniforms(0, len(stream))
        log = run_trial(stream, policy, f_s, f_b, u, stock_cap=args.stock_cap)
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,role,price,value,traded,stock\n")
            for t in range(len(log.roles)):
                role = "S" if log.roles[t] == SELLER else "B"
                fh.write(
                    f"{t},{role},{log.prices[t]:.17e},{log.values[t]:.17e},"
                    f"{int(log.traded[t])},{int(log.stock_after[t])}\n"
                )
        print(f"trace written to {args.trace}")
    return 0


def _cmd_solve_fractional(args) -> int:
    f_s = parse_distribution(args.seller_dist)
    f_b = parse_distribution(args.buyer_dist)
    sol = solve_fractional(f_s, f_b, args.alpha)
    checks = certify_bounds(sol, f_s, f_b, m=1)
    certs = " ".join(
        f"{c.name}={'PASS' if c.passed else 'FAIL'}(slack={_fmt(c.slack)})"
        for c in checks
    )
    print(
        f"alpha={args.alpha} p={_fmt(sol.p)} q={_fmt(sol.q)} "
        f"per_buyer_value={_fmt(sol.per_buyer_value)} "
        f"constraint_residual={_fmt(sol.constraint_residual)} "
        f"stationarity_residual={_fmt(sol.stationarity_residual)} {certs}"
    )
    return 0 if all(c.passed for c in checks) else 1


def _cmd_experiment(args) -> int:
    names = (f.name for f in dataclasses.fields(ExperimentConfig))
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    given.setdefault("n_values", DEFAULT_SWEEPS[args.scenario])
    cfg = ExperimentConfig(**given)
    rows = run_experiment(cfg)
    emit_csv(rows, args.out)
    for row in rows:
        print(
            f"n={row.n} online={_fmt(row.online_mean)} offline={_fmt(row.offline_bound)} "
            f"ratio={_fmt(row.ratio)} adjusted={_fmt(row.slack_adjusted_ratio)}"
        )
    print(f"csv written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    lines = run_suite(args.suite)
    failed = 0
    for line in lines:
        print(line.render())
        failed += 0 if line.passed else 1
    print(f"suite={args.suite} checks={len(lines)} failures={failed}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # --config is read before the full parse, so its entries may supply required options
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
        entries = parse_config(path) if path else {}
        # config entries parse as flags after the command line, so they override it
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in entries.items()]
        args, extra = parser.parse_known_args(argv + flags)
        for key in entries:
            # an exact dest only: argparse takes ``trial`` as ``--trials``
            if key in _NOT_OPTIONS or not hasattr(args, key):
                raise SpecParseError(f"config key {key!r} does not match any option of this subcommand")
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.run(args)
    except (SpecParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
