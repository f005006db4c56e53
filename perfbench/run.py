"""brokersim benchmark: two fixed Monte Carlo workloads, measured end to end
and, in a separate traced run, layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 55 --trace 0

The loop is closed: one caller, each iteration a fresh single-threaded
process (``worker.py``) started when the previous one has returned, until
``--seconds`` is used up (at least two iterations, so every run also checks
that a rerun with the same seed is bit-identical).  Every metric is a
median over the iterations.  The last line of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A full record of the run, with provenance and
every iteration, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_ITERATIONS = 2
WORKER_TIMEOUT_S = 170


def run_worker(root: Path, workload: str, seed: int, trace: bool, iteration: int) -> dict:
    env = {**os.environ, **THREAD_ENV}
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
            "--iteration", str(iteration), "--t0", repr(t0),
        ],
        cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = trace
    result["process_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    return result


def run_iterations(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Closed loop for ``seconds``; a traced run alternates untraced and traced iterations."""
    start = time.monotonic()
    results = []
    while True:
        traced = trace and len(results) % 2 == 1
        results.append(run_worker(root, workload, seed, traced, len(results)))
        elapsed = time.monotonic() - start
        if len(results) >= MIN_ITERATIONS and elapsed + results[-1]["process_s"] > seconds:
            return results


def determinism_checks(results: list[dict]) -> list[list]:
    first = results[0]["fingerprint"]
    return [
        [f"rerun.{r['run_id']}.bit_identical", r["fingerprint"] == first, r["fingerprint"][:16]]
        for r in results[1:]
    ]


def tally(results: list[dict]) -> tuple[list[list], list[list]]:
    """Every check of every iteration plus the rerun checks, and the failed ones."""
    checks = [c for r in results for c in r["checks"]] + determinism_checks(results)
    return checks, [c for c in checks if not c[1]]


def end_to_end(results: list[dict]) -> dict:
    """Medians over iterations, as {"name": {"value", "unit"}}."""

    def med(f):
        return statistics.median(f(r) for r in results)

    return {
        "wall_s": {"value": med(lambda r: r["wall_s"]), "unit": "s"},
        "mc_trial_steps_per_s": {"value": med(lambda r: r["mc_trial_steps"] / r["mc_s"]), "unit": "1/s"},
        "setup_s": {"value": med(lambda r: r["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": med(lambda r: r["peak_rss_mb"]), "unit": "MB"},
    }


#: Share metric name for each span name; a span's share is its self time
#: over the traced workload time.  monte_carlo's self time is the kernel.
SHARES = {
    "engine.substream": "engine.substream.share",
    "engine.monte_carlo": "engine.kernel.share",
    "engine.reduce": "engine.reduce.share",
    "engine.run_trial": "engine.run_trial.share",
    "distributions.quantile": "distributions.quantile.share",
    "distributions.cdf": "distributions.cdf.share",
    "distributions.check_regularity": "distributions.check_regularity.share",
    "fractional.solve": "fractional.solve.share",
    "policies.build": "policies.build.share",
    "streams.parse": "streams.parse.share",
    "streams.random_balanced": "streams.random_balanced.share",
    "benchmarks.adaptive_dp": "benchmarks.adaptive_dp.share",
    "experiments.run": "experiments.share",
}


def layer_metrics(result: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration, as {name: (value, unit)}.

    A layer that the workload never calls reads 0 on every one of its metrics
    (count, time, per-call time and share); see README.md for which those are.
    """
    layers = result["layers"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0}

    def get(name):
        return layers.get(name, empty)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    mc = get("engine.monte_carlo")
    sub, red, gen = get("engine.substream"), get("engine.reduce"), get("streams.random_balanced")
    frac, reg, dp = get("fractional.solve"), get("distributions.check_regularity"), get("benchmarks.adaptive_dp")
    q, c = get("distributions.quantile"), get("distributions.cdf")
    base = result["workload_s"]
    metrics = {
        "engine.substream.calls": (sub["calls"], "count"),
        "engine.substream.us_per_call": (per(sub["total_s"], sub["calls"], 1e6), "us"),
        "engine.kernel.ns_per_trial_step": (per(mc["self_s"], mc["work"], 1e9), "ns"),
        "engine.reduce.ns_per_sample": (per(red["total_s"], red["work"], 1e9), "ns"),
        "engine.run_trial.ms": (get("engine.run_trial")["total_s"] * 1e3, "ms"),
        "distributions.quantile.calls": (q["calls"], "count"),
        "distributions.cdf.calls": (c["calls"], "count"),
        "distributions.quantile.self_s": (q["self_s"], "s"),
        "distributions.cdf.self_s": (c["self_s"], "s"),
        "policies.build.ms": (get("policies.build")["total_s"] * 1e3, "ms"),
        "fractional.solve.calls": (frac["calls"], "count"),
        "fractional.solve.ms_per_call": (per(frac["total_s"], frac["calls"], 1e3), "ms"),
        "distributions.check_regularity.ms_per_call": (per(reg["total_s"], reg["calls"], 1e3), "ms"),
        "streams.parse.ms": (get("streams.parse")["total_s"] * 1e3, "ms"),
        "streams.random_balanced.calls": (gen["calls"], "count"),
        "streams.random_balanced.s_per_call": (per(gen["total_s"], gen["calls"], 1.0), "s"),
        "benchmarks.adaptive_dp.ms_per_call": (per(dp["total_s"], dp["calls"], 1e3), "ms"),
        "experiments.self_s": (get("experiments.run")["self_s"], "s"),
    }
    for span, metric in SHARES.items():
        metrics[metric] = (get(span)["self_s"] / base, "ratio")
    traced = sum(rec["self_s"] for rec in layers.values())
    metrics["untraced.share"] = (1.0 - traced / base, "ratio")
    return metrics


def per_layer(results: list[dict]) -> dict:
    traced = [layer_metrics(r) for r in results if r["traced"]]
    metrics = {
        name: {"value": statistics.median(m[name][0] for m in traced), "unit": unit}
        for name, (_, unit) in traced[0].items()
    }
    wall_traced = statistics.median(r["wall_s"] for r in results if r["traced"])
    wall_plain = statistics.median(r["wall_s"] for r in results if not r["traced"])
    metrics["trace.slowdown"] = {"value": wall_traced / wall_plain, "unit": "ratio"}
    return metrics


def _git_rev(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "brokersim").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(root: Path, args, versions: dict) -> dict:
    workload = WORKLOADS[args.workload]
    argv = None if workload.argv is None else [a.replace("{seed}", str(args.seed)) for a in workload.argv]
    return {
        "git_rev": _git_rev(root),
        "src_sha256": _src_digest(root),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "versions": versions,
        "thread_env": THREAD_ENV,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": {"name": workload.name, "why": workload.why, "params": workload.params, "cli_argv": argv},
        "load": "closed loop, one caller, each iteration a fresh process",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "brokersim" / "__init__.py").is_file():
        print(f"error: no brokersim sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    try:
        results = run_iterations(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks, failed = tally(results)
    for name, _, detail in failed:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    metrics = per_layer(results) if args.trace else end_to_end(results)
    record = {
        "provenance": provenance(root, args, results[0]["versions"]),
        "iterations": [{k: v for k, v in r.items() if k not in ("checks", "versions")} for r in results],
        "checks": checks,
        "metrics": metrics,
    }
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
