"""One iteration of a workload in a fresh process; prints one JSON line.

Run from the root of a checkout by ``run.py``:

    python3 perfbench/worker.py --workload sim-long --seed 1 --trace 0 \
        --iteration 0 --t0 <CLOCK_MONOTONIC when the parent started us>

Set-up is timed from ``--t0`` to the first call of ``monte_carlo`` or
``random_alpha_balanced``; the body from there to the workload's return.
With ``--trace 1`` every layer boundary in ``tracing.SPAN_TARGETS`` records
spans, which are written to ``.perfbench_out/spans/`` at exit.
"""

import time

_MONO_AT_START = time.clock_gettime(time.CLOCK_MONOTONIC)
_PERF_AT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"
SETUP_ENDS_AT = ("engine.monte_carlo", "streams.random_balanced")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--iteration", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import brokersim
    import numpy
    import scipy

    src = (ROOT / "src" / "brokersim").resolve()
    if Path(brokersim.__file__).resolve().parent != src:
        print(f"brokersim imported from {brokersim.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS, fingerprint

    workload = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-i{args.iteration}"
    tracer = tracing.Tracer(run_id)
    tracer.install(tracing.SPAN_TARGETS if args.trace else tracing.PROBE_TARGETS)
    try:
        begin, cpu_begin = time.perf_counter(), time.process_time()
        outputs = workload.body(brokersim, args.seed, OUT_DIR)
        end, cpu_end = time.perf_counter(), time.process_time()
    finally:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup_end = tracer.first_start(SETUP_ENDS_AT)
    setup_s = (_MONO_AT_START - args.t0) + (setup_end - _PERF_AT_START)
    layers = tracer.layers()
    mc = layers["engine.monte_carlo"]
    result = {
        "run_id": run_id,
        "setup_s": setup_s,
        "wall_s": end - setup_end,
        "workload_s": end - begin,
        "workload_cpu_s": cpu_end - cpu_begin,
        "mc_s": mc["total_s"],
        "mc_trial_steps": mc["work"],
        "peak_rss_mb": peak_rss_mb,
        "checks": [[c.name, bool(c.ok), c.detail] for c in workload.check(outputs)],
        "fingerprint": fingerprint(outputs),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "brokersim": brokersim.__version__,
        },
    }
    if args.trace:
        result["layers"] = layers
        spans_dir = OUT_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-i{args.iteration}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
