"""Spans around brokersim's public functions, recorded from outside the package.

A ``Tracer`` replaces each target function (and every module-level alias of
it inside ``brokersim``) with a wrapper that records a span: name, start,
end and the span that was open when it was called.  Spans stay in memory
until ``write`` is called at exit; ``uninstall`` puts the originals back.
A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``attr`` is ``func`` or ``Class.method`` in ``brokersim.<module>``.

    ``work`` maps the call's bound arguments to a number of work units
    recorded with the span (trial-steps for ``monte_carlo``).
    """

    name: str
    module: str
    attr: str
    work: Callable[[inspect.BoundArguments], float] | None = None


def _trial_steps(bound: inspect.BoundArguments) -> float:
    return float(bound.arguments["trials"]) * len(bound.arguments["stream"])


_MC = Target("engine.monte_carlo", "engine", "monte_carlo", work=_trial_steps)
_GENERATOR = Target("streams.random_balanced", "streams", "random_alpha_balanced")

#: Untraced runs wrap only these: they mark the end of set-up (the first call
#: of either) and time the Monte Carlo calls.
PROBE_TARGETS = (_MC, _GENERATOR)

#: Traced runs wrap every layer boundary the per-layer metrics need.
SPAN_TARGETS = (
    _MC,
    _GENERATOR,
    Target("streams.parse", "streams", "parse_pattern"),
    Target("streams.parse", "streams", "expand"),
    Target("distributions.parse", "distributions", "parse_distribution"),
    *(
        Target(f"distributions.{method}", "distributions", f"{cls}.{method}")
        for method in ("quantile", "cdf")
        for cls in ("Uniform", "Exponential", "Pareto")
    ),
    Target("distributions.check_regularity", "distributions", "check_regularity"),
    Target("fractional.solve", "fractional", "solve_fractional"),
    *(
        Target("policies.build", "policies", f"{cls}.__init__")
        for cls in (
            "FixedPricePolicy",
            "MedianPolicy",
            "FixedQuantilePolicy",
            "DecayingSellerPolicy",
            "StockLimitedPolicy",
            "BalancedPolicy",
        )
    ),
    Target("engine.run_trial", "engine", "run_trial"),
    Target("engine.substream", "engine", "RandomStream.substream"),
    Target("engine.reduce", "engine", "MCEstimate.from_samples", work=lambda b: float(b.arguments["samples"].size)),
    Target("benchmarks.adaptive_dp", "benchmarks", "adaptive_dp_oracle"),
    Target("benchmarks.prophet_price", "benchmarks", "prophet_price"),
    Target("experiments.run", "experiments", "run_experiment"),
    Target("experiments.emit_csv", "experiments", "emit_csv"),
)


class Tracer:
    """In-memory span recorder for one worker process (one run id)."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: dict[int, float] = {}
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        signature = inspect.signature(fn) if target.work else None
        clock = self.clock

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(target.name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(math.nan)
            if signature is not None:
                self.work[idx] = target.work(signature.bind(*args, **kwargs))
            self._open.append(idx)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._open.pop()

        return spanned

    def install(self, targets) -> None:
        for target in targets:
            module = importlib.import_module(f"brokersim.{target.module}")
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(target, raw.__func__))
                else:
                    new = self.wrap(target, raw)
                self._patch(owner, method, new)
                continue
            original = getattr(module, target.attr)
            new = self.wrap(target, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "brokersim" or mod_name.startswith("brokersim."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, new)

    def _patch(self, owner, key: str, new) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def first_start(self, names) -> float | None:
        starts = [s for n, s in zip(self.names, self.starts) if n in names]
        return min(starts) if starts else None

    def arrays(self):
        return (
            np.asarray(self.starts, dtype=float),
            np.asarray(self.ends, dtype=float),
            np.asarray(self.parents, dtype=np.int64),
        )

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds, work units."""
        starts, ends, parents = self.arrays()
        own = self_times(starts, ends, parents)
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
            rec["calls"] += 1
            rec["total_s"] += ends[i] - starts[i]
            rec["self_s"] += own[i]
            rec["work"] += self.work.get(i, 0.0)
        return out

    def write(self, path) -> None:
        """Dump every span (name, start, end, parent, run id) as one .npz file."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        starts, ends, parents = self.arrays()
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(names),
            name=np.array([index[n] for n in self.names], dtype=np.int16),
            start=starts,
            end=ends,
            parent=parents,
        )


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself.  ``parents[i]`` is -1 for a root span."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    covered = np.zeros(starts.size)
    current, reach = -1, -math.inf
    for i in np.lexsort((starts, parents)).tolist():
        p = int(parents[i])
        if p < 0:
            continue
        if p != current:
            current, reach = p, starts[p]
        lo = max(starts[i], reach)
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return ends - starts - covered
