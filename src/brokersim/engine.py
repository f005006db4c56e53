"""Execution engine: run policies against streams, trace single trials,
aggregate Monte Carlo estimates of profit and welfare, or their exact means.

Trade semantics per step t (stock starts at 0):

* seller: trades iff the policy posted q, the drawn value is at most q, and
  stock is below the cap; stock then grows by one and q is paid out.
* buyer: always sees the posted p; trades iff the drawn value is at least p
  and stock is positive; stock then shrinks by one and p is collected.

Profit is income minus spend, priced from per-trial counts once a run ends
(items sold; items bought, unless seller prices vary).  Welfare sums the
values of sellers who kept their item and of buyers who obtained one.

Draws are inverse-transform: step t consumes one uniform u and the value is
``quantile(u)``.  Accept/reject comparisons are made in quantile space
(seller trades iff u < F_S(q), buyer iff u >= F_B(p)), which is the same
event as the value-space rule up to ties of measure zero.

Prices are fixed before any value is drawn: ``_price_schedule`` builds the
schedule (seller, price, thresh, cap) once per call for its three readers,
``_mc_samples`` and ``run_trial`` (width 1, traced by its trade flags), which
pass it to the one kernel ``_resolve``, and ``expected_outcome``'s stock chain.

Determinism: every draw follows the lane-block layout of ``RandomStream``,
the one place it is written, so trial i of a run replays exactly as
``RandomStream(seed).trial_uniforms(i, n)``.  A chunk is made of whole blocks
and the trial count rounds up to whole blocks (extra lanes are discarded), so
every sample is independent of the chunk size, the slab size and the number
of trials.  Estimates reduce in trial-index order with compensated
summation, so results are identical across reruns.  One slab of at most
``_STEP_SLAB`` x ``_TRIAL_CHUNK`` float64 uniforms (32 x 8192, 2 MiB, kept in
cache from the fill to the step loop) serves a whole run, whatever its size.
Per slab, one compare writes the accept flags step-major, stock moves in int8
counts, a run of uncapped sellers is one count, and varying seller spend is
added where a lane traded, in step order: all bit-identical (see ``_resolve``).

Dead buyers are skipped: when a slab would start on a buyer while no trial of
the chunk holds stock, it starts at the next seller instead, and the run ends
if none is left.  Once every trial's stock is gone, the kernel resolves at
most the rest of the current slab, under ``_STEP_SLAB`` (32) steps.  Those
buyers cannot trade, so stock, counts, spend, welfare and a trace's flags
(False) are exactly what stepping through them would give.  The draw source
skips their draws, so step t still reads its own draw, and so does a trace.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import require_int
from .policies import PricePolicy
from .streams import AgentStream, SELLER

__all__ = [
    "RandomStream",
    "TradeLog",
    "MCEstimate",
    "run_trial",
    "monte_carlo",
    "expected_outcome",
]

_TRIAL_CHUNK = 8192
_STEP_SLAB = 32
_RUN_LOAD = 0.25
_LANES = 128
_OBJECTIVES = ("profit", "welfare")


@dataclass(frozen=True)
class RandomStream:
    """Root of the lane-block draw layout: the one place it is written.

    Trials form blocks of ``_LANES`` (128).  Block b draws from one PCG64
    generator, ``substream(b)``, seeded by ``SeedSequence(seed, spawn_key=(b,))``,
    in step-major order: step t of trial i = 128 b + k reads draw 128 t + k of
    that generator.  So trial i's uniforms are column k of
    ``substream(b).random((n, 128))``, and identical inputs reproduce
    identical draws on every platform.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0))

    def substream(self, index: int) -> np.random.Generator:
        """The generator of lane block ``index``."""
        index = require_int("index", index, 0)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(index,)))

    def trial_uniforms(self, index: int, n: int) -> np.ndarray:
        """The uniforms of steps 0..n-1 of trial ``index``, in step order, read
        slab by slab from its lane so memory stays bounded whatever ``n``."""
        block, lane = divmod(require_int("index", index, 0), _LANES)
        n = require_int("n", n, 0)
        draws = self._lane_blocks(block, block + 1, np.empty((1, min(_STEP_SLAB, n), _LANES)))
        out = np.empty(n)
        for start in range(0, n, _STEP_SLAB):
            depth = min(_STEP_SLAB, n - start)
            out[start : start + depth] = draws(start, depth)[0, :, lane]
        return out

    def _lane_blocks(self, first: int, stop: int, slab: np.ndarray):
        """The draw source ``draws(start, depth)`` of blocks first..stop-1.

        Each call fills each block's slice of the block-major ``slab``,
        (blocks, steps, ``_LANES``), and returns ``slab[:blocks, :depth]``.
        Starts increase; skipped steps still consume their draws.
        """
        gens = [self.substream(b) for b in range(first, stop)]
        drawn = 0  # steps whose draws the generators have passed

        def draws(start, depth):
            nonlocal drawn
            if start > drawn:
                for gen in gens:
                    gen.bit_generator.advance(_LANES * (start - drawn))
            drawn = start + depth
            for block, gen in zip(slab, gens):
                gen.random(out=block[:depth])
            return slab[: len(gens), :depth]

        return draws


@dataclass
class TradeLog:
    """Per-step trace of one trial.

    ``prices`` holds the posted price, NaN where the policy declined;
    ``values`` the drawn valuations; ``traded`` the kernel's trade decisions;
    ``stock_after`` the stock once the step resolved, their running sum.
    """

    roles: np.ndarray
    prices: np.ndarray
    values: np.ndarray
    traded: np.ndarray
    stock_after: np.ndarray

    def validate(self, stock_cap: int | None = None) -> None:
        """Fail fast on a broken stock trajectory.

        Stock starts at 0, moves by +1 on a seller trade, -1 on a buyer trade
        and not at all otherwise, never goes negative (a short sale) and
        never exceeds ``stock_cap``.  Together these also imply that no more
        items are sold than bought.
        """
        delta = np.diff(self.stock_after, prepend=0)
        expected = np.where(self.traded, np.where(self.roles == SELLER, 1, -1), 0)
        bad = np.flatnonzero(delta != expected)
        if bad.size:
            t = int(bad[0])
            what = "on a trade" if self.traded[t] else "without a trade"
            raise ValueError(f"stock moved by {int(delta[t])} {what} at step {t}")
        short = np.flatnonzero(self.stock_after < 0)
        if short.size:
            raise ValueError(f"short sale at step {int(short[0])}")
        if stock_cap is not None:
            over = np.flatnonzero(self.stock_after > stock_cap)
            if over.size:
                t = int(over[0])
                raise ValueError(f"stock {int(self.stock_after[t])} above cap {stock_cap} at step {t}")


def run_trial(
    stream: AgentStream,
    policy: PricePolicy,
    f_s: Distribution,
    f_b: Distribution,
    uniforms: np.ndarray | np.random.Generator,
    *,
    stock_cap: int | None = None,
) -> TradeLog:
    """Run one trial through the Monte Carlo kernel and return its per-step
    trace: prices, values, the kernel's trade flags and stock levels (their
    running sum), exactly as the trial resolves inside a run.

    ``uniforms`` is one row of shape ``(n,)`` in step order: step t values
    its agent at ``quantile(uniforms[t])``.  The row
    ``RandomStream(seed).trial_uniforms(i, n)`` replays trial i of a Monte
    Carlo run exactly.  A ``np.random.Generator`` stands for the row
    ``uniforms.random(n)``.  Prices are NaN where the policy's own stock
    limit declined a seller.
    """
    sched = _price_schedule(policy, stream, f_s, f_b, stock_cap)
    seller, price, _, cap = sched
    if isinstance(uniforms, np.random.Generator):
        uniforms = uniforms.random(len(stream))
    row = np.asarray(uniforms, dtype=float)
    if row.shape != (len(stream),):
        raise ValueError(f"uniforms must have shape ({len(stream)},), got {row.shape}")

    _, traded = _resolve(sched, f_s, f_b, (1,), lambda start, depth: row[start : start + depth, None], "profit")
    stock_after = np.cumsum(np.where(seller, 1, -1) * traded)  # a seller trade adds one item, a buyer trade takes one

    values = np.empty(len(stream))
    values[seller] = f_s.quantile(row[seller])
    values[~seller] = f_b.quantile(row[~seller])
    if policy.stock_limit is not None:  # a seller's stock before its step is stock_after - traded
        price = np.where(seller & (stock_after - traded >= policy.stock_limit), np.nan, price)
    log = TradeLog(stream.roles, price, values, traded, stock_after)
    log.validate(cap)
    return log


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_err: float
    trials: int
    ci95_low: float
    ci95_high: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "MCEstimate":
        n = samples.size
        mean = math.fsum(samples) / n if n else 0.0
        if n > 1:
            d = samples - mean
            var = math.fsum(d * d) / (n - 1)
            std_err = math.sqrt(var / n)
        else:
            std_err = 0.0
        half = 1.96 * std_err
        return cls(mean, std_err, n, mean - half, mean + half)


def _price_schedule(policy, stream, f_s, f_b, stock_cap):
    """The schedule (seller, price, thresh, cap): seller mask, posted price and
    its acceptance quantile per step, and the effective cap
    (``AgentStream.fold_cap`` of the policy's limit and ``stock_cap``).

    Prices depend on seller ordinals only, never on trade outcomes; the
    policy's stock limit binds in the kernel through the effective cap.
    """
    cap = stream.fold_cap(stock_limit=policy.stock_limit, stock_cap=stock_cap)
    seller = stream.roles == SELLER
    price = np.full(len(stream), float(policy.p))
    price[seller] = policy.seller_prices(stream.n_S)
    thresh = np.full(len(stream), float(f_b.cdf(policy.p)))
    thresh[seller] = f_s.cdf(price[seller])
    if np.isnan(thresh).any():  # the kernel reads "not u < thresh" as a buyer's u >= thresh
        raise ValueError(f"a cdf of {f_s}/{f_b} is NaN at a posted price")
    return seller, price, thresh, cap


def expected_outcome(
    stream: AgentStream,
    policy: PricePolicy,
    f_s: Distribution,
    f_b: Distribution,
    stock_cap: int | None = None,
) -> tuple[float, float, float]:
    """Exact (E[profit], E[welfare], E[leftover stock]) of one trial.

    Prices are fixed in advance, so stock is a Markov chain on 0..cap: at
    step t a seller moves up with probability ``thresh[t]``, paying q, and a
    buyer down with probability 1 - ``thresh[t]``, collecting p.
    """
    seller, price, thresh, cap = _price_schedule(policy, stream, f_s, f_b, stock_cap)
    chain = np.zeros((2, cap + 1))  # rows P[stock = k] and E[profit so far * 1{stock = k}]
    chain[0, 0], welfare, lo, hi = 1.0, 0.0, 0, 0  # levels outside lo..hi hold 0.0, which no step changes
    for sells, p, th in zip(seller.tolist(), price.tolist(), thresh.tolist()):
        if sells:
            # stock is below n_S before the last seller, so P[stock = cap] > 0 here only if cap < n_S
            at_cap = chain[0, cap]
            welfare += (1.0 - at_cap) * f_s.upper_partial_mean(p) + at_cap * f_s.mean
            hi = min(hi + 1, cap)
            src, dst, rate, pay = slice(lo, hi), slice(lo + 1, hi + 1), th, -p
        else:
            welfare += (1.0 - chain[0, 0]) * f_b.upper_partial_mean(p)
            lo = max(lo - 1, 0)
            src, dst, rate, pay = slice(lo + 1, hi + 1), slice(lo, hi), 1.0 - th, p
        moved = rate * chain[:, src]
        chain[:, src] -= moved
        chain[:, dst] += moved
        chain[1, dst] += pay * moved[0]
        while lo < hi and not (chain[0, lo] or chain[1, lo]):
            lo += 1
        while hi > lo and not (chain[0, hi] or chain[1, hi]):
            hi -= 1
    return math.fsum(chain[1]), float(welfare), float(chain[0] @ np.arange(cap + 1))


def _resolve(sched, f_s, f_b, shape, draws, objective):
    """Resolve every step of an array of trials: the one place trades are decided.

    ``sched`` is the schedule of ``_price_schedule`` and ``shape`` the trials'
    shape; ``draws(start, depth)`` returns the uniforms of steps
    start..start+depth-1 as an array whose axis -2 is the step.  Steps run in
    slabs of ``_STEP_SLAB``; per-trial results do not depend on the slab size.
    Dead buyers are skipped (see the module docstring), so ``draws`` is called
    with increasing starts that may jump past steps.  Returns the per-trial
    objective ("profit" or "welfare") and, for a single trial (shape ``(1,)``),
    its per-step trade flags (empty otherwise), False where no step ran.

    Per slab, flags ``u < thresh`` are written step-major (a buyer accepts on
    False) and each step overwrites its row with its trades; stock moves in
    int8 counts from its slab-start level, a run of uncapped sellers on the
    profit objective adds only its count (its flags are its trades), and
    varying seller spend is added by ``np.add.at`` where a lane traded, in step
    order, in runs cut at ``_RUN_LOAD`` expected trades per lane: bit-identical.
    """
    assert 3 * _STEP_SLAB + 2 <= 127  # the int8 counts of a slab cannot wrap
    seller, price, thresh, cap = sched
    n = seller.size
    sellers = np.flatnonzero(seller)
    capped = cap < sellers.size
    need_values = objective == "welfare"
    step_spend = not need_values and price.max(where=seller, initial=-np.inf) != price.min(where=seller, initial=np.inf)
    stock, sold = np.zeros((2, *shape), dtype=np.int32)  # both <= n_S <= streams.MAX_EXPANSION (10^8) < 2^31
    # per slab: a buyer has stock iff sold_in_slab < held, a seller has room iff held < roof
    held, sold_in_slab, roof = np.zeros((3, *shape), dtype=np.int8)
    accept = np.empty((_STEP_SLAB, *shape), dtype=bool)
    room = np.empty(shape, dtype=bool)
    sums = np.zeros(shape)  # welfare, or spend at varying seller prices
    traded = np.zeros(n if shape == (1,) else 0, dtype=bool)
    slab_start = 0
    while slab_start < n:
        if not seller[slab_start] and not stock.any():
            # no trial holds stock, so no buyer can trade before the next seller
            nxt = int(np.searchsorted(sellers, slab_start))
            if nxt == sellers.size:
                break
            slab_start = int(sellers[nxt])
        stop = min(slab_start + _STEP_SLAB, n)
        slab = draws(slab_start, stop - slab_start)
        window = slice(slab_start, stop)
        column = thresh[window].reshape(-1, *[1] * len(shape))
        flags = np.less(np.moveaxis(slab, -2, 0), column, out=accept[: stop - slab_start])
        np.minimum(stock, _STEP_SLAB + 1, out=held)  # the stock that the slab's buyers can reach
        if capped:  # plus the room that its sellers can reach
            np.add(np.minimum(cap - stock, _STEP_SLAB + 1, out=roof), held, out=roof)
        stock -= held  # until the slab ends, stock is stock + held - sold_in_slab
        sold_in_slab[...] = 0
        # the step loop's Python scalars are made per slab, so they stay slab-sized
        sells, ths = seller[window].tolist(), thresh[window].tolist()
        k = 0
        while k < len(sells):
            k1, row = k + 1, flags[k]  # a step overwrites its row with its trades
            if sells[k] and not (capped or need_values):  # the run needs only its count
                load = ths[k]
                while k1 < len(sells) and sells[k1] and (not step_spend or load + ths[k1] <= _RUN_LOAD):
                    k1, load = k1 + 1, load + ths[k1]
                run = flags[k:k1]
                held += run.view(np.int8).sum(axis=0, dtype=np.int8)
                if step_spend:
                    steps, lanes = np.divmod(np.flatnonzero(run), sums.size)
                    np.add.at(sums.reshape(-1), lanes, price[slab_start + k + steps])
            elif sells[k]:
                if capped:
                    np.logical_and(row, np.less(held, roof, out=room), out=row)
                held += row.view(np.int8)
                if need_values:
                    sums += ~row * f_s.inverse_cdf(slab[..., k, :])
                elif step_spend:
                    sums += row * price[slab_start + k]
            else:
                np.greater(np.less(sold_in_slab, held, out=room), row, out=row)  # stock and no accept
                sold_in_slab += row.view(np.int8)
                if capped:
                    roof += row.view(np.int8)
                if need_values:
                    sums += row * f_b.inverse_cdf(slab[..., k, :])
            k = k1
        if traded.size:  # a width-1 call
            traded[window] = flags[:, 0]
        stock += held
        stock -= sold_in_slab
        sold += sold_in_slab
        slab_start = stop
    if not need_values:
        spend = sums if step_spend else _fold_sums(price[sellers[0]], sold + stock)
        sums = np.subtract(_fold_sums(price[seller.argmin()] if n else 0.0, sold), spend, out=spend)
    return sums, traded


def _fold_sums(x, counts):
    """Entry i is 0.0 + x + x ... (counts[i] terms, in order): a per-step sum of x, bit for bit."""
    return np.cumsum(np.r_[0.0, np.full(int(counts.max()), x)])[counts]


def _mc_samples(stream, policy, f_s, f_b, trials, seed, stock_cap, objective):
    """Per-trial objective values, vectorized across chunks of whole lane
    blocks of ``RandomStream(seed)`` (see the module docstring)."""
    trials = require_int("trials", trials, 2)
    sched = _price_schedule(policy, stream, f_s, f_b, stock_cap)
    root = RandomStream(seed)
    n_blocks = -(-trials // _LANES)
    chunk = max(1, _TRIAL_CHUNK // _LANES)
    out = np.empty((n_blocks, _LANES))
    # one block-major slab serves every chunk: the working set is bounded by
    # _STEP_SLAB x _TRIAL_CHUNK uniforms (2 MiB), whatever the stream length
    slab = np.empty((min(chunk, n_blocks), min(_STEP_SLAB, len(stream)), _LANES))
    for b0 in range(0, n_blocks, chunk):
        b1 = min(b0 + chunk, n_blocks)
        draws = root._lane_blocks(b0, b1, slab)
        out[b0:b1] = _resolve(sched, f_s, f_b, (b1 - b0, _LANES), draws, objective)[0]
    return out.reshape(-1)[:trials]


def monte_carlo(
    stream: AgentStream,
    policy: PricePolicy,
    f_s: Distribution,
    f_b: Distribution,
    trials: int,
    seed: int,
    stock_cap: int | None = None,
    objective: str = "profit",
) -> MCEstimate:
    """Estimate the expected profit or welfare of a policy on a stream."""
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}, got {objective!r}")
    samples = _mc_samples(stream, policy, f_s, f_b, trials, seed, stock_cap, objective)
    with contextlib.suppress(OverflowError):  # math.fsum of finite samples past float64
        est = MCEstimate.from_samples(samples)
        if math.isfinite(est.mean) and math.isfinite(est.std_err):  # the one finiteness rule of every command
            return est
    names = getattr(policy, "spec", type(policy).__name__), getattr(f_s, "spec", f_s), getattr(f_b, "spec", f_b)
    raise ValueError("the {} estimate of {} on {}/{} is not finite".format(objective, *names))
