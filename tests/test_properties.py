"""Derandomized property tests: on random short streams, caps, policies and
objectives, the Monte Carlo kernel equals a step-by-step reference exactly,
and every traced trial has a valid stock trajectory; stream patterns expand
as a text-rewriting oracle expands them; FIFO matching is maximum on lengths
13 to 20, past the length 12 up to which ``verify matching`` enumerates every
stream."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import brokersim.engine as engine_mod
from brokersim import (
    AgentStream,
    RandomStream,
    brute_force_max_matching,
    build_policy,
    expand,
    fifo_match,
    parse_distribution,
    parse_pattern,
    run_trial,
)
from brokersim.engine import _mc_samples
from oracles import expand_pattern_text, resolve_trial_by_steps, resolve_trials_by_steps, trial_rows

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# decay, stock and balanced refuse priors that are not regular, so Pareto only meets median and fixed
REGULAR = ["uniform:0,1", "uniform:1,3", "exp:1", "exp:2"]
ANY_PRIOR = REGULAR + ["pareto-eps:0.5", "pareto-eps:0.8"]


@st.composite
def markets(draw):
    """A short stream, a policy with its priors, and an external stock cap."""
    roles = draw(st.lists(st.sampled_from("SB"), min_size=1, max_size=40))
    kind = draw(st.sampled_from(["median", "fixed", "quantile", "decay", "stock", "balanced"]))
    priors = ANY_PRIOR if kind in ("median", "fixed") else REGULAR
    f_s, f_b = (parse_distribution(draw(st.sampled_from(priors))) for _ in range(2))
    if kind == "balanced":
        f_b = f_s  # some prior pairs admit no profitable trade, which balanced refuses
    if kind == "fixed":
        prices = st.floats(0.0, 4.0, allow_nan=False)
        spec = f"fixed:{draw(prices)!r},{draw(prices)!r}"
    elif kind == "quantile":
        constants = st.floats(1.05, 8.0, allow_nan=False)
        spec = f"quantile:{draw(constants)!r},{draw(constants)!r}"
    elif kind == "decay":
        spec = f"decay:{draw(st.floats(0.01, 0.49, allow_nan=False))!r}"
    elif kind == "stock":
        spec = f"stock:{draw(st.integers(1, 4))}"
    elif kind == "balanced":
        spec = f"balanced:{draw(st.integers(1, 3))}"
    else:
        spec = "median"
    stream = AgentStream.from_pattern("".join(roles))
    cap = draw(st.none() | st.integers(1, 6))
    return stream, build_policy(spec, f_s, f_b), f_s, f_b, cap


@PROPERTY_SETTINGS
@given(
    market=markets(),
    objective=st.sampled_from(["profit", "welfare"]),
    # up to three lane blocks of 128 trials, one to three blocks per chunk
    trials=st.integers(2, 300),
    seed=st.integers(0, 2**40),
    slab=st.integers(1, 6),
    chunk=st.integers(1, 400),
)
def test_kernel_equals_step_by_step_reference(market, objective, trials, seed, slab, chunk):
    stream, policy, f_s, f_b, cap = market
    with mock.patch.object(engine_mod, "_STEP_SLAB", slab), mock.patch.object(engine_mod, "_TRIAL_CHUNK", chunk):
        got = _mc_samples(stream, policy, f_s, f_b, trials, seed, cap, objective)
    refs = resolve_trials_by_steps(stream, policy, f_s, f_b, trial_rows(seed, trials, len(stream)), cap)
    want = [getattr(r, objective) for r in refs]
    assert np.array_equal(got, want)


@PROPERTY_SETTINGS
# trial indices up to 400 reach every lane of blocks 0-2 and lanes 0-16 of block 3
@given(market=markets(), seed=st.integers(0, 2**40), trial=st.integers(0, 400), slab=st.integers(1, 6))
def test_trade_logs_are_valid(market, seed, trial, slab):
    stream, policy, f_s, f_b, cap = market
    with mock.patch.object(engine_mod, "_STEP_SLAB", slab):
        u = RandomStream(seed).trial_uniforms(trial, len(stream))
        log = run_trial(stream, policy, f_s, f_b, u, stock_cap=cap)
    limits = [c for c in (policy.stock_limit, cap) if c is not None]
    log.validate(min(limits, default=None))
    ref = resolve_trial_by_steps(stream, policy, f_s, f_b, u, cap)
    assert np.array_equal(log.traded, ref.traded)
    assert np.array_equal(log.stock_after, ref.stock_after)


COUNTS = st.integers(0, 4)
ATOMS = st.sampled_from("SB")
# a term is S, B, a repeated atom or a repeated group of terms, nested a few levels
TERMS = st.recursive(
    ATOMS | st.builds("{}^{}".format, ATOMS, COUNTS),
    lambda inner: st.builds("({})^{}".format, st.lists(inner, min_size=1, max_size=3).map(" ".join), COUNTS),
    max_leaves=10,
)


@PROPERTY_SETTINGS
@given(terms=st.lists(TERMS, min_size=1, max_size=4), gap=st.sampled_from(["", " ", "  "]))
def test_pattern_expands_like_text_rewriting(terms, gap):
    text = gap.join(terms)
    pattern = parse_pattern(text)
    want = expand_pattern_text(text)
    assert expand(pattern).text == want
    assert pattern.length() == len(want)


@PROPERTY_SETTINGS
# ``verify matching``, which criterion 2 runs, is exhaustive up to length 12; the oracle stops at 20
@given(roles=st.lists(st.sampled_from([0, 1]), min_size=13, max_size=20), cap=st.sampled_from([None, 1, 2, 3]))
def test_fifo_matching_is_maximum_on_longer_streams(roles, cap):
    stream = AgentStream(np.array(roles, dtype=np.uint8))
    assert len(fifo_match(stream, cap)) == brute_force_max_matching(stream, cap)
