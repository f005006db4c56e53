import itertools
import math
import tracemalloc

import numpy as np
import pytest

import brokersim.engine as engine_mod
from brokersim import (
    BUYER,
    SELLER,
    AgentStream,
    BalancedPolicy,
    Exponential,
    FixedPricePolicy,
    MedianPolicy,
    Pareto,
    RandomStream,
    StockLimitedPolicy,
    DecayingSellerPolicy,
    Uniform,
    adaptive_dp_oracle,
    brute_force_max_matching,
    expected_outcome,
    fifo_match,
    monte_carlo,
    parse_distribution,
    random_alpha_balanced,
    build_policy,
    run_trial,
)
from brokersim.engine import MCEstimate, TradeLog, _mc_samples
from brokersim.streams import MAX_EXPANSION
from oracles import (
    balanced_online_profit_expectation,
    by_role_rank,
    resolve_trial_by_steps,
    resolve_trials_by_steps,
    tail_value_by_quadrature,
    trial_rows,
    variance_sum_by_generator,
)

U = Uniform(0.0, 1.0)
E = Exponential(1.0)
# a seller on U(0, 1/4) always sells at q = 1/4 and a buyer on U(3/4, 1) always buys at p = 3/4
LOW, HIGH, FORCED = Uniform(0.0, 0.25), Uniform(0.75, 1.0), FixedPricePolicy(0.25, 0.75)
SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 5, 3**90]
# includes 2**32 - 1 and 2**32, where the spawn key grows from one word to two
INDICES = (0, 1023, 1024, 8191, 8192, 10**6, 2**32 - 1, 2**32, 2**40 + 1025)


def stream(text):
    return AgentStream.from_pattern(text)


class TestRandomStream:
    def test_same_trial_same_draws(self):
        a = RandomStream(7).substream(3).random(8)
        b = RandomStream(7).substream(3).random(8)
        assert np.array_equal(a, b)

    def test_different_trials_differ(self):
        a = RandomStream(7).substream(3).random(8)
        b = RandomStream(7).substream(4).random(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_substream_equals_seed_sequence_path(self, seed):
        for index in INDICES:
            expected = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
            assert np.array_equal(RandomStream(seed).substream(index).random(37), expected.random(37))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_advance_then_draw_equals_drawing_past(self, seed):
        # the kernel advances past the draws of skipped steps; they must be the draws it would have read
        for index in INDICES:
            for k, m in ((1, 9), (511, 37), (10**6, 5)):
                gen = RandomStream(seed).substream(index)
                gen.bit_generator.advance(k)
                assert np.array_equal(gen.random(m), RandomStream(seed).substream(index).random(k + m)[k:])

    @pytest.mark.parametrize("seed", [0, 42, 2**64 + 5])
    def test_trial_uniforms_are_a_column_of_the_block(self, seed):
        # 1100 steps: more than two slabs of the accessor, the last ragged
        for index in (0, 1, 127, 128, 300, 2**32 * 128 + 77):
            block, lane = divmod(index, 128)
            expected = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,))).random((1100, 128))
            assert np.array_equal(RandomStream(seed).trial_uniforms(index, 1100), expected[:, lane])
        assert RandomStream(seed).trial_uniforms(5, 0).size == 0

    @pytest.mark.parametrize("slab,n", [(3, 12), (5, 13), (5, 0)])  # 13 steps leave a ragged last slab of 3
    def test_trial_uniforms_read_the_raw_generator_at_any_slab(self, monkeypatch, slab, n):
        monkeypatch.setattr(engine_mod, "_STEP_SLAB", slab)
        for index in (0, 5, 127, 128, 300):
            raw = RandomStream(19).substream(index // 128).random((n, 128))
            assert np.array_equal(RandomStream(19).trial_uniforms(index, n), raw[:, index % 128])

    def test_bulk_draw_equals_sequential(self):
        g1 = RandomStream(11).substream(0)
        g2 = RandomStream(11).substream(0)
        assert np.array_equal(g1.random(16), np.array([g2.random() for _ in range(16)]))


class TestRunTrial:
    def test_seller_at_support_max_always_buys(self, rng):
        log = run_trial(stream("S"), FixedPricePolicy(1.0, 0.5), U, U, rng.random(1))
        assert np.count_nonzero(log.traded & (log.roles == SELLER)) == 1
        assert np.all(_mc_samples(stream("S"), FixedPricePolicy(1.0, 0.5), U, U, 300, 1, None, "profit") == -1.0)

    def test_buyer_without_stock_never_trades(self, rng):
        log = run_trial(stream("B"), FixedPricePolicy(1.0, 0.0), U, U, rng.random(1))
        assert not log.traded[0]
        assert np.all(_mc_samples(stream("B"), FixedPricePolicy(1.0, 0.0), U, U, 300, 1, None, "welfare") == 0.0)

    def test_hand_traced_sb(self, rng):
        log = run_trial(stream("SB"), FixedPricePolicy(1.0, 0.0), U, U, rng.random(2))
        assert log.traded.all()
        samples = _mc_samples(stream("SB"), FixedPricePolicy(1.0, 0.0), U, U, 300, 1, None, "profit")
        assert samples == pytest.approx(np.full(300, -1.0), abs=1e-15)

    def test_declined_seller_logged_with_nan_price(self):
        pol = StockLimitedPolicy(1, U, U)
        log = run_trial(stream("S^30 B"), pol, U, U, RandomStream(3).trial_uniforms(0, 31))
        declined = np.isnan(log.prices[:30])
        assert declined.sum() >= 1
        assert log.stock_after.max() == 1

    def test_stock_cap_binds(self):
        u = RandomStream(5).trial_uniforms(0, 43)
        log = run_trial(stream("S^40 B^3"), FixedPricePolicy(1.0, 0.0), U, U, u, stock_cap=2)
        assert log.stock_after.max() == 2
        log.validate(stock_cap=2)

    def test_row_must_have_one_uniform_per_step(self):
        # short, long and 2-D rows; extra uniforms are an error, not ignored
        for row in ([0.1], [0.1, 0.9, 0.5], [[0.1, 0.9]]):
            with pytest.raises(ValueError, match="shape"):
                run_trial(stream("SB"), FixedPricePolicy(0.5, 0.5), U, U, np.array(row))

    def test_a_generator_stands_for_its_first_n_draws(self):
        s, pol = stream("S^5 (S^2 B)^9"), StockLimitedPolicy(1, U, E)
        for seed in (0, 3, 2**64 + 5):
            got = run_trial(s, pol, U, E, RandomStream(seed).substream(0), stock_cap=2)
            want = run_trial(s, pol, U, E, RandomStream(seed).substream(0).random(len(s)), stock_cap=2)
            for field in ("roles", "prices", "values", "traded", "stock_after"):
                assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field

    def test_explicit_uniforms_by_role_rank(self):
        s = stream("SSB")
        log = run_trial(s, FixedPricePolicy(0.5, 0.5), U, U, by_role_rank(s, [0.1, 0.9], [0.95]))
        assert log.traded.tolist() == [True, False, True]
        assert log.values[0] == pytest.approx(0.1)
        assert log.values[2] == pytest.approx(0.95)

    def test_nan_uniform_is_rejected(self):
        with pytest.raises(ValueError, match="must lie in"):
            run_trial(stream("SSB"), FixedPricePolicy(0.5, 0.5), U, U, np.array([0.1, np.nan, 0.9]))

    def test_terminal_stock_equals_bought_minus_sold(self):
        pol = BalancedPolicy(1, U, U)
        log = run_trial(stream("(SB)^50"), pol, U, U, RandomStream(8).trial_uniforms(0, 100))
        bought = np.count_nonzero(log.traded & (log.roles == SELLER))
        sold = np.count_nonzero(log.traded & (log.roles == BUYER))
        assert log.stock_after[-1] == bought - sold


class TestCapAtOrAboveNS:
    """Stock never exceeds n_S, so a stock cap at or above n_S never binds:
    ``AgentStream.fold_cap`` folds it to n_S and every scorer (kernel, exact
    chain, adaptive DP, matchings) matches the uncapped run."""

    @pytest.mark.parametrize("extra", (0, 1, 1000))
    @pytest.mark.parametrize(
        "text,spec,f_s,f_b",
        [
            ("(SB)^20", "median", U, U),
            ("S^6 B^6", "fixed:0.3,0.6", E, E),
            ("(S^2 B)^8 S^3", "decay:0.05", U, E),
            ("S^5 B^10", "stock:9", U, U),
        ],
    )
    def test_matches_uncapped(self, text, spec, f_s, f_b, extra):
        s, policy = stream(text), build_policy(spec, f_s, f_b)
        cap = s.n_S + extra
        *_, folded = engine_mod._price_schedule(policy, s, f_s, f_b, cap)
        assert folded == s.n_S
        assert expected_outcome(s, policy, f_s, f_b, cap) == expected_outcome(s, policy, f_s, f_b)
        u = RandomStream(11).trial_uniforms(0, len(s))
        got, want = run_trial(s, policy, f_s, f_b, u, stock_cap=cap), run_trial(s, policy, f_s, f_b, u)
        for field in ("roles", "prices", "values", "traded", "stock_after"):
            assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field
        for objective in ("profit", "welfare"):
            capped = monte_carlo(s, policy, f_s, f_b, 64, 3, stock_cap=cap, objective=objective)
            assert capped == monte_carlo(s, policy, f_s, f_b, 64, 3, objective=objective)

    @pytest.mark.parametrize("extra", (0, 1, 1000))
    @pytest.mark.parametrize("text", ["(SB)^10", "S^6 B^6", "(S^2 B)^5 S^3", "S^5 B^10", "B S^3 B"])
    def test_stream_scorers_match_uncapped(self, text, extra):
        s = stream(text)
        cap = s.n_S + extra
        assert s.fold_cap(stock_cap=cap) == s.n_S
        for f_s, f_b in ((U, U), (U, E)):
            got = adaptive_dp_oracle(s, f_s, f_b, price_grid=256, stock_cap=cap)
            assert got == adaptive_dp_oracle(s, f_s, f_b, price_grid=256)
        assert fifo_match(s, cap) == fifo_match(s)
        assert brute_force_max_matching(s, cap) == brute_force_max_matching(s)


class TestPriceSchedule:
    @pytest.mark.parametrize("reader,kernel_calls", [("monte_carlo", 2), ("run_trial", 1), ("expected_outcome", 0)])
    def test_one_schedule_per_call(self, monkeypatch, reader, kernel_calls):
        # 8197 trials: two chunks, so Monte Carlo runs the kernel twice on its one schedule
        built, read = [], []
        schedule, resolve = engine_mod._price_schedule, engine_mod._resolve

        def building(*args):
            built.append(schedule(*args))
            return built[-1]

        def reading(sched, *rest):
            read.append(sched)
            return resolve(sched, *rest)

        monkeypatch.setattr(engine_mod, "_price_schedule", building)
        monkeypatch.setattr(engine_mod, "_resolve", reading)
        s, policy = stream("S^600 B^600"), DecayingSellerPolicy(0.05, U, U)
        calls = {
            "monte_carlo": lambda: monte_carlo(s, policy, U, U, 8197, 1),
            "run_trial": lambda: run_trial(s, policy, U, U, RandomStream(1).trial_uniforms(0, len(s))),
            "expected_outcome": lambda: expected_outcome(s, policy, U, U),
        }
        calls[reader]()
        assert len(built) == 1 and len(read) == kernel_calls
        assert all(sched is built[0] for sched in read)


def hand_log(roles, traded, stock_after):
    n = len(roles)
    return TradeLog(
        roles=np.array(roles, np.uint8),
        prices=np.full(n, 0.5),
        values=np.full(n, 0.5),
        traded=np.array(traded, bool),
        stock_after=np.array(stock_after, np.int64),
    )


class TestValidate:
    def test_consistent_log_passes(self):
        hand_log([0, 0, 1, 1], [True, True, True, False], [1, 2, 1, 1]).validate(stock_cap=2)

    @pytest.mark.parametrize(
        "roles,traded,stock_after,cap,message",
        [
            ([0, 1], [True, True], [1, 1], None, "moved by 0 on a trade at step 1"),
            ([0, 0], [False, False], [0, 1], None, "moved by 1 without a trade at step 1"),
            ([0, 0, 0], [True, True, False], [1, 2, 2], 1, "stock 2 above cap 1 at step 1"),
            ([1], [True], [-1], None, "short sale at step 0"),
        ],
        ids=["wrong-move-on-trade", "move-without-trade", "above-cap", "short-sale"],
    )
    def test_broken_logs_fail_fast(self, roles, traded, stock_after, cap, message):
        with pytest.raises(ValueError, match=message):
            hand_log(roles, traded, stock_after).validate(stock_cap=cap)


class TestScoring:
    """The kernel scores every trial; priors whose support forces each trade
    make the score exact."""

    def test_empty_log(self):
        log = run_trial(stream("S^0"), FixedPricePolicy(0.5, 0.5), U, U, np.zeros(0))
        assert not log.stock_after.any()
        for objective in ("profit", "welfare"):
            assert np.all(_mc_samples(stream("S^0"), FixedPricePolicy(0.5, 0.5), U, U, 2, 1, None, objective) == 0.0)

    @pytest.mark.parametrize("cap", [None, 2])
    @pytest.mark.parametrize("text", ["B^5", "B^200"])
    @pytest.mark.parametrize("spec", ["median", "fixed:0.3,0.7", "quantile:3,2", "decay:0.05", "stock:2", "balanced:1"])
    def test_seller_less_streams_score_zero(self, spec, text, cap):
        # no seller, no stock: every buyer leaves unserved and nothing is spent
        policy = build_policy(spec, U, U)
        for objective in ("profit", "welfare"):
            assert np.all(_mc_samples(stream(text), policy, U, U, 300, 1, cap, objective) == 0.0)
        assert expected_outcome(stream(text), policy, U, U, cap) == (0.0, 0.0, 0.0)

    def test_profit_arithmetic(self):
        samples = _mc_samples(stream("SB"), FORCED, LOW, HIGH, 300, 1, None, "profit")
        assert samples == pytest.approx(np.full(300, 0.5))

    def test_unsold_inventory_cost(self):
        assert _mc_samples(stream("S"), FORCED, LOW, HIGH, 300, 1, None, "profit") == pytest.approx(np.full(300, -0.25))
        assert np.all(_mc_samples(stream("S"), FORCED, LOW, HIGH, 300, 1, None, "welfare") == 0.0)

    def test_welfare_counts_kept_sellers_and_served_buyers(self):
        # the first seller keeps 0.7, the second sells, the first buyer gets one at 0.9
        u = np.array([0.7, 0.2, 0.9, 0.4])
        log = run_trial(stream("SSBB"), FixedPricePolicy(0.5, 0.5), U, U, u)
        ref = resolve_trial_by_steps(stream("SSBB"), FixedPricePolicy(0.5, 0.5), U, U, u)
        assert log.traded.tolist() == ref.traded == [False, True, True, False]
        assert ref.welfare == pytest.approx(0.7 + 0.9)


class TestMonteCarlo:
    def test_profit_matches_closed_form_at_1e6(self):
        est = monte_carlo(stream("SB"), FixedPricePolicy(0.5, 0.5), U, U, 1_000_000, 101)
        assert abs(est.mean - (-0.125)) < 4 * est.std_err

    def test_welfare_matches_closed_form_at_1e6(self):
        est = monte_carlo(stream("SB"), FixedPricePolicy(0.5, 0.5), U, U, 1_000_000, 102, objective="welfare")
        assert abs(est.mean - 0.5625) < 4 * est.std_err

    def test_empty_stream(self):
        est = monte_carlo(stream("S^0"), FixedPricePolicy(0.5, 0.5), U, U, 10, 1)
        assert est.mean == 0.0 and est.std_err == 0.0

    @pytest.mark.parametrize("dist", [U, Pareto(0.5), Pareto(0.1)])
    def test_variance_sum_matches_scalar_fsum(self, dist):
        # heavy tails give a wide dynamic range, where summation order matters;
        # an uncompensated or pairwise sum differs in the last bit on some seed
        for seed in range(3):
            samples = dist.quantile(RandomStream(5).substream(seed).random(20_000))
            est = MCEstimate.from_samples(samples)
            n = samples.size
            var = variance_sum_by_generator(samples, est.mean) / (n - 1)
            assert est.std_err == math.sqrt(var / n)

    def test_estimate_fields(self):
        est = MCEstimate.from_samples(np.array([1.0, 2.0, 3.0, 4.0]))
        assert est.mean == pytest.approx(2.5)
        assert est.trials == 4
        assert est.ci95_low == pytest.approx(est.mean - 1.96 * est.std_err)
        assert est.ci95_high == pytest.approx(est.mean + 1.96 * est.std_err)

    def test_validations(self):
        with pytest.raises(ValueError):
            monte_carlo(stream("SB"), FixedPricePolicy(0.5, 0.5), U, U, 1, 0)
        with pytest.raises(ValueError):
            monte_carlo(stream("SB"), FixedPricePolicy(0.5, 0.5), U, U, 10, 0, objective="leftover")
        with pytest.raises(ValueError):
            monte_carlo(stream("SB"), FixedPricePolicy(0.5, 0.5), U, U, 10, 0, stock_cap=0)

    @pytest.mark.parametrize(
        "policy_factory,f_s,f_b,cap",
        [
            (lambda: FixedPricePolicy(0.5, 0.5), U, U, None),
            (lambda: MedianPolicy(U, E), U, E, 2),
            (lambda: DecayingSellerPolicy(0.1, U, U), U, U, None),
            (lambda: StockLimitedPolicy(2, U, U), U, U, None),
            (lambda: MedianPolicy(Pareto(0.5), Pareto(0.5)), Pareto(0.5), Pareto(0.5), None),
        ],
    )
    def test_vector_kernel_matches_scalar_reference(self, policy_factory, f_s, f_b, cap):
        policy = policy_factory()
        s = stream("(S^2 B)^7 S B^4")
        trials = 2 * engine_mod._LANES + 2  # two full lane blocks and a ragged third
        refs = resolve_trials_by_steps(s, policy, f_s, f_b, trial_rows(909, trials, len(s)), cap)
        for objective in ("profit", "welfare"):
            vec = _mc_samples(s, policy, f_s, f_b, trials, 909, cap, objective)
            assert np.array_equal(vec, [getattr(ref, objective) for ref in refs])

    def test_same_seed_bitwise_identical(self):
        a = monte_carlo(stream("(SB)^20"), MedianPolicy(U, U), U, U, 500, 4242)
        b = monte_carlo(stream("(SB)^20"), MedianPolicy(U, U), U, U, 500, 4242)
        assert a == b

    def test_chunking_does_not_change_results(self, monkeypatch):
        # 301 trials: two full lane blocks and a ragged third
        args = (stream("(S^2 B)^9"), MedianPolicy(U, U), U, U, 301, 77, None, "profit")

        def logs():
            s, pol = stream("S^5 (S^2 B)^9"), StockLimitedPolicy(1, U, U)
            gen = np.random.default_rng(3)
            return [
                run_trial(s, pol, U, U, RandomStream(77).trial_uniforms(0, len(s)), stock_cap=1),
                run_trial(s, pol, U, U, by_role_rank(s, gen.random(s.n_S) / 8, gen.random(s.n_B))),
            ]

        baseline, baseline_logs = _mc_samples(*args), logs()
        assert np.isnan(baseline_logs[1].prices).any()  # the decline path is covered
        monkeypatch.setattr(engine_mod, "_TRIAL_CHUNK", 7)  # below one block: one block per chunk
        monkeypatch.setattr(engine_mod, "_STEP_SLAB", 3)
        assert np.array_equal(_mc_samples(*args), baseline)
        monkeypatch.setattr(engine_mod, "_STEP_SLAB", 5)  # 27 steps: a ragged last slab
        monkeypatch.setattr(engine_mod, "_TRIAL_CHUNK", 300)  # two blocks per chunk: a ragged last chunk
        assert np.array_equal(_mc_samples(*args), baseline)
        for log, ref in zip(logs(), baseline_logs):
            for col in ("prices", "values", "traded", "stock_after"):
                assert np.array_equal(getattr(log, col), getattr(ref, col), equal_nan=True)

    @pytest.mark.parametrize("k", [2, 127, 129, 300])
    def test_a_run_begins_with_the_samples_of_a_shorter_run(self, k):
        # the trial count rounds up to whole blocks; the extra lanes must not shift any sample
        s, policy = stream("(S^2 B)^9 B^3"), MedianPolicy(U, E)
        for objective in ("profit", "welfare"):
            full = _mc_samples(s, policy, U, E, 700, 13, None, objective)
            assert np.array_equal(_mc_samples(s, policy, U, E, k, 13, None, objective), full[:k])

    def test_working_set_is_bounded_by_the_slab(self):
        # 8197 trials: a full chunk and a ragged second; 1200 steps: more than one slab
        s, policy = stream("S^600 B^600"), DecayingSellerPolicy(0.05, U, U)
        tracemalloc.start()
        try:
            _mc_samples(s, policy, U, U, 8197, 1, None, "profit")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # twice the slab, plus sixteen float64 of per-trial state for each trial of a chunk
        slab_bytes = engine_mod._STEP_SLAB * engine_mod._TRIAL_CHUNK * 8
        assert peak <= 2 * slab_bytes + 16 * 8 * engine_mod._TRIAL_CHUNK

    def test_a_long_stream_costs_arrays_not_python_scalars(self):
        # 10^6 dead buyers, then one seller: the run resolves a single one-step slab
        s = stream("B^1000000 S")
        tracemalloc.start()
        try:
            _mc_samples(s, MedianPolicy(U, U), U, U, 2, 1, None, "profit")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the schedule's seller mask, price and threshold arrays take 17 bytes a step; allow 24
        assert peak <= 24 * len(s)


class TestProfitFromCounts:
    """The kernel counts trades and prices the counts once a run ends.  On
    these long streams trade counts reach hundreds, where the k-fold sum of a
    price is not k times it, so only a step-order sum matches the oracle."""

    # (stream, policy on U(0,1) priors, stock_cap) and the monte_carlo means
    # (profit, welfare) at seed 1 and 300 trials, recorded from the kernel
    # that summed every price step by step
    CASES = [
        ("(S^2 B)^1500", "fixed:0.3,0.7", None, (44.16399999999287, 1746.1985840041139)),
        ("(SB)^2000", "stock:3", None, (53.94669535263581, 1088.0955078107938)),
        ("(SB)^2000", "fixed:0.3,0.7", 2, (177.14733333333137, 1310.097059749286)),
        ("S^600 B^600", "decay:0.05", None, (6.268089516902448, 310.61056755338865)),
    ]

    def test_a_fold_sum_is_not_a_product(self):
        k = np.arange(601)
        for x, differ in ((0.3, 585), (0.7, 588)):
            running = [0.0]
            for _ in k[1:]:
                running.append(running[-1] + x)
            sums = engine_mod._fold_sums(x, k)
            assert np.array_equal(sums, running)
            assert np.array_equal(sums[:6], k[:6] * x)
            assert np.count_nonzero(sums != k * x) == differ

    @pytest.mark.parametrize("text,spec,cap", [case[:3] for case in CASES])
    def test_samples_equal_the_step_by_step_oracle(self, text, spec, cap):
        s, policy, trials = stream(text), build_policy(spec, U, U), 300
        refs = resolve_trials_by_steps(s, policy, U, U, trial_rows(1, trials, len(s)), cap)
        for objective in ("profit", "welfare"):
            got = _mc_samples(s, policy, U, U, trials, 1, cap, objective)
            assert np.array_equal(got, [getattr(r, objective) for r in refs]), objective

    @pytest.mark.parametrize("text,spec,cap,means", CASES)
    def test_means_equal_the_per_step_sums(self, text, spec, cap, means):
        s, policy = stream(text), build_policy(spec, U, U)
        got = tuple(monte_carlo(s, policy, U, U, 300, 1, cap, objective).mean for objective in ("profit", "welfare"))
        assert got == means

    # (seller prior, buyer prior) and the median welfare mean on (S^2 B)^1500 at
    # seed 1 and 300 trials, recorded from the kernel that computed every value
    # as lo + u * (hi - lo) and -log1p(-u) / rate.  The step oracle calls
    # quantile, so it cannot pin the kernel's values against their past.
    PRIOR_CASES = [
        ("uniform:1,3", "exp:2", 4384.112391558766),
        ("uniform:0,2", "uniform:0,1", 2811.3456030571992),
        ("exp:1", "exp:1", 3803.741395599278),
        ("pareto-eps:0.5", "pareto-eps:0.5", 6344.73979818119),
    ]

    @pytest.mark.parametrize("seller,buyer,mean", PRIOR_CASES)
    def test_welfare_means_on_other_priors_are_pinned(self, seller, buyer, mean):
        f_s, f_b = parse_distribution(seller), parse_distribution(buyer)
        s, policy = stream("(S^2 B)^1500"), build_policy("median", f_s, f_b)
        assert monte_carlo(s, policy, f_s, f_b, 300, 1, None, "welfare").mean == mean

    def test_int32_counters_cannot_overflow(self):
        # stock and sold never exceed n_S, and a parsed stream holds at most MAX_EXPANSION roles
        assert MAX_EXPANSION <= np.iinfo(np.int32).max


class TestDeadBuyerSkip:
    """A slab that would start on a buyer while no trial holds stock starts at
    the next seller instead; the skipped steps still consume their draws."""

    STREAMS = ["S B^40 S^3 B^30 S B^5", "B^9 S^2 B^25 S^4 B^11", "S^6 B^30 S B^12 S^2", "B^20"]
    CASES = [
        (lambda: FixedPricePolicy(0.5, 0.5), U, U, None),
        (lambda: MedianPolicy(U, E), U, E, 2),  # a cap below n_S
        (lambda: MedianPolicy(E, U), E, U, 40),  # a cap above n_S
        (lambda: StockLimitedPolicy(2, U, U), U, U, None),
        (lambda: DecayingSellerPolicy(0.1, U, U), U, U, 3),
        (lambda: MedianPolicy(Pareto(0.5), Pareto(0.5)), Pareto(0.5), Pareto(0.5), None),
    ]

    @staticmethod
    def spy_on_draws(monkeypatch):
        """Record the (start, depth) of every draws call the kernel makes, and a copy
        of the uniforms it returned."""
        calls, slabs, resolve = [], [], engine_mod._resolve

        def recording(*args):
            *head, draws, objective = args

            def draws_recorded(start, depth):
                calls.append((start, depth))
                slabs.append(draws(start, depth).copy())
                return slabs[-1]

            return resolve(*head, draws_recorded, objective)

        monkeypatch.setattr(engine_mod, "_resolve", recording)
        return calls, slabs

    @pytest.mark.parametrize("text", STREAMS)
    @pytest.mark.parametrize("policy_factory,f_s,f_b,cap", CASES)
    def test_kernel_equals_step_by_step_oracle(self, monkeypatch, text, policy_factory, f_s, f_b, cap):
        monkeypatch.setattr(engine_mod, "_STEP_SLAB", 4)
        monkeypatch.setattr(engine_mod, "_TRIAL_CHUNK", 5)
        # 300 trials: three chunks of one lane block each, the last ragged
        s, policy, trials = stream(text), policy_factory(), 300
        rows = trial_rows(2718, trials, len(s))
        ref = resolve_trials_by_steps(s, policy, f_s, f_b, rows, cap)
        for objective in ("profit", "welfare"):
            got = _mc_samples(s, policy, f_s, f_b, trials, 2718, cap, objective)
            assert np.array_equal(got, [getattr(r, objective) for r in ref]), objective
        for i, r in enumerate(ref):
            log = run_trial(s, policy, f_s, f_b, rows[i], stock_cap=cap)
            assert log.stock_after[-1] == r.leftover, i

    def test_a_chunk_jumps_to_the_next_seller(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_STEP_SLAB", 4)
        calls, _ = self.spy_on_draws(monkeypatch)
        s = stream("S^4 B^400 S B^3")
        _mc_samples(s, FixedPricePolicy(1.0, 0.0), U, U, 5, 1, None, "profit")
        # every seller buys and every buyer pays, so stock is gone after step 7
        assert calls == [(0, 4), (4, 4), (404, 4)]

    def test_a_slab_after_skipped_buyers_reads_its_own_draws(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_STEP_SLAB", 4)
        monkeypatch.setattr(engine_mod, "_TRIAL_CHUNK", 256)  # two blocks per chunk
        calls, slabs = self.spy_on_draws(monkeypatch)
        s = stream("S^4 B^400 S B^3")
        _mc_samples(s, FixedPricePolicy(1.0, 0.0), U, U, 300, 5, None, "profit")
        # three blocks in two chunks; each chunk reads steps 0-7, skips to 404 and reads 404-407
        assert calls == [(0, 4), (4, 4), (404, 4)] * 2
        full = np.stack([RandomStream(5).substream(b).random((len(s), 128)) for b in range(3)])
        for n, ((start, depth), slab) in enumerate(zip(calls, slabs)):
            blocks = full[:2] if n < 3 else full[2:]
            assert np.array_equal(slab, blocks[:, start : start + depth])

    def test_a_dead_stretch_ends_within_one_slab(self, monkeypatch):
        # at the real slab depth; each buyer takes a trial's item with probability 1/2,
        # so every trial's stock is gone long before the next seller, 601 steps on
        calls, _ = self.spy_on_draws(monkeypatch)
        s = stream("(S B^600)^10")
        _mc_samples(s, MedianPolicy(U, U), U, U, 8192, 1, None, "welfare")
        assert all(s.roles[start] == SELLER for start, _ in calls)
        assert sum(depth for _, depth in calls) <= 1000

    @pytest.mark.parametrize("text", ["S B^40 S^3 B^30 S B^5", "S^64 B^2048 S^8 B^600"])
    def test_trace_over_skipped_steps(self, monkeypatch, text):
        monkeypatch.setattr(engine_mod, "_STEP_SLAB", 4)
        calls, _ = self.spy_on_draws(monkeypatch)
        s, policy = stream(text), DecayingSellerPolicy(0.05, U, E)
        u = RandomStream(31).trial_uniforms(2, len(s))
        log = run_trial(s, policy, U, E, u)
        ref = resolve_trial_by_steps(s, policy, U, E, u)
        assert np.array_equal(log.traded, ref.traded)
        assert np.array_equal(log.stock_after, ref.stock_after)
        read = np.zeros(len(s), dtype=bool)
        for start, depth in calls:
            read[start : start + depth] = True
        skipped = np.flatnonzero(~read)
        assert skipped.size > len(s) // 2
        assert np.all(s.roles[skipped] == BUYER)
        assert not log.traded[skipped].any()
        assert not log.stock_after[skipped].any()
        values = [E.quantile(x) if role == BUYER else U.quantile(x) for role, x in zip(s.roles.tolist(), u.tolist())]
        assert np.array_equal(log.values, values)


class TestCoupledRuns:
    def test_prefix_domination_transfers_to_profit_per_trial(self, rng):
        pol = BalancedPolicy(1, U, U)
        pairs = [(AgentStream.from_pattern("SSBB"), AgentStream.from_pattern("SBSB"))]
        for m in (5, 12):
            s1 = random_alpha_balanced(1, m, rng)
            s2 = AgentStream.from_pattern(f"(SB)^{m}")
            pairs.append((s1, s2))
        for s1, s2 in pairs:
            for trial in range(200):
                gen = np.random.default_rng(trial)
                u_sellers, u_buyers = gen.random(s1.n_S), gen.random(s1.n_B)
                p1 = resolve_trial_by_steps(s1, pol, U, U, by_role_rank(s1, u_sellers, u_buyers)).profit
                p2 = resolve_trial_by_steps(s2, pol, U, U, by_role_rank(s2, u_sellers, u_buyers)).profit
                assert p1 >= p2 - 1e-12


def outcome_by_patterns(s, policy, f_s, f_b, stock_cap):
    """(E[profit], E[welfare], E[leftover]) by enumerating which side of its
    acceptance quantile th each step's uniform falls on: below with
    probability th (u = th/2), above with 1 - th (u = (1 + th)/2).  Each
    pattern is resolved by ``resolve_trial_by_steps``; a kept or obtained
    value is scored as its conditional mean given that side."""
    q = policy.seller_prices(s.n_S).tolist()
    steps = []  # per step: (th, mean value below th, mean value above th)
    for role, j in zip(s.roles.tolist(), np.cumsum(s.roles == SELLER).tolist()):
        d, price = (f_s, q[j - 1]) if role == SELLER else (f_b, float(policy.p))
        th = float(d.cdf(price))
        tail, mean = tail_value_by_quadrature(d, price), tail_value_by_quadrature(d, d.support()[0])
        steps.append((th, (mean - tail) / th if th > 0 else 0.0, tail / (1 - th) if th < 1 else 0.0))
    profit = welfare = leftover = 0.0
    for above in itertools.product((False, True), repeat=len(s)):
        weight = math.prod(1 - th if hi else th for (th, _, _), hi in zip(steps, above))
        if weight == 0.0:
            continue
        u = [(1 + th) / 2 if hi else th / 2 for (th, _, _), hi in zip(steps, above)]
        trial = resolve_trial_by_steps(s, policy, f_s, f_b, u, stock_cap=stock_cap)
        values = 0.0
        for role, traded, hi, (_, low_mean, high_mean) in zip(s.roles.tolist(), trial.traded, above, steps):
            if (role == SELLER) != traded:  # a seller who kept her item or a buyer who got one
                values += high_mean if hi else low_mean
        profit += weight * trial.profit
        welfare += weight * values
        leftover += weight * trial.leftover
    return profit, welfare, leftover


class TestExpectedOutcome:
    """``expected_outcome``, the exact stock chain, against brute force,
    a state-enumeration oracle and reference means."""

    @pytest.mark.parametrize(
        "spec,f_s,f_b,cap",
        [
            ("median", U, U, None),
            ("fixed:0.3,0.6", E, E, 2),
            ("decay:0.05", U, E, None),
            ("stock:2", U, U, None),
            ("quantile:3,2", U, U, 1),
        ],
    )
    def test_matches_every_accept_reject_pattern(self, spec, f_s, f_b, cap):
        rng = np.random.default_rng(17)
        policy = build_policy(spec, f_s, f_b)
        for n in (10, *rng.integers(1, 10, size=9)):
            s = AgentStream(rng.integers(0, 2, size=n).astype(np.uint8))
            profit, welfare, leftover = expected_outcome(s, policy, f_s, f_b, cap)
            ref = outcome_by_patterns(s, policy, f_s, f_b, cap)
            assert profit == pytest.approx(ref[0], rel=1e-12, abs=1e-14)
            assert welfare == pytest.approx(ref[1], rel=1e-8, abs=1e-10)
            assert leftover == pytest.approx(ref[2], rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("spec,f_s,f_b", [("median", U, U), ("balanced:1", U, U), ("fixed:0.3,0.6", E, E)])
    @pytest.mark.parametrize("m", (1, 5, 20))
    def test_profit_on_alternating_streams_matches_state_enumeration(self, spec, f_s, f_b, m):
        policy = build_policy(spec, f_s, f_b)
        q, p = float(policy.seller_prices(1)[0]), float(policy.p)
        ref = balanced_online_profit_expectation(m, p, q, float(f_s.cdf(q)), 1.0 - float(f_b.cdf(p)))
        assert expected_outcome(stream(f"(SB)^{m}"), policy, f_s, f_b)[0] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize(
        "text,spec,f_s,f_b,cap,which,expected",
        [
            ("(SSB)^40", "median", U, U, None, 0, -10.154500417),
            ("S^4096 B^4096", "decay:0.05", U, U, None, 0, 16.1081612069),
            ("(S^2 B)^1500", "balanced:2", U, U, None, 0, 235.7867510537),
            ("(SB)^50", "stock:2", U, U, None, 0, 1.8079051872),
            ("(S^2 B)^200", "balanced:2", U, E, None, 0, 54.53009481),
            ("S^128 B^128", "decay:0.05", U, U, 3, 0, 1.043876639),
            ("(S^4 B)^64", "fixed:0.3,0.6", E, E, 2, 0, 9.559775906),
            ("SB^8", "median", U, U, None, 1, 0.74853515625),
            ("(SB)^20", "median", U, U, None, 1, 13.447425678),
            ("S^10 B^10", "median", U, U, None, 1, 6.839261055),
            ("(SB)^40", "stock:1", U, U, None, 0, 1.9017319797),
            ("(SB)^40", "stock:3", U, U, None, 0, 1.0407896140),
            ("(S B)^10", "balanced:1", U, U, None, 2, 1.1149802642),
            ("(S B)^100", "balanced:1", U, U, None, 2, 4.4083893443),
            ("(S^2 B)^10", "balanced:2", U, U, None, 2, 1.3189113981),
            ("(S^2 B)^100", "balanced:2", U, U, None, 2, 5.1278427016),
        ],
    )
    def test_reference_means(self, text, spec, f_s, f_b, cap, which, expected):
        # which: 0 profit, 1 welfare, 2 leftover stock
        outcome = expected_outcome(stream(text), build_policy(spec, f_s, f_b), f_s, f_b, cap)
        assert outcome[which] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "text,spec,f_s,f_b,cap,expected",
        [
            ("S^4096 B^4096", "decay:0.05", U, U, None, (16.108161206908893, 2073.0056172965997, 4.557e-319)),
            ("(SB)^2000", "balanced:1", U, U, None, (233.98301815837456, 1356.3135211847703, 21.355975788834094)),
            ("S^2048 B^2048", "fixed:0.125,0.5", U, U, None, (95.99999999999983, 1199.9999999999984, 1.497011482367245e-167)),
            ("(S^2 B)^1000", "median", U, U, 3, (-1.1083916083916092, 1247.5629981906093, 2.2167832167832153)),
            # P[stock = 0] = 2^-1200 underflows to 0.0, so the lowest level climbs, then falls back
            ("S^1200 B^1200", "median", U, U, None, (-4.885516184601269, 892.6717257230978, 9.771032369202981)),
            # every seller sells and every buyer buys: one level holds all the mass
            ("(S^3 B^2)^40 B^40", "fixed:0.25,0.75", LOW, HIGH, None, (60.0, 105.0, 0.0)),
        ],
    )
    def test_trimmed_chain_equals_the_full_chain(self, text, spec, f_s, f_b, cap, expected):
        # recorded from the chain that stepped every level 0..cap at every step
        assert expected_outcome(stream(text), build_policy(spec, f_s, f_b), f_s, f_b, cap) == expected
