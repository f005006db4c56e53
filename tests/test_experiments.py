import dataclasses

import numpy as np
import pytest

import brokersim.experiments as experiments_mod
from brokersim import (
    AgentStream,
    ExperimentConfig,
    FixedPricePolicy,
    RatioRow,
    Uniform,
    emit_csv,
    expected_outcome,
    harmonic,
    run_experiment,
    uniform_offline_policy,
)
from brokersim.experiments import _row_seed
from oracles import loglog_slope

PARETO = "pareto-eps:0.5"

HEADER = "n,online_mean,online_ci95_low,online_ci95_high,offline_bound,ratio,slack_adjusted_ratio"


class TestConfig:
    def test_rejects_unsorted_sweep(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="balanced", n_values=(100, 50))

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError, match="nonempty"):
            ExperimentConfig(scenario="balanced", n_values=())

    def test_rejects_tiny_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="balanced", n_values=(50,), trials=99)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="mystery", n_values=(10,))

    def test_profit_scenario_requires_even_n(self):
        # an odd n at the end of a sweep fails at construction, before any row runs
        for scenario in ("profit-sqrt-n", "stock-limited"):
            with pytest.raises(ValueError, match="even n"):
                ExperimentConfig(scenario=scenario, n_values=(16, 17), trials=100)

    def test_profit_scenario_requires_uniform_values(self):
        cfg = ExperimentConfig(
            scenario="profit-sqrt-n", n_values=(16,), trials=100, seller_dist="exp:1", buyer_dist="exp:1"
        )
        with pytest.raises(ValueError):
            run_experiment(cfg)


# the config fields each scenario reads besides scenario, n_values, trials and seed
READS = {
    "welfare-log-n": {"seller_dist", "buyer_dist"},
    "profit-sqrt-n": {"seller_dist", "buyer_dist", "decay_eps"},
    "stock-limited": {"seller_dist", "buyer_dist", "stock_cap"},
    "balanced": {"seller_dist", "buyer_dist", "alpha"},
}
# a value away from the default for each optional field
OTHER = {"seller_dist": "exp:1", "buyer_dist": "exp:1", "alpha": 2, "stock_cap": 3, "decay_eps": 0.3}
UNREAD = [(scenario, name) for scenario in READS for name in OTHER if name not in READS[scenario]]


class TestScenarioFields:
    @pytest.mark.parametrize("scenario,name", UNREAD, ids=[f"{s}-{n}" for s, n in UNREAD])
    def test_refuses_a_field_the_scenario_does_not_read(self, scenario, name):
        with pytest.raises(ValueError, match=f"scenario {scenario} does not read {name}"):
            ExperimentConfig(scenario=scenario, n_values=(16,), **{name: OTHER[name]})

    def test_every_optional_field_is_read_by_some_scenario(self):
        # a field no scenario reads could only be refused, so it would be a dead option
        optional = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"scenario", "n_values", "trials", "seed"}
        assert optional == set(OTHER) == set().union(*READS.values())
        assert {s: set(reads) for s, (_, reads) in experiments_mod._SCENARIO_TABLE.items()} == READS

    @pytest.mark.parametrize("scenario", sorted(READS))
    def test_accepts_the_fields_it_reads_and_unread_defaults(self, scenario):
        ExperimentConfig(scenario=scenario, n_values=(16,), **{name: OTHER[name] for name in READS[scenario]})
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig) if f.name in OTHER}
        ExperimentConfig(scenario=scenario, n_values=(16,), **defaults)

    def test_accepts_the_benchmark_and_subset_configs(self):
        # perfbench's balanced-random workload sets both distributions and alpha
        ExperimentConfig(
            scenario="balanced", n_values=(100, 1000), trials=2000, seed=1,
            seller_dist="uniform:0,1", buyer_dist="uniform:0,1", alpha=2,
        )
        # acceptance criterion 10 replays a sweep prefix from a copy of every field
        for cfg in (
            ExperimentConfig(scenario="profit-sqrt-n", n_values=(256, 512, 1024), seed=1007),
            ExperimentConfig(scenario="welfare-log-n", n_values=(16, 32, 64), seed=2011, seller_dist="exp:1", buyer_dist="exp:1"),
            ExperimentConfig(scenario="welfare-log-n", n_values=(16, 32, 64), seed=2017, seller_dist=PARETO, buyer_dist=PARETO),
            ExperimentConfig(scenario="balanced", n_values=(100, 1000, 10000), seed=3001, alpha=1),
        ):
            dataclasses.replace(cfg, n_values=cfg.n_values[:2])

    @pytest.mark.parametrize(
        "scenario,n_values,objective,dist",
        [
            ("welfare-log-n", (4, 8), "welfare", "uniform:0,1"),
            ("profit-sqrt-n", (16, 32), "profit", "uniform:0,1"),
            ("stock-limited", (8, 16), "profit", "uniform:0,1"),
            ("balanced", (10, 20), "profit", "uniform:0,1"),
            ("welfare-log-n", (4, 8), "welfare", PARETO),
        ],
    )
    def test_one_simulation_per_row(self, monkeypatch, scenario, n_values, objective, dist):
        calls, monte_carlo = [], experiments_mod.monte_carlo

        def spy(stream, policy, f_s, f_b, trials, seed, stock_cap=None, objective="profit"):
            calls.append((trials, seed, stock_cap, objective))
            return monte_carlo(stream, policy, f_s, f_b, trials, seed, stock_cap, objective)

        monkeypatch.setattr(experiments_mod, "monte_carlo", spy)
        cfg = ExperimentConfig(scenario=scenario, n_values=n_values, trials=100, seed=6, seller_dist=dist, buyer_dist=dist)
        rows = run_experiment(cfg)
        assert [r.n for r in rows] == list(n_values)
        assert calls == [(cfg.trials, _row_seed(cfg, n), None, objective) for n in n_values]


class TestEmitCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text(encoding="utf-8") == HEADER + "\n"

    def test_one_row_two_lines(self, tmp_path):
        row = RatioRow(8, 1.0, 0.9, 1.1, 2.0, 2.0, 1.5)
        path = tmp_path / "one.csv"
        emit_csv([row], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == HEADER
        fields = lines[1].split(",")
        assert fields[0] == "8"
        assert float(fields[1]) == 1.0
        assert "e" in fields[1]

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv([RatioRow(1, 1, 1, 1, 1, 1, 1)], path)
        assert b"\r" not in path.read_bytes()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(scenario="balanced", n_values=(20, 40), trials=200, seed=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(cfg), a)
        emit_csv(run_experiment(cfg), b)
        assert a.read_bytes() == b.read_bytes()


class TestRunExperiment:
    def test_welfare_log_n_rows(self):
        cfg = ExperimentConfig(
            scenario="welfare-log-n", n_values=(4, 8, 16), trials=400, seed=3,
            seller_dist="exp:1", buyer_dist="exp:1",
        )
        rows = run_experiment(cfg)
        assert [r.n for r in rows] == [4, 8, 16]
        for r in rows:
            assert r.online_mean > 0
            assert r.offline_bound > 0
            assert r.ratio == pytest.approx(r.offline_bound / r.online_mean)
            assert r.slack_adjusted_ratio == pytest.approx((r.offline_bound - 1.0) / r.online_mean)

    def test_welfare_ratio_growth_tracks_harmonic(self):
        # offline grows like H_n/2 while online welfare plateaus
        cfg = ExperimentConfig(
            scenario="welfare-log-n", n_values=(100, 10_000), trials=4000, seed=11,
            seller_dist="exp:1", buyer_dist="exp:1",
        )
        rows = run_experiment(cfg)
        growth = rows[1].ratio / rows[0].ratio
        target = harmonic(10_000) / harmonic(100)
        assert abs(growth - target) / target < 0.30

    def test_balanced_rows_deterministic_and_subset_stable(self):
        cfg = ExperimentConfig(scenario="balanced", n_values=(20, 40), trials=300, seed=9)
        rows = run_experiment(cfg)
        assert rows == run_experiment(cfg)
        subset = run_experiment(ExperimentConfig(scenario="balanced", n_values=(40,), trials=300, seed=9))
        assert subset == [rows[1]]

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (1.0, 3.0)])
    def test_profit_sqrt_offline_is_exact_witness_profit(self, lo, hi):
        # U[1, 3] takes the general branch of uniform_offline_policy
        dist = f"uniform:{lo:g},{hi:g}"
        cfg = ExperimentConfig(
            scenario="profit-sqrt-n", n_values=(16, 32, 64), trials=100, seed=4, seller_dist=dist, buyer_dist=dist,
        )
        q, p, _ = uniform_offline_policy(lo, hi)
        uni = Uniform(lo, hi)
        for r in run_experiment(cfg):
            stream = AgentStream.from_pattern(f"S^{r.n // 2} B^{r.n // 2}")
            chain = expected_outcome(stream, FixedPricePolicy(q, p), uni, uni)[0]
            assert r.offline_bound == pytest.approx(chain, rel=1e-12, abs=0.0)

    def test_stock_limited_rows(self):
        cfg = ExperimentConfig(scenario="stock-limited", n_values=(64, 128), trials=300, seed=2, stock_cap=2)
        rows = run_experiment(cfg)
        for r in rows:
            assert r.online_mean > 0
            assert r.ratio > 1

    def test_welfare_on_pareto_priors_uses_pareto_values(self):
        cfg = ExperimentConfig(scenario="welfare-log-n", n_values=(8, 16), trials=400, seed=21, seller_dist=PARETO, buyer_dist=PARETO)
        rows = run_experiment(cfg)
        # pareto mean is 2, so the slack adjustment subtracts 2
        for r in rows:
            assert r.slack_adjusted_ratio == pytest.approx((r.offline_bound - 2.0) / r.online_mean)

    @pytest.mark.parametrize(
        "eps,rows",
        [
            (0.3, [
                (16, 5.960795563275528, 4.918077219007768, 7.0035139075432875, 10.48611341536358,
                 1.7591801805733018, 1.1999707096312004),
                (32, 5.147628616523334, 4.694339330506219, 5.6009179025404485, 16.978603249770806,
                 3.2983349255755003, 2.6507875631582327),
            ]),
            (0.5, [
                (16, 2.9027744142203376, 2.7853411172133073, 3.0202077112273678, 3.5727062198785178,
                 1.2307901717667986, 0.5417941580902815),
                (32, 2.788432577680383, 2.7136381289775953, 2.8632270263831705, 5.032877080900354,
                 1.8049125954076537, 1.0876637667973732),
            ]),
            (0.7, [
                (16, 1.7691596028756331, 1.7509601314088323, 1.787359074342434, 1.5008490180914595,
                 0.8483400907707506, 0.04085419393623349),
                (32, 1.7494482411414425, 1.7338197184873354, 1.7650767637955496, 1.8417480353324847,
                 1.0527593740817507, 0.23617538206873467),
            ]),
        ],
    )
    def test_pareto_priors_reproduce_the_heavy_tail_rows(self, eps, rows):
        # the rows of the former pareto-blowup scenario (seed 2017, 10,000 trials), kept bit for bit
        dist = f"pareto-eps:{eps}"
        cfg = ExperimentConfig(scenario="welfare-log-n", n_values=(16, 32), seed=2017, seller_dist=dist, buyer_dist=dist)
        assert [dataclasses.astuple(r) for r in run_experiment(cfg)] == rows


class TestLogLogSlope:
    def test_recovers_power_law(self):
        ns = np.array([10, 100, 1000, 10_000])
        ys = 3.5 * ns ** 0.5
        assert loglog_slope(ns, ys) == pytest.approx(0.5, abs=1e-12)

    def test_flat_series(self):
        assert loglog_slope([10, 100], [2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)
