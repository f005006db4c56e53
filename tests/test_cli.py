import dataclasses

import pytest

from brokersim import (
    SELLER,
    AgentStream,
    Exponential,
    ExperimentConfig,
    Pareto,
    RandomStream,
    Uniform,
    build_policy,
    emit_csv,
    run_experiment,
)
from brokersim import verify
from brokersim.cli import _build_parser, main, parse_config
from oracles import resolve_trial_by_steps


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def exit_code(argv):
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestSimulate:
    ARGS = [
        "simulate",
        "--stream", "(SB)^10",
        "--policy", "median",
        "--seller-dist", "uniform:0,1",
        "--buyer-dist", "uniform:0,1",
        "--trials", "300",
        "--seed", "6",
    ]

    def test_emits_one_record(self, capsys):
        code, out, err = run(self.ARGS, capsys)
        assert code == 0
        line = out.strip().splitlines()[0]
        assert line.startswith("objective=profit mean=")
        assert "std_err=" in line and "ci95_low=" in line and "trials=300" in line

    def test_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run(self.ARGS + ["--trace", str(trace)], capsys)
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "t,role,price,value,traded,stock"
        assert len(lines) == 21
        assert lines[1].split(",")[1] == "S"

    def test_trace_over_a_dead_stretch(self, capsys, tmp_path):
        # buyers after the first stock-out are skipped by the kernel; the trace still lists
        # them, untraded at zero stock, each valued from its own draw
        text, trace = "S^64 B^2048 S^8 B^600", tmp_path / "trace.csv"
        argv = ["simulate", "--stream", text, "--policy", "decay:0.05", "--seller-dist", "uniform:0,1",
                "--buyer-dist", "exp:1", "--trials", "2", "--seed", "6", "--trace", str(trace)]
        assert run(argv, capsys)[0] == 0
        s, f_s, f_b = AgentStream.from_pattern(text), Uniform(0.0, 1.0), Exponential(1.0)
        policy = build_policy("decay:0.05", f_s, f_b)
        u = RandomStream(6).trial_uniforms(0, len(s))
        ref = resolve_trial_by_steps(s, policy, f_s, f_b, u)
        q = iter(policy.seller_prices(s.n_S).tolist())
        lines = ["t,role,price,value,traded,stock"]
        for t, (role, x) in enumerate(zip(s.roles.tolist(), u.tolist())):
            price, value = (next(q), f_s.quantile(x)) if role == SELLER else (policy.p, f_b.quantile(x))
            lines.append(
                f"{t},{'S' if role == SELLER else 'B'},{price:.17e},{value:.17e},"
                f"{int(ref.traded[t])},{ref.stock_after[t]}"
            )
        assert trace.read_text() == "\n".join(lines) + "\n"
        assert ref.stock_after[1000] == 0  # the trace does cover a dead stretch

    def test_bad_stream_is_usage_error(self, capsys):
        argv = list(self.ARGS)
        argv[2] = "SB)"
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "error:" in err

    def test_deeply_nested_stream_is_usage_error(self, capsys):
        argv = list(self.ARGS)
        argv[2] = "(" * 1200 + "S" + ")^1" * 1200
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "nest" in err and "Traceback" not in err

    def test_bad_policy_is_usage_error(self, capsys):
        argv = list(self.ARGS)
        argv[4] = "haggle:3"
        code, _, err = run(argv, capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "policy,seller,buyer,needle",
        [
            ("fixed:1e308,1e308", "uniform:0,1", "uniform:0,1", "fixed:1e308,1e308"),  # math.fsum overflows
            ("median", "exp:1e-320", "uniform:0,1", "exp:1e-320"),  # the mean 1/rate overflows
            ("median", "uniform:0,1e308", "uniform:0,1e308", "uniform:0,1e308"),  # std_err overflows
        ],
    )
    def test_float64_overflow_is_a_one_line_usage_error(self, capsys, policy, seller, buyer, needle):
        argv = ["simulate", "--stream", "SB", "--policy", policy, "--seller-dist", seller, "--buyer-dist", buyer,
                "--trials", "1000", "--seed", "1"]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err

    def test_negative_seed_is_usage_error_naming_seed(self, capsys):
        code, _, err = run(self.ARGS[:-1] + ["-1"], capsys)
        assert code == 2
        assert "seed must be >= 0" in err


class TestSolveFractional:
    def test_prints_solution_and_certificates(self, capsys):
        code, out, _ = run(
            ["solve-fractional", "--alpha", "1", "--seller-dist", "uniform:0,1", "--buyer-dist", "uniform:0,1"],
            capsys,
        )
        assert code == 0
        assert "p=0.75" in out and "q=0.25" in out and "per_buyer_value=0.125" in out
        assert "value-lower-bound=PASS" in out

    def test_failed_certificate_exits_1(self, capsys):
        # sellers above every buyer: the solver's value misses the certified lower bound
        code, out, _ = run(
            ["solve-fractional", "--alpha", "1", "--seller-dist", "uniform:2,3", "--buyer-dist", "uniform:0,0.5"],
            capsys,
        )
        assert code == 1
        assert "value-lower-bound=FAIL(slack=-0.004598493015)" in out

    def test_regularity_failure_is_usage_error(self, capsys):
        code, _, err = run(
            ["solve-fractional", "--alpha", "1", "--seller-dist", "uniform:0,1", "--buyer-dist", "pareto-eps:0.5"],
            capsys,
        )
        assert code == 2
        assert "MHR" in err


class TestExperiment:
    def test_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run(
            ["experiment", "balanced", "--n-values", "20,40", "--trials", "200", "--seed", "3", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        assert "csv written" in out

    def test_unset_options_take_config_defaults(self, capsys, tmp_path):
        out_path, expected = tmp_path / "rows.csv", tmp_path / "expected.csv"
        argv = ["experiment", "stock-limited", "--n-values", "8", "--trials", "200", "--seed", "3"]
        code, _, _ = run(argv + ["--out", str(out_path)], capsys)
        assert code == 0
        cfg = ExperimentConfig(scenario="stock-limited", n_values=(8,), trials=200, seed=3)
        emit_csv(run_experiment(cfg), expected)
        assert out_path.read_text() == expected.read_text()

    def test_n_values_from_config(self, capsys, tmp_path):
        conf, out_path = tmp_path / "sweep.conf", tmp_path / "rows.csv"
        conf.write_text("n_values = 20, 40\ntrials = 200\n")
        code, _, _ = run(["experiment", "balanced", "--config", str(conf), "--out", str(out_path)], capsys)
        assert code == 0
        assert [line.split(",")[0] for line in out_path.read_text().splitlines()[1:]] == ["20", "40"]

    def test_config_values_parse_as_flags(self, capsys, tmp_path):
        conf, by_conf, by_flags = tmp_path / "typed.conf", tmp_path / "conf.csv", tmp_path / "flags.csv"
        conf.write_text("n_values = 4, 8,16\ndecay_eps = 0.25\n")
        argv = ["experiment", "profit-sqrt-n", "--trials", "100"]
        assert main(argv + ["--config", str(conf), "--out", str(by_conf)]) == 0
        assert main(argv + ["--n-values", "4,8,16", "--decay-eps", "0.25", "--out", str(by_flags)]) == 0
        assert by_conf.read_text() == by_flags.read_text()

    def test_every_config_field_is_an_option(self):
        args = _build_parser().parse_args(["experiment", "balanced"])
        for field in dataclasses.fields(ExperimentConfig):
            if field.name not in ("scenario", "n_values"):
                assert hasattr(args, field.name), field.name

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["welfare-log-n", "--alpha", "7", "--stock-cap", "9", "--decay-eps", "0.3"], "alpha"),
            (["balanced", "--stock-cap", "3", "--decay-eps", "0.3"], "stock_cap"),
        ],
    )
    def test_unread_option_is_usage_error(self, capsys, tmp_path, argv, name):
        out_path = tmp_path / "rows.csv"
        code, _, err = run(["experiment", *argv, "--n-values", "16", "--trials", "100", "--out", str(out_path)], capsys)
        assert code == 2
        assert f"does not read {name}" in err and argv[0] in err
        assert not out_path.exists()

    def test_unequal_uniform_priors_are_usage_error(self, capsys, tmp_path):
        # the offline witness is defined for one interval on both sides; on two its offline value can be negative
        out_path = tmp_path / "rows.csv"
        argv = ["experiment", "profit-sqrt-n", "--n-values", "256,1024", "--trials", "100"]
        argv += ["--seller-dist", "uniform:0,1", "--buyer-dist", "uniform:0,0.5", "--out", str(out_path)]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "profit-sqrt-n" in err and "uniform:0,1" in err and "uniform:0,0.5" in err
        assert not out_path.exists()

    def test_bad_n_values_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "balanced", "--n-values", "20,x"])
        assert exc.value.code == 2

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "mystery"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["pareto-blowup"], ["welfare-log-n", "--pareto-eps", "0.5"]])
    def test_folded_pareto_scenario_is_gone(self, capsys, argv):
        # heavy tails run as welfare-log-n with pareto-eps:<eps> priors; the old scenario and flag are usage errors
        with pytest.raises(SystemExit) as exc:
            main(["experiment", *argv, "--n-values", "16", "--trials", "100"])
        assert exc.value.code == 2


def _drop_last_pair(monkeypatch):
    fifo = verify.fifo_match
    monkeypatch.setattr(verify, "fifo_match", lambda stream, capacity=None: fifo(stream, capacity)[:-1])


# one way to break each suite's invariant, so that each suite is seen to fail
BREAKS = {
    "matching": _drop_last_pair,
    "mhr": lambda mp: mp.setattr(verify, "_MHR_SET", (Pareto(0.5),)),
    "adaptive": lambda mp: mp.setattr(verify.benchmarks, "adaptive_dp_oracle", lambda *a, **k: 10.0),
    "azuma": lambda mp: mp.setattr(verify.benchmarks, "azuma_bound", lambda m, alpha: 0.0),
    "bounds": lambda mp: mp.setattr(verify, "expected_outcome", lambda *a, **k: (1e9, 1e9, 0.0)),
}


class TestVerify:
    def test_a_passing_suite_exits_0(self, capsys):
        # acceptance criteria 2-5 run the other four suites on their passing path
        code, out, _ = run(["verify", "bounds"], capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out and "failures=0" in out

    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_a_broken_invariant_gives_a_fail_line(self, monkeypatch, suite):
        BREAKS[suite](monkeypatch)
        assert any(not c.passed and c.render().endswith(" FAIL") for c in verify.run_suite(suite))

    def test_unknown_suite_is_refused(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify.run_suite("nope")

    def test_a_failed_check_exits_1(self, capsys, monkeypatch):
        BREAKS["azuma"](monkeypatch)
        code, out, _ = run(["verify", "azuma"], capsys)
        assert code == 1
        assert out.count(" FAIL\n") == 9 and "failures=9" in out

    def test_certificate_lines_keep_the_certificates_verdict(self, monkeypatch):
        # a slack inside certify_bounds' -1e-12 tolerance passes there, so it passes here too
        monkeypatch.setattr(verify, "certify_bounds", lambda *a, **k: (verify.CheckLine("certificate", "value-lower-bound", True, -5e-13),))
        lines = [c for c in verify.run_suite("bounds") if c.name.startswith("certificate")]
        assert len(lines) == 2
        assert all(c.passed and c.render().endswith("PASS") for c in lines)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "azuma", "--trials", "5"],
            ["verify", "bounds", "--seed", "3"],
            ["solve-fractional", "--alpha", "2", "--seller-dist", "uniform:0,1", "--buyer-dist", "uniform:0,1", "--seed", "1"],
        ],
    )
    def test_commands_that_never_sample_take_no_seed_or_trials(self, capsys, argv):
        assert exit_code(argv) == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_seed_in_a_config_for_verify_is_a_usage_error(self, capsys, tmp_path):
        conf = tmp_path / "seeded.conf"
        conf.write_text("seed = 3\n")
        code, out, err = run(["verify", "mhr", "--config", str(conf)], capsys)
        assert code == 2 and out == ""
        assert "'seed'" in err


class TestConfigAndEnv:
    def test_env_seed_used_as_default(self, capsys, monkeypatch):
        monkeypatch.setenv("BROKERSIM_SEED", "123")
        code, out, _ = run(TestSimulate.ARGS[:-2], capsys)  # drop --seed 6
        assert code == 0
        assert "seed=123" in out

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BROKERSIM_SEED", "123")
        code, out, _ = run(TestSimulate.ARGS, capsys)
        assert "seed=6" in out

    def test_config_file_overrides_flags(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("trials = 150  # fewer trials\nseed = 99\n")
        code, out, _ = run(TestSimulate.ARGS + ["--config", str(conf)], capsys)
        assert code == 0
        assert "trials=150" in out and "seed=99" in out

    def test_config_supplies_required_options(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("stream = (SB)^10\npolicy = median\nseller_dist = uniform:0,1\nbuyer-dist = uniform:0,1\n")
        by_flags = run(TestSimulate.ARGS, capsys)
        by_conf = run(["simulate", "--trials", "300", "--seed", "6", "--config", str(conf)], capsys)
        assert by_conf == by_flags and by_conf[0] == 0

    def test_config_with_a_byte_order_mark_supplies_required_options(self, capsys, tmp_path):
        text = "stream = (SB)^10\npolicy = median\nseller_dist = uniform:0,1\nbuyer_dist = uniform:0,1\n"
        plain, bom = tmp_path / "plain.conf", tmp_path / "bom.conf"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        argv = ["simulate", "--trials", "10"]
        by_bom = run(argv + ["--config", str(bom)], capsys)
        assert by_bom == run(argv + ["--config", str(plain)], capsys) and by_bom[0] == 0

    def test_config_supplies_required_alpha(self, capsys, tmp_path):
        conf = tmp_path / "frac.conf"
        conf.write_text("alpha = 2\n")
        argv = ["solve-fractional", "--seller-dist", "uniform:0,1", "--buyer-dist", "uniform:0,1"]
        by_conf = run(argv + ["--config", str(conf)], capsys)
        assert by_conf == run(argv + ["--alpha", "2"], capsys) and by_conf[0] == 0
        assert "alpha=2 " in by_conf[1]

    def test_missing_required_option_is_named(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("stream = SB\npolicy = median\nseller_dist = uniform:0,1\n")
        assert exit_code(["simulate", "--trials", "10", "--config", str(conf)]) == 2
        assert "--buyer-dist" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("quantum = 3\n")
        code, _, err = run(TestSimulate.ARGS + ["--config", str(conf)], capsys)
        assert code == 2
        assert "quantum" in err

    @pytest.mark.parametrize("key", ["command", "config", "run"])
    def test_config_cannot_rebind_subcommand_or_config(self, capsys, tmp_path, key):
        conf = tmp_path / "rebind.conf"
        conf.write_text(f"{key} = verify\n")
        code, _, err = run(TestSimulate.ARGS + ["--config", str(conf)], capsys)
        assert code == 2
        assert repr(key) in err

    @pytest.mark.parametrize("line", ["scenario = stock-limited", "trial = 150"])
    def test_config_key_must_name_an_option(self, capsys, tmp_path, line):
        # a positional is not an option, and argparse would read ``--trial`` as ``--trials``
        conf = tmp_path / "sweep.conf"
        conf.write_text(line + "\n")
        argv = ["experiment", "balanced", "--n-values", "8", "--trials", "100", "--out", str(tmp_path / "rows.csv")]
        assert exit_code(argv + ["--config", str(conf)]) == 2
        assert repr(line.split()[0]) in capsys.readouterr().err

    def test_bad_config_value_names_its_option(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("objective = median\n")
        assert exit_code(TestSimulate.ARGS + ["--config", str(conf)]) == 2
        assert "--objective" in capsys.readouterr().err

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BROKERSIM_SEED", "abc")
        assert exit_code(TestSimulate.ARGS[:-2]) == 2  # drop --seed 6
        assert "--seed" in capsys.readouterr().err

    def test_parse_config_types(self, tmp_path):
        conf = tmp_path / "typed.conf"
        conf.write_text("# comment only\nn_values = 4, 8,16\ndecay_eps = 0.25\nout = results.csv\n")
        values = parse_config(str(conf))
        assert values == {"n_values": "4, 8,16", "decay_eps": "0.25", "out": "results.csv"}

    def test_config_line_without_a_value_names_file_and_line(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("policy = median\nstream =\n")
        assert exit_code(TestSimulate.ARGS + ["--config", str(conf)]) == 2
        assert f"{conf}:2" in capsys.readouterr().err

    def test_parse_config_rejects_bad_lines(self, tmp_path):
        conf = tmp_path / "broken.conf"
        conf.write_text("just words\n")
        from brokersim import SpecParseError

        with pytest.raises(SpecParseError):
            parse_config(str(conf))
