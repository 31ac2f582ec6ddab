"""Tests for the prebake-bench command-line interface."""

import pytest

from repro.bench.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment == "all"
        assert args.repetitions == 200
        assert args.seed == 42

    def test_explicit_experiment(self):
        args = build_parser().parse_args(["fig3", "-r", "10", "-s", "7"])
        assert args.experiment == "fig3"
        assert args.repetitions == 10
        assert args.seed == 7


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_single_experiment(self, capsys):
        assert main(["fig5", "-r", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "synthetic-big" in out

    def test_run_sec5(self, capsys):
        assert main(["sec5"]) == 0
        assert "OpenFaaS" in capsys.readouterr().out

    def test_run_chaos_is_deterministic(self, capsys):
        assert main(["chaos", "-r", "10"]) == 0
        first = capsys.readouterr().out
        assert "Chaos recovery" in first
        assert "fault schedule digest" in first
        assert main(["chaos", "-r", "10"]) == 0
        assert capsys.readouterr().out == first

    def test_run_prewarm_reports_the_policy_ladder(self, capsys):
        assert main(["prewarm", "-r", "1", "--requests", "8000"]) == 0
        out = capsys.readouterr().out
        assert "X13" in out
        for policy in ("reactive", "fixed", "histogram", "oracle"):
            assert policy in out
        assert "predictive beats fixed keep-alive:" in out
        assert "oracle bounds the gap:" in out

    def test_capped_repetitions_warn_with_both_counts(self, capsys):
        assert main(["fleet-study", "-r", "5", "--requests", "2000"]) == 0
        captured = capsys.readouterr()
        assert ("event=experiment.repetitions_capped name=fleet-study "
                "requested=5 running=3") in captured.err
        assert captured.out.count("\nrep ") == 3

    def test_uncapped_repetitions_do_not_warn(self, capsys):
        assert main(["prewarm", "-r", "2", "--requests", "4000"]) == 0
        assert "repetitions_capped" not in capsys.readouterr().err

    def test_all_known_experiments_have_runners(self):
        for name, runner in EXPERIMENTS.items():
            assert callable(runner), name


class TestArgumentValidation:
    @pytest.mark.parametrize("argv,message", [
        (["fig3", "-r", "0"], "--repetitions must be a positive integer"),
        (["fig3", "-r", "-5"], "--repetitions must be a positive integer"),
        (["fig3", "-s", "0"], "--seed must be a positive integer"),
        (["fig3", "-s", "-1"], "--seed must be a positive integer"),
        (["fig3", "-w", "0"], "--workers must be a positive integer"),
        (["fig3", "-w", "-2"], "--workers must be a positive integer"),
        (["fleet-study", "-r", "0"],
         "--repetitions must be a positive integer"),
        (["fleet-study", "-s", "-1"], "--seed must be a positive integer"),
        (["fleet-study", "-w", "0"], "--workers must be a positive integer"),
        (["fleet-study", "--requests", "0"],
         "--requests must be a positive integer"),
        (["fleet-study", "--requests", "-3"],
         "--requests must be a positive integer"),
        (["prewarm", "-r", "0"], "--repetitions must be a positive integer"),
        (["prewarm", "-r", "-2"], "--repetitions must be a positive integer"),
        (["prewarm", "-s", "0"], "--seed must be a positive integer"),
        (["prewarm", "-s", "-7"], "--seed must be a positive integer"),
        (["prewarm", "--requests", "0"],
         "--requests must be a positive integer"),
        (["prewarm", "--requests", "-1"],
         "--requests must be a positive integer"),
        (["fig3", "-r", "1"], "--repetitions must be at least 2 for fig3"),
        (["fig5", "-r", "1"], "--repetitions must be at least 2 for fig5"),
        (["fig6", "-r", "1"], "--repetitions must be at least 2 for fig6"),
        (["table1", "-r", "1"],
         "--repetitions must be at least 2 for table1"),
        (["all", "-r", "1"], "--repetitions must be at least 2 for fig3"),
    ])
    def test_bad_knobs_exit_2_with_a_clear_message(self, capsys, argv,
                                                   message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_fleet_report_requires_an_artifact(self, capsys):
        assert main(["fleet-report"]) == 2
        assert "--fleet-in" in capsys.readouterr().err

    def test_validation_runs_before_the_experiment(self, capsys):
        # Even a bogus experiment name with a bad knob reports the
        # knob (exit 2 either way, but the message must be the knob's).
        assert main(["bogus", "-r", "0"]) == 2
        assert "--repetitions" in capsys.readouterr().err
