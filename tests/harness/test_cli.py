"""Tests of the ses-repro CLI (figure/dataset/solve/demo)."""

import json

import pytest

from repro.core.engine import ENGINE_KINDS
from repro.data.serialization import save_instance
from repro.harness.cli import build_parser, main

from tests.conftest import make_random_instance


class TestParser:
    def test_figure_panels_accepted(self):
        parser = build_parser()
        for panel in ("1a", "1b", "1c", "1d"):
            args = parser.parse_args(["figure", panel])
            assert args.panel == panel

    def test_unknown_panel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "2z"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_requires_k(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "file.json"])


#: Minimal argv of every subcommand that takes ``--engine``.
ENGINE_COMMANDS = {
    "demo": ["demo"],
    "figure": ["figure", "1a"],
    "gaps": ["gaps", "f.json", "-k", "1"],
    "solve": ["solve", "f.json", "-k", "1"],
    "stream": ["stream"],
}


class TestEngineFlag:
    """Every ``--engine`` mirrors ``ENGINE_KINDS``: the first kind is the
    default, every kind parses, and a removed kind is a usage error."""

    @pytest.mark.parametrize("command", sorted(ENGINE_COMMANDS))
    def test_choices_follow_engine_kinds(self, command, capsys):
        parser = build_parser()
        argv = ENGINE_COMMANDS[command]
        assert parser.parse_args(argv).engine == ENGINE_KINDS[0]
        for kind in ENGINE_KINDS:
            assert parser.parse_args([*argv, "--engine", kind]).engine == kind
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, "--engine", "vectorized"])
        assert "invalid choice: 'vectorized'" in capsys.readouterr().err


class TestDatasetCommand:
    def test_prints_summary_json(self, capsys):
        exit_code = main(
            ["dataset", "--users", "80", "--events", "60", "--groups", "8"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_users"] == 80.0
        assert "mean_overlap" in payload


class TestSolveCommand:
    @pytest.fixture
    def instance_file(self, tmp_path):
        instance = make_random_instance(seed=310)
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        return path

    def test_solves_and_prints_schedule(self, instance_file, capsys):
        exit_code = main(["solve", str(instance_file), "-k", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "GRD" in output
        assert "->" in output

    def test_json_output_parses(self, instance_file, capsys):
        exit_code = main(["solve", str(instance_file), "-k", "2", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["assignments"]) == 2

    def test_alternative_solver(self, instance_file, capsys):
        exit_code = main(
            ["solve", str(instance_file), "-k", "2", "--solver", "rand"]
        )
        assert exit_code == 0
        assert "RAND" in capsys.readouterr().out


class TestSolversCommand:
    def test_lists_every_registered_solver(self, capsys):
        from repro.api import solver_registry

        assert main(["solvers"]) == 0
        output = capsys.readouterr().out
        for name in solver_registry.names():
            assert name in output

    def test_prints_kind_column(self, capsys):
        assert main(["solvers"]) == 0
        output = capsys.readouterr().out
        for kind in ("batch", "refiner", "online"):
            assert kind in output

    def test_kind_filter_online(self, capsys):
        assert main(["solvers", "--kind", "online"]) == 0
        output = capsys.readouterr().out
        assert "incremental" in output
        assert "grd " not in output  # batch solvers filtered out

    def test_kind_filter_batch_excludes_online(self, capsys):
        assert main(["solvers", "--kind", "batch"]) == 0
        output = capsys.readouterr().out
        assert "grd" in output
        assert "incremental" not in output

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solvers", "--kind", "mystery"])


class TestStreamCommand:
    _SMALL = ["--ops", "6", "--users", "60", "-k", "4", "--seed", "3"]

    def test_replays_all_policies_by_default(self, capsys):
        assert main(["stream", *self._SMALL]) == 0
        output = capsys.readouterr().out
        for policy in ("incremental", "periodic-rebuild", "hybrid"):
            assert policy in output
        assert "mean-op" in output

    def test_single_policy_selection(self, capsys):
        assert main(["stream", *self._SMALL, "--policy", "incremental"]) == 0
        output = capsys.readouterr().out
        assert "incremental" in output
        assert "periodic-rebuild" not in output

    def test_save_and_replay_trace(self, tmp_path, capsys):
        import re

        def utilities(text):
            return re.findall(r"final-utility=\S+", text)

        path = tmp_path / "trace.jsonl"
        assert main(["stream", *self._SMALL, "--save-trace", str(path)]) == 0
        assert path.exists()
        first = capsys.readouterr().out
        assert main(["stream", *self._SMALL, "--trace", str(path)]) == 0
        # replaying the saved trace reproduces the generated outcomes
        # exactly (only wall-clock latencies may differ between runs)
        replayed = utilities(capsys.readouterr().out)
        assert replayed and replayed == utilities(first)

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--policy", "eager"])


class TestDemoCommand:
    def test_demo_runs_and_compares_methods(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        for method in ("GRD", "TOP", "RAND", "SA"):
            assert method in output


class TestFigureCommand:
    def test_quick_figure_1a(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        exit_code = main(
            [
                "figure", "1a", "--quick", "--users", "60",
                "--seed", "1", "--csv", str(csv_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Fig 1a" in output
        assert "GRD" in output
        assert csv_path.exists()

    def test_quick_figure_1b(self, capsys):
        exit_code = main(["figure", "1b", "--quick", "--users", "50"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Fig 1b" in output
        assert "ms" in output  # time axis rendering

    def test_quick_figure_1c(self, capsys):
        exit_code = main(["figure", "1c", "--quick", "--users", "50"])
        assert exit_code == 0
        assert "Fig 1c" in capsys.readouterr().out

    def test_quick_figure_1d(self, capsys):
        exit_code = main(["figure", "1d", "--quick", "--users", "50"])
        assert exit_code == 0
        assert "Fig 1d" in capsys.readouterr().out

    def test_solve_report_mode(self, tmp_path, capsys):
        from repro.data.serialization import save_instance

        from tests.conftest import make_random_instance

        instance = make_random_instance(seed=311)
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        exit_code = main(["solve", str(path), "-k", "3", "--report"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "attend" in output
        assert "interval" in output


class TestExplainLocks:
    @pytest.fixture
    def instance_file(self, tmp_path):
        path = tmp_path / "instance.json"
        save_instance(make_random_instance(seed=312), path)
        return path

    def test_feasible_locks_exit_zero(self, instance_file, capsys):
        exit_code = main(
            ["gaps", str(instance_file), "-k", "3", "--pin", "0:0",
             "--explain-locks"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "verdict: feasible" in output
        assert "gap report" not in output  # no solve happened

    def test_infeasible_locks_exit_nonzero(self, instance_file, capsys):
        exit_code = main(
            ["gaps", str(instance_file), "-k", "3", "--pin", "99:0",
             "--explain-locks"]
        )
        assert exit_code == 1
        assert "out-of-range" in capsys.readouterr().out

    def test_no_locks_is_trivially_feasible(self, instance_file, capsys):
        exit_code = main(
            ["gaps", str(instance_file), "-k", "3", "--explain-locks"]
        )
        assert exit_code == 0
        assert "verdict: feasible" in capsys.readouterr().out
