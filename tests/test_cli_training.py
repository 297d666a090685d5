"""CLI plumbing: argument parsing and end-to-end commands."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "fig1", "fig2", "sweep", "comm", "run"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "fedclust"
        assert args.partition == "dirichlet"
        assert args.executor == "serial"
        assert args.client_fraction == 1.0
        assert args.failure_rate == 0.0
        assert args.straggler_rate == 0.0

    def test_scenario_flags_parse(self):
        args = build_parser().parse_args(
            [
                "run",
                "--client-fraction", "0.5",
                "--failure-rate", "0.2",
                "--straggler-rate", "0.1",
            ]
        )
        assert args.client_fraction == 0.5
        assert args.failure_rate == 0.2
        assert args.straggler_rate == 0.1

    def test_middleware_v2_flags_parse(self):
        args = build_parser().parse_args(
            [
                "run",
                "--staleness-decay", "0.5",
                "--compute-budget", "2", "8",
                "--trace", "schedule.json",
            ]
        )
        assert args.staleness_decay == 0.5
        assert args.compute_budget == [2, 8]
        assert args.trace == "schedule.json"
        # Defaults leave the scenario at paper scale.
        defaults = build_parser().parse_args(["run"])
        assert defaults.staleness_decay == 0.0
        assert defaults.compute_budget is None
        assert defaults.trace is None

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scale", "galactic"])


@pytest.mark.slow
class TestCliExecution:
    def test_run_command_writes_json(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "result.json"
        code = main(
            [
                "run",
                "--algorithm", "fedavg",
                "--dataset", "fmnist",
                "--clients", "4",
                "--rounds", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "run"
        assert 0.0 <= payload["final_accuracy"] <= 1.0
        printed = capsys.readouterr().out
        assert "final accuracy" in printed

    def test_run_command_scenario_flags_route_to_engine(self, tmp_path, capsys):
        """End-to-end seeded smoke: scenario flags reach every algorithm
        through ScenarioConfig, and the run is reproducible."""
        out = tmp_path / "scenario.json"

        def run_once():
            code = main(
                [
                    "run",
                    "--algorithm", "ifca",
                    "--dataset", "fmnist",
                    "--clients", "6",
                    "--rounds", "2",
                    "--model", "mlp",
                    "--client-fraction", "0.67",
                    "--failure-rate", "0.25",
                    "--straggler-rate", "0.25",
                    "--out", str(out),
                ]
            )
            assert code == 0
            return json.loads(out.read_text())

        payload = run_once()
        assert payload["scenario"] == {
            "client_fraction": 0.67,
            "failure_rate": 0.25,
            "straggler_rate": 0.25,
        }
        assert payload["checkpoint"] is None
        assert 0.0 <= payload["final_accuracy"] <= 1.0
        # IFCA has no constructor fraction — participation must have
        # come through the engine scenario (4 of 6 clients per round).
        repeat = run_once()
        assert repeat["final_accuracy"] == payload["final_accuracy"]
        assert repeat["history"] == payload["history"]
        capsys.readouterr()

    def test_run_command_replays_trace_file(self, tmp_path, capsys):
        """--trace FILE loads an availability schedule and drives
        participation with it (client 3 only ever appears in round 2)."""
        from repro.fl.trace import AvailabilityTrace

        trace_path = tmp_path / "schedule.json"
        AvailabilityTrace({3: [2]}).save(trace_path)
        out = tmp_path / "result.json"
        code = main(
            [
                "run",
                "--algorithm", "fedavg",
                "--dataset", "fmnist",
                "--clients", "4",
                "--rounds", "2",
                "--model", "mlp",
                "--staleness-decay", "0.5",
                "--compute-budget", "3",
                "--trace", str(trace_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["scenario"] == {
            "staleness_decay": 0.5,
            "compute_budget": [3, 3],
            "trace": {"3": [2]},
        }
        # Round 1 misses client 3, round 2 has everyone.
        curve = payload["history"]
        assert curve["n_rounds"] == 2
        capsys.readouterr()

    def test_fig2_command(self, capsys, monkeypatch):
        # Micro-ify via env scale: quick is smallest preset; accept runtime.
        monkeypatch.setenv("REPRO_SCALE", "quick")
        code = main(["fig2", "--dataset", "fmnist"])
        assert code == 0
        assert "⑥" in capsys.readouterr().out
