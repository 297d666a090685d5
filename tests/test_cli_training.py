"""CLI plumbing: argument parsing, input errors and end-to-end commands."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import ablation, table1
from repro.experiments.ablation import SCHEMA_VERSION, run_cells
from repro.experiments.presets import SCALES, ExperimentScale, get_scale
from repro.experiments.table1 import table1_matrix
from repro.fl.config import TrainConfig


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


#: (flags, a fragment of the exit message) for every bad ``repro run``
#: flag set: first the combinations only the CLI can see, then values a
#: config rejects.
REJECTED_RUN_FLAGS = [
    (["--resume"], "--resume needs --checkpoint"),
    (["--async-concurrency", "2"], "need --async-buffer"),
    (["--async-duration", "1", "2"], "need --async-buffer"),
    (["--corruption-kinds", "nan"], "needs --corruption-rate"),
    (["--store-path", "shards"], "only meaningful for the sharded"),
    (["--compute-budget", "1", "2", "3"], "compute_budget must be"),
    (
        ["--async-buffer", "2", "--async-duration", "1", "2", "3"],
        "duration_range must be",
    ),
    (["--failure-rate", "1.5"], "failure_rate"),
    (["--clients", "0"], "n_clients must be >= 1"),
    (["--rounds", "0"], "n_rounds must be >= 1"),
    (["--algorithm", "fedclust", "--rounds", "1"], "fedclust needs n_rounds >= 2"),
    (["--algorithm", "pacfl", "--rounds", "1"], "pacfl needs n_rounds >= 2"),
    (["--algorithm", "nope"], "unknown algorithm"),
    (["--checkpoint", "ckpt", "--checkpoint-every", "0"], "every"),
]


class TestRunRejections:
    """Every bad flag set exits with a message before any data is built."""

    @pytest.mark.parametrize(
        "flags, message",
        REJECTED_RUN_FLAGS,
        ids=["_".join(flags) for flags, _ in REJECTED_RUN_FLAGS],
    )
    def test_exits_before_the_federation_is_built(
        self, flags, message, monkeypatch
    ):
        def no_federation(**kwargs):
            raise AssertionError("a federation was built")

        monkeypatch.setattr(ablation, "build_federation", no_federation)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--dataset", "fmnist", "--model", "mlp", *flags])
        assert exc.value.code not in (0, None)
        assert message in str(exc.value.code)


#: Table I's preset shrunk to seconds: 4 clients, 2 rounds, 2 steps a round.
TINY = ExperimentScale(
    name="quick",
    n_clients=4,
    n_samples=200,
    n_rounds=2,
    seeds=(0,),
    train=TrainConfig(local_epochs=1, batch_size=32, lr=0.05, max_steps=2),
    eval_every=2,
)


def test_table1_out_writes_each_cells_record(tmp_path, monkeypatch, capsys):
    """``table1 --out`` writes the harness record of every cell it ran,
    and each record's accuracy is the table's."""
    monkeypatch.setitem(SCALES, "quick", TINY)
    printed = []
    format_table1 = table1.format_table1
    monkeypatch.setattr(
        table1,
        "format_table1",
        lambda result: printed.append(result) or format_table1(result),
    )
    out = tmp_path / "table1.json"
    main(
        [
            "table1",
            "--datasets", "fmnist",
            "--methods", "fedavg", "fedclust",
            "--scale", "quick",
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    records = json.loads(out.read_text())["records"]
    (result,) = printed
    assert [r["algorithm"] for r in records] == ["fedavg", "fedclust"]
    for record in records:
        assert record["schema"] == SCHEMA_VERSION
        assert {"run_id", "traffic", "engine"} <= set(record)
        assert record["metrics"]["final_accuracy"] == result.cell(
            record["algorithm"], "fmnist"
        ).accuracies[0]


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
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["matrix"] == "run"
        assert payload["knob"] == "baseline"
        assert 0.0 <= payload["metrics"]["final_accuracy"] <= 1.0
        printed = capsys.readouterr().out
        assert "final accuracy" in printed
        assert payload["run_id"] in printed

    def test_size_flags_reach_the_algorithm_kwargs(self, tmp_path, capsys):
        # IFCA's k follows the run's 4 clients (max(2, 4 // 5)), not the
        # quick preset's 16.
        out = tmp_path / "ifca.json"
        main(
            [
                "run",
                "--algorithm", "ifca",
                "--dataset", "fmnist",
                "--clients", "4",
                "--rounds", "2",
                "--model", "mlp",
                "--out", str(out),
            ]
        )
        payload = json.loads(out.read_text())
        assert payload["preset"]["algorithm_kwargs"]["ifca"]["n_clusters"] == 2
        assert payload["preset"]["federation"]["n_clients"] == 4
        assert payload["preset"]["n_rounds"] == 2
        assert payload["metrics"]["n_clusters"] == 2
        capsys.readouterr()

    def test_run_record_is_the_table1_cell(self, tmp_path, capsys):
        """`repro run` at a preset's sizes is Table I's cell: the same
        run ID and the same record, bar the matrix name and wall-clock."""
        out = tmp_path / "r.json"
        main(
            [
                "run",
                "--algorithm", "fedavg",
                "--dataset", "fmnist",
                "--scale", "quick",
                "--out", str(out),
            ]
        )
        payload = json.loads(out.read_text())
        config = table1_matrix("fmnist", 0, get_scale("quick"), ("fedavg",))
        (cell,) = run_cells(config).results
        cell_record = json.loads(json.dumps(cell.record))

        def strip(record):
            metrics = {
                key: value
                for key, value in record["metrics"].items()
                if key not in ("wall_seconds", "round_wall_seconds")
            }
            return {**record, "matrix": None, "metrics": metrics}

        assert payload["run_id"] == cell.run_id
        assert strip(payload) == strip(cell_record)
        # The quick preset's FedAvg on fmnist, as before the CLI ran
        # through the harness.
        assert payload["metrics"]["final_accuracy"] == 0.45042418528837874
        capsys.readouterr()

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
        assert payload["execution"]["checkpoint"] is None
        assert 0.0 <= payload["metrics"]["final_accuracy"] <= 1.0
        # IFCA has no constructor fraction — participation must have
        # come through the engine scenario (4 of 6 clients per round).
        repeat = run_once()
        assert repeat["run_id"] == payload["run_id"]
        assert (
            repeat["metrics"]["final_accuracy"]
            == payload["metrics"]["final_accuracy"]
        )
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
