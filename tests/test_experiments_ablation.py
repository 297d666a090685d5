"""The ablation harness: run-ID stability, resume, and the report.

Three concerns, in increasing cost:

* **identity** — content-hashed run IDs are a pure function of the
  experiment's maths (hypothesis: same declaration → same ID, any knob
  change → a new ID, execution details → no change);
* **resume** — a matrix directory is content-addressed, so re-invoking
  skips every completed run ID and only re-executes records whose
  schema went stale;
* **report** — the importance ranking surfaces a planted dominant knob
  from synthetic records (no training needed to test the arithmetic).

The full ``--check`` protocol (seeded fedavg pin reproduction included)
runs in the slow lane; CI's fast lane exercises the same gates via
``repro ablate --check`` directly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments import ablation
from repro.experiments.ablation import (
    BASELINE,
    FEDAVG_PIN,
    SCHEMA_VERSION,
    AblationConfig,
    build_report,
    canonical_scenario,
    cell_run_id,
    check_matrix,
    format_report,
    generate_cells,
    named_matrix,
    nightly_matrix,
    run_cell,
    run_check,
    run_matrix,
)
from repro.fl.checkpoint import CheckpointConfig, blas_threads
from repro.fl.store import StoreConfig
from repro.utils.serialization import load_json, save_json


def tiny_config(**overrides) -> AblationConfig:
    """A seconds-cheap real matrix: 4 clients, 1 round, capped batches."""
    kwargs = dict(
        name="tiny",
        federation=dict(
            dataset_name="fmnist",
            n_clients=4,
            n_samples=200,
            seed=11,
            partition="label_cluster",
        ),
        model_name="mlp",
        model_kwargs={"hidden": [16]},
        train=dict(local_epochs=1, batch_size=32, lr=0.05, max_steps=2),
        n_rounds=1,
        algorithms=("fedavg",),
        seeds=(0,),
        baseline={},
        knobs={
            "participation": {"client_fraction": 0.5},
            "failures": {"failure_rate": 0.3},
        },
    )
    kwargs.update(overrides)
    return AblationConfig(**kwargs)


# ---------------------------------------------------------------------------
# Identity: run IDs are a pure function of the experiment's maths
# ---------------------------------------------------------------------------

fractions = st.floats(0.1, 0.9, allow_nan=False).map(lambda f: round(f, 3))


class TestRunIds:
    @given(fraction=fractions, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_same_declaration_same_id(self, fraction, seed):
        # Two independent expansions of the same literals agree cell by
        # cell — no process, ordering or object-identity leakage.
        make = lambda: tiny_config(  # noqa: E731
            seeds=(seed,),
            knobs={"participation": {"client_fraction": fraction}},
        )
        a, b = make(), make()
        assert [cell_run_id(a, c) for c in generate_cells(a)] == [
            cell_run_id(b, c) for c in generate_cells(b)
        ]

    @given(
        pair=st.tuples(fractions, fractions).filter(lambda p: p[0] != p[1])
    )
    @settings(max_examples=25, deadline=None)
    def test_any_knob_change_new_id(self, pair):
        ids = []
        for fraction in pair:
            config = tiny_config(
                knobs={"participation": {"client_fraction": fraction}}
            )
            cell = generate_cells(config)[1]  # the participation variant
            ids.append(cell_run_id(config, cell))
        assert ids[0] != ids[1]

    @given(seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
    @settings(max_examples=25, deadline=None)
    def test_seed_and_preset_changes_change_id(self, seeds):
        config = tiny_config()
        baseline = generate_cells(config)[0]
        base_id = cell_run_id(config, baseline)
        if seeds[0] != seeds[1]:
            other = tiny_config(seeds=(seeds[1],))
            assert cell_run_id(
                tiny_config(seeds=(seeds[0],)),
                generate_cells(tiny_config(seeds=(seeds[0],)))[0],
            ) != cell_run_id(other, generate_cells(other)[0])
        longer = tiny_config(n_rounds=2)
        assert cell_run_id(longer, generate_cells(longer)[0]) != base_id

    def test_execution_details_do_not_change_id(self):
        # Executor kind and checkpoint cadence change *how* a cell runs,
        # never what it computes — records stay shareable across both.
        config = tiny_config()
        ids = [cell_run_id(config, c) for c in generate_cells(config)]
        for variant in (
            tiny_config(executor="batched"),
            tiny_config(checkpoint_every=1),
            tiny_config(name="renamed"),
        ):
            assert [
                cell_run_id(variant, c) for c in generate_cells(variant)
            ] == ids

    def test_spelling_invariance(self):
        # Default-valued knobs vanish in canonical form, so the ID
        # cannot depend on how the scenario was spelled.
        assert canonical_scenario({"failure_rate": 0.0}) == {}
        assert canonical_scenario(
            {"compute_budget": 2}
        ) == canonical_scenario({"compute_budget": [2, 2]})
        a = canonical_scenario({"failure_rate": 0.3, "client_fraction": 0.5})
        b = canonical_scenario({"client_fraction": 0.5, "failure_rate": 0.3})
        assert a == b

    def test_invalid_composition_rejected_at_declaration(self):
        # Canonicalisation routes through ScenarioConfig, so an illegal
        # knob bundle fails at matrix-definition time, not mid-sweep.
        with pytest.raises(ValueError, match="straggler_rate"):
            canonical_scenario(
                {
                    "straggler_rate": 0.3,
                    "async_config": {"buffer_size": 2},
                }
            )


class TestGenerateCells:
    def test_baseline_first_then_declaration_order(self):
        cells = generate_cells(tiny_config())
        assert [c.knob for c in cells] == [
            BASELINE,
            "participation",
            "failures",
        ]

    def test_one_knob_off_when_baseline_contains_patch(self):
        # A baseline that ships with the knob on gets the informative
        # variant: the baseline *without* it.
        config = tiny_config(
            baseline={"failure_rate": 0.3},
            knobs={"failures": {"failure_rate": 0.3}},
        )
        cells = generate_cells(config)
        assert cells[0].scenario == {"failure_rate": 0.3}
        assert cells[1].scenario == {}

    def test_pairwise_cells(self):
        config = tiny_config(pairs=(("participation", "failures"),))
        cells = generate_cells(config)
        assert cells[-1].knob == "participation+failures"
        assert cells[-1].scenario == {
            "client_fraction": 0.5,
            "failure_rate": 0.3,
        }

    def test_matrix_is_algorithms_x_seeds_x_variants(self):
        config = tiny_config(
            algorithms=("fedavg", "local_only"), seeds=(0, 1)
        )
        cells = generate_cells(config)
        assert len(cells) == 2 * 2 * 3
        ids = [cell_run_id(config, c) for c in cells]
        assert len(set(ids)) == len(ids)

    def test_reserved_and_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            tiny_config(knobs={BASELINE: {"failure_rate": 0.1}})
        with pytest.raises(ValueError, match="'\\+'"):
            tiny_config(knobs={"a+b": {"failure_rate": 0.1}})
        with pytest.raises(ValueError, match="unknown knobs"):
            tiny_config(pairs=(("participation", "missing"),))
        with pytest.raises(ValueError, match="unknown AblationConfig keys"):
            AblationConfig.from_dict({"name": "x", "federation": {}, "oops": 1})
        with pytest.raises(ValueError, match="unknown matrix"):
            named_matrix("missing")

    def test_algorithms_are_checked_at_declaration(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            tiny_config(algorithms=("fedavg", "nope"))
        with pytest.raises(ValueError, match="max_clusters must be >= 1"):
            tiny_config(
                algorithms=("pacfl",),
                algorithm_kwargs={"pacfl": {"max_clusters": 0}},
            )
        with pytest.raises(ValueError, match="fedclust needs n_rounds >= 2, got 1"):
            tiny_config(algorithms=("fedclust", "pacfl"), n_rounds=1)

    @pytest.mark.parametrize(
        "declaration",
        [
            {
                "algorithms": ["pacfl"],
                "algorithm_kwargs": {"pacfl": {"max_clusters": 0}},
            },
            {"algorithms": ["fedavg", "nope"]},
        ],
        ids=["bad_pacfl_kwarg", "unknown_algorithm"],
    )
    def test_bad_matrix_file_runs_no_cell(
        self, declaration, tmp_path, monkeypatch
    ):
        def no_federation(**kwargs):
            raise AssertionError("a cell started: a federation was built")

        monkeypatch.setattr(ablation, "build_federation", no_federation)
        path = tmp_path / "matrix.json"
        save_json(path, {**tiny_config().to_dict(), **declaration})
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match="repro ablate"):
            main(["ablate", "--config", str(path), "--out", str(out)])
        assert not out.exists()

    def test_builtin_matrices_expand_cleanly(self):
        for config in (check_matrix(), nightly_matrix()):
            cells = generate_cells(config)
            ids = [cell_run_id(config, c) for c in cells]
            assert len(set(ids)) == len(ids)
        assert len(generate_cells(check_matrix())) == 6

    def test_config_round_trips_through_json(self):
        config = tiny_config(pairs=(("participation", "failures"),))
        clone = AblationConfig.from_dict(config.to_dict())
        assert [cell_run_id(clone, c) for c in generate_cells(clone)] == [
            cell_run_id(config, c) for c in generate_cells(config)
        ]


# ---------------------------------------------------------------------------
# Resume: the matrix directory is content-addressed
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_outcomes(tmp_path_factory):
    """One tiny matrix executed twice into the same directory."""
    out = tmp_path_factory.mktemp("ablate")
    config = tiny_config()
    return config, run_matrix(config, out), run_matrix(config, out)


class TestResume:
    def test_first_run_executes_everything(self, tiny_outcomes):
        _, first, _ = tiny_outcomes
        assert first.n_executed == len(first.results) == 3
        assert (first.out_dir / "ABLATION.json").exists()
        assert (first.out_dir / "ABLATION.md").exists()

    def test_second_run_skips_every_completed_id(self, tiny_outcomes):
        _, first, second = tiny_outcomes
        assert second.n_executed == 0
        assert second.n_skipped == 3
        assert second.run_ids == first.run_ids
        # Cached records are byte-for-byte the first invocation's.
        assert [r.record for r in second.results] == [
            r.record for r in first.results
        ]

    def test_record_shape(self, tiny_outcomes):
        config, first, _ = tiny_outcomes
        record = first.record_for("fedavg", BASELINE)
        assert record["schema"] == SCHEMA_VERSION
        assert record["run_id"] == first.run_ids[0]
        assert record["knob"] == BASELINE and record["scenario"] == {}
        for key in (
            "final_accuracy",
            "wall_seconds",
            "round_wall_seconds",
            "uploaded_params",
            "traffic_params",
            "n_stale_total",
            "n_quarantined_total",
            "n_quorum_failed",
        ):
            assert key in record["metrics"], key
        assert record["engine"]["n_dispatched"] == 4  # everyone, 1 round
        assert record["preset"]["algorithm_kwargs"] == {"fedavg": {}}
        assert record["execution"] == {
            "executor": "serial",
            "store": StoreConfig().describe(),
            "checkpoint": None,
            "blas_threads": blas_threads(),
            "numpy": np.__version__,
        }
        path = first.out_dir / "runs" / f"{record['run_id']}.json"
        assert load_json(path) == record

    def test_stale_schema_record_is_reexecuted(self, tiny_outcomes, tmp_path):
        config, first, _ = tiny_outcomes
        out = tmp_path / "stale"
        (out / "runs").mkdir(parents=True)
        for result in first.results:
            save_json(
                out / "runs" / f"{result.run_id}.json",
                {**result.record, "schema": SCHEMA_VERSION - 1},
            )
        outcome = run_matrix(config, out)
        assert outcome.n_executed == 3  # stale records are not trusted
        assert outcome.run_ids == first.run_ids

    def test_record_at_another_blas_thread_count_is_reexecuted(
        self, tiny_outcomes, tmp_path
    ):
        """The thread count stays out of the run ID but changes what some
        cells compute, so a cached record is served only at the live
        count: one edited to another count and one without a count run
        again, one at the live count is served."""
        config, first, _ = tiny_outcomes
        out = tmp_path / "threads"
        (out / "runs").mkdir(parents=True)
        other, same, unrecorded = first.results
        execution = dict(other.record["execution"])
        execution["blas_threads"] = (blas_threads() or 1) + 1
        execution_missing = dict(unrecorded.record["execution"])
        del execution_missing["blas_threads"]
        for result, record in (
            (other, {**other.record, "execution": execution}),
            (same, same.record),
            (unrecorded, {**unrecorded.record, "execution": execution_missing}),
        ):
            save_json(out / "runs" / f"{result.run_id}.json", record)
        outcome = run_matrix(config, out)
        assert [r.executed for r in outcome.results] == [True, False, True]
        assert outcome.run_ids == first.run_ids
        assert all(
            r.record["execution"]["blas_threads"] == blas_threads()
            for r in outcome.results
        )

    def test_partial_directory_resumes_missing_cells_only(
        self, tiny_outcomes, tmp_path
    ):
        config, first, _ = tiny_outcomes
        out = tmp_path / "partial"
        (out / "runs").mkdir(parents=True)
        kept = first.results[:2]
        for result in kept:
            save_json(out / "runs" / f"{result.run_id}.json", result.record)
        outcome = run_matrix(config, out)
        assert outcome.n_executed == 1
        assert outcome.n_skipped == 2
        assert outcome.run_ids == first.run_ids

    def test_checkpoint_every_threads_the_existing_machinery(self, tmp_path):
        config = tiny_config(checkpoint_every=1, knobs={})
        outcome = run_matrix(config, tmp_path / "ckpt_run")
        rid = outcome.run_ids[0]
        assert any((tmp_path / "ckpt_run" / "ckpt" / rid).iterdir())
        # The checkpoint is an execution detail: the record matches the
        # in-memory run bit for bit (wall-clock aside).
        plain = run_matrix(
            dataclasses.replace(config, checkpoint_every=0),
            tmp_path / "plain_run",
        )
        timing = ("wall_seconds", "round_wall_seconds")
        strip = lambda m: {k: v for k, v in m.items() if k not in timing}  # noqa: E731
        assert strip(outcome.results[0].record["metrics"]) == strip(
            plain.results[0].record["metrics"]
        )
        assert outcome.results[0].record["execution"]["checkpoint"] == {
            "directory": str(tmp_path / "ckpt_run" / "ckpt" / rid),
            "every": 1,
            "resume": True,
        }


class TestRunCell:
    def test_store_and_checkpoint_change_only_the_execution_section(
        self, tmp_path
    ):
        config = tiny_config(algorithms=("local_only",), n_rounds=2, knobs={})
        (cell,) = generate_cells(config)
        plain = run_cell(config, cell)
        store = StoreConfig(kind="sharded", shard_size=3)
        checkpoint = CheckpointConfig(directory=tmp_path)
        other = run_cell(config, cell, store=store, checkpoint=checkpoint)
        assert other["execution"]["store"] == store.describe()
        assert other["execution"]["checkpoint"]["directory"] == str(tmp_path)
        assert (tmp_path / "checkpoint.bin").exists()

        def strip(record):
            metrics = {
                key: value
                for key, value in record["metrics"].items()
                if key not in ("wall_seconds", "round_wall_seconds")
            }
            return {**record, "metrics": metrics, "execution": None}

        assert strip(other) == strip(plain)
        assert plain["run_id"] == cell_run_id(config, cell)


# ---------------------------------------------------------------------------
# Report: the importance ranking surfaces a planted dominant knob
# ---------------------------------------------------------------------------
def _synthetic_record(algorithm, knob, seed, acc, wall=1.0, traffic=1000):
    return {
        "algorithm": algorithm,
        "knob": knob,
        "seed": seed,
        "metrics": {
            "final_accuracy": acc,
            "round_wall_seconds": wall,
            "traffic_params": traffic,
        },
    }


class TestReport:
    def _config(self):
        return tiny_config(
            algorithms=("fedavg", "local_only"),
            knobs={
                "dominant": {"failure_rate": 0.5},
                "minor": {"client_fraction": 0.9},
                "wasteful": {"straggler_rate": 0.3},
            },
        )

    def _records(self):
        records = []
        for algorithm in ("fedavg", "local_only"):
            for seed in (0, 1):
                base = 0.80 if algorithm == "fedavg" else 0.60
                # "dominant" craters accuracy, "minor" barely moves it,
                # "wasteful" only inflates wall-clock and traffic.
                records += [
                    _synthetic_record(algorithm, BASELINE, seed, base),
                    _synthetic_record(algorithm, "dominant", seed, base - 0.30),
                    _synthetic_record(algorithm, "minor", seed, base - 0.01),
                    _synthetic_record(
                        algorithm,
                        "wasteful",
                        seed,
                        base,
                        wall=5.0,
                        traffic=9000,
                    ),
                ]
        return records

    def test_dominant_knob_ranks_first_on_accuracy(self):
        report = build_report(self._config(), self._records())
        assert report["ranking"]["accuracy"] == [
            "dominant",
            "wasteful",
            "minor",
        ] or report["ranking"]["accuracy"][0] == "dominant"
        assert report["ranking"]["wall_seconds"][0] == "wasteful"
        assert report["ranking"]["traffic_params"][0] == "wasteful"

    def test_deltas_are_seed_averaged_against_baseline(self):
        report = build_report(self._config(), self._records())
        entry = report["knobs"]["dominant"]["per_algorithm"]["fedavg"]
        assert entry["delta_accuracy"] == pytest.approx(-0.30)
        assert report["knobs"]["dominant"]["importance"][
            "accuracy"
        ] == pytest.approx(0.30)
        assert report["baseline"]["fedavg"]["accuracy"] == pytest.approx(0.80)

    def test_nan_metrics_rank_last(self):
        config = self._config()
        records = self._records() + [
            _synthetic_record(a, "dark", s, float("nan"))
            for a in ("fedavg", "local_only")
            for s in (0, 1)
        ]
        config = dataclasses.replace(
            config, knobs={**config.knobs, "dark": {"trace": {"0": [9]}}}
        )
        report = build_report(config, records)
        assert report["ranking"]["accuracy"][-1] == "dark"

    def test_markdown_mentions_every_knob_and_algorithm(self):
        report = build_report(self._config(), self._records())
        text = format_report(report)
        for name in ("dominant", "minor", "wasteful", "fedavg", "local_only"):
            assert name in text
        assert "| rank | knob |" in text


# ---------------------------------------------------------------------------
# The full --check protocol (seeded pin included) — slow lane
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_run_check_protocol(tmp_path):
    summary = run_check(tmp_path, echo=lambda message: None)
    assert summary["n_cells"] == 6
    assert summary["first_executed"] == 6
    assert summary["second_executed"] == 0
    assert summary["pin"] == FEDAVG_PIN
