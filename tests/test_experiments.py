"""Experiment drivers: presets, Table-I harness plumbing, Fig-1/Fig-2 probes.

These tests run the drivers at a micro scale (not the bench scale) so the
suite stays fast while still executing every driver end to end.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster.hierarchy import LINKAGE_METHODS
from repro.experiments.ablation import (
    AblationConfig,
    cell_run_id,
    generate_cells,
    run_cells,
)
from repro.experiments.fig1 import PAPER_LAYERS, format_fig1, run_fig1
from repro.experiments.fig2 import format_fig2, run_fig2
from repro.experiments.presets import (
    SCALES,
    ExperimentScale,
    algorithm_kwargs,
    get_scale,
)
from repro.experiments.table1 import (
    PAPER_TABLE1,
    format_table1,
    run_alpha_sweep,
    run_communication_study,
    run_table1,
    table1_matrix,
)
from repro.fl.config import TrainConfig

#: Micro scale used only by this test module.
MICRO = ExperimentScale(
    name="micro",
    n_clients=6,
    n_samples=900,
    n_rounds=3,
    seeds=(0,),
    train=TrainConfig(local_epochs=1, batch_size=32, lr=0.05, momentum=0.9),
    eval_every=3,
    fig1_local_steps=10,
)


class TestPresets:
    def test_scales_exist(self):
        assert set(SCALES) == {"quick", "bench", "paper"}

    def test_get_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "bench")
        assert get_scale().name == "bench"
        monkeypatch.delenv("REPRO_SCALE")
        assert get_scale().name == "quick"
        with pytest.raises(ValueError, match="unknown scale"):
            get_scale("huge")

    def test_algorithm_kwargs_cover_table1(self):
        for method in ("fedavg", "fedprox", "cfl", "ifca", "pacfl", "fedclust"):
            kwargs = algorithm_kwargs(method, SCALES["quick"])
            assert isinstance(kwargs, dict)

    def test_paper_numbers_complete(self):
        for method in ("fedavg", "fedprox", "cfl", "ifca", "pacfl", "fedclust"):
            for ds in ("cifar10", "fmnist", "svhn"):
                assert (method, ds) in PAPER_TABLE1


@pytest.mark.slow
class TestTable1Driver:
    def test_two_method_run(self):
        result = run_table1(
            datasets=("fmnist",), methods=("fedavg", "fedclust"), scale=MICRO
        )
        cell = result.cell("fedclust", "fmnist")
        assert len(cell.accuracies) == 1
        assert 0.0 <= cell.mean <= 1.0
        assert result.winner("fmnist") in ("fedavg", "fedclust")
        text = format_table1(result)
        assert "fedclust" in text and "fmnist (paper)" in text

    def test_format_without_paper_column(self):
        result = run_table1(datasets=("fmnist",), methods=("fedavg",), scale=MICRO)
        text = format_table1(result, with_paper=False)
        assert "paper" not in text


@pytest.mark.slow
class TestFig1Driver:
    def test_probe_layers_and_separability(self):
        result = run_fig1(
            dataset="fmnist",
            n_clients=6,
            model_name="cnn_small",
            selections=("index:1", "index:4"),
            scale=MICRO,
        )
        assert set(result.probes) == {"index:1", "index:4"}
        for probe in result.probes.values():
            assert probe.distances.shape == (6, 6)
        # Classifier layer (index 4 of cnn_small) beats the first conv.
        assert result.probes["index:4"].separability > result.probes["index:1"].separability
        assert result.best_selection() == "index:4"
        text = format_fig1(result)
        assert "separability" in text.lower()

    def test_paper_layer_table(self):
        assert [i for i, _ in PAPER_LAYERS] == [1, 7, 14, 16]

    def test_bad_layer_index_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            run_fig1(
                dataset="fmnist",
                n_clients=4,
                model_name="cnn_small",
                selections=("index:99",),
                scale=MICRO,
            )


@pytest.mark.slow
class TestFig2Driver:
    def test_workflow_trace(self):
        result = run_fig2(dataset="fmnist", scale=MICRO)
        assert [s.number for s in result.steps] == [1, 2, 3, 4, 5, 6]
        assert 0 < result.partial_upload_fraction < 1
        assert result.newcomer_assigned_cluster >= 0
        assert np.isfinite(result.newcomer_acc_with_cluster)
        text = format_fig2(result)
        assert "①" in text and "⑥" in text


@pytest.fixture(scope="module")
def micro_probe():
    """The Fig. 1 probe as the A1/A2 studies run it: LeNet-5 on a planted
    fmnist federation after FedClust's 20-step warm-up."""
    return run_fig1(
        dataset="fmnist",
        n_clients=MICRO.n_clients,
        model_name="lenet5",
        selections=("final_layer", "all", "index:1"),
        scale=MICRO,
        local_steps=20,
    )


@pytest.fixture(scope="module")
def micro_comm():
    """The C1 study for FedAvg and FedClust at target accuracy 0.2."""
    return run_communication_study(
        methods=("fedavg", "fedclust"), scale=MICRO, target_accuracy=0.2
    )


@pytest.mark.slow
class TestAblationDrivers:
    def test_linkage_ablation(self, micro_probe):
        cuts = micro_probe.probes["final_layer"].cuts
        assert set(cuts) == {
            "single",
            "complete",
            "average",
            "ward",
        }
        assert "A1" in format_fig1(micro_probe)

    def test_weight_ablation(self, micro_probe):
        final = micro_probe.probes["final_layer"]
        conv = micro_probe.probes["index:1"]
        assert final.upload > 0 and conv.upload > 0
        with pytest.raises(KeyError):
            micro_probe.probes["nope"]

    def test_communication_study(self, micro_comm):
        fedavg = micro_comm.row_of("fedavg")
        fedclust = micro_comm.row_of("fedclust")
        assert fedavg["clustering_upload"] == 0
        assert fedclust["clustering_upload"] > 0
        assert "C1" in micro_comm.format()


@pytest.mark.slow
class TestStudyPins:
    """A1–A3, C1 and Table I at MICRO scale, seed 0, pinned to the bit.

    The values are those of the drivers these studies ran on before they
    became Fig. 1 outputs and harness cells.  The conv path's GEMMs are
    large enough for OpenBLAS to split them across threads, and the
    values here are those of a 2-CPU host at the default thread count
    (one BLAS thread moves A1/A2 by ~1e-8 and A3's α = 100 FedClust
    cell by 3 points).
    """

    def test_a1_linkage(self, micro_probe):
        final = micro_probe.probes["final_layer"]
        assert final.separability == 5.219812018068794
        assert final.cuts == {method: (2, 1.0) for method in LINKAGE_METHODS}

    def test_a2_weight_selection(self, micro_probe):
        found = {
            spec: (probe.upload, probe.separability, probe.cuts["average"])
            for spec, probe in micro_probe.probes.items()
        }
        assert found == {
            "final_layer": (850, 5.219812018068794, (2, 1.0)),
            "all": (61706, 3.80863824839344, (2, 1.0)),
            "index:1": (156, 2.171871679597927, (2, 1.0)),
        }

    def test_a3_alpha_sweep(self):
        result = run_alpha_sweep(alphas=(0.1, 100.0), dataset="cifar10", scale=MICRO)
        assert result.fedavg == [0.4158159254267744, 0.5440860215053763]
        assert result.fedclust == [0.5374129604672058, 0.4137992831541218]
        assert result.fedclust_k == [3, 3]

    def test_c1_communication(self, micro_comm):
        assert micro_comm.rows == [
            {
                "method": "fedavg",
                "clustering_upload": 0,
                "total_upload": 1110708,
                "total_download": 1110708,
                "total_mb": 8.885664,
                "mb_to_target": 2.961888,
                "final_accuracy": 0.5688172043010753,
            },
            {
                "method": "fedclust",
                "clustering_upload": 5100,
                "total_upload": 745572,
                "total_download": 1110708,
                "total_mb": 7.42512,
                "mb_to_target": 4.463232,
                "final_accuracy": 0.7722222222222221,
            },
        ]

    def test_table1(self):
        result = run_table1(
            datasets=("fmnist",), methods=("fedavg", "fedclust"), scale=MICRO
        )
        assert result.cell("fedavg", "fmnist").accuracies == [0.1414420485175202]
        assert result.cell("fedclust", "fmnist").accuracies == [0.6973354672057503]


@pytest.mark.slow
def test_fedclust_matrix_survives_its_json():
    """A FedClust matrix's JSON (its ``clustering`` kwarg a mapping) reads
    back under the same run ID and runs to the same metrics."""
    config = table1_matrix("fmnist", 0, MICRO, ("fedclust",))
    again = AblationConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert cell_run_id(again, generate_cells(again)[0]) == cell_run_id(
        config, generate_cells(config)[0]
    )
    timing = ("wall_seconds", "round_wall_seconds")
    metrics = [
        {
            key: value
            for key, value in run_cells(matrix).results[0].record["metrics"].items()
            if key not in timing
        }
        for matrix in (config, again)
    ]
    assert metrics[0] == metrics[1]
