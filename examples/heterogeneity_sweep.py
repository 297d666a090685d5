#!/usr/bin/env python3
"""Heterogeneity sweep: when does clustering help? (paper's future work)

Two sweeps over the same question from two directions:

* **statistical** heterogeneity — the Dirichlet concentration α from
  severe label skew (0.05) to near-IID (100), FedClust vs FedAvg at
  each level.  The expected picture: a large FedClust advantage under
  severe skew that shrinks toward zero as data becomes IID — clustered
  FL is a heterogeneity tool, not a universal win.
* **system** heterogeneity — participation fraction C and seeded client
  failures, as scenario knobs on one ablation-harness matrix (the
  reliable full-participation baseline plus one patch per row).  This
  shows how the Table-I ordering degrades when clients sit out rounds
  or go dark mid-round.

Both sweeps run Table I's preset as harness cells
(:func:`repro.experiments.table1.table1_matrix`).

Run:
    python examples/heterogeneity_sweep.py
    python examples/heterogeneity_sweep.py --alphas 0.05 0.5 5
    python examples/heterogeneity_sweep.py --skip-alpha   # scenarios only
"""

from __future__ import annotations

import argparse
import dataclasses

from repro.experiments.ablation import BASELINE, run_cells
from repro.experiments.presets import get_scale
from repro.experiments.table1 import run_alpha_sweep, table1_matrix
from repro.utils.logging import enable_console_logging

#: Row label of the matrix's baseline: the default scenario.
BASELINE_LABEL = "C=1.0, reliable"

#: Row label → scenario patch on the baseline for the system-
#: heterogeneity sweep.  The v2 middleware rows: stale folding turns the
#: "late" row's wasted work into discounted contributions, compute
#: budgets model device speed spread (FedNova-style steps-taken
#: weighting), and departures drain the federation mid-run.
SCENARIOS = {
    "C=0.5, reliable": {"client_fraction": 0.5},
    "C=1.0, 20% fail": {"failure_rate": 0.2},
    "C=0.5, 20% fail": {"client_fraction": 0.5, "failure_rate": 0.2},
    "C=0.5, 20% fail, 20% late": {
        "client_fraction": 0.5,
        "failure_rate": 0.2,
        "straggler_rate": 0.2,
    },
    "C=0.5, 20% late, stale folded": {
        "client_fraction": 0.5,
        "straggler_rate": 0.2,
        "staleness_decay": 0.5,
    },
    "C=1.0, budgets 2..8 steps": {"compute_budget": [2, 8]},
    "C=0.5, budgets and stale": {
        "client_fraction": 0.5,
        "straggler_rate": 0.2,
        "staleness_decay": 0.5,
        "compute_budget": [2, 8],
    },
}


def departure_scenario(n_clients: int, n_rounds: int) -> dict:
    """A quarter of the federation departs at the midpoint."""
    mid = max(2, n_rounds // 2)
    return {"departures": {cid: mid for cid in range(0, n_clients, 4)}}


def run_scenario_sweep(dataset: str, alpha: float, seed: int, scale) -> list[tuple]:
    """FedAvg vs FedClust across participation/failure scenarios."""
    knobs = SCENARIOS | {
        "25% depart mid-run": departure_scenario(scale.n_clients, scale.n_rounds),
    }
    config = dataclasses.replace(
        table1_matrix(dataset, seed, scale, ("fedavg", "fedclust"), alpha=alpha),
        knobs=knobs,
    )
    outcome = run_cells(config)
    return [
        (
            BASELINE_LABEL if knob == BASELINE else knob,
            *(
                outcome.record_for(method, knob)["metrics"]["final_accuracy"]
                for method in ("fedavg", "fedclust")
            ),
        )
        for knob in (BASELINE, *knobs)
    ]


def bar(value: float, width: int = 40) -> str:
    filled = int(round(value * width))
    return "#" * filled + "." * (width - filled)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alphas", type=float, nargs="+",
                        default=[0.05, 0.1, 0.5, 1.0, 100.0])
    parser.add_argument("--dataset", default="cifar10")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario-alpha", type=float, default=0.1,
                        help="Dirichlet alpha held fixed in the scenario sweep")
    parser.add_argument("--skip-alpha", action="store_true",
                        help="run only the participation/failure sweep")
    parser.add_argument("--skip-scenarios", action="store_true",
                        help="run only the alpha sweep")
    args = parser.parse_args()
    enable_console_logging()
    scale = get_scale("quick")

    if not args.skip_alpha:
        result = run_alpha_sweep(
            alphas=tuple(args.alphas),
            dataset=args.dataset,
            scale=scale,
            seed=args.seed,
        )
        print()
        print(result.format())
        print("\naccuracy bars (F = FedAvg, C = FedClust):")
        for i, alpha in enumerate(result.alphas):
            print(f"alpha={alpha:<6g} F |{bar(result.fedavg[i])}| "
                  f"{100 * result.fedavg[i]:.1f}")
            print(f"{'':12} C |{bar(result.fedclust[i])}| "
                  f"{100 * result.fedclust[i]:.1f}  (k={result.fedclust_k[i]})")
        gains = [c - a for a, c in zip(result.fedavg, result.fedclust)]
        print(f"\nFedClust advantage: {100 * gains[0]:+.1f} points at "
              f"alpha={result.alphas[0]:g} -> {100 * gains[-1]:+.1f} points at "
              f"alpha={result.alphas[-1]:g}")

    if not args.skip_scenarios:
        print(f"\nsystem-heterogeneity sweep (alpha={args.scenario_alpha:g}, "
              "seeded scenarios through the round engine):")
        rows = run_scenario_sweep(
            args.dataset, args.scenario_alpha, args.seed, scale
        )
        width = max(len(label) for label, _, _ in rows)
        for label, fedavg_acc, fedclust_acc in rows:
            print(f"{label:<{width}}  F |{bar(fedavg_acc)}| {100 * fedavg_acc:.1f}")
            print(f"{'':{width}}  C |{bar(fedclust_acc)}| {100 * fedclust_acc:.1f}")


if __name__ == "__main__":
    main()
