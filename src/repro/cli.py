"""Command-line interface: ``python -m repro <command>``.

Exposes the experiment drivers without writing any Python:

* ``table1`` — regenerate the paper's Table I;
* ``fig1``   — the layer-wise distance probe (Fig. 1), with the linkage
  (A1) and weight-selection (A2) ablations from the same warm-up;
* ``fig2``   — the workflow trace incl. newcomer (Fig. 2);
* ``sweep``  — the Dirichlet-α heterogeneity sweep (A3) and
* ``comm``   — the communication-cost study (C1), both on Table I's
  preset (:mod:`repro.experiments.table1`);
* ``run``    — one algorithm on one federation, fully parameterised;
* ``ablate`` — the scenario × algorithm ablation matrix (resumable,
  content-addressed run records + knob-importance report).

All commands accept ``--scale quick|bench|paper`` (or the ``REPRO_SCALE``
environment variable) and ``--out results.json`` to persist metrics.
``table1``, ``sweep``, ``comm``, ``ablate`` and ``run`` train through
the ablation harness's cells (:mod:`repro.experiments.ablation`): ``run``
is one cell of Table I's preset resized by its flags, and its ``--out``
writes that cell's run record; the ``--out`` of ``table1``, ``sweep``
and ``comm`` writes ``{"records": [...]}``, the run record of every
cell they ran.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, Sequence

from repro.utils.logging import enable_console_logging
from repro.utils.serialization import save_json

__all__ = ["main", "build_parser"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default=None, choices=["quick", "bench", "paper"],
                        help="experiment scale preset (default: $REPRO_SCALE or quick)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write a JSON result record to PATH")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FedClust reproduction — regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table I: six methods × three datasets")
    _add_common(p)
    p.add_argument("--datasets", nargs="+", default=["cifar10", "fmnist", "svhn"])
    p.add_argument("--methods", nargs="+", default=None,
                   help="subset of: fedavg fedprox cfl ifca pacfl fedclust")
    p.add_argument("--alpha", type=float, default=0.1)

    p = sub.add_parser("fig1", help="Fig. 1: layer-wise weight-distance probe")
    _add_common(p)
    p.add_argument("--dataset", default="cifar10")
    p.add_argument("--clients", type=int, default=10)
    p.add_argument("--layers", type=int, nargs="+", default=[1, 7, 14, 16])

    p = sub.add_parser("fig2", help="Fig. 2: workflow trace incl. newcomer")
    _add_common(p)
    p.add_argument("--dataset", default="fmnist")

    p = sub.add_parser("sweep", help="A3: FedClust vs FedAvg across Dirichlet alpha")
    _add_common(p)
    p.add_argument("--alphas", type=float, nargs="+",
                   default=[0.05, 0.1, 0.5, 1.0, 100.0])
    p.add_argument("--dataset", default="cifar10")

    p = sub.add_parser("comm", help="C1: communication-cost study")
    _add_common(p)
    p.add_argument("--dataset", default="fmnist")
    p.add_argument("--target", type=float, default=0.8,
                   help="target accuracy for the traffic-to-accuracy column")

    p = sub.add_parser("run", help="run one algorithm on one federation")
    _add_common(p)
    p.add_argument("--algorithm", default="fedclust",
                   help="fedavg|fedprox|cfl|ifca|pacfl|fedclust|local_only")
    p.add_argument("--dataset", default="cifar10")
    p.add_argument("--partition", default="dirichlet",
                   choices=["dirichlet", "shard", "label_cluster", "iid"])
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--clients", type=int, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--model", default="lenet5")
    p.add_argument("--executor", default="serial",
                   choices=["serial", "process", "batched"])
    p.add_argument("--store", default="dense", choices=["dense", "sharded"],
                   help="client-state store backing per-client algorithms: "
                        "'dense' keeps one wire-dtype matrix (the "
                        "bit-identity default), 'sharded' materialises "
                        "wire-dtype shards lazily so memory tracks the "
                        "clients actually touched — the population-scale "
                        "configuration")
    p.add_argument("--shard-size", type=int, default=256, metavar="N",
                   help="clients per shard for --store sharded "
                        "(default: 256)")
    p.add_argument("--store-path", default=None, metavar="DIR",
                   help="back sharded-store shards with memory-mapped "
                        ".npy files under DIR instead of anonymous memory")
    p.add_argument("--client-fraction", type=float, default=1.0,
                   help="participation fraction C per round (any algorithm)")
    p.add_argument("--failure-rate", type=float, default=0.0,
                   help="seeded per-(round, client) pre-training drop rate")
    p.add_argument("--straggler-rate", type=float, default=0.0,
                   help="seeded per-(round, client) deadline-miss rate "
                        "(trains and uploads, excluded from aggregation)")
    p.add_argument("--staleness-decay", type=float, default=0.0,
                   help="fold straggler updates into the next round's "
                        "aggregation at weight x decay^age (0 = discard, "
                        "the classic behaviour)")
    p.add_argument("--compute-budget", type=int, nargs="+", default=None,
                   metavar="STEPS",
                   help="per-(round, client) local step budget: one int for "
                        "a fixed cap, two for a seeded uniform [lo, hi] "
                        "draw; partial work is kept and aggregation "
                        "renormalises by steps taken")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="availability-trace JSON (client id -> available "
                        "rounds; see repro.fl.trace) replayed as the "
                        "participation schedule")
    p.add_argument("--async-buffer", type=int, default=None, metavar="K",
                   help="run the FedBuff-style async engine: aggregate "
                        "whenever K buffered updates have arrived "
                        "(dispatch and aggregation decouple; clients "
                        "train across server steps)")
    p.add_argument("--async-concurrency", type=int, default=None,
                   metavar="M",
                   help="cap on clients concurrently in flight "
                        "(async mode; default unbounded)")
    p.add_argument("--async-duration", type=int, nargs="+", default=None,
                   metavar="STEPS",
                   help="seeded per-dispatch training duration in server "
                        "steps: one int for a fixed duration, two for a "
                        "uniform [lo, hi] draw (async mode; default 1 3)")
    p.add_argument("--corruption-rate", type=float, default=0.0,
                   help="seeded per-(round, client) probability that a "
                        "returned update is mangled before it reaches the "
                        "server (fault injection; 0 disables)")
    p.add_argument("--corruption-kinds", nargs="+", default=None,
                   metavar="KIND",
                   help="corruption kinds drawn per event: subset of "
                        "nan inf sign_flip noise (default: all four)")
    p.add_argument("--corruption-scale", type=float, default=10.0,
                   help="std-dev multiplier for 'noise' corruption events")
    p.add_argument("--robust-agg", default="none",
                   choices=["none", "clip", "trimmed_mean",
                            "coordinate_median"],
                   help="robust aggregation rule at the server's averaging "
                        "choke point ('none' keeps the exact classic "
                        "weighted average)")
    p.add_argument("--norm-bound", type=float, default=None, metavar="B",
                   help="admission guard: quarantine updates whose norm "
                        "exceeds B x the batch median norm (finiteness is "
                        "always checked; default: no norm bound)")
    p.add_argument("--min-survivors", type=int, default=0, metavar="Q",
                   help="survivor quorum: redispatch the failed remainder "
                        "(up to --max-retries fresh seeded epochs) until Q "
                        "admitted updates arrive; below quorum the round "
                        "degrades gracefully with frozen server state")
    p.add_argument("--max-retries", type=int, default=0, metavar="R",
                   help="retry attempts per round when below the "
                        "--min-survivors quorum")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="write a resumable server checkpoint to DIR after "
                        "each round (server rows at the model dtype, rng "
                        "derivation state, stale/in-flight buffers, "
                        "history, traffic counters)")
    p.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                   help="checkpoint cadence in rounds (default: every "
                        "round; the final round is always written)")
    p.add_argument("--resume", action="store_true",
                   help="resume from the checkpoint in --checkpoint DIR if "
                        "one exists (bit-identical to the uninterrupted "
                        "run); missing file starts fresh")

    p = sub.add_parser(
        "ablate",
        help="scenario x algorithm ablation matrix with stable run IDs",
        description="Execute an ablation matrix (baseline + one-knob "
                    "variants per algorithm x seed), writing one "
                    "content-addressed JSON record per run under "
                    "OUT/runs/ and a knob-importance report to "
                    "OUT/ABLATION.{json,md}.  Completed run IDs are "
                    "skipped on re-invocation, so an interrupted matrix "
                    "resumes where it stopped.",
    )
    p.add_argument("--matrix", default="check", metavar="NAME",
                   help="built-in matrix: 'check' (6-cell fast-lane "
                        "smoke) or 'nightly' (every scenario knob x 5 "
                        "algorithms + pairwise cells)")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="declarative AblationConfig JSON (overrides "
                        "--matrix)")
    # ``--out`` is a *directory* here (records + report), unlike the
    # other commands' JSON file path — so it gets its own dest and the
    # shared main() JSON dump is disabled for this command.
    p.add_argument("--out", dest="out_dir", default="ablation_out",
                   metavar="DIR",
                   help="record/report directory (default: ablation_out)")
    p.set_defaults(out=None)
    p.add_argument("--check", action="store_true",
                   help="run the CI smoke gate instead of a matrix: "
                        "run-ID stability across two expansions, "
                        "zero re-executions on the second invocation, "
                        "and the baseline cell reproducing the seeded "
                        "fedavg parity pin bit-for-bit")
    p.add_argument("--list", action="store_true", dest="list_cells",
                   help="print the matrix's cells and run IDs without "
                        "executing anything")
    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------

def _cmd_table1(args: argparse.Namespace) -> dict:
    from repro.experiments.table1 import format_table1, run_table1

    result = run_table1(
        datasets=tuple(args.datasets),
        methods=tuple(args.methods) if args.methods else None,
        scale=args.scale,
        alpha=args.alpha,
    )
    print(format_table1(result))
    return {"records": result.records}


def _cmd_fig1(args: argparse.Namespace) -> dict:
    from repro.experiments.fig1 import format_fig1, run_fig1

    result = run_fig1(
        dataset=args.dataset,
        n_clients=args.clients,
        selections=tuple(f"index:{i}" for i in args.layers),
        scale=args.scale,
        seed=args.seed,
    )
    print(format_fig1(result))
    return {
        "experiment": "fig1",
        "probes": {
            spec: {
                "name": probe.name,
                "upload": probe.upload,
                "separability": probe.separability,
                "cuts": {method: cut._asdict() for method, cut in probe.cuts.items()},
            }
            for spec, probe in result.probes.items()
        },
    }


def _cmd_fig2(args: argparse.Namespace) -> dict:
    from repro.experiments.fig2 import format_fig2, run_fig2

    result = run_fig2(dataset=args.dataset, scale=args.scale, seed=args.seed)
    print(format_fig2(result))
    return {
        "experiment": "fig2",
        "ari": result.ari,
        "newcomer_correct": result.newcomer_correct,
        "partial_upload_fraction": result.partial_upload_fraction,
        "final_accuracy": result.final_accuracy,
    }


def _cmd_sweep(args: argparse.Namespace) -> dict:
    from repro.experiments.table1 import run_alpha_sweep

    result = run_alpha_sweep(
        alphas=tuple(args.alphas),
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
    )
    print(result.format())
    return {"records": result.records}


def _cmd_comm(args: argparse.Namespace) -> dict:
    from repro.experiments.table1 import run_communication_study

    result = run_communication_study(
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        target_accuracy=args.target,
    )
    print(result.format())
    return {"records": result.records}


def _cmd_run(args: argparse.Namespace) -> dict:
    from repro.experiments.ablation import canonical_scenario, generate_cells, run_cell
    from repro.experiments.presets import get_scale
    from repro.experiments.table1 import table1_matrix
    from repro.fl.checkpoint import CheckpointConfig
    from repro.fl.store import StoreConfig
    from repro.fl.trace import AvailabilityTrace

    # The flag combinations no config can see; every other bad value is
    # rejected by the config it builds, below.
    if args.resume and args.checkpoint is None:
        raise SystemExit("--resume needs --checkpoint DIR")
    if args.async_buffer is None and (
        args.async_concurrency is not None or args.async_duration is not None
    ):
        raise SystemExit("--async-concurrency/--async-duration need --async-buffer K")
    if args.corruption_kinds and args.corruption_rate <= 0.0:
        raise SystemExit("--corruption-kinds needs --corruption-rate > 0")
    async_config = None
    if args.async_buffer is not None:
        async_config = {
            "buffer_size": args.async_buffer,
            "max_concurrency": args.async_concurrency,
        }
        if args.async_duration is not None:
            async_config["duration_range"] = args.async_duration
    corruption = {"rate": args.corruption_rate, "scale": args.corruption_scale}
    if args.corruption_kinds:
        corruption["kinds"] = args.corruption_kinds
    try:
        scale = get_scale(args.scale)
        # The run is Table I's preset resized by the flags, so the
        # per-method cluster caps and warm-ups follow the run's sizes.
        scale = dataclasses.replace(
            scale,
            n_clients=scale.n_clients if args.clients is None else args.clients,
            n_rounds=scale.n_rounds if args.rounds is None else args.rounds,
        )
        baseline = canonical_scenario(
            dict(
                client_fraction=args.client_fraction,
                failure_rate=args.failure_rate,
                straggler_rate=args.straggler_rate,
                staleness_decay=args.staleness_decay,
                compute_budget=args.compute_budget,
                trace=AvailabilityTrace.load(args.trace) if args.trace else None,
                async_config=async_config,
                corruption=corruption,
                robust_agg=args.robust_agg,
                norm_bound=args.norm_bound,
                min_survivors=args.min_survivors,
                max_retries=args.max_retries,
            )
        )
        config = dataclasses.replace(
            table1_matrix(
                args.dataset,
                args.seed,
                scale,
                (args.algorithm,),
                alpha=args.alpha,
                partition=args.partition,
                model_name=args.model,
            ),
            name="run",
            baseline=baseline,
            executor=args.executor,
        )
        (cell,) = generate_cells(config)
        store = StoreConfig(
            kind=args.store, shard_size=args.shard_size, path=args.store_path
        )
        checkpoint = None if args.checkpoint is None else CheckpointConfig(
            args.checkpoint, every=args.checkpoint_every, resume=args.resume
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro run: {exc}") from exc
    record = run_cell(config, cell, store=store, checkpoint=checkpoint)
    m = record["metrics"]
    print(
        f"{args.algorithm}: final accuracy {m['final_accuracy']:.3f} "
        f"(± {m['accuracy_std']:.3f} across clients), {m['n_clusters']} "
        f"cluster(s), {record['traffic']['total']['bytes'] / 1e6:.1f} MB "
        f"transferred (run {record['run_id']})"
    )
    return record


def _cmd_ablate(args: argparse.Namespace) -> dict:
    from repro.experiments.ablation import (
        AblationCheckError,
        cell_run_id,
        generate_cells,
        load_config,
        named_matrix,
        run_check,
        run_matrix,
    )

    if args.check:
        try:
            return {"experiment": "ablate_check"} | run_check()
        except AblationCheckError as exc:
            raise SystemExit(f"ablate --check: FAIL — {exc}") from exc
    try:
        config = (
            load_config(args.config) if args.config else named_matrix(args.matrix)
        )
    except ValueError as exc:
        raise SystemExit(f"repro ablate: {exc}") from exc
    if args.list_cells:
        cells = generate_cells(config)
        for cell in cells:
            print(f"{cell_run_id(config, cell)}  {cell.label()}")
        print(f"{len(cells)} cell(s) in matrix {config.name!r}")
        return {
            "experiment": "ablate_list",
            "matrix": config.name,
            "cells": [
                {"run_id": cell_run_id(config, cell), "label": cell.label()}
                for cell in cells
            ],
        }
    outcome = run_matrix(config, args.out_dir, echo=print)
    print((outcome.out_dir / "ABLATION.md").read_text())
    print(
        f"matrix {config.name!r}: {outcome.n_executed} executed, "
        f"{outcome.n_skipped} cached -> {outcome.out_dir}"
    )
    return {
        "experiment": "ablate",
        "matrix": config.name,
        "out_dir": str(outcome.out_dir),
        "n_executed": outcome.n_executed,
        "n_skipped": outcome.n_skipped,
        "run_ids": outcome.run_ids,
        "ranking": outcome.report["ranking"],
    }


_COMMANDS: dict[str, Callable[[argparse.Namespace], dict]] = {
    "table1": _cmd_table1,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "sweep": _cmd_sweep,
    "comm": _cmd_comm,
    "run": _cmd_run,
    "ablate": _cmd_ablate,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    enable_console_logging()
    payload = _COMMANDS[args.command](args)
    if args.out:
        path = save_json(args.out, payload)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
