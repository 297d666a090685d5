"""Automated ablation harness over the scenario × algorithm matrix.

The scenario middleware has ~9 knobs (failures, stragglers, stale
folding, budgets, traces, async, corruption, quorum, robust
aggregation) composing with 7 algorithms × 3 executors — nobody can
hold that matrix in their head.  This module turns "has many scenarios"
into "measures which scenarios matter", the question FedClust's own
Table I answers by sweeping one factor at a time:

* an :class:`AblationConfig` declares a **baseline** scenario, a set of
  named **knob patches** (one-knob-on/one-knob-off variants) and
  optional **pairwise** cells, over a list of algorithms × seeds;
* :func:`generate_cells` expands the declaration into the run matrix,
  and every cell gets a **stable content-hashed run ID**
  (:func:`cell_run_id`: seed + algorithm + scenario dict
  (:meth:`~repro.fl.rounds.ScenarioConfig.to_dict`) + preset → sha256
  prefix), so the same experiment always lands in the
  same record file regardless of process, ordering or machine;
* :func:`run_cell` runs one cell through the round engine and returns
  its **versioned JSON record** (Table-I accuracy, wall-clock, traffic
  by phase, quarantine/stale/quorum counters, the engine's
  :meth:`~repro.fl.rounds.RoundEngine.run_record` export, and the
  executor, store and checkpoint settings under ``execution``);
* :func:`run_matrix` runs every cell, writes one record per run ID and
  **skips already-completed run IDs on re-invocation** — a matrix is
  resumable at cell granularity, and long cells can additionally ride
  the existing checkpoint machinery (``checkpoint_every > 0`` gives
  each cell a per-run-ID :class:`~repro.fl.checkpoint.CheckpointConfig`
  with ``resume=True``);
* :func:`build_report` ranks each knob's effect on accuracy /
  wall-clock / traffic per algorithm (the importance report, emitted as
  ``ABLATION.json`` + ``ABLATION.md``);
* :func:`run_cells` runs a matrix afresh and keeps nothing on disk —
  how the paper's studies that train end to end (Table I, A3, C1 in
  :mod:`repro.experiments.table1`) run and record; ``repro run`` is
  one :func:`run_cell`.

Because the engine is deterministic and every middleware stream is
stateless in (seed, round, client), the matrix is exactly reproducible
— which is what makes it CI-gateable rather than a one-off notebook:
:func:`run_check` is the fast-lane smoke gate (run-ID stability,
skip-on-rerun, and the baseline cell reproducing the seeded FedAvg
parity pin bit-for-bit), and the nightly lane runs
:func:`nightly_matrix` and uploads the report artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.algorithms.registry import make_algorithm
from repro.data.federation import Federation, build_federation
from repro.fl.config import TrainConfig
from repro.fl.checkpoint import CheckpointConfig
from repro.fl.rounds import ScenarioConfig
from repro.fl.simulation import FederatedEnv
from repro.fl.store import StoreConfig
from repro.utils.serialization import load_json, save_json, to_jsonable

__all__ = [
    "BASELINE",
    "FEDAVG_PIN",
    "SCHEMA_VERSION",
    "AblationCheckError",
    "AblationCell",
    "AblationConfig",
    "CellResult",
    "MatrixOutcome",
    "build_report",
    "canonical_scenario",
    "cell_run_id",
    "check_matrix",
    "format_report",
    "generate_cells",
    "load_config",
    "named_matrix",
    "nightly_matrix",
    "run_cell",
    "run_cells",
    "run_check",
    "run_matrix",
]

#: Version stamp on every run record and report.  Bump whenever the
#: record layout (or anything feeding :func:`cell_run_id`) changes —
#: stale-schema records are re-executed, never silently reused.  Version
#: 2: the embedded engine record counts every dispatched task.  Version
#: 3: the record carries the tracker's traffic by phase.  Version 4: the
#: record carries its ``execution`` settings and the cell's algorithm
#: kwargs.
SCHEMA_VERSION = 4

#: The knob name reserved for the unmodified baseline cell.
BASELINE = "baseline"

#: The seeded FedAvg parity pin the check matrix's baseline cell must
#: reproduce bit-for-bit: (final accuracy, uploaded params, downloaded
#: params) captured from the pre-engine loops — the same values
#: ``tests/test_fl_rounds.py::TestTableOnePins`` gates.  If a legitimate
#: numerics change ever moves the pin there, it moves here too.
FEDAVG_PIN = {
    "final_accuracy": 0.43177546138072453,
    "uploaded_params": 7103472,
    "downloaded_params": 7103472,
}


class AblationCheckError(RuntimeError):
    """A ``--check`` gate failed (run-ID drift, re-execution, pin miss)."""


# ----------------------------------------------------------------------
# Scenario canonicalisation
# ----------------------------------------------------------------------
def canonical_scenario(knobs: Mapping) -> dict:
    """Validate a knob mapping and return its canonical dict.

    The knobs are the JSON form :meth:`ScenarioConfig.to_dict` writes
    (string client ids, nested configs as mappings, lists for pairs).
    Round-tripping through :class:`ScenarioConfig` rejects invalid
    compositions at matrix-definition time (e.g. async × stragglers),
    and its codec writes only non-default fields, so equal experiments
    hash equal: ``{"failure_rate": 0.0}`` and ``{}`` are one cell.
    """
    return ScenarioConfig(**knobs).to_dict()


# ----------------------------------------------------------------------
# The declarative matrix
# ----------------------------------------------------------------------
@dataclass
class AblationConfig:
    """One ablation matrix: a preset, a baseline, and the knobs to vary.

    Attributes
    ----------
    name:
        Matrix label, stamped on records and the report.
    federation:
        Keyword arguments for
        :func:`repro.data.federation.build_federation` (``dataset_name``,
        ``n_clients``, ``n_samples``, ``seed``, ``partition``, ...).
        Built once per invocation and shared by every cell — federations
        are read-only inputs.
    model_name / model_kwargs / train:
        The :class:`~repro.fl.simulation.FederatedEnv` model and
        :class:`~repro.fl.config.TrainConfig` keyword dicts.
    n_rounds / eval_every:
        Horizon and evaluation cadence of every cell.
    algorithms / algorithm_kwargs:
        Registry names to sweep and their per-name constructor kwargs.
        Each algorithm is built once at declaration, so an unknown name,
        a bad kwarg or a horizon below the algorithm's ``min_rounds``
        fails before any cell runs.
    seeds:
        Environment seeds; every (algorithm, knob) cell runs once per
        seed and the report averages over them.
    baseline:
        Scenario knob mapping of the reference cell (``{}`` = the
        paper-scale default scenario).
    knobs:
        ``name → scenario patch``: each variant runs ``baseline ∪
        patch``.  If the patch is already contained in the baseline the
        variant flips the knob **off** instead (one-knob-off for
        baselines that ship with the knob on).  A patch may touch
        several fields when one knob only makes sense as a bundle
        (``{"straggler_rate": 0.3, "staleness_decay": 0.5}`` — decay
        without stragglers is a no-op).
    pairs:
        Optional pairwise interaction cells: ``("a", "b")`` runs
        ``baseline ∪ knobs[a] ∪ knobs[b]`` under the knob name
        ``"a+b"``.
    executor:
        Executor kind for every cell.  Deliberately **not** part of the
        run ID: executor invariance is a gated engine property, so the
        experiment identity is the maths, not the backend.
    checkpoint_every:
        ``0`` (default) runs each cell in memory.  ``N > 0`` gives
        every cell a per-run-ID checkpoint (``<out>/ckpt/<run_id>``,
        cadence ``N``, ``resume=True``) in :func:`run_matrix`, so a
        killed long cell resumes mid-run on the next invocation.
    """

    name: str
    federation: dict
    model_name: str = "mlp"
    model_kwargs: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    n_rounds: int = 3
    eval_every: int = 1
    algorithms: tuple[str, ...] = ("fedavg",)
    algorithm_kwargs: dict = field(default_factory=dict)
    seeds: tuple[int, ...] = (0,)
    baseline: dict = field(default_factory=dict)
    knobs: dict = field(default_factory=dict)
    pairs: tuple[tuple[str, str], ...] = ()
    executor: str = "serial"
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        self.algorithms = tuple(self.algorithms)
        self.seeds = tuple(int(s) for s in self.seeds)
        self.pairs = tuple(tuple(pair) for pair in self.pairs)
        if not self.algorithms:
            raise ValueError("an ablation matrix needs at least one algorithm")
        if not self.seeds:
            raise ValueError("an ablation matrix needs at least one seed")
        if self.n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {self.n_rounds}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if BASELINE in self.knobs:
            raise ValueError(
                f"knob name {BASELINE!r} is reserved for the reference cell"
            )
        for name in self.knobs:
            if "+" in name:
                raise ValueError(
                    f"knob name {name!r} may not contain '+' "
                    "(reserved for pairwise cells)"
                )
        for pair in self.pairs:
            if len(pair) != 2:
                raise ValueError(f"pairs must be 2-tuples, got {pair!r}")
            missing = [k for k in pair if k not in self.knobs]
            if missing:
                raise ValueError(
                    f"pair {pair!r} references unknown knobs {missing}"
                )
        for name in self.algorithms:
            algorithm = make_algorithm(name, **self.algorithm_kwargs.get(name, {}))
            if self.n_rounds < algorithm.min_rounds:
                raise ValueError(
                    f"{name} needs n_rounds >= {algorithm.min_rounds}, "
                    f"got {self.n_rounds}"
                )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AblationConfig":
        """Build from a JSON document (the ``--config FILE`` path)."""
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown AblationConfig keys {unknown}; options: "
                f"{sorted(known)}"
            )
        return cls(**dict(payload))

    def to_dict(self) -> dict:
        """JSON-ready declaration (stamped into the report)."""
        return to_jsonable(
            {
                name: getattr(self, name)
                for name in self.__dataclass_fields__
            }
        )


@dataclass(frozen=True)
class AblationCell:
    """One run of the matrix: an algorithm × seed × scenario variant.

    ``scenario`` is the cell's full canonical scenario dict (baseline
    with the knob applied), not the patch — the cell is self-contained.
    """

    algorithm: str
    seed: int
    knob: str
    scenario: Mapping

    def label(self) -> str:
        return f"{self.algorithm}/{self.knob}/seed{self.seed}"


def generate_cells(config: AblationConfig) -> list[AblationCell]:
    """Expand the declaration into the ordered run matrix.

    Per (algorithm, seed): the baseline cell, one cell per knob
    (one-knob-on, or one-knob-off when the baseline already contains
    the patch), then the pairwise cells.  Order is deterministic —
    declaration order for knobs, so reports read the way the matrix was
    written.
    """
    base = canonical_scenario(config.baseline)
    variants: list[tuple[str, dict]] = [(BASELINE, base)]
    for name, patch in config.knobs.items():
        merged = canonical_scenario({**config.baseline, **patch})
        if merged == base:
            # One-knob-off: the baseline already has this knob on, so
            # the informative variant is the baseline without it.
            merged = canonical_scenario(
                {
                    key: value
                    for key, value in config.baseline.items()
                    if key not in patch
                }
            )
        variants.append((name, merged))
    for a, b in config.pairs:
        merged = canonical_scenario(
            {**config.baseline, **config.knobs[a], **config.knobs[b]}
        )
        variants.append((f"{a}+{b}", merged))
    return [
        AblationCell(algorithm=alg, seed=seed, knob=knob, scenario=scenario)
        for alg in config.algorithms
        for seed in config.seeds
        for knob, scenario in variants
    ]


def cell_run_id(config: AblationConfig, cell: AblationCell) -> str:
    """Stable content-hashed run ID for one cell.

    sha256 over the canonical JSON of everything that determines the
    numbers: the preset (federation + model + training + horizon), the
    algorithm and its kwargs, the seed, and the cell's canonical
    scenario dict.  Executor kind, output paths, checkpoint cadence and
    the matrix *name* are deliberately excluded — they change where or
    how the run executes, never what it computes, so records stay
    shareable across matrices and backends.
    """
    payload = to_jsonable(
        {
            "schema": SCHEMA_VERSION,
            "federation": config.federation,
            "model_name": config.model_name,
            "model_kwargs": config.model_kwargs,
            "train": config.train,
            "n_rounds": config.n_rounds,
            "eval_every": config.eval_every,
            "algorithm": cell.algorithm,
            "algorithm_kwargs": config.algorithm_kwargs.get(
                cell.algorithm, {}
            ),
            "seed": cell.seed,
            "scenario": cell.scenario,
        }
    )
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    """One cell's record plus whether this invocation executed it."""

    cell: AblationCell
    run_id: str
    record: dict
    executed: bool


@dataclass
class MatrixOutcome:
    """Everything one :func:`run_matrix` invocation produced."""

    config: AblationConfig
    out_dir: Path
    results: list[CellResult]
    report: dict

    @property
    def n_executed(self) -> int:
        return sum(1 for r in self.results if r.executed)

    @property
    def n_skipped(self) -> int:
        return len(self.results) - self.n_executed

    @property
    def run_ids(self) -> list[str]:
        return [r.run_id for r in self.results]

    def record_for(
        self, algorithm: str, knob: str, seed: int | None = None
    ) -> dict:
        """The record of one cell (first seed unless given)."""
        for result in self.results:
            cell = result.cell
            if cell.algorithm == algorithm and cell.knob == knob:
                if seed is None or cell.seed == seed:
                    return result.record
        raise KeyError(f"no cell {algorithm}/{knob} in this outcome")


def run_cell(
    config: AblationConfig,
    cell: AblationCell,
    federation: Federation | None = None,
    store: StoreConfig | None = None,
    checkpoint: CheckpointConfig | None = None,
) -> dict:
    """Run one cell through the engine and return its versioned record.

    ``store`` (default dense) and ``checkpoint`` (default none), like
    ``config.executor``, decide how the cell runs, never what it
    computes: the record lists them under ``execution``, not in the ID.
    """
    store = store or StoreConfig()
    if federation is None:
        federation = build_federation(**config.federation)
    kwargs = config.algorithm_kwargs.get(cell.algorithm, {})
    scenario = ScenarioConfig(**cell.scenario, checkpoint=checkpoint)
    t0 = time.perf_counter()
    with FederatedEnv(
        federation,
        model_name=config.model_name,
        model_kwargs=dict(config.model_kwargs),
        train_cfg=TrainConfig(**config.train),
        seed=cell.seed,
        executor=config.executor,
        store=store,
    ) as env:
        result = make_algorithm(cell.algorithm, **kwargs).run(
            env,
            n_rounds=config.n_rounds,
            eval_every=config.eval_every,
            scenario=scenario,
        )
    wall_seconds = time.perf_counter() - t0
    traffic = result.comm["total"]
    history = result.history
    round_wall = float(sum(r.wall_seconds for r in history.records))
    summary = history.to_dict()
    metrics = {
        "final_accuracy": float(result.final_accuracy),
        "accuracy_std": float(result.accuracy_std),
        "best_accuracy": float(history.best_accuracy),
        "n_clusters": int(result.n_clusters),
        "wall_seconds": wall_seconds,
        "round_wall_seconds": round_wall,
        "uploaded_params": int(traffic["uploaded"]),
        "downloaded_params": int(traffic["downloaded"]),
        "traffic_params": int(traffic["uploaded"]) + int(traffic["downloaded"]),
        "n_stale_total": summary["n_stale_total"],
        "n_quarantined_total": summary["n_quarantined_total"],
        "n_quorum_failed": len(summary["quorum_failed_rounds"]),
        "n_aggregation_events": summary["n_aggregation_events"],
    }
    return to_jsonable(
        {
            "schema": SCHEMA_VERSION,
            "run_id": cell_run_id(config, cell),
            "matrix": config.name,
            "algorithm": cell.algorithm,
            "seed": cell.seed,
            "knob": cell.knob,
            "scenario": cell.scenario,
            "preset": {
                "federation": config.federation,
                "model_name": config.model_name,
                "model_kwargs": config.model_kwargs,
                "train": config.train,
                "n_rounds": config.n_rounds,
                "eval_every": config.eval_every,
                "algorithm_kwargs": {cell.algorithm: kwargs},
            },
            "execution": {
                "executor": config.executor,
                "store": store.describe(),
                "checkpoint": checkpoint,
            },
            "metrics": metrics,
            # Per phase ("clustering", "training") plus the "total".
            "traffic": result.comm,
            "engine": result.extras.get("engine_record"),
            "history": summary,
        }
    )


def run_matrix(
    config: AblationConfig,
    out_dir: str | Path,
    echo: Callable[[str], None] | None = None,
) -> MatrixOutcome:
    """Execute the matrix, skipping run IDs already on disk.

    One JSON record per run ID lands in ``<out_dir>/runs/``; a record
    with the current schema and a matching run ID is trusted and its
    cell is **not** re-executed (a stale-schema record is re-run in
    place).  After the sweep the importance report is rebuilt from all
    records and written to ``<out_dir>/ABLATION.json`` and
    ``ABLATION.md`` — re-invoking on a complete directory is therefore
    a cheap report refresh.
    """
    say = echo or (lambda message: None)
    out = Path(out_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    cells = generate_cells(config)
    federation = None
    results: list[CellResult] = []
    for index, cell in enumerate(cells, 1):
        run_id = cell_run_id(config, cell)
        path = runs_dir / f"{run_id}.json"
        if path.exists():
            record = load_json(path)
            if (
                record.get("schema") == SCHEMA_VERSION
                and record.get("run_id") == run_id
            ):
                say(
                    f"[{index}/{len(cells)}] {cell.label()} — cached "
                    f"({run_id})"
                )
                results.append(CellResult(cell, run_id, record, False))
                continue
        if federation is None:
            # Built lazily and once: a fully-cached re-invocation never
            # pays for dataset generation.
            federation = build_federation(**config.federation)
        say(f"[{index}/{len(cells)}] {cell.label()} — running ({run_id})")
        checkpoint = None
        if config.checkpoint_every > 0:
            checkpoint = CheckpointConfig(
                out / "ckpt" / run_id, every=config.checkpoint_every, resume=True
            )
        record = run_cell(config, cell, federation, checkpoint=checkpoint)
        save_json(path, record)
        results.append(CellResult(cell, run_id, record, True))
    report = build_report(config, [r.record for r in results])
    save_json(out / "ABLATION.json", report)
    (out / "ABLATION.md").write_text(format_report(report))
    return MatrixOutcome(config=config, out_dir=out, results=results, report=report)


def run_cells(
    config: AblationConfig, echo: Callable[[str], None] | None = None
) -> MatrixOutcome:
    """Execute every cell of ``config`` afresh, keeping nothing on disk.

    :func:`run_matrix` in a temporary directory (removed on return, so
    the outcome's ``out_dir`` no longer exists): its records and report
    are the result.
    """
    with tempfile.TemporaryDirectory(prefix="repro-cells-") as tmp:
        return run_matrix(config, tmp, echo=echo)


# ----------------------------------------------------------------------
# The importance report
# ----------------------------------------------------------------------
#: record-metric key → report label for the three ranked axes.
_REPORT_METRICS = (
    ("final_accuracy", "accuracy"),
    ("round_wall_seconds", "wall_seconds"),
    ("traffic_params", "traffic_params"),
)


def _mean(values: Sequence[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else float("nan")


def _rank_value(value: float) -> float:
    return 0.0 if math.isnan(value) else abs(value)


def build_report(config: AblationConfig, records: Sequence[dict]) -> dict:
    """Rank each knob's effect on accuracy / wall-clock / traffic.

    Per (algorithm, knob) the metrics average over seeds; each knob's
    per-algorithm deltas are taken against that algorithm's baseline
    cell, and the cross-algorithm mean |Δ| is the knob's importance on
    each axis.  Rankings sort descending; NaN deltas (a knob whose cell
    never evaluated) rank last.
    """
    grouped: dict[tuple[str, str], list[dict]] = {}
    knob_order: list[str] = []
    for record in records:
        key = (record["algorithm"], record["knob"])
        grouped.setdefault(key, []).append(record)
        if record["knob"] != BASELINE and record["knob"] not in knob_order:
            knob_order.append(record["knob"])

    def cell_metrics(algorithm: str, knob: str) -> dict[str, float] | None:
        cell_records = grouped.get((algorithm, knob))
        if not cell_records:
            return None
        return {
            metric: _mean(
                [float(r["metrics"][metric]) for r in cell_records]
            )
            for metric, _ in _REPORT_METRICS
        }

    algorithms = [a for a in config.algorithms if (a, BASELINE) in grouped]
    baseline = {alg: cell_metrics(alg, BASELINE) for alg in algorithms}
    knobs: dict[str, dict] = {}
    for knob in knob_order:
        per_algorithm: dict[str, dict] = {}
        for alg in algorithms:
            metrics = cell_metrics(alg, knob)
            if metrics is None:
                continue
            base = baseline[alg]
            entry = {}
            for metric, label in _REPORT_METRICS:
                entry[label] = metrics[metric]
                entry[f"delta_{label}"] = metrics[metric] - base[metric]
            per_algorithm[alg] = entry
        importance = {
            label: _mean(
                [
                    abs(entry[f"delta_{label}"])
                    for entry in per_algorithm.values()
                ]
            )
            for _, label in _REPORT_METRICS
        }
        knobs[knob] = {
            "scenario_patch": to_jsonable(config.knobs.get(knob)),
            "per_algorithm": per_algorithm,
            "importance": importance,
        }
    ranking = {
        label: sorted(
            knobs,
            key=lambda knob: _rank_value(knobs[knob]["importance"][label]),
            reverse=True,
        )
        for _, label in _REPORT_METRICS
    }
    return to_jsonable(
        {
            "schema": SCHEMA_VERSION,
            "matrix": config.name,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "config": config.to_dict(),
            "n_records": len(records),
            "algorithms": algorithms,
            "baseline": {
                alg: {
                    label: baseline[alg][metric]
                    for metric, label in _REPORT_METRICS
                }
                for alg in algorithms
            },
            "knobs": knobs,
            "ranking": ranking,
        }
    )


def format_report(report: Mapping) -> str:
    """The importance report as markdown (``ABLATION.md``)."""
    lines = [
        f"# Ablation report — {report['matrix']}",
        "",
        f"Generated {report['generated_at']} from {report['n_records']} "
        f"run record(s); algorithms: {', '.join(report['algorithms'])}.",
        "",
        "## Knob importance (mean |Δ| vs baseline, across algorithms)",
        "",
        "| rank | knob | Δ accuracy | Δ wall (s) | Δ traffic (params) |",
        "|---:|---|---:|---:|---:|",
    ]
    knobs = report["knobs"]
    for rank, knob in enumerate(report["ranking"]["accuracy"], 1):
        importance = knobs[knob]["importance"]
        lines.append(
            f"| {rank} | {knob} | {importance['accuracy']:+.4f} "
            f"| {importance['wall_seconds']:.3f} "
            f"| {importance['traffic_params']:,.0f} |"
        )
    for alg in report["algorithms"]:
        base = report["baseline"][alg]
        lines += [
            "",
            f"## {alg}",
            "",
            f"Baseline: accuracy {base['accuracy']:.4f}, "
            f"wall {base['wall_seconds']:.3f} s, "
            f"traffic {base['traffic_params']:,.0f} params.",
            "",
            "| knob | accuracy | Δ accuracy | Δ wall (s) | Δ traffic |",
            "|---|---:|---:|---:|---:|",
        ]
        for knob in report["ranking"]["accuracy"]:
            entry = knobs[knob]["per_algorithm"].get(alg)
            if entry is None:
                continue
            lines.append(
                f"| {knob} | {entry['accuracy']:.4f} "
                f"| {entry['delta_accuracy']:+.4f} "
                f"| {entry['delta_wall_seconds']:+.3f} "
                f"| {entry['delta_traffic_params']:+,.0f} |"
            )
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Built-in matrices
# ----------------------------------------------------------------------
#: The seeded preset every parity pin in ``tests/test_fl_rounds.py``
#: runs on; the check matrix's baseline cell must land on it exactly.
_PIN_PRESET = dict(
    federation=dict(
        dataset_name="cifar10",
        n_clients=8,
        n_samples=800,
        seed=5,
        partition="label_cluster",
    ),
    model_name="mlp",
    model_kwargs={"hidden": [96]},
    train=dict(local_epochs=2, batch_size=32, lr=0.05, momentum=0.9),
    n_rounds=3,
    eval_every=1,
    seeds=(2,),
)


def check_matrix() -> AblationConfig:
    """The fast-lane smoke matrix: 6 FedAvg cells on the pin preset."""
    return AblationConfig(
        name="check",
        algorithms=("fedavg",),
        baseline={},
        knobs={
            "participation": {"client_fraction": 0.5},
            "failures": {"failure_rate": 0.3},
            "stale": {"straggler_rate": 0.3, "staleness_decay": 0.5},
            "budget": {"compute_budget": [1, 3]},
            "robust_agg": {"robust_agg": "trimmed_mean"},
        },
        **_PIN_PRESET,
    )


def nightly_matrix() -> AblationConfig:
    """The nightly regression surface: every middleware knob × 5
    algorithms (plus two pairwise cells) on the seeded pin preset.

    Cells stay seconds-cheap (8 clients, 6 rounds, the 96-hidden MLP)
    so the full matrix finishes inside the nightly lane's budget while
    still exercising all nine scenario knobs against a clustered, a
    global, a proximal, a probing and a no-collaboration method.
    """
    preset = dict(_PIN_PRESET)
    preset["n_rounds"] = 6
    return AblationConfig(
        name="nightly",
        algorithms=("fedavg", "fedprox", "ifca", "cfl", "local_only"),
        algorithm_kwargs={
            "fedprox": {"mu": 0.1},
            "ifca": {"n_clusters": 2},
            "cfl": {"warmup_rounds": 1},
        },
        baseline={},
        knobs={
            "participation": {"client_fraction": 0.5},
            "failures": {"failure_rate": 0.3},
            "stragglers": {"straggler_rate": 0.3},
            "stale": {"straggler_rate": 0.3, "staleness_decay": 0.5},
            "budget": {"compute_budget": [1, 3]},
            "trace": {"trace": {"0": [1, 2, 3], "1": [2, 4, 6]}},
            "async": {
                "async_config": {
                    "buffer_size": 4,
                    "max_concurrency": 6,
                    "duration_range": [1, 3],
                }
            },
            "corruption": {"corruption": {"rate": 0.2, "scale": 10.0}},
            "quorum": {
                "failure_rate": 0.3,
                "min_survivors": 6,
                "max_retries": 2,
            },
            "robust_agg": {"robust_agg": "trimmed_mean"},
        },
        pairs=(("failures", "budget"), ("stale", "budget")),
        **preset,
    )


_MATRICES = {"check": check_matrix, "nightly": nightly_matrix}


def named_matrix(name: str) -> AblationConfig:
    """A built-in matrix by name (``check`` or ``nightly``)."""
    if name not in _MATRICES:
        raise ValueError(
            f"unknown matrix {name!r}; options: {sorted(_MATRICES)}"
        )
    return _MATRICES[name]()


def load_config(path: str | Path) -> AblationConfig:
    """An :class:`AblationConfig` from a JSON file."""
    return AblationConfig.from_dict(load_json(path))


# ----------------------------------------------------------------------
# The CI smoke gate
# ----------------------------------------------------------------------
def run_check(
    out_dir: str | Path | None = None,
    echo: Callable[[str], None] = print,
) -> dict:
    """The fast-lane ``repro ablate --check`` protocol.

    Three gates on the tiny check matrix (6 FedAvg cells):

    1. **run-ID stability** — two independent matrix expansions produce
       identical run IDs, and the second :func:`run_matrix` invocation
       sees exactly the IDs the first one wrote;
    2. **skip-on-rerun** — the second invocation executes zero cells
       (every record is served from disk);
    3. **pin reproduction** — the baseline cell's accuracy and traffic
       equal the seeded FedAvg parity pin bit-for-bit
       (:data:`FEDAVG_PIN`), so the harness measures exactly what the
       tier-1 pin suite gates.

    Raises :class:`AblationCheckError` on any gate; returns a summary
    payload on success.
    """
    config = check_matrix()
    cells = generate_cells(config)
    ids_a = [cell_run_id(config, cell) for cell in cells]
    ids_b = [cell_run_id(config, cell) for cell in generate_cells(config)]
    if ids_a != ids_b:
        raise AblationCheckError(
            "run-ID instability: two expansions of the same matrix "
            f"disagree ({ids_a} vs {ids_b})"
        )
    if len(set(ids_a)) != len(ids_a):
        raise AblationCheckError(
            f"run-ID collision inside the check matrix: {ids_a}"
        )

    cleanup = None
    if out_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-ablate-check-")
        out_dir, cleanup = tmp.name, tmp
    try:
        echo(f"ablate --check: {len(cells)} cells -> {out_dir}")
        first = run_matrix(config, out_dir, echo=echo)
        second = run_matrix(config, out_dir, echo=echo)
        if second.n_executed != 0:
            raise AblationCheckError(
                "skip-on-rerun failed: second invocation executed "
                f"{second.n_executed} cell(s), expected 0"
            )
        if second.run_ids != first.run_ids or first.run_ids != ids_a:
            raise AblationCheckError(
                "run-ID drift between invocations: "
                f"{first.run_ids} vs {second.run_ids}"
            )
        record = second.record_for("fedavg", BASELINE)
        metrics = record["metrics"]
        for key, want in FEDAVG_PIN.items():
            found = metrics[key]
            if found != want:
                raise AblationCheckError(
                    f"baseline cell broke the seeded fedavg pin: "
                    f"{key} = {found!r}, pin holds {want!r}"
                )
        missing = [
            knob
            for knob in config.knobs
            if knob not in second.report["ranking"]["accuracy"]
        ]
        if missing:
            raise AblationCheckError(
                f"importance report is missing knobs {missing}"
            )
        echo(
            "ablate --check: PASS — run IDs stable, rerun executed 0 "
            "cells, baseline reproduces the seeded fedavg pin "
            f"(accuracy {metrics['final_accuracy']:.6f}, "
            f"{metrics['uploaded_params']} params uploaded)"
        )
        return {
            "matrix": config.name,
            "n_cells": len(cells),
            "run_ids": first.run_ids,
            "first_executed": first.n_executed,
            "second_executed": second.n_executed,
            "pin": dict(FEDAVG_PIN),
        }
    finally:
        if cleanup is not None:
            cleanup.cleanup()
