"""Run histories: per-round records and end-of-run summaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RoundRecord", "RunHistory"]


@dataclass
class RoundRecord:
    """Metrics for one communication round.

    Synchronous and async rounds run the same engine loop, and these
    fields describe its steps.  ``n_departed`` counts clients whose
    departure round is this one.

    ``aggregation_event`` says whether the round folded the server's
    update buffer into the model (``mean_train_loss`` is NaN when it did
    not); ``n_stale`` counts the folded updates that came from an
    earlier dispatch round (each discounted by ``decay ** age``), and
    ``n_buffered`` the updates still buffered afterwards.  Synchronous
    rounds fire an event every round unless they fail quorum, and
    buffer only banked stragglers (``staleness_decay > 0``); async
    rounds fire at ``buffer_size`` buffered updates and in the final
    round.

    ``evaluated`` marks whether this round actually ran the Table-I
    evaluation: off-cadence rounds (``eval_every > 1``) record
    ``mean_local_accuracy`` as NaN with ``evaluated=False``, so a
    history distinguishes "measured" from "not measured" instead of
    carrying the previous evaluation forward.

    ``n_quarantined`` counts updates the admission pipeline rejected
    this round, quorum retries included (non-finite or norm-exploded
    rows).  It, ``n_stale`` and ``n_departed`` count the round's
    ``quarantine``, ``stale`` and ``depart`` events in the engine's
    event log (``RoundEngine.events``), which also holds the client ids
    and the reason codes.  ``quorum_failed`` marks a synchronous round
    that stayed below the scenario's ``min_survivors`` quorum after all
    retries: no aggregation event, so the server kept its state instead
    of aggregating a cohort too small to trust.
    """

    round_index: int
    mean_train_loss: float
    mean_local_accuracy: float
    n_participants: int
    n_clusters: int
    uploaded_params: int
    downloaded_params: int
    wall_seconds: float = 0.0
    n_stale: int = 0
    n_departed: int = 0
    n_buffered: int = 0
    n_quarantined: int = 0
    aggregation_event: bool = True
    quorum_failed: bool = False
    evaluated: bool = True


@dataclass
class RunHistory:
    """Ordered round records plus run-level metadata.

    ``settings`` are the algorithm's constructor settings as JSON
    (``FLAlgorithm.settings()``); a checkpoint's identity carries them
    with the algorithm's name.
    """

    #: A checkpoint's part of the history (see ``repro.fl.checkpoint``).
    resumable = ("records",)

    algorithm: str
    dataset: str
    seed: int
    records: list[RoundRecord] = field(default_factory=list)
    settings: dict = field(default_factory=dict)

    def append(self, record: RoundRecord) -> None:
        if self.records and record.round_index <= self.records[-1].round_index:
            raise ValueError(
                f"round {record.round_index} not after {self.records[-1].round_index}"
            )
        self.records.append(record)

    @property
    def n_rounds(self) -> int:
        return len(self.records)

    @property
    def final_accuracy(self) -> float:
        """Last round's mean local accuracy (NaN for an empty history)."""
        return self.records[-1].mean_local_accuracy if self.records else float("nan")

    @property
    def best_accuracy(self) -> float:
        """Best *evaluated* accuracy (NaN if no round was evaluated).

        Off-cadence rounds carry NaN accuracies; a plain ``max()`` over
        them is poisoned by NaN ordering, so only evaluated records
        compete.
        """
        measured = [
            r.mean_local_accuracy
            for r in self.records
            if r.evaluated and not np.isnan(r.mean_local_accuracy)
        ]
        return max(measured) if measured else float("nan")

    def accuracy_curve(self) -> np.ndarray:
        """Mean local accuracy per round, shape ``(n_rounds,)``.

        NaN entries mark rounds the evaluation cadence skipped; plot
        them as gaps (or filter via the records' ``evaluated`` flags),
        do not interpolate them as flat segments.
        """
        return np.array([r.mean_local_accuracy for r in self.records])

    def loss_curve(self) -> np.ndarray:
        """Mean train loss per round."""
        return np.array([r.mean_train_loss for r in self.records])

    def comm_curve(self) -> np.ndarray:
        """Cumulative transferred parameters (up + down) per round."""
        return np.array(
            [r.uploaded_params + r.downloaded_params for r in self.records]
        )

    def stale_curve(self) -> np.ndarray:
        """Stale updates folded per round (all zeros without staleness)."""
        return np.array([r.n_stale for r in self.records], dtype=np.int64)

    def departure_curve(self) -> np.ndarray:
        """Departures per round (all zeros without departure events)."""
        return np.array([r.n_departed for r in self.records], dtype=np.int64)

    def quarantine_curve(self) -> np.ndarray:
        """Quarantined updates per round (all zeros without admission
        rejects)."""
        return np.array([r.n_quarantined for r in self.records], dtype=np.int64)

    def to_dict(self) -> dict:
        """JSON-ready summary (used by the experiment drivers)."""
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "seed": self.seed,
            "n_rounds": self.n_rounds,
            "final_accuracy": self.final_accuracy,
            "best_accuracy": self.best_accuracy,
            "accuracy_curve": self.accuracy_curve().tolist(),
            "loss_curve": self.loss_curve().tolist(),
            "comm_curve": self.comm_curve().tolist(),
            "n_stale_total": int(self.stale_curve().sum()),
            "n_departed_total": int(self.departure_curve().sum()),
            "n_quarantined_total": int(self.quarantine_curve().sum()),
            "quorum_failed_rounds": [
                r.round_index for r in self.records if r.quorum_failed
            ],
            "evaluated_rounds": [
                r.round_index for r in self.records if r.evaluated
            ],
            "n_aggregation_events": sum(
                1 for r in self.records if r.aggregation_event
            ),
        }
