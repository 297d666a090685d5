"""Grouped, fused evaluation on the flat parameter plane.

The Table-I metric (mean local test accuracy) asks every client to
evaluate the model that serves it on its own held-out split.  At most
``k`` *distinct* models serve the ``n`` clients — the global model
(FedAvg/FedProx: ``k = 1``), or one model per cluster (FedClust, IFCA,
CFL, PACFL: ``k`` = cluster count) — yet the reference protocol
(:func:`repro.fl.evaluation.mean_local_accuracy`) loads one state per
client and runs each client's split as its own serial batch loop.

This module collapses that n-fold loop to a k-fold one:

* **Deduplicated loads** — clients are grouped by the model that serves
  them (an explicit label vector, or object identity for the dict API),
  and each distinct model is loaded exactly once per evaluation, via
  :meth:`repro.nn.module.Module.load_flat` when it lives as a packed row.
* **Fused forward passes** — the test splits of all clients sharing a
  model are streamed through the scratch model in shared, full-size
  batches (batch boundaries ignore client boundaries), and per-client
  accuracy/loss are recovered afterwards by segment reductions
  (``np.add.reduceat``) over the client-offset index.
* **Packed input** — :func:`evaluate_packed` accepts the serving models
  as rows of a ``(k, n_params)`` matrix at the layout dtype, so
  clustered algorithms evaluate straight from the flat plane without
  materialising dicts.

Exactness contract
------------------
Per-client **accuracy is bit-identical** to the per-client reference
loop: correctness is an integer count of argmax matches, and the fused
pass feeds the model the same rows in the same order (only batch
*composition* changes, which the forward pass is row-independent under).
Per-client **loss** is the same quantity summed in a different order
(per-sample instead of per-batch-mean), so it matches to float64
round-off, not bitwise.  ``benchmarks/bench_eval.py`` records both the
speedup and the accuracy bit-identity flag per PR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.functional import log_softmax
from repro.nn.module import Module

__all__ = [
    "CohortEval",
    "fused_evaluate",
    "group_by_identity",
    "members_of_labels",
    "evaluate_grouped",
    "evaluate_packed",
    "mean_local_accuracy_grouped",
]


@dataclass
class CohortEval:
    """Per-client accuracy/loss vectors from one grouped evaluation.

    Arrays are indexed by client (or by dataset, for
    :func:`fused_evaluate`), in the order the caller supplied them.
    """

    accuracy: np.ndarray
    loss: np.ndarray
    n_samples: np.ndarray
    n_correct: np.ndarray

    @property
    def mean_accuracy(self) -> float:
        """Mean over clients — the Table-I statistic."""
        return float(self.accuracy.mean())


def _fused_batches(
    datasets: Sequence[ArrayDataset], batch_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield full-size ``(images, labels)`` batches across dataset bounds.

    Rows stream in dataset order; each batch is assembled from at most a
    few contiguous spans, so peak extra memory is one batch, not the
    concatenation of the whole group.
    """
    img_parts: list[np.ndarray] = []
    lab_parts: list[np.ndarray] = []
    filled = 0
    for dataset in datasets:
        start, size = 0, len(dataset)
        while start < size:
            take = min(batch_size - filled, size - start)
            img_parts.append(dataset.images[start : start + take])
            lab_parts.append(dataset.labels[start : start + take])
            filled += take
            start += take
            if filled == batch_size:
                yield (
                    img_parts[0] if len(img_parts) == 1 else np.concatenate(img_parts),
                    lab_parts[0] if len(lab_parts) == 1 else np.concatenate(lab_parts),
                )
                img_parts, lab_parts, filled = [], [], 0
    if filled:
        yield (
            img_parts[0] if len(img_parts) == 1 else np.concatenate(img_parts),
            lab_parts[0] if len(lab_parts) == 1 else np.concatenate(lab_parts),
        )


def fused_evaluate(
    model: Module, datasets: Sequence[ArrayDataset], batch_size: int = 512
) -> CohortEval:
    """Evaluate one model on several datasets in shared batches.

    The fused replacement for ``[evaluate_model(model, d) for d in
    datasets]``: rows from consecutive datasets share batches, and the
    per-dataset statistics are recovered by segment reductions over the
    dataset-offset index.  Runs in eval mode and restores the model's
    training flag, exactly like the reference loop.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    datasets = list(datasets)
    if not datasets:
        raise ValueError("need at least one dataset to evaluate")
    sizes = np.array([len(d) for d in datasets], dtype=np.int64)
    if (sizes == 0).any():
        raise ValueError("cannot evaluate on an empty dataset")
    was_training = model.training
    model.eval()
    total = int(sizes.sum())
    correct = np.empty(total, dtype=np.int64)
    nll = np.empty(total, dtype=np.float64)
    pos = 0
    for images, labels in _fused_batches(datasets, batch_size):
        logits = model.forward(images)
        log_probs = log_softmax(logits, axis=1)
        n = len(labels)
        nll[pos : pos + n] = -log_probs[np.arange(n), labels]
        correct[pos : pos + n] = logits.argmax(axis=1) == labels
        pos += n
    if was_training:
        model.train()
    offsets = np.zeros(len(sizes), dtype=np.intp)
    np.cumsum(sizes[:-1], out=offsets[1:])
    n_correct = np.add.reduceat(correct, offsets)
    return CohortEval(
        accuracy=n_correct / sizes,
        loss=np.add.reduceat(nll, offsets) / sizes,
        n_samples=sizes,
        n_correct=n_correct,
    )


def group_by_identity(
    states_per_client: Sequence[Mapping[str, np.ndarray]],
) -> tuple[list[Mapping[str, np.ndarray]], np.ndarray]:
    """Collapse a per-client state list to (distinct states, labels).

    Dedup is by *object identity* — exactly the sharing the algorithms
    produce (``[state] * m`` for a global model, ``cluster_states[g]``
    repeated per member for clustered methods).  Distinct-but-equal
    dicts simply stay in separate groups; correctness never depends on
    the grouping, only the amount of fusion does.
    """
    distinct: list[Mapping[str, np.ndarray]] = []
    index_of: dict[int, int] = {}
    labels = np.empty(len(states_per_client), dtype=np.int64)
    for i, state in enumerate(states_per_client):
        g = index_of.get(id(state))
        if g is None:
            g = len(distinct)
            index_of[id(state)] = g
            distinct.append(state)
        labels[i] = g
    return distinct, labels


def members_of_labels(labels: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Member-index arrays per group (possibly empty) with validation."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_groups):
        raise ValueError(f"labels reference groups outside [0, {n_groups})")
    return [np.flatnonzero(labels == g) for g in range(n_groups)]


def _evaluate_members(
    model: Module,
    load_group: Callable[[int], None],
    members_of: Sequence[np.ndarray],
    testsets: Sequence[ArrayDataset],
    batch_size: int,
) -> CohortEval:
    """Shared core: load each non-empty group once, fuse its members."""
    m = len(testsets)
    accuracy = np.zeros(m)
    loss = np.zeros(m)
    n_samples = np.zeros(m, dtype=np.int64)
    n_correct = np.zeros(m, dtype=np.int64)
    for g, members in enumerate(members_of):
        if members.size == 0:
            continue  # empty cluster: nothing to load, nothing to score
        load_group(g)
        part = fused_evaluate(
            model, [testsets[i] for i in members], batch_size=batch_size
        )
        accuracy[members] = part.accuracy
        loss[members] = part.loss
        n_samples[members] = part.n_samples
        n_correct[members] = part.n_correct
    return CohortEval(accuracy, loss, n_samples, n_correct)


def evaluate_grouped(
    model: Module,
    group_states: Sequence[Mapping[str, np.ndarray]],
    labels: np.ndarray,
    testsets: Sequence[ArrayDataset],
    batch_size: int = 512,
) -> tuple[float, np.ndarray]:
    """Table-I metric with explicit grouping over dict states.

    ``group_states[labels[i]]`` serves client ``i``; each distinct state
    is loaded once and its members' splits are evaluated fused.  Returns
    ``(mean, per_client_accuracy)`` like the reference loop.
    """
    labels = np.asarray(labels)
    if labels.shape != (len(testsets),):
        raise ValueError(
            f"labels shape {labels.shape} mismatches {len(testsets)} test sets"
        )
    members = members_of_labels(labels, len(group_states))
    result = _evaluate_members(
        model,
        lambda g: model.load_state_dict(dict(group_states[g])),
        members,
        testsets,
        batch_size,
    )
    return result.mean_accuracy, result.accuracy


def evaluate_packed(
    env, matrix: np.ndarray, labels: np.ndarray, batch_size: int | None = None
) -> tuple[float, np.ndarray]:
    """Table-I metric straight from packed cohort rows.

    ``matrix`` holds the serving models as ``(k, n_params)`` rows on the
    environment's layout (a single packed global vector may be
    passed as shape ``(n_params,)``); ``labels[i]`` names the row serving
    client ``i``.  Each referenced row is loaded once via
    :meth:`repro.nn.module.Module.load_flat` — no state dict is ever
    materialised.  Returns ``(mean, per_client_accuracy)``.
    """
    matrix = np.atleast_2d(np.asarray(matrix))
    if matrix.shape[1] != env.layout.n_params:
        raise ValueError(
            f"matrix has {matrix.shape[1]} columns, layout expects "
            f"{env.layout.n_params}"
        )
    testsets = [c.test for c in env.federation.clients]
    labels = np.asarray(labels)
    if labels.shape != (len(testsets),):
        raise ValueError(
            f"labels shape {labels.shape} mismatches {len(testsets)} clients"
        )
    members = members_of_labels(labels, matrix.shape[0])
    result = _evaluate_members(
        env.scratch_model,
        lambda g: env.scratch_model.load_flat(matrix[g], env.layout),
        members,
        testsets,
        batch_size if batch_size is not None else env.train_cfg.eval_batch_size,
    )
    return result.mean_accuracy, result.accuracy


def mean_local_accuracy_grouped(
    model: Module,
    states_per_client: Sequence[Mapping[str, np.ndarray]],
    testsets: Sequence[ArrayDataset],
    batch_size: int = 512,
) -> tuple[float, np.ndarray]:
    """Drop-in fused replacement for the per-client reference loop.

    Same signature and return as
    :func:`repro.fl.evaluation.mean_local_accuracy`; serving states are
    deduplicated by identity (see :func:`group_by_identity`) so the
    ``[state] * m`` idiom costs one load and ~``total/batch`` forwards.
    """
    if len(states_per_client) != len(testsets):
        raise ValueError(
            f"{len(states_per_client)} states but {len(testsets)} test sets"
        )
    distinct, labels = group_by_identity(states_per_client)
    return evaluate_grouped(model, distinct, labels, testsets, batch_size=batch_size)
